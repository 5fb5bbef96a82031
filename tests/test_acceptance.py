"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line (visible
with ``pytest -s`` or on failure) and also enforces the stated runtime
budget.  Run the whole file with::

    pytest tests/test_acceptance.py -s
"""

import math
import time

import numpy as np

from sturmdisc.asympt import build_expansion, decay_order_fit, s_series
from sturmdisc.charfn import char_delta
from sturmdisc.entire import (
    ProductModel,
    check_counting_bound,
    fit_constant,
    growth_fit,
    number_ray_check,
    ray_points,
    truncated_product,
)
from sturmdisc.expr import PotentialExpr
from sturmdisc.norming import check_identity
from sturmdisc.ode import ScaledVal, solve_chain, wronskian_check
from sturmdisc.problem import Problem
from sturmdisc.spectrum import ZeroSequence, find_eigenvalues
from sturmdisc.uniq import collapse_consistency, bracket_decay_probe, modify_below

PI = math.pi


def free(**kw):
    return Problem(q=PotentialExpr.parse("0"), **kw)


def _verdict(num, name, checks, t0, budget):
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < budget
    print(
        "[criterion %2d] %s: %s (%.1fs, budget %.0fs)"
        % (num, name, "PASS" if ok else "FAIL", elapsed, budget)
    )
    assert ok, "criterion %d failed: checks=%s elapsed=%.1fs" % (
        num,
        checks,
        elapsed,
    )


def test_criterion_01_classical_spectra():
    t0 = time.time()
    neu = sorted(r.lam.real for r in find_eigenvalues(free(), 370.0))
    dir_ = sorted(
        r.lam.real for r in find_eigenvalues(free(H=None), 385.0)
    )
    checks = [
        len(neu) >= 20,
        len(dir_) >= 20,
        max(abs(neu[n] - n * n) for n in range(20)) < 1e-8,
        max(abs(dir_[n] - (n + 0.5) ** 2) for n in range(20)) < 1e-8,
    ]
    _verdict(1, "classical spectra", checks, t0, 10.0)


def test_criterion_02_jump_closed_form():
    t0 = time.time()
    p = free(beta=2.0, d=PI / 3)
    b1, b2 = p.b1, p.b2

    def g(s):
        return -b1 * math.sin(s * PI) + b2 * math.sin(s * (2 * p.d - PI))

    ss = np.linspace(1e-6, 16.5, 4000)
    vals = np.array([g(s) for s in ss])
    roots = []
    for i in range(len(ss) - 1):
        if vals[i] * vals[i + 1] < 0:
            a, b = ss[i], ss[i + 1]
            for _ in range(80):
                mid = 0.5 * (a + b)
                if g(a) * g(mid) <= 0:
                    b = mid
                else:
                    a = mid
            roots.append(0.5 * (a + b))
    oracle = sorted([0.0] + [r * r for r in roots])[:16]
    lams = sorted(r.lam.real for r in find_eigenvalues(p, oracle[15] + 2.0))
    checks = [
        len(lams) >= 16,
        max(abs(l - o) for l, o in zip(lams[:16], oracle)) < 1e-8,
    ]
    _verdict(2, "jump closed form", checks, t0, 20.0)


def test_criterion_03_jump_and_wronskian():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst_jump = 0.0
    worst_w = 0.0
    for _ in range(50):
        lam = complex(rng.uniform(1.0, 60.0), rng.uniform(-8.0, 8.0))
        p = Problem(
            q=PotentialExpr.parse("%.4f * cos(x)" % rng.uniform(-2.0, 2.0)),
            beta=rng.uniform(0.4, 3.0),
            gamma=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            d=1.3,
        )
        # d listed twice: the states before and after the matching
        (left, right), _ = solve_chain(p, lam, [p.d, p.d])
        ref = max(1.0, abs(left[0, 0]), abs(left[0, 1]))
        worst_jump = max(
            worst_jump,
            abs(right[0, 0] - p.beta * left[0, 0]) / ref,
            abs(right[0, 1] - left[0, 1] / p.beta - p.gamma * left[0, 0]) / ref,
        )
        worst_w = max(worst_w, wronskian_check(p, lam, n_samples=5))
    checks = [worst_jump < 1e-12, worst_w < 1e-9]
    _verdict(3, "jump and bracket invariants", checks, t0, 30.0)


def test_criterion_04_derivative_identity():
    t0 = time.time()
    # analytic case: simple Neumann eigenvalues n^2, first derivative of the
    # characteristic function equals -(pi/2)(-1)^n = -kappa_n alpha_n
    p = free()
    worst_closed = 0.0
    for n in range(1, 6):
        d1 = char_delta(p, float(n * n), nu_max=1).ddelta[1].value
        worst_closed = max(worst_closed, abs(d1 + (PI / 2) * (-1.0) ** n))
    worst_analytic = 0.0
    for rec in find_eigenvalues(p, 30.0):
        worst_analytic = max(worst_analytic, max(check_identity(p, rec)))
    # complex potential with jump data
    pc = Problem(
        q=PotentialExpr.parse("sin(x) + 0.2i*cos(2*x)"),
        h=0.3,
        H=0.1,
        beta=1.5,
        gamma=0.2j,
    )
    recs = sorted(
        find_eigenvalues(pc, 62.0, im_halfwidth=12.0), key=lambda r: abs(r.lam)
    )
    worst_complex = max(max(check_identity(pc, r)) for r in recs[:8])
    checks = [
        worst_closed < 1e-9,
        worst_analytic < 1e-9,
        len(recs) >= 8,
        worst_complex < 1e-6,
    ]
    _verdict(4, "derivative identity", checks, t0, 60.0)


def test_criterion_05_ray_growth():
    t0 = time.time()
    p = free()
    ys = ray_points(1e2, 1e6, 3)
    logs = np.empty(ys.size)
    logs_inf = np.empty(ys.size)
    for k, y in enumerate(ys):
        s = char_delta(p, 1j * y)
        logs[k] = s.delta.log_abs
        logs_inf[k] = s.delta_inf.log_abs
    fit = growth_fit(ys, logs)
    fit_inf = growth_fit(ys, logs_inf)
    checks = [
        abs(fit.c - PI) / PI < 0.02,
        abs(fit.p - 0.5) < 0.05,
        abs(fit_inf.c - PI) / PI < 0.02,
        abs(fit_inf.p) < 0.05,
    ]
    _verdict(5, "ray growth exponents", checks, t0, 60.0)


def test_criterion_06_hadamard_product():
    t0 = time.time()
    p = Problem(q=PotentialExpr.parse("1"))
    n = np.arange(500, dtype=float)
    seq = ZeroSequence(n**2 + 1.0, np.ones(500, dtype=int), origin="analytic")
    const = fit_constant(p, seq, lam=0.0)
    c_err = abs(const - math.sinh(PI)) / math.sinh(PI)
    # reconstruction off the zero set: a grid avoiding the eigenvalues
    worst = 0.0
    for lam in np.linspace(-4.9, 4.9, 21):
        got = truncated_product(seq, complex(lam), const).value
        want = char_delta(p, complex(lam)).delta.value
        worst = max(worst, abs(got - want) / abs(want))
    checks = [c_err < 1e-3, worst < 0.02]
    _verdict(6, "Hadamard product", checks, t0, 30.0)


def test_criterion_07_expansion_recursion():
    t0 = time.time()
    table = build_expansion("1", m=0)
    exact = all(
        abs(table.f_at(1, 1, x) + x) < 1e-13
        and abs(table.f_at(1, 2, x) - 2.0) < 1e-13
        for x in (0.0, 0.7, 1.9, PI)
    )
    lam = 9.0 + 2.0j
    s = complex(np.sqrt(lam))
    xs = np.linspace(0.0, PI, 4001)
    S, _ = s_series("1", xs, lam, 1)
    closed = np.sin(s * xs) / (2 * lam**1.5) - xs * np.cos(s * xs) / (2 * lam)
    s1_ok = float(np.max(np.abs(S[1] - closed))) < 1e-8
    # convergence to the integrated solution at lam = 4: the factorial decay
    # makes the average per-term residual shrink comfortably exceed 5x
    S4, _ = s_series("1", xs, 4.0, 8)
    p = Problem(q=PotentialExpr.parse("1"))
    pts = xs[::400]
    states, logs = solve_chain(p, 4.0, pts, x_from=0.0, init=(0.0, 1.0))
    ytrue = np.array([ScaledVal(z[0, 0], log).value for z, log in zip(states, logs)])
    res = []
    for pmax in range(1, 9):
        part = sum(S4[j] for j in range(pmax + 1))[::400]
        res.append(np.max(np.abs(part - ytrue)))
    ratios = np.array(res[:-1]) / np.array(res[1:])
    shrink_ok = math.exp(float(np.mean(np.log(ratios)))) >= 5.0
    checks = [exact, s1_ok, shrink_ok]
    _verdict(7, "expansion recursion", checks, t0, 30.0)


def test_criterion_08_decay_orders():
    t0 = time.time()
    pa = free()
    ys = np.geomspace(1e2, 1e6, 7)
    checks = []
    for m, src in ((0, "x - 3"), (1, "(x - 3)^2"), (2, "(x - 3)^3")):
        pb = Problem(q=PotentialExpr.parse(src))
        fit = decay_order_fit(pa, pb, 0.5, 3.0, (2, 2), ys, m_claimed=m)
        checks.append(fit.slope <= -(m + 2.7))
    # merely integrable difference: one power of decay is still guaranteed
    step = decay_order_fit(
        pa, Problem(q=PotentialExpr.parse("1")), 0.5, 3.0, (2, 2), ys
    )
    checks.append(step.slope <= -1.7)
    _verdict(8, "bracket decay orders", checks, t0, 120.0)


def test_criterion_09_bracket_ray_decay():
    t0 = time.time()
    base = Problem(
        q=PotentialExpr.parse("sin(x)"), h=0.3, H=0.1, beta=1.5, gamma=0.2j
    )
    b = 2.0  # to the right of the discontinuity at pi/2
    other = modify_below(base, b, m=0)
    probe = bracket_decay_probe(base, other, b, m=0)
    checks = [probe.threshold == -0.35, probe.slope <= -0.35]
    _verdict(9, "bracket ray decay", checks, t0, 120.0)


def test_criterion_10_collapsed_evaluations():
    t0 = time.time()
    base = Problem(
        q=PotentialExpr.parse("sin(x)"), h=0.3, H=0.1, beta=1.5, gamma=0.2j
    )
    checks = []
    for b in (2.2, PI / 2, 1.0):  # right of, at, and left of the jump
        other = modify_below(base, b, m=0, weight=0.4, dh=0.2)
        rep = collapse_consistency(base, other, b)
        checks.append(rep.lams.size == 20 and rep.max_rel < 1e-8)
    _verdict(10, "collapsed F evaluations", checks, t0, 60.0)


def test_criterion_11_counting_machinery():
    t0 = time.time()
    seq = ZeroSequence.from_records(find_eigenvalues(free(), 100.0))
    self_bound = check_counting_bound(seq, seq, None, 1, 0, 0)
    n = np.arange(1, 20001, dtype=float)
    robin = ZeroSequence(n**2, np.ones_like(n), origin="analytic")
    dirich = ZeroSequence((n - 0.5) ** 2, np.ones_like(n), origin="analytic")
    merged = robin.merged(dirich)
    ray = number_ray_check(
        ProductModel(merged, constant=1.0), 1, 1, 0, ys=np.geomspace(1e3, 1e6, 13)
    )
    checks = [
        self_bound.margin == 0.0,
        self_bound.satisfied,
        ray.min_value > 0.0,
    ]
    _verdict(11, "counting-bound machinery", checks, t0, 30.0)
