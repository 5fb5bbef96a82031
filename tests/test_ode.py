"""Tests for the scaled chain integrator."""

import cmath
import importlib
import inspect
import math
import pkgutil

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_charfn import consistency_setups, free_jump_scaled

import sturmdisc
from sturmdisc import ode
from sturmdisc.charfn import _deltas, char_delta, delta_consistency, delta_many, f_function
from sturmdisc.expr import Const, Piece, PotentialExpr
from sturmdisc.norming import compute_norming
from sturmdisc.ode import (
    BRACKET_TOL,
    TOL,
    ScaledVal,
    growth_rate,
    jump_backward,
    jump_forward,
    pair_integrals,
    solve_chain,
    solve_many,
    wronskian_check,
)
from sturmdisc.problem import Problem
from sturmdisc.spectrum import EigenRecord
from sturmdisc.uniq import collapse_consistency, modify_below

PI = math.pi


def free_problem(**kw):
    return Problem(q=PotentialExpr.parse("0"), **kw)


class TestScaledVal:
    def test_value_recombines(self):
        v = ScaledVal(2.0 + 1.0j, 3.0)
        assert v.value == pytest.approx((2 + 1j) * math.exp(3.0), rel=1e-15)

    def test_value_folds_magnitude_into_scale(self):
        # exp(715) alone overflows a float, 1e-5 * exp(715) does not
        v = ScaledVal(-1e-5j, 715.0)
        want = -1e-5j * math.exp(700.0) * math.exp(15.0)
        assert v.value == pytest.approx(want, rel=1e-12)

    def test_value_overflow_names_log_scale(self):
        with pytest.raises(OverflowError, match="log scale 2221"):
            ScaledVal(0.5, 2221.0).value

    def test_product_adds_logs(self):
        a = ScaledVal(2.0, 100.0)
        b = ScaledVal(3.0, 200.0)
        c = a * b
        assert c.val == pytest.approx(6.0)
        assert c.log == pytest.approx(300.0)

    def test_addition_aligns_scales(self):
        a = ScaledVal(1.0, 0.0)
        b = ScaledVal(1.0, math.log(2.0))
        assert (a + b).value == pytest.approx(3.0, rel=1e-14)

    def test_huge_scale_survives(self):
        a = ScaledVal(1.5, 2000.0)
        b = a * a
        assert b.log_abs == pytest.approx(4000.0 + math.log(2.25), rel=1e-12)


class TestClosedFormFree:
    """q = 0, beta = 1: solutions are trigonometric."""

    @pytest.mark.parametrize("lam", [4.0, 25.0, -9.0, 3.0 + 4.0j])
    def test_phi_matches_cosine(self, lam):
        p = free_problem()
        xs = (0.5, 1.7, PI)
        states, logs = solve_chain(p, complex(lam), xs)
        s = cmath.sqrt(complex(lam))
        for x, st_, log in zip(xs, states, logs):
            scale = math.exp(log)
            assert st_[0, 0] * scale == pytest.approx(cmath.cos(s * x), rel=1e-9, abs=1e-9)
            assert st_[0, 1] * scale == pytest.approx(-s * cmath.sin(s * x), rel=1e-9, abs=1e-9)

    def test_psi_backward_dirichlet_at_pi(self):
        # right-side solution normalized by the Robin data at pi
        p = free_problem(H=0.25)
        states, _ = solve_chain(p, 16.0, [PI, 0.0], side="right")
        end = states[0]
        assert end[0, 0] == pytest.approx(1.0)
        assert end[0, 1] == pytest.approx(-0.25)

    def test_left_robin_data(self):
        p = free_problem(h=0.3 + 0.2j)
        states, _ = solve_chain(p, 9.0, [0.0, PI])
        start = states[0]
        assert start[0, 0] == pytest.approx(1.0)
        assert start[0, 1] == pytest.approx(0.3 + 0.2j)


class TestJumpConditions:
    @pytest.mark.parametrize("lam", [7.0, -3.0, 10.0 + 5.0j])
    def test_matching_at_d(self, lam):
        p = Problem(
            q=PotentialExpr.parse("sin(x)"),
            beta=2.5,
            gamma=0.4 - 0.2j,
            d=1.1,
        )
        # d listed twice: the states before and after the matching
        (left, right), _ = solve_chain(p, complex(lam), [p.d, p.d])
        ref = max(1.0, abs(left[0, 0]), abs(left[0, 1]))
        assert abs(right[0, 0] - p.beta * left[0, 0]) / ref < 1e-12
        want = left[0, 1] / p.beta + p.gamma * left[0, 0]
        assert abs(right[0, 1] - want) / ref < 1e-12

    def test_forward_backward_inverse(self):
        state = np.array([[1.3 + 0.2j, -0.7j]])
        out = jump_backward(jump_forward(state, 2.0, 0.3j), 2.0, 0.3j)
        assert np.allclose(out, state, rtol=1e-15)


class TestScaling:
    def test_growth_rate_on_imaginary_axis(self):
        assert growth_rate(1j * 1e6) == pytest.approx(math.sqrt(5e5), rel=1e-14)

    def test_large_imaginary_lambda_finite_state(self):
        # raw solutions reach exp(~2221) here; the scaled state must stay O(1)
        p = free_problem()
        lam = 1e6j
        states, _ = solve_chain(p, lam, [PI])
        end = states[0]
        assert np.all(np.isfinite(end))
        # cos(s pi) e^{-mu pi} without overflow: the e^{-i s pi} half carries
        # all the growth, the other half is exponentially negligible
        s = cmath.sqrt(lam)
        want = 0.5 * cmath.exp(-1j * s.real * PI)
        assert end[0, 0] == pytest.approx(want, rel=1e-6)

    def test_solve_many_matches_single(self):
        p = Problem(q=PotentialExpr.parse("cos(x)"), h=0.2, H=0.1)
        lams = np.array([4.0, 9.0 + 1.0j, 30.0])
        states, logs = solve_many(p, lams)
        for k, lam in enumerate(lams):
            states_1, logs_1 = solve_chain(p, complex(lam), [PI], tol=1e-9)
            end = states_1[0]
            ref = logs_1[0]
            assert states[k, 0, 0] * math.exp(logs[k]) == pytest.approx(
                complex(end[0, 0]) * math.exp(ref), rel=1e-7
            )


@st.composite
def random_setups(draw):
    # keep |Im sqrt(lam)| moderate: the absolute deviation of the bracket
    # from 1 scales with exp(2 mu pi) times the integrator tolerance, so an
    # absolute 1e-9 target is only meaningful away from deep negative lam
    lam = complex(
        draw(st.floats(1.0, 60.0)),
        draw(st.floats(-8.0, 8.0)),
    )
    beta = draw(st.floats(0.4, 3.0))
    gamma = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    coeff = draw(st.floats(-2.0, 2.0))
    q = PotentialExpr.parse("%.4f * cos(x)" % coeff)
    return Problem(q=q, beta=beta, gamma=gamma, d=1.3), lam


class TestWronskian:
    @given(random_setups())
    @settings(max_examples=50, deadline=None)
    def test_pair_bracket_is_one(self, setup):
        problem, lam = setup
        # tol 1e-13: the deviation scales like tol * exp(2 mu pi), and the
        # corner of the draw domain (Im lam near 8) eats three decades of it
        assert wronskian_check(problem, lam, tol=1e-13) < 1e-9

    def test_fundamental_pair_initial_data(self):
        p = free_problem()
        # the pair wronskian_check walks from r = 0.5 to x0 = 2.5
        y1, y2 = (
            solve_chain(p, 12.0, [0.5, 2.5], x_from=0.5, init=init)[0][0]
            for init in ((1.0, 0.0), (0.0, 1.0))
        )
        assert y1[0, 0] == pytest.approx(1.0)
        assert y1[0, 1] == pytest.approx(0.0)
        assert y2[0, 0] == pytest.approx(0.0)
        assert y2[0, 1] == pytest.approx(1.0)

    def test_small_real_part_corner(self):
        # read from DOP853 interpolants, the grid's samples drifted 1.46e-9
        p = Problem(q="0", beta=2.0, d=1.3)
        assert wronskian_check(p, 1 + 8j, tol=1e-13) < 1e-9

    def test_matching_at_a_grid_point(self, monkeypatch):
        # d = pi/2 is the fourth point of the 7-point grid on [0, pi]
        betas = []

        def counted(state, beta, gamma):
            betas.append(beta)
            return jump_forward(state, beta, gamma)

        monkeypatch.setattr("sturmdisc.ode.jump_forward", counted)
        p = Problem(q="cos(x)", beta=2.0, gamma=0.5j, d=math.pi / 2)
        assert wronskian_check(p, 20 + 3j) < 1e-9
        assert betas == [2.0]


class TestOneWalker:
    """Single and batched solves run the same segment walker."""

    PROBLEMS = {
        "robin": Problem(q="sin(x)", h=0.3, H=0.1),
        "dirichlet": Problem(q="cos(x)", h=0.2, H=None),
        "jump": Problem(q="0.1", h=0.3, H=0.1, beta=1.5, gamma=0.2j),
    }

    @pytest.mark.parametrize("nu_max", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_delta_bit_identical_across_routes(self, name, nu_max):
        p = self.PROBLEMS[name]
        for lam in (4.0, 3.7 + 0.2j, 250.0, 1e2j, 1e4j):
            sample = char_delta(p, lam, nu_max=nu_max)
            states, logs = solve_many(p, [lam], nu_max=nu_max, tol=TOL)
            d, d_inf = _deltas(p, states[0])
            chain_states, chain_logs = solve_chain(p, lam, [PI], nu_max=nu_max)
            z = chain_states[0]
            for j in range(nu_max + 1):
                fact = math.factorial(j)
                want_inf = -fact * z[j, 0]
                want = want_inf if p.dirichlet else fact * (z[j, 1] + p.H * z[j, 0])
                assert sample.ddelta[j].val == d[j] == want
                assert sample.ddelta_inf[j].val == d_inf[j] == want_inf
                assert sample.ddelta[j].log == logs[0] == chain_logs[0]

    def test_side_names_are_checked(self):
        p = free_problem()
        with pytest.raises(ValueError, match="side"):
            solve_many(p, [4.0], side="up")
        with pytest.raises(ValueError, match="side"):
            solve_chain(p, 4.0, [PI], side="up")

    def test_solve_many_shape(self):
        p = free_problem()
        for nu_max in (0, 2):
            states, logs = solve_many(p, np.array([4.0, 9.0]), nu_max=nu_max)
            assert states.shape == (2, nu_max + 1, 2)
            assert logs.shape == (2,)


class TestReadPoints:
    """``solve_chain`` reads the states of one walk at requested points."""

    @given(consistency_setups(), st.lists(st.floats(0.05, PI - 0.05), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_points_of_one_walk(self, setup, xs):
        problem, lam = setup
        d = problem.d
        assume(all(abs(x - d) > 1e-9 for x in xs))
        pts = sorted(xs + [d, d]) + [PI]
        states, logs = solve_chain(problem, lam, pts, nu_max=1)
        # the far end is the batched solve's end state, bit for bit
        end, end_logs = solve_many(problem, [lam], nu_max=1)
        assert np.array_equal(states[-1], end[0])
        assert logs[-1] == end_logs[0]
        # d listed twice: the states before and after the matching
        k = pts.index(d)
        left, right = states[k], states[k + 1]
        ref = max(1.0, np.abs(left).max())
        assert np.abs(right[:, 0] - problem.beta * left[:, 0]).max() / ref < 1e-12
        want = left[:, 1] / problem.beta + problem.gamma * left[:, 0]
        assert np.abs(right[:, 1] - want).max() / ref < 1e-12
        # restarting from an intermediate state reaches the same end state
        k = pts.index(xs[0])
        if k > pts.index(d):
            k += 1  # past d, the state after the matching
        restart, restart_logs = solve_chain(
            problem, lam, [PI], nu_max=1, x_from=pts[k], init=states[k]
        )
        again = restart[0] * math.exp(restart_logs[0] + logs[k] - logs[-1])
        assert np.abs(again - end[0]).max() <= 1e-8 * np.abs(end[0]).max()

    def test_points_must_follow_the_walk(self):
        p = free_problem()
        with pytest.raises(ValueError, match="ordered"):
            solve_chain(p, 4.0, [PI, 1.0])
        with pytest.raises(ValueError, match="ordered"):
            solve_chain(p, 4.0, [1.0, 0.0], side="right", x_from=0.5)


class TestDenseOutput:
    """Only segments that hold a requested interior point build an
    interpolant."""

    @pytest.fixture
    def ivp_calls(self, monkeypatch):
        calls = []
        real = ode.solve_ivp

        def spy(fun, t_span, y0, **kw):
            calls.append((t_span, kw.get("dense_output", False)))
            return real(fun, t_span, y0, **kw)

        monkeypatch.setattr(ode, "solve_ivp", spy)
        return calls

    @pytest.fixture
    def kernels(self, monkeypatch):
        """``(kernel, (lo, hi), has reads)`` for each segment a walk hands
        to a kernel; only the DOP853 kernel builds interpolants."""

        calls = []
        for name in ("_dop853", "_magnus"):

            def spy(rows, lo, hi, z, reads, real=getattr(ode, name), name=name):
                calls.append((name, (lo, hi), reads.size > 0))
                return real(rows, lo, hi, z, reads)

            monkeypatch.setattr(ode, name, spy)
        return calls

    def test_end_state_readers(self, ivp_calls):
        p = Problem(q="sin(x)", h=0.3, H=0.1, beta=1.5, gamma=0.2j)
        char_delta(p, 9.0 + 1j, nu_max=1)
        delta_consistency(p, 9.0 + 1j)
        assert ivp_calls
        assert not any(dense for _, dense in ivp_calls)

    def test_norming_phi_solve(self, kernels):
        compute_norming(free_problem(), EigenRecord(lam=4.0 + 0j, multiplicity=1, residual=0.0))
        # phi runs left to right and is read at pi only, so no interpolant:
        # its end states come from Magnus; psi runs right to left and feeds
        # the alpha integrals, read from DOP853 interpolants
        phi = [(name, reads) for name, (a, b), reads in kernels if a < b]
        psi = [(name, reads) for name, (a, b), reads in kernels if a > b]
        assert phi and all(kernel == ("_magnus", False) for kernel in phi)
        assert psi and all(kernel == ("_dop853", True) for kernel in psi)

    def test_bracket_reads(self, kernels):
        p = Problem(q="sin(x)", h=0.3, H=0.1, beta=1.5, gamma=0.2j, d=PI / 2)
        pb = modify_below(p, p.d, m=0, weight=0.4, dh=0.2)
        # d-0, d+0 and pi are segment ends of both walks: no interpolant
        f_function(p, pb, 5.0)
        collapse_consistency(p, pb, p.d, lams=[5.0])
        assert kernels
        assert not any(reads for _, _, reads in kernels)
        # b = 2 ends a segment of the perturbed walk only
        kernels.clear()
        f_function(p, modify_below(p, 2.0, m=0, weight=0.4), 5.0, at=2.0)
        assert [(span, reads) for name, span, reads in kernels if name == "_dop853"] == [
            ((PI / 2, PI), True)
        ]


class TestDerivativeChain:
    def test_first_derivative_matches_central_difference(self):
        # the operator has complex coefficients, so a central difference in
        # lam is the right independent check (complex step needs realness)
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.3, beta=1.5, gamma=0.2j)
        lam = 11.0
        end = solve_chain(p, lam, [PI], nu_max=1)[0][0]
        eps = 1e-5
        hi = solve_chain(p, lam + eps, [PI])[0][0, 0, 0]
        lo = solve_chain(p, lam - eps, [PI])[0][0, 0, 0]
        fd = (hi - lo) / (2 * eps)
        assert end[1, 0] == pytest.approx(fd, rel=1e-7)

    def test_free_chain_closed_form(self):
        # for q=0, beta=1: d(phi)/d(lam) at pi is -(pi/(2 sqrt(lam))) sin(sqrt(lam) pi)
        p = free_problem()
        lam = 6.25
        s = math.sqrt(lam)
        end = solve_chain(p, lam, [PI], nu_max=1)[0][0]
        want = -PI * math.sin(s * PI) / (2 * s)
        assert end[1, 0] == pytest.approx(want, rel=1e-9)

    def test_chain_initial_data_is_zero(self):
        p = free_problem()
        start = solve_chain(p, 3.0, [0.0, PI], nu_max=2)[0][0]
        assert start[1, 0] == 0 and start[1, 1] == 0
        assert start[2, 0] == 0 and start[2, 1] == 0


def wronskian_scale(lam, ya, yb):
    """``s A(ya) A(yb)``, the scale of the bracket of two ``(y, y')``
    states, with ``A(y) = sqrt(|y|^2 + |y'/s|^2)`` and ``s =
    sqrt(max(|lam|, 1))``; the scale ``delta_consistency`` uses."""

    s = math.sqrt(max(abs(lam), 1.0))
    return s * math.hypot(abs(ya[0]), abs(ya[1]) / s) * math.hypot(abs(yb[0]), abs(yb[1]) / s)


def complex_in(lo, hi):
    return st.builds(complex, st.floats(lo, hi), st.floats(lo, hi))


@st.composite
def pair_setups(draw):
    """Two problems that share ``d``, each with its own ``q = a cos kx + c``,
    ``h``, ``beta`` and ``gamma``, complex start data at ``x_from < d <
    x_to`` and a lambda."""

    d = draw(st.floats(0.3, PI - 0.3))

    def problem():
        q = "%.4f * cos(%d * x) + %.4f" % (
            draw(st.floats(-2.0, 2.0)), draw(st.integers(1, 4)), draw(st.floats(-2.0, 2.0))
        )
        return Problem(
            q=PotentialExpr.parse(q),
            h=draw(complex_in(-1.0, 1.0)),
            beta=draw(st.floats(0.4, 3.0)),
            gamma=draw(complex_in(-1.0, 1.0)),
            d=d,
        )

    pa, pb = problem(), problem()
    inits = [(draw(complex_in(-1.0, 1.0)), draw(complex_in(-1.0, 1.0))) for _ in range(2)]
    assume(all(abs(y) + abs(dy) > 0.1 for y, dy in inits))
    x_from = draw(st.floats(0.0, d - 0.05))
    x_to = draw(st.floats(d + 0.05, PI))
    lam = complex(draw(st.floats(-10.0, 200.0)), draw(st.floats(-8.0, 8.0)))
    return pa, pb, inits, x_from, x_to, lam


class TestPairIntegrals:
    def test_identical_problems_zero_bracket(self):
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.1)
        init = np.array([[1.0, 0.1]], dtype=complex)
        (val,), _ = pair_integrals(p, p, [14.0], 0.0, 2.0, init, init)
        assert abs(val) < 1e-12

    def test_accumulated_integral_matches_quadrature(self):
        pa = Problem(q=PotentialExpr.parse("0"))
        pb = Problem(q=PotentialExpr.parse("1"))
        lam = 5.0
        init = np.array([[1.0, 0.0]], dtype=complex)
        (val,), (log,) = pair_integrals(pa, pb, [lam], 0.0, 1.2, init, init)
        # direct quadrature of (qB - qA) * yA * yB with explicit solutions
        xs = np.linspace(0.0, 1.2, 2001)
        sa, _ = solve_chain(pa, lam, xs, x_from=0.0, init=init)
        sb, _ = solve_chain(pb, lam, xs, x_from=0.0, init=init)
        vals = sa[:, 0, 0] * sb[:, 0, 0]
        want = np.trapezoid(vals, xs)
        assert ScaledVal(val, log).value == pytest.approx(want, rel=1e-6)

    def test_problems_must_share_d(self):
        pa, pb = Problem(q="0", d=1.0), Problem(q="0", d=1.2)
        with pytest.raises(ValueError, match="share"):
            pair_integrals(pa, pb, [5.0], 0.0, 2.0, (1.0, 0.0), (1.0, 0.0))

    @given(pair_setups())
    @settings(max_examples=40, deadline=None)
    def test_bracket_of_end_states(self, setup):
        # distinct beta and gamma give W a jump at d
        pa, pb, (init_a, init_b), x_from, x_to, lam = setup
        (val,), (got_log,) = pair_integrals(
            pa, pb, [lam], x_from, x_to, init_a, init_b, tol=BRACKET_TOL
        )
        (za,), (log,) = solve_chain(pa, lam, [x_to], x_from=x_from, init=init_a, tol=BRACKET_TOL)
        (zb,), _ = solve_chain(pb, lam, [x_to], x_from=x_from, init=init_b, tol=BRACKET_TOL)
        # both at the scale exp(2 mu (x_to - x_from))
        assert got_log == pytest.approx(2 * log, rel=1e-14)
        want = za[0, 0] * zb[0, 1] - za[0, 1] * zb[0, 0]
        scale = max(
            wronskian_scale(lam, za[0], zb[0]),
            wronskian_scale(lam, init_a, init_b) * math.exp(-2 * log),
        )
        assert abs(val - want) < 1e-10 * scale

    @given(pair_setups(), st.lists(st.floats(0.0, 4.0), min_size=2, max_size=5),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_one_lambda_calls(self, setup, decades, angle):
        # |lam| up to 1e4 in one walk: nodes from the largest, the
        # skip-ahead from the smallest mu, tol / sqrt(n)
        pa, pb, (init_a, init_b), x_from, x_to, _ = setup
        lams = [10.0**e * cmath.exp(1j * angle * (k + 1) / len(decades))
                for k, e in enumerate(decades)]
        vals, logs = pair_integrals(pa, pb, lams, x_from, x_to, init_a, init_b, tol=BRACKET_TOL)
        for k, lam in enumerate(lams):
            (val,), (log,) = pair_integrals(
                pa, pb, [lam], x_from, x_to, init_a, init_b, tol=BRACKET_TOL
            )
            assert logs[k] == log
            (za,), _ = solve_chain(pa, lam, [x_to], x_from=x_from, init=init_a, tol=BRACKET_TOL)
            (zb,), _ = solve_chain(pb, lam, [x_to], x_from=x_from, init=init_b, tol=BRACKET_TOL)
            scale = max(
                wronskian_scale(lam, za[0], zb[0]),
                wronskian_scale(lam, init_a, init_b) * math.exp(-log),
            )
            assert abs(vals[k] - val) < 1e-9 * scale


class TestAccuracyArgument:
    """One accuracy argument, ``tol``, reaches the integrator; ``atol`` is
    derived from it and nothing else sets a tolerance."""

    TAKES_TOL = {
        "sturmdisc.ode.solve_chain",
        "sturmdisc.ode.solve_many",
        "sturmdisc.ode.wronskian_check",
        "sturmdisc.ode.pair_integrals",
        "sturmdisc.charfn.char_delta",
        "sturmdisc.charfn.delta_many",
    }

    @staticmethod
    def public_callables():
        seen = {}
        for info in pkgutil.iter_modules(sturmdisc.__path__):
            module = importlib.import_module(f"sturmdisc.{info.name}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    seen[f"{module.__name__}.{name}"] = obj
                elif inspect.isclass(obj) and not issubclass(obj, Exception):
                    seen[f"{module.__name__}.{name}"] = obj
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            seen[f"{module.__name__}.{name}.{attr}"] = member
        return seen

    def test_only_the_integrator_entry_points_take_tol(self):
        takes = {}
        for qualname, obj in self.public_callables().items():
            params = set(inspect.signature(obj).parameters)
            assert not params & {"rtol", "atol"}, qualname
            takes[qualname] = "tol" in params
        assert {name for name, has in takes.items() if has} == self.TAKES_TOL


def _exact_end_state(problem, cuts, values, lam):
    """``(phi(pi), phi'(pi))`` of a piecewise-constant ``q`` (``values[k]``
    on ``[cuts[k], cuts[k+1]]``) as the mpmath product of the exact transfer
    matrices ``[[cos s l, sin s l / s], [-s sin s l, cos s l]]``, ``s =
    sqrt(lam - c)``, and of the matching at ``d``."""

    edges = sorted(set(cuts) | {problem.d, PI})
    y, dy = mpmath.mpc(1), mpmath.mpc(problem.h)
    for lo, hi in zip(edges, edges[1:]):
        c = values[max(k for k in range(len(values)) if cuts[k] <= lo)]
        s = mpmath.sqrt(mpmath.mpc(lam) - mpmath.mpc(c))
        arg = s * (mpmath.mpf(hi) - mpmath.mpf(lo))
        cos, sin = mpmath.cos(arg), mpmath.sin(arg)
        y, dy = cos * y + sin / s * dy, -s * sin * y + cos * dy
        if hi == problem.d:
            y, dy = problem.beta * y, dy / problem.beta + mpmath.mpc(problem.gamma) * y
    return y, dy


@st.composite
def piecewise_constant_setups(draw):
    """A problem with ``q`` constant on up to four pieces (complex values)
    and three lambda with ``|lam|`` from 1 to ``1e6`` in any direction."""

    cuts = sorted(draw(st.lists(st.floats(0.1, PI - 0.1), max_size=3)))
    edges = [0.0] + cuts + [PI]
    assume(min(b - a for a, b in zip(edges, edges[1:])) > 0.05)
    values = [complex(draw(st.floats(-20.0, 20.0)), draw(st.floats(-5.0, 5.0)))
              for _ in cuts + [PI]]
    q = PotentialExpr([Piece(lo, hi, Const(c)) for lo, hi, c in zip(edges, edges[1:], values)])
    problem = Problem(
        q=q,
        h=draw(complex_in(-1.0, 1.0)),
        H=draw(st.one_of(st.none(), complex_in(-1.0, 1.0))),
        beta=draw(st.floats(0.4, 3.0)),
        gamma=draw(complex_in(-1.0, 1.0)),
        d=draw(st.floats(0.3, PI - 0.3)),
    )
    lams = [10.0 ** draw(st.floats(0.0, 6.0)) * cmath.exp(1j * draw(st.floats(-PI, PI)))
            for _ in range(3)]
    return problem, edges[:-1], values, lams


class TestMagnusKernel:
    """Witnesses for the Magnus kernel that serves the end states of
    ``nu_max = 0`` walks.  Its step propagators have determinant 1, so the
    Wronskian no longer measures its accuracy; these tests do."""

    @given(piecewise_constant_setups())
    @settings(max_examples=40, deadline=None)
    def test_exact_on_piecewise_constant_q(self, setup):
        problem, cuts, values, lams = setup
        vals, vals_inf, logs = delta_many(problem, lams)
        with mpmath.workdps(30):
            for k, lam in enumerate(lams):
                sample = char_delta(problem, lam)
                y, dy = _exact_end_state(problem, cuts, values, lam)
                H = 0 if problem.dirichlet else problem.H
                want = -y if problem.dirichlet else dy + H * y
                # relative to the size of the end state, so a lambda next to
                # an eigenvalue is measured at the scale it is computed at
                sigma = math.sqrt(max(abs(lam), 1.0))
                size = mpmath.sqrt(abs(y) ** 2 + abs(dy / sigma) ** 2)
                scales = (max(abs(want), size * (sigma + abs(H))), max(abs(y), size))
                bound = 5e-11 * math.sqrt(abs(lam))
                for got, exact, scale in zip(
                    ((sample.delta, vals[k]), (sample.delta_inf, vals_inf[k])),
                    (want, -y),
                    scales,
                ):
                    for val, log in ((got[0].val, got[0].log), (got[1], logs[k])):
                        err = abs(mpmath.mpc(val) * mpmath.exp(log) - exact) / scale
                        assert err < bound

    @given(
        st.floats(-5.0, 5.0), st.integers(1, 4), st.floats(-5.0, 5.0),
        st.floats(0.0, 4.0), st.floats(-PI, PI), complex_in(-1.0, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_smooth_q_matches_dop853(self, a, k, c, decade, angle, h):
        p = Problem(q="%.4f * sin(%d * x) + %.4f" % (a, k, c), h=h, H=0.3, beta=1.5,
                    gamma=0.2j)
        lam = 10.0**decade * cmath.exp(1j * angle)
        got = char_delta(p, lam)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ode, "_magnus", ode._dop853)
            want = char_delta(p, lam, tol=1e-13)
        assert got.delta.log == want.delta.log
        scale = max(abs(want.delta.val), abs(want.phi_end.val), abs(want.dphi_end.val))
        assert abs(got.delta.val - want.delta.val) < 5e-11 * math.sqrt(abs(lam)) * scale

    def test_free_jump_error_is_lambda_uniform(self):
        # the DOP853 kernel at TOL erred by 1.1e-10 at 1e2 i and by 1.4e-8
        # at 1e6 i; what is left is rounding in the phase pi sqrt|lam|, which
        # the closed form shares
        data = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j, d=PI / 2)
        p = Problem(q="0", **data)
        for k in range(2, 7):
            lam = 1j * 10.0**k
            sample = char_delta(p, lam)
            growth = PI * cmath.sqrt(lam).imag
            for got, want in zip((sample.delta, sample.delta_inf), free_jump_scaled(lam, **data)):
                assert abs(got.val * math.exp(got.log - growth) - want) < 1e-12 * abs(want)

    def test_step_count_limit_names_the_segment(self):
        # a non-finite state never settles
        p = free_problem()
        with pytest.raises(RuntimeError, match=r"on \[0.0, 1.5707.*lambda = \(4\+0j\)"):
            ode._walk([p], [4.0], np.full((1, 1, 2), np.nan, dtype=complex), 0.0, [PI], tol=TOL)
