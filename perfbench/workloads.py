"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the checks of every output.

Nothing here imports ``sturmdisc`` at import time.  ``build`` receives the
package, so that importing it is part of the timed set-up, and every call
goes through a package attribute looked up at call time, so that the traced
run's wrappers see it.  Inputs come from ``random.Random`` seeded with the
workload name and ``--seed``; the program only sees the problems and lambda
lists generated from them.  Checks compare against :mod:`reference`, which
computes apart from the program, or against an identity or bound the
method must satisfy; tolerances are the contracts the acceptance suite
states.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

PI = math.pi

EIG_TOL = 1e-8  # closed-form eigenvalues, acceptance criteria 01 and 02
IDENTITY_TOL = 1e-6  # derivative-identity residual, criterion 04
NORMING_TOL = 1e-8  # kappa and alpha against closed forms (tests/test_norming.py)
COLLAPSE_TOL = 1e-8  # collapsed against defining bracket, criterion 10
WRONSKIAN_TOL = 1e-9  # bracket of the fundamental pair, criterion 03
RAY_DELTA_TOL = 1e-6  # relative error of Delta along the ray up to |lam| = 1e6
RATIO_REL = 0.05  # fitted ratio rate against -(4 pi - 2 b) (tests/test_uniq.py)
GROWTH_C_REL = 0.02  # growth fit c = pi and p = 1/2, criterion 05
GROWTH_P_ABS = 0.05


@dataclass
class Check:
    label: str
    value: float
    limit: float
    digits: bool = False  # value is an error; -log10 of it counts as correct digits

    @property
    def ok(self) -> bool:
        return self.value <= self.limit  # False for nan


@dataclass
class Op:
    name: str
    run: Callable[[], object]  # the timed call into sturmdisc
    check: Callable[[object, dict], list]  # (result, references) -> [Check]
    items: Callable[[object], int] | None = None  # counted by items_per_s
    collect: Callable[[object], object] | None = None  # untimed, right after run


def _shift(expr: str, c: float) -> str:
    """``expr + c`` as a potential string (the seeded constant shift)."""

    if expr == "0":
        return "%.6f" % c
    return "%s %s %.6f" % (expr, "+" if c >= 0 else "-", abs(c))


def _seeded_shift(rng: random.Random, width: float = 0.25) -> float:
    # A constant shift c moves every eigenvalue by exactly c and keeps the
    # closed forms exact; |c| <= 1/4 keeps every eigenvalue well inside the
    # search bounds used below.
    return float("%.6f" % rng.uniform(-width, width))


def _jitter(rng: random.Random, y: float) -> float:
    # +-5 % in y moves the cost of one Delta (~ sqrt y) by at most 2.5 %
    return float("%.6g" % (y * 10.0 ** rng.uniform(-0.02, 0.02)))


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """One uniform draw in each of ``n`` equal slices of ``[lo, hi]``, so the
    total integration work of a grid hardly varies from seed to seed."""

    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def _geomspace(lo: float, hi: float, n: int) -> list:
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


def _eig_count(records) -> int:
    return sum(r.multiplicity for r in records)


def _match_spectrum(records, expected) -> list:
    """Sorted eigenvalues against an exact list, with multiplicity 1 each."""

    got = sorted((r.lam for r in records), key=lambda z: z.real)
    checks = [
        Check("eigenvalue count - expected", abs(_eig_count(records) - len(expected)), 0),
        Check("multiplicity above 1", max((r.multiplicity for r in records), default=1) - 1, 0),
    ]
    if got and len(got) == len(expected):
        err = max(abs(g - e) for g, e in zip(got, sorted(expected)))
        checks.append(Check("max |lam - exact|", err, EIG_TOL, digits=True))
    return checks


def _read_json(path):
    def collect(status):
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        return status, doc

    return collect


class Workload:
    """A workload: ``build(sd)`` makes its problems (timed set-up),
    ``ops(sd)`` lists the operations of one pass, and ``references()``
    computes what the checks compare against (untimed)."""

    name = ""

    def __init__(self, seed: int, root: str, out_dir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root
        self.out_dir = out_dir

    def _cli(self, sd, command: str, config: str, check, items) -> Op:
        """``sturmdisc <command> --config configs/<config>``; the result is
        ``(exit code, report)``."""

        out = os.path.join(self.out_dir, f"cli-{command}-{os.getpid()}.json")
        argv = [command, "--config", os.path.join(self.root, "configs", config), "--out", out]
        return Op(f"cli.{command}", lambda: sd.cli.main(argv), check, items, _read_json(out))

    def config(self, name: str) -> dict:
        with open(os.path.join(self.root, "configs", name)) as fh:
            return json.load(fh)


# ---------------------------------------------------------------------------
# spectrum: eigenvalue search at small |lam|
# ---------------------------------------------------------------------------


COMPLEX_Q = "sin(x) + 0.2i*cos(2*x)"
COMPLEX_DATA = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j)
COMPLEX_BOUND = 62.0
JUMP_DATA = dict(beta=2.0, d=PI / 3)
JUMP_BOUND = 227.0  # between the 16th eigenvalue (225) and the 17th (262.2)


class Spectrum(Workload):
    """Free Neumann (B = 370), free Dirichlet (B = 385), the free jump
    problem and the complex problem of criterion 04, each with the seeded
    constant shift, plus the CLI on ``configs/neumann_spectrum.json``."""

    name = "spectrum"

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.c = _seeded_shift(self.rng, 0.02)
        self._root_cache = {}

    def build(self, sd):
        q0 = _shift("0", self.c)
        self.neumann = sd.Problem(q=q0)
        self.dirichlet = sd.Problem(q=q0, H=None)
        self.jump = sd.Problem(q=q0, **JUMP_DATA)
        self.complex = sd.Problem(q=_shift(COMPLEX_Q, self.c), **COMPLEX_DATA)

    def ops(self, sd):
        c = self.c
        neumann = [n * n + c for n in range(20)]
        dirichlet = [(n + 0.5) ** 2 + c for n in range(20)]
        return [
            Op("find_eigenvalues.neumann",
               lambda: sd.find_eigenvalues(self.neumann, 370.0),
               lambda r, ref: _match_spectrum(r, neumann), _eig_count),
            Op("find_eigenvalues.dirichlet",
               lambda: sd.find_eigenvalues(self.dirichlet, 385.0),
               lambda r, ref: _match_spectrum(r, dirichlet), _eig_count),
            Op("find_eigenvalues.jump",
               lambda: sd.find_eigenvalues(self.jump, JUMP_BOUND),
               lambda r, ref: _match_spectrum(r, ref["jump"]), _eig_count),
            Op("find_eigenvalues.complex",
               lambda: sd.find_eigenvalues(self.complex, COMPLEX_BOUND, im_halfwidth=12.0),
               self._check_complex, _eig_count),
            self._cli(sd, "spectrum", "neumann_spectrum.json", self._check_cli,
                      lambda r: _eig_count(_cli_records(r[1]))),
        ]

    def _qfun(self):
        import numpy as np

        c = self.c
        return lambda x: np.sin(x) + 0.2j * np.cos(2 * x) + c

    def references(self):
        import reference

        return {
            "jump": reference.free_jump_eigenvalues(
                JUMP_DATA["beta"], JUMP_DATA["d"], JUMP_BOUND, self.c
            ),
            "complex_count": reference.zeros_in_disc(
                self._qfun(), COMPLEX_BOUND, **COMPLEX_DATA
            ),
        }

    def _check_complex(self, records, ref):
        import reference

        roots = tuple(r.lam for r in records)
        if roots not in self._root_cache:  # every pass returns the same roots
            self._root_cache[roots] = reference.root_distance(
                self._qfun(), list(roots), **COMPLEX_DATA
            )
        dist, ref_err = self._root_cache[roots]
        checks = [
            Check("eigenvalue count - reference winding count",
                  abs(_eig_count(records) - ref["complex_count"]), 0),
        ]
        if roots:
            checks.append(Check("max root distance |Delta/Delta'|", float(max(dist)),
                                EIG_TOL, digits=True))
            checks.append(Check("reference integrator error", float(max(ref_err)),
                                0.1 * EIG_TOL))
        return checks

    def _check_cli(self, result, ref):
        status, doc = result
        cfg = self.config("neumann_spectrum.json")
        spec = cfg["problems"][cfg["spectrum"]["problem"]]
        if spec != {"q": "0", "h": 0, "H": 0}:
            raise ValueError("configs/neumann_spectrum.json no longer holds the free Neumann problem")
        bound = cfg["spectrum"]["modulus_bound"]
        expected = [n * n for n in range(int(math.isqrt(int(bound))) + 1) if n * n < bound]
        return [Check("CLI exit code", status, 0)] + _match_spectrum(_cli_records(doc), expected)


def _cli_records(doc) -> list:
    """The eigenvalues of a CLI ``spectrum`` report, shaped like EigenRecords."""

    return [
        SimpleNamespace(lam=complex(*e["lam"]), multiplicity=e["multiplicity"])
        for e in doc["result"]["eigenvalues"]
    ]


# ---------------------------------------------------------------------------
# ray: imaginary-ray probes out to |lam| = 1e6
# ---------------------------------------------------------------------------


FREE_JUMP_DATA = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j)  # d = pi/2
RATIO_B = 2.0


class Ray(Workload):
    """``char_delta`` of the shifted free jump problem at ``i y``, ``y`` near
    ``1e2 .. 1e6``; the CLI ``growth`` and ``uniq`` sample configs;
    ``decay_order_fit`` on the m = 0 and m = 2 pairs of criterion 08; and
    ``product_ratio_probe`` on the criterion 09 pair."""

    name = "ray"
    UNIQ_POINTS = 9  # bracket_decay_probe's default grid, geomspace(1e2, 1e6, 9)

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        self.c = _seeded_shift(self.rng)
        self.ys = [_jitter(self.rng, 10.0**k) for k in range(2, 7)]
        self.fit_ys = [_jitter(self.rng, y) for y in _geomspace(1e2, 1e4, 5)]
        self.ratio_ys = [_jitter(self.rng, y) for y in _geomspace(1e2, 1e5, 5)]

    def build(self, sd):
        self.free_jump = sd.Problem(q=_shift("0", self.c), **FREE_JUMP_DATA)
        self.free = sd.Problem(q="0")
        self.decay_pairs = {m: sd.Problem(q=src) for m, src in ((0, "x - 3"), (2, "(x - 3)^3"))}
        self.base = sd.Problem(q="sin(x)", **FREE_JUMP_DATA)
        self.other = sd.modify_below(self.base, RATIO_B, m=0)

    def ops(self, sd):
        ops = []
        for k, y in enumerate(self.ys):
            ops.append(Op(
                f"char_delta.iy1e{k + 2}",
                lambda y=y: sd.char_delta(self.free_jump, 1j * y),
                lambda s, ref, k=k: self._check_delta(s, ref["delta"][k]),
                lambda s: 1,
            ))
        ops.append(self._cli(sd, "growth", "jump_growth.json", self._check_growth,
                             lambda r: len(r[1]["result"]["samples"])))
        ops.append(self._cli(sd, "uniq", "uniq_iy_splice.json", self._check_uniq,
                             lambda r: self.UNIQ_POINTS))
        for m, pb in self.decay_pairs.items():
            ops.append(Op(
                f"decay_order_fit.m{m}",
                lambda pb=pb, m=m: sd.decay_order_fit(
                    self.free, pb, 0.5, 3.0, (2, 2), self.fit_ys, m_claimed=m
                ),
                lambda fit, ref, m=m: [
                    # criterion 08: the sine pair decays like |sqrt lam|^-(m+3)
                    Check(f"slope + (m+3) - 0.3, m={m}", fit.slope + (m + 3) - 0.3, 0.0),
                    Check("decay_order_fit verdict is fail", float(not fit.passes), 0.0),
                ],
                lambda fit: len(self.fit_ys),
            ))
        ops.append(Op(
            "product_ratio_probe",
            lambda: sd.product_ratio_probe(self.base, self.other, RATIO_B, ys=self.ratio_ys),
            self._check_ratio,
            lambda rep: len(self.ratio_ys),
        ))
        return ops

    def references(self):
        import reference

        return {
            "delta": [
                reference.free_jump_delta(1j * y, c=self.c, **FREE_JUMP_DATA) for y in self.ys
            ]
        }

    def _check_delta(self, sample, exact):
        import reference

        delta, delta_inf = exact
        return [
            Check("Delta relative error",
                  reference.rel_error(sample.delta.val, sample.delta.log, delta),
                  RAY_DELTA_TOL, digits=True),
            Check("Delta_inf relative error",
                  reference.rel_error(sample.delta_inf.val, sample.delta_inf.log, delta_inf),
                  RAY_DELTA_TOL, digits=True),
        ]

    def _check_growth(self, result, ref):
        # log|Delta(iy)| = pi sqrt(y/2) + (1/2) log y + O(1) for a Robin end
        status, doc = result
        fit = doc["result"]
        return [
            Check("CLI exit code", status, 0),
            Check("|c - pi| / pi", abs(fit["c"] - PI) / PI, GROWTH_C_REL),
            Check("|p - 1/2|", abs(fit["p"] - 0.5), GROWTH_P_ABS),
            Check("non-finite samples",
                  sum(not math.isfinite(s["log_abs"]) for s in fit["samples"]), 0),
        ]

    def _check_uniq(self, result, ref):
        # criterion 09: the normalized bracket decays at least like y^-((m+1)/2)
        status, doc = result
        m = self.config("uniq_iy_splice.json")["uniq"]["m"]
        bound = -(m + 1) / 2 + 0.15
        return [
            Check("CLI exit code", status, 0),
            Check("fitted slope - (-(m+1)/2 + 0.15)", doc["result"]["fitted_slope"] - bound, 0.0),
            Check("|threshold - (-(m+1)/2 + 0.15)|", abs(doc["result"]["threshold"] - bound), 1e-12),
        ]

    def _check_ratio(self, rep, ref):
        expected = -(4 * PI - 2 * RATIO_B)
        return [
            Check("|expected_rate + (4 pi - 2 b)|", abs(rep.expected_rate - expected), 1e-12),
            Check("|fitted / expected - 1|", abs(rep.fitted_rate / expected - 1), RATIO_REL),
            Check("tail not monotone", float(not rep.monotone_tail), 0.0),
        ]


# ---------------------------------------------------------------------------
# interior: consumers of the solution inside (0, pi)
# ---------------------------------------------------------------------------


COLLAPSE_BS = (2.2, PI / 2, 1.0)  # right of, at, and left of the jump at pi/2


class Interior(Workload):
    """Norming constants and the derivative identity at the closed-form
    eigenvalues of the shifted free Neumann and Dirichlet problems (no
    search), ``collapse_consistency`` on the criterion 10 pairs with a seeded
    lambda grid, and ``wronskian_check`` on seeded ``c cos(x)`` jump
    problems."""

    name = "interior"
    N_NORMING = 20
    N_COLLAPSE = 8
    N_WRONSKIAN = 16

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, root, out_dir)
        rng = self.rng
        self.c = _seeded_shift(rng)
        self.collapse_lams = [
            [complex(re, rng.uniform(-3.0, 3.0))
             for re in _stratified(rng, -2.0, 60.0, self.N_COLLAPSE)]
            for _ in COLLAPSE_BS
        ]
        # Re lam >= 4 and |Im lam| <= 4 keep |Im sqrt(lam)| <= 1: the bracket
        # deviation grows like exp(2 pi |Im sqrt(lam)|) times the tolerance
        self.wronskian_draws = [
            ("%.4f * cos(x)" % rng.uniform(-2.0, 2.0), rng.uniform(0.4, 3.0),
             complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
             complex(re, rng.uniform(-4.0, 4.0)))
            for re in _stratified(rng, 4.0, 60.0, self.N_WRONSKIAN)
        ]

    def build(self, sd):
        q0 = _shift("0", self.c)
        self.neumann = sd.Problem(q=q0)
        self.dirichlet = sd.Problem(q=q0, H=None)
        self.records = {
            "neumann": [sd.EigenRecord(complex(n * n + self.c), 1, 0.0)
                        for n in range(self.N_NORMING)],
            "dirichlet": [sd.EigenRecord(complex((n + 0.5) ** 2 + self.c), 1, 0.0)
                          for n in range(self.N_NORMING)],
        }
        base = sd.Problem(q="sin(x)", **FREE_JUMP_DATA)
        self.collapse_pairs = [
            (base, sd.modify_below(base, b, m=0, weight=0.4, dh=0.2)) for b in COLLAPSE_BS
        ]
        self.wronskian_problems = [
            (sd.Problem(q=q, beta=beta, gamma=gamma, d=1.3), lam)
            for q, beta, gamma, lam in self.wronskian_draws
        ]

    def ops(self, sd):
        ops = []
        for kind, prob in (("neumann", self.neumann), ("dirichlet", self.dirichlet)):
            for n, rec in enumerate(self.records[kind]):
                ops.append(Op(
                    f"norming.{kind}.{n}",
                    lambda prob=prob, rec=rec: _norming_and_identity(sd, prob, rec),
                    lambda out, ref, kind=kind, n=n: _check_norming(out, ref[kind][n]),
                    lambda out: 1,
                ))
        for b, (pa, pb), lams in zip(COLLAPSE_BS, self.collapse_pairs, self.collapse_lams):
            ops.append(Op(
                f"collapse_consistency.b{b:.4f}",
                lambda pa=pa, pb=pb, b=b, lams=lams: sd.collapse_consistency(pa, pb, b, lams),
                lambda rep, ref: _check_collapse(rep, self.N_COLLAPSE),
            ))
        for k, (prob, lam) in enumerate(self.wronskian_problems):
            ops.append(Op(
                f"wronskian_check.{k}",
                lambda prob=prob, lam=lam: sd.ode.wronskian_check(prob, lam, n_samples=5),
                lambda dev, ref: [Check("max |W - 1|", float(dev), WRONSKIAN_TOL, digits=True)],
            ))
        return ops


    def references(self):
        import reference

        n = range(self.N_NORMING)
        return {
            "neumann": [reference.neumann_norming(k) for k in n],
            "dirichlet": [reference.dirichlet_norming(k) for k in n],
        }


def _norming_and_identity(sd, problem, record):
    norming = sd.compute_norming(problem, record)
    return norming, sd.check_identity(problem, record, norming)


def _check_norming(out, want):
    norming, residuals = out
    kappa, alpha = want
    return [
        Check("kappa relative error", abs(norming.kappas[0] - kappa) / abs(kappa),
              NORMING_TOL, digits=True),
        Check("alpha relative error", abs(norming.alphas[0] - alpha) / abs(alpha),
              NORMING_TOL, digits=True),
        Check("identity residual", max(residuals), IDENTITY_TOL, digits=True),
        Check("multiplicity - 1", abs(norming.multiplicity - 1), 0),
    ]


def _check_collapse(rep, n):
    return [
        Check("max collapsed-vs-defining relative gap", rep.max_rel, COLLAPSE_TOL, digits=True),
        Check("grid size - requested", abs(rep.lams.size - n), 0),
    ]


WORKLOADS = {cls.name: cls for cls in (Spectrum, Ray, Interior)}
