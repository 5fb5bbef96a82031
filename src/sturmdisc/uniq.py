"""Numeric probes of the ingredients behind partial-data uniqueness.

Everything here works with a *pair* of problems that agree on the right part
of the interval: a base problem and a perturbation of it below some point
``b``.  The probes measure, along the imaginary ray, the quantities that
uniqueness arguments control analytically:

* :func:`modify_below` builds the perturbed problem with a potential
  difference vanishing to a prescribed order at ``b``;
* :func:`bracket_decay_probe` fits the decay rate of the bracket functional
  ``F(iy)`` relative to the shared exponential growth;
* :func:`collapse_consistency` cross-checks the collapsed evaluations of ``F``
  against its defining bracket at ``pi``;
* :func:`product_ratio_probe` compares ``|F(iy)|`` with the modulus of the
  zero-product built from prescribed spectral data and reports the decay of
  their ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asympt import _above_floor, _decay_above_floor
from .expr import X, BinOp, Const, Piece, Pow, PotentialExpr
from .charfn import _f_reads, _f_sample, char_delta, delta_many, f_bracket_ray
from .entire import CountingBound, ProductModel, _ray_lstsq, check_counting_bound, ray_points
from .problem import Problem
from .spectrum import ZeroSequence


def modify_below(
    problem: Problem,
    b: float,
    m: int,
    weight: complex = 1.0,
    dh: complex = 0.0,
) -> Problem:
    """A problem whose potential differs from ``problem`` only on ``[0, b)``
    by ``weight * (x - b)^(m+1)`` and whose left boundary coefficient is
    shifted by ``dh``.

    The difference vanishes to order ``m+1`` at ``b``, so the pair agrees to
    ``m`` one-sided derivatives there; with ``dh != 0`` the boundary data
    disagree as well.
    """

    if not 0.0 < b <= math.pi:
        raise ValueError("b must lie in (0, pi]")
    bump = BinOp("*", Const(complex(weight)), Pow(BinOp("-", X, Const(b)), m + 1))
    pieces = []
    for p in problem.q.pieces:
        if p.hi <= b + 1e-15:
            pieces.append(Piece(p.lo, p.hi, BinOp("+", p.node, bump)))
        elif p.lo >= b - 1e-15:
            pieces.append(p)
        else:
            pieces.append(Piece(p.lo, b, BinOp("+", p.node, bump)))
            pieces.append(Piece(b, p.hi, p.node))
    qb = PotentialExpr(pieces, problem.q.length)
    return problem.with_(q=qb, h=problem.h + dh)


@dataclass
class RayProbe:
    slope: float
    threshold: float
    passes: bool
    ys: np.ndarray
    normalized_logs: np.ndarray
    slope_stderr: float = math.nan


def bracket_decay_probe(
    prob_a: Problem,
    prob_b: Problem,
    b: float,
    m: int,
    ys=None,
) -> RayProbe:
    """Fit the decay of ``|F(iy)| exp(-2 mu(iy) b)`` against ``log y``.

    When the potentials agree on ``[b, pi]``, match to ``m`` derivatives at
    ``b``, and share boundary data at 0, the normalized bracket decays at
    least like ``y^-((m+1)/2)``; the probe passes when the fitted slope
    clears that threshold (with a small fitting allowance).  Points below
    the noise floor of :func:`decay_order_fit` are left out; with fewer
    than 3 above it (``F = 0`` for a problem paired with itself) the slope
    is ``-inf``, decay beyond resolution, which passes.
    """

    ys = ray_points() if ys is None else np.asarray(ys, dtype=float)
    vals, _ = f_bracket_ray(prob_a, prob_b, b, 1j * ys)  # vals leave out exp(2 mu b)
    logs, _, _, coef, stderr = _decay_above_floor(prob_a, prob_b, 0.0, b, ys, vals)
    threshold = -(m + 1) / 2 + 0.15
    slope = float(coef[0])
    return RayProbe(
        slope=slope,
        threshold=threshold,
        passes=slope <= threshold,
        ys=ys,
        normalized_logs=logs,
        slope_stderr=float(stderr[0]),
    )


@dataclass
class ConsistencyReport:
    max_rel: float
    lams: np.ndarray
    rels: np.ndarray


def collapse_consistency(
    prob_a: Problem, prob_b: Problem, b: float, lams=None
) -> ConsistencyReport:
    """Relative agreement of the collapsed evaluation of ``F`` at ``b`` with
    its defining bracket at ``pi``, over a grid of lambda values.

    Meaningful only when the potentials agree on ``[b, pi]`` and the
    problems share the discontinuity data.  The default grid keeps
    ``|Im sqrt(lam)|`` moderate: the defining bracket at ``pi`` loses a
    factor ``exp(2 mu (pi - b))`` of precision to cancellation, so far-field
    grids measure that loss rather than the identity.
    """

    if lams is None:
        rng = np.random.default_rng(7)
        lams = rng.uniform(-2.0, 60.0, 20) + 1j * rng.uniform(-3.0, 3.0, 20)
    lams = np.asarray(lams, dtype=complex)
    rels = np.empty(lams.size)
    for k, lam in enumerate(lams.tolist()):
        # both forms read the same two walks, so each chain is solved once
        reads = _f_reads(prob_a, prob_b, lam, b)
        ref = _f_sample(reads, prob_a.d, lam, "pi")
        col = _f_sample(reads, prob_a.d, lam, b)
        diff = ref.F - col.F
        scale = max(ref.F.log_abs, col.F.log_abs)
        rels[k] = math.exp(diff.log_abs - scale) if scale > -math.inf else 0.0
    return ConsistencyReport(max_rel=float(np.max(rels)), lams=lams, rels=rels)


# ---------------------------------------------------------------------------
# Ratio probe against prescribed spectral data
# ---------------------------------------------------------------------------


# |delta(0)| below this fraction of |phi(pi)| + |phi'(pi)| counts as a zero
_ZERO_AT_ORIGIN = 1e-8


@dataclass
class RatioReport:
    ys: np.ndarray
    log_ratios: np.ndarray  # log |F(iy)| - log |G(iy)|
    expected_rate: float  # -(4 pi - 2 b) in units of mu(iy) = sqrt(y/2)
    fitted_rate: float
    rate_stderr: float
    monotone_tail: bool
    counting: CountingBound | None


def product_ratio_probe(
    prob_a: Problem,
    prob_b: Problem,
    b: float,
    *,
    seq_robin: ZeroSequence | None = None,
    seq_dirichlet: ZeroSequence | None = None,
    ys=None,
) -> RatioReport:
    """Compare ``|F(iy)|`` with ``|G(iy)|`` on the ray, where ``G`` collects
    one copy of the characteristic function for each of the four spectra of
    the pair (both boundary conditions, both problems).

    Without zero sequences the four factors are evaluated directly as
    characteristic functions (the full-spectrum products, with no
    truncation), each normalized by its value at 0, so 0 must not be an
    eigenvalue of either problem or of its Dirichlet variant.  Explicit
    finite ``ZeroSequence`` data (both ``seq_robin`` and ``seq_dirichlet``)
    can be supplied instead, in which case the counting comparison against
    the base spectra is run first.  The ratio should decay like
    ``exp(-mu (4 pi - 2 b))`` with ``mu = sqrt(y/2)``; the report carries
    the fitted rate with its standard error and whether the tail is
    monotonically decreasing.  The factors are one :func:`delta_many` batch
    per problem, at ``1e-9 / sqrt(len(ys))``.  The fit and the tail read
    only the points where ``F`` clears the noise floor of
    :func:`bracket_decay_probe`; with fewer than 3 (``F = 0`` for a problem
    paired with itself) the rate is ``-inf``, decay beyond resolution, and
    the tail counts as monotone.
    """

    ys = ray_points() if ys is None else np.asarray(ys, dtype=float)
    lams = 1j * ys
    if seq_robin is not None and seq_dirichlet is not None:
        merged = seq_robin.merged(seq_dirichlet)
        counting = check_counting_bound(merged, seq_robin, seq_dirichlet, 1, 1, 0)
        log_g = ProductModel(merged, constant=1.0).log_abs_many(lams)
    elif seq_robin is not None or seq_dirichlet is not None:
        raise ValueError("explicit products need both zero sequences")
    else:
        # each factor is normalized by its value at 0 (the product form
        # with constant 1), so the comparison matches the product route
        counting, log_g = None, np.zeros(ys.size)
        for name, prob in (("problem_a", prob_a), ("problem_b", prob_b)):
            s0 = char_delta(prob, 0.0)
            scale = abs(s0.phi_end.val) + abs(s0.dphi_end.val)
            for what, val in (("delta", s0.delta), ("delta_inf", s0.delta_inf)):
                if abs(val.val) <= _ZERO_AT_ORIGIN * scale:
                    raise ValueError(
                        f"{name}: {what}(0) = 0, so the normalization at 0 "
                        "fails; shift q by a constant to move the spectrum off 0"
                    )
            log_g -= s0.delta.log_abs + s0.delta_inf.log_abs
        for prob in (prob_a, prob_b):
            vals, vals_inf, logs = delta_many(prob, lams, tol=1e-9 / math.sqrt(ys.size))
            log_g += np.log(np.abs(vals)) + np.log(np.abs(vals_inf)) + 2.0 * logs
    vals, logs = f_bracket_ray(prob_a, prob_b, b, lams)
    log_f, _, used = _above_floor(prob_a, prob_b, 0.0, b, ys, vals)
    log_ratios = log_f + logs - log_g
    rate, stderr, tail = -math.inf, math.nan, []  # F below the noise floor
    if used.sum() >= 3:
        coef, errs, _ = _ray_lstsq(ys[used], log_ratios[used], ("mu", "1"))
        rate, stderr = float(coef[0]), float(errs[0])
        tail = np.diff(log_ratios[used]) < 0
    return RatioReport(
        ys=ys,
        log_ratios=log_ratios,
        expected_rate=-(4 * math.pi - 2 * b),
        fitted_rate=rate,
        rate_stderr=stderr,
        monotone_tail=bool(np.all(tail[-4:])),
        counting=counting,
    )
