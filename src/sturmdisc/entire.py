"""Canonical products, growth fits, and zero-counting comparisons.

The characteristic functions are entire of order 1/2 and are determined by
their zeros up to a constant: ``delta(lam) = C * prod (1 - lam/lam_n)``
(zeros repeated by multiplicity).  The helpers here evaluate truncated
products in log form, recover the constant from a function sample, fit the
ray growth model

    log|f(i y)| = c * sqrt(y/2) + p * log y + const,

and compare counting functions of zero multisets, which is the numeric
shadow of the growth-comparison estimates used in uniqueness arguments.

All zeros must be nonzero (shift the potential by a constant before
building sequences if the origin is in the spectrum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import ScaledVal
from .spectrum import ZeroSequence


@dataclass
class ProductModel:
    """``C * prod (1 - lam / zeros)^mults``."""

    seq: ZeroSequence
    constant: complex = 1.0

    def __post_init__(self):
        if np.any(np.abs(self.seq.zeros) < 1e-9):
            raise ValueError(
                "product zeros must be nonzero (apply a potential shift first)"
            )

    def log_eval(self, lam: complex) -> complex:
        """``log`` of the product (principal branches termwise); ``-inf``
        real part when ``lam`` is one of the zeros."""

        factors = 1.0 - lam / self.seq.zeros
        if np.any(factors == 0):
            return complex(-math.inf, 0.0)
        terms = np.log(factors)
        total = complex(np.dot(self.seq.mults, terms))
        total += complex(np.log(complex(self.constant)))
        return total

    def eval(self, lam: complex) -> ScaledVal:
        lg = self.log_eval(lam)
        if lg.real == -math.inf:
            return ScaledVal(0.0, 0.0)
        return ScaledVal(complex(np.exp(1j * lg.imag)), lg.real)

    def log_abs_many(self, lams) -> np.ndarray:
        lams = np.asarray(lams, dtype=complex)
        mat = np.log(np.abs(1.0 - lams[:, None] / self.seq.zeros[None, :]))
        out = mat @ self.seq.mults.astype(float)
        out += math.log(abs(complex(self.constant)))
        return out


def truncated_product(seq: ZeroSequence, lam: complex, constant: complex = 1.0) -> ScaledVal:
    return ProductModel(seq, constant).eval(lam)


def truncated_head(seq: ZeroSequence, n: int) -> ZeroSequence:
    """The first ``n`` zeros (by modulus) as a sequence of their own."""

    order = np.argsort(np.abs(seq.zeros))[:n]
    return ZeroSequence(
        tuple(seq.zeros[k] for k in order),
        tuple(int(seq.mults[k]) for k in order),
        origin=seq.origin,
    )


def doubling_check(seq: ZeroSequence, lam: complex, constant: complex = 1.0):
    """Full-truncation and half-truncation product values at ``lam``.

    The gap between the two is a direct convergence measurement for the
    truncated product.
    """

    full = truncated_product(seq, lam, constant)
    half = truncated_product(truncated_head(seq, max(1, len(seq.zeros) // 2)), lam, constant)
    return full, half


def fit_constant(f_sample, seq: ZeroSequence, lam: complex = 0.0) -> complex:
    """Constant ``C`` such that ``C * prod(1 - lam/lam_n)`` matches
    ``f_sample`` at ``lam`` (by default at 0, where the product is 1).

    ``f_sample`` may be a number, a ``ScaledVal``, or a ``Problem`` (whose
    characteristic function is then sampled at ``lam``).
    """

    from .problem import Problem

    if isinstance(f_sample, Problem):
        from .charfn import char_delta

        f_sample = char_delta(f_sample, lam).delta
    if isinstance(f_sample, ScaledVal):
        f_sample = f_sample.value
    model = ProductModel(seq, 1.0)
    lg = model.log_eval(lam)
    return complex(f_sample * np.exp(-lg))


@dataclass
class GrowthFit:
    c: float
    p: float
    const: float
    max_residual: float
    ys: np.ndarray
    log_mags: np.ndarray


def ray_points(y_lo: float = 1e2, y_hi: float = 1e6, per_decade: int = 2) -> np.ndarray:
    """Deterministic geometric grid on the imaginary ray."""

    n = int(round(per_decade * math.log10(y_hi / y_lo))) + 1
    return np.geomspace(y_lo, y_hi, n)


# the columns of a ray fit: mu(iy) = |Im sqrt(iy)| = sqrt(y/2), log y, 1
_RAY_COLUMNS = {"mu": lambda ys: np.sqrt(ys / 2.0), "log": np.log, "1": np.ones_like}


def _ray_lstsq(ys, vals, columns):
    """Least squares of ``vals`` on the named ``columns`` of the ray points
    ``ys``; the one fit behind every ray estimate.  Returns the coefficients,
    their standard errors (NaN with no degree of freedom left) and the
    residuals."""

    ys, vals = np.asarray(ys, dtype=float), np.asarray(vals, dtype=float)
    design = np.column_stack([_RAY_COLUMNS[c](ys) for c in columns])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = vals - design @ coef
    dof = ys.size - len(columns)
    if dof <= 0:
        return coef, np.full(len(columns), math.nan), resid
    r_inv = np.linalg.inv(np.linalg.qr(design, mode="r"))  # (D^T D)^-1 = R^-1 R^-T
    return coef, np.sqrt(resid @ resid / dof * np.sum(r_inv**2, axis=1)), resid


def growth_fit(ys, log_mags) -> GrowthFit:
    """Least-squares fit of ``log|f(iy)| = c sqrt(y/2) + p log y + const``."""

    ys = np.asarray(ys, dtype=float)
    log_mags = np.asarray(log_mags, dtype=float)
    if ys.size < 3:
        raise ValueError(f"a 3-parameter growth fit needs at least 3 samples, got {ys.size}")
    coef, _, resid = _ray_lstsq(ys, log_mags, ("mu", "log", "1"))
    return GrowthFit(
        c=float(coef[0]),
        p=float(coef[1]),
        const=float(coef[2]),
        max_residual=float(np.max(np.abs(resid))),
        ys=ys,
        log_mags=log_mags,
    )


# ---------------------------------------------------------------------------
# Counting comparisons
# ---------------------------------------------------------------------------


@dataclass
class CountingBound:
    margin: float  # min over the grid of N_X - (l1 N_B + l2 N_Binf + l3)
    worst_t: float
    satisfied: bool


def check_counting_bound(
    seq_x: ZeroSequence,
    seq_b: ZeroSequence,
    seq_binf: ZeroSequence,
    l1: float,
    l2: float,
    l3: float,
) -> CountingBound:
    """Verify ``N_X(t) >= l1 N_B(t) + l2 N_Binf(t) + l3`` over a grid.

    The grid is all moduli present in the three sequences (the counting
    functions are staircases, so that is exhaustive up to the common
    truncation bound).  Without ``seq_binf`` the ``l2`` term is dropped.
    """

    seqs = [s for s in (seq_x, seq_b, seq_binf) if s is not None and len(s.zeros)]
    moduli = np.concatenate([np.abs(s.zeros) for s in seqs])
    top = min(np.max(np.abs(s.zeros)) for s in seqs)
    t_grid = np.unique(np.concatenate([moduli[moduli <= top], [top]]))
    # staircase: check just after each jump as well
    t_grid = np.unique(np.concatenate([t_grid, t_grid * (1 + 1e-9) + 1e-9]))
    t_grid = t_grid[t_grid <= top]

    def staircase(s):
        # weighted counting function N(t) = sum of mults with |zero| <= t
        mods = np.abs(s.zeros)
        order = np.argsort(mods)
        csum = np.concatenate([[0.0], np.cumsum(np.asarray(s.mults, float)[order])])
        return csum[np.searchsorted(mods[order], t_grid, side="right")]

    vals = staircase(seq_x) - l1 * staircase(seq_b) - l3
    if seq_binf is not None:
        vals -= l2 * staircase(seq_binf)
    k = int(np.argmin(vals)) if len(vals) else 0
    margin = float(vals[k]) if len(vals) else math.inf
    worst = float(t_grid[k]) if len(t_grid) else 0.0
    return CountingBound(margin=margin, worst_t=worst, satisfied=margin >= 0)


@dataclass
class RayLowerBound:
    min_value: float  # min over the ray of the normalized log magnitude, exp'd
    min_log: float
    ys: np.ndarray
    normalized_logs: np.ndarray


def number_ray_check(
    model_x: ProductModel,
    l1: float,
    l2: float,
    l3: float,
    ys=None,
) -> RayLowerBound:
    """Evaluate ``|G_X(iy)| * |y|^-(l1/2 + l3) * exp(-pi (l1+l2) sqrt(y/2))``
    along the ray and report its minimum.

    When the counting hypothesis ``N_X >= l1 N_B + l2 N_Binf + l3`` holds
    for the underlying (infinite) sequences this stays bounded below by a
    positive constant; the product must carry enough zeros for the
    truncation not to bite over the sampled range.
    """

    if ys is None:
        ys = ray_points(1e3, 1e6)
    ys = np.asarray(ys, dtype=float)
    logs = model_x.log_abs_many(1j * ys)
    normalized = (
        logs
        - (l1 / 2.0 + l3) * np.log(ys)
        - math.pi * (l1 + l2) * np.sqrt(ys / 2.0)
    )
    i = int(np.argmin(normalized))
    return RayLowerBound(
        min_value=float(np.exp(normalized[i])),
        min_log=float(normalized[i]),
        ys=ys,
        normalized_logs=normalized,
    )
