"""High-order large-lambda structure of the basic solutions.

Three related tools live here:

* the recursive coefficient tables ``f_{p,j}`` assembled into ``a_j``/``b_j``
  for the expansion of the sine-normalized solution in the half-power
  kernels ``nu_j(x, lam) = sin/cos(sqrt(lam) x) / (2 sqrt(lam))^j``
  (:func:`build_expansion`); exact for polynomial potentials, spline-backed
  otherwise;
* the convergent iterated-kernel series ``y2 = sum_p S_p``
  (:func:`s_series`) used as an independent cross-check of the tables;
* ray-decay fits of bracket combinations of two problems' fundamental
  solutions (:func:`decay_order_fit`), whose slopes read off how many
  one-sided derivatives of the potentials match at the right endpoint.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import make_interp_spline

from .entire import _ray_lstsq, ray_points
from .expr import PotentialExpr, as_polynomial
from .ode import BRACKET_TOL, pair_integrals
from .problem import Problem


def term_sign(j: int) -> float:
    """The alternating sign with period 4: ``-,-,+,+`` starting at j=0."""

    return -1.0 if j % 4 in (0, 1) else 1.0


# ---------------------------------------------------------------------------
# Representation backends for the coefficient functions
# ---------------------------------------------------------------------------


class _PolyBackend:
    """Exact polynomial coefficient functions; ``+`` and ``*`` by a constant
    act on both backends' representations directly."""

    def __init__(self, qpoly):
        self.q = qpoly

    def from_q_deriv(self, k):
        return self.deriv(self.q, k) if k else self.q

    def deriv(self, f, k=1):
        return f.deriv(k)

    def integ0(self, f):
        return f.integ(lbnd=0)

    def at(self, f, x):
        return f(x)

    def const(self, c):
        return np.polynomial.Polynomial([c])


class _GridBackend(_PolyBackend):
    """Values on a fixed fine grid with B-spline calculus in between."""

    def __init__(self, qfn, xs):
        self.xs = xs
        self.q = np.asarray(qfn(xs), dtype=complex)

    def _spline(self, vals):
        k = 5 if len(self.xs) > 6 else 3
        re = make_interp_spline(self.xs, vals.real, k=k)
        im = make_interp_spline(self.xs, vals.imag, k=k)
        return re, im

    def deriv(self, f, k=1):
        re, im = self._spline(f)
        return re.derivative(k)(self.xs) + 1j * im.derivative(k)(self.xs)

    def integ0(self, f):
        re, im = self._spline(f)
        return (
            re.antiderivative()(self.xs)
            - re.antiderivative()(self.xs[0])
            + 1j * (im.antiderivative()(self.xs) - im.antiderivative()(self.xs[0]))
        )

    def at(self, f, x):
        re, im = self._spline(f)
        return complex(re(x) + 1j * im(x))

    def const(self, c):
        return np.full_like(self.xs, c, dtype=complex)


_GRID_N = 4001  # grid of the spline backend


@dataclass
class ExpansionTable:
    m: int
    backend: object
    f: dict  # (p, j) -> representation
    a: dict  # j -> representation
    b: dict  # j -> representation
    path: str

    def f_at(self, p: int, j: int, x: float) -> complex:
        if (p, j) not in self.f:
            return 0.0
        return complex(self.backend.at(self.f[(p, j)], x))

    def a_at(self, j: int, x: float) -> complex:
        return complex(self.backend.at(self.a[j], x))

    def b_at(self, j: int, x: float) -> complex:
        return complex(self.backend.at(self.b[j], x))


def build_expansion(q, m: int) -> ExpansionTable:
    """Coefficient tables for smoothness degree ``m >= 0`` on ``[0, pi]``.

    ``f_{1,j}`` come from antiderivative/derivative shifts of the potential;
    higher rows are built by the two-term recursion mixing derivatives of
    ``q * f_{p-1,s}`` with ``q``-weighted integrals.  ``a_j`` (j=1..m+2) and
    ``b_j`` (j=0..m+1) are the assembled coefficients of the kernel
    expansions of the sine-normalized solution and its derivative.
    Potentials that are not polynomials are sampled on a 4001-point grid.
    """

    if isinstance(q, str):
        q = PotentialExpr.parse(q)
    xs = np.linspace(0.0, math.pi, _GRID_N)
    if isinstance(q, PotentialExpr):
        piece = q.pieces[0]
        if piece.hi < math.pi - 1e-12:
            raise ValueError("expansion requires a single smooth piece on [0, pi]")
        poly = as_polynomial(piece.node)
        if poly is not None:
            backend = _PolyBackend(poly)
            path = "polynomial"
        else:
            backend = _GridBackend(q.piece_fn(0.0, min(piece.hi, math.pi)), xs)
            path = "grid"
    else:
        backend = _GridBackend(q, xs)
        path = "grid"

    B = backend
    sigma = B.integ0(B.q)
    f: dict = {}
    pmax = m + 2
    for j in range(1, pmax + 1):
        # f_{1,j} needs sigma^{(j-1)}, i.e. q^{(j-2)} for j >= 2
        rep = sigma if j == 1 else B.from_q_deriv(j - 2)
        parity = -((-1.0) ** (j - 1))  # the -(-1)^(j-1) offset weight
        f[(1, j)] = (rep + B.const(parity * B.at(rep, 0.0))) * term_sign(j)
    for p in range(2, pmax + 1):
        f[(p, p)] = B.integ0(B.q * f[(p - 1, p - 1)]) * (-1.0) ** p
        for j in range(p + 1, pmax + 1):
            total = B.integ0(B.q * f[(p - 1, j - 1)]) * (-1.0) ** j
            for s in range(max(1, p - 1), j - 1):
                base = B.q * f[(p - 1, s)]
                if j - s - 2:
                    base = B.deriv(base, j - s - 2)
                base0 = B.at(base, 0.0)
                total = total + (base + B.const(-((-1.0) ** (j - 1)) * base0)) * (
                    -term_sign(s) * term_sign(j)
                )
            f[(p, j)] = total

    a: dict = {}
    for j in range(1, m + 2):
        rep = B.const(0.0)
        for p in range(1, min(j, pmax) + 1):
            rep = rep + f[(p, j)]
        a[j] = rep
    rep = B.const(0.0)
    for p in range(2, pmax + 1):
        rep = rep + f[(p, m + 2)]
    a[m + 2] = rep

    b: dict = {}
    b[0] = f[(1, 1)] * -0.5
    for j in range(1, m + 1):
        rep = B.const(0.0)
        for p in range(1, pmax + 1):
            if (p, j) in f:
                rep = rep + B.deriv(f[(p, j)])
            if (p, j + 1) in f:
                rep = rep + f[(p, j + 1)] * (0.5 * (-1.0) ** (j + 1))
        b[j] = rep
    rep = B.const(0.0)
    for p in range(2, pmax + 1):
        if (p, m + 1) in f:
            rep = rep + B.deriv(f[(p, m + 1)])
        rep = rep + f[(p, m + 2)] * (0.5 * (-1.0) ** (m + 2))
    b[m + 1] = rep

    return ExpansionTable(m=m, backend=B, f=f, a=a, b=b, path=path)


# ---------------------------------------------------------------------------
# Iterated-kernel series
# ---------------------------------------------------------------------------


def s_series(q, xs, lam: complex, p_max: int):
    """Terms ``S_0..S_pmax`` (and companions ``C_p``) of the convergent
    iterated-kernel series for the sine-normalized solution on a grid.

    ``S_p(x) = integral_0^x sin(sqrt(lam)(x-t))/sqrt(lam) q(t) S_{p-1}(t) dt``
    is evaluated through cumulative Simpson integrals of the split kernel;
    meant for moderate ``|lam|`` (no exponential rescaling here).
    """

    if isinstance(q, str):
        q = PotentialExpr.parse(q, length=max(float(xs[-1]), math.pi))
    if isinstance(q, PotentialExpr):
        qv = np.asarray(q(xs), dtype=complex)
    else:
        qv = np.asarray(q(np.asarray(xs)), dtype=complex)
    xs = np.asarray(xs, dtype=float)
    s = cmath.sqrt(lam)
    sin_x, cos_x = np.sin(s * xs), np.cos(s * xs)
    S = [sin_x / s]
    C = [cos_x]
    def _cum(vals):
        return cumulative_simpson(vals.real, x=xs, initial=0.0) + 1j * cumulative_simpson(
            vals.imag, x=xs, initial=0.0
        )

    for p in range(1, p_max + 1):
        g = qv * S[-1]
        ic = _cum(cos_x * g)
        isn = _cum(sin_x * g)
        S.append((sin_x * ic - cos_x * isn) / s)
        C.append(cos_x * ic + sin_x * isn)
    return S, C


# ---------------------------------------------------------------------------
# Ray decay of paired-solution brackets
# ---------------------------------------------------------------------------

# claimed decay exponent (power of |sqrt(lam)|) for each combination when the
# potentials match to m derivatives at x0
_COMBO_ORDER = {
    (1, 1): 1,
    (1, 2): 2,
    (2, 1): 2,
    (2, 2): 3,
}

_COMBO_ALIASES = {
    "11": (1, 1),
    "12": (1, 2),
    "21": (2, 1),
    "22": (2, 2),
}


@dataclass
class DecayFit:
    combo: tuple
    slope: float
    intercept: float
    ys: np.ndarray
    normalized_logs: np.ndarray
    used: np.ndarray
    floor_logs: np.ndarray
    claimed_exponent: float | None = None
    passes: bool | None = None
    slope_stderr: float = math.nan


def _above_floor(prob_a, prob_b, r, x0, ys, vals, sine_members=0):
    """The noise floor of the pair probes, for a bracket summed over ``[r,
    x0]`` at ``BRACKET_TOL``: ``30 BRACKET_TOL max|qB - qA| (x0 - r)`` times
    ``|lam|^(-1/2)`` per member started from ``(0, 1)``.  Returns ``(logs,
    floor_logs, used)``: ``log|vals|``, the floor's logs and the mask of
    the points above it."""

    xs = np.linspace(r, x0, 257)
    qdiff = np.max(np.abs(prob_b.q(xs) - prob_a.q(xs)))
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(vals))
    floor = 30.0 * BRACKET_TOL * max(qdiff, 1e-30) * (x0 - r)
    floors = math.log(floor) - 0.5 * sine_members * np.log(ys)
    return logs, floors, logs > floors


def _decay_above_floor(prob_a, prob_b, r, x0, ys, vals, sine_members=0):
    """The one decay rule of the pair probes: fit ``log|vals|`` against
    ``log y`` over the points above the :func:`_above_floor` noise floor.
    Fewer than 3 points above it give the slope ``-inf``: decay beyond
    resolution.

    Returns ``(logs, floor_logs, used, coef, stderr)``, with ``coef`` and
    ``stderr`` for the slope per ``log y`` and the intercept.
    """

    logs, floors, used = _above_floor(prob_a, prob_b, r, x0, ys, vals, sine_members)
    if used.sum() < 3:
        return logs, floors, used, (-math.inf, math.nan), (math.nan, math.nan)
    coef, stderr, _ = _ray_lstsq(ys[used], logs[used], ("log", "1"))
    return logs, floors, used, coef, stderr


def decay_order_fit(
    prob_a: Problem,
    prob_b: Problem,
    r: float,
    x0: float,
    combo=(2, 2),
    ys=None,
    *,
    m_claimed: int | None = None,
) -> DecayFit:
    """Fit the ray decay exponent of ``W = yA_i ytB_j' - yA_i' ytB_j``.

    The fundamental solutions are normalized at ``r``; ``W`` is evaluated at
    ``x0`` through its integral representation (one batched
    :func:`~sturmdisc.ode.pair_integrals` call for all ``ys``), normalized
    by the shared growth ``exp(2 |Im sqrt(i y)| (x0 - r))``, and ``log`` of
    the result is regressed against ``log |sqrt(i y)|``.  Points whose
    normalized magnitude sits below the integrator noise floor are excluded
    (if fewer than 3 are left, the slope is reported as ``-inf``: decay
    beyond resolution, which counts as a pass when a claimed order is
    supplied).

    With ``m_claimed`` the fit carries a pass/fail verdict against the
    claimed exponent of the combination (``m+1`` for the cosine pair up to
    ``m+3`` for the sine pair), with a 0.3 fitting allowance.
    """

    if isinstance(combo, str):
        combo = _COMBO_ALIASES[combo]
    combo = (int(combo[0]), int(combo[1]))
    ys = ray_points() if ys is None else np.asarray(ys, dtype=float)
    init = ((1.0, 0.0), (0.0, 1.0))
    vals, _ = pair_integrals(prob_a, prob_b, 1j * ys, r, x0, init[combo[0] - 1],
                             init[combo[1] - 1], tol=BRACKET_TOL)
    logs, floors, used, coef, stderr = _decay_above_floor(
        prob_a, prob_b, r, x0, ys, vals, (combo[0] == 2) + (combo[1] == 2)
    )
    slope = 2.0 * float(coef[0])  # per log |sqrt(iy)| = (log y) / 2
    claimed = None if m_claimed is None else m_claimed + _COMBO_ORDER[combo]
    return DecayFit(
        combo=combo,
        slope=slope,
        intercept=float(coef[1]),
        ys=ys,
        normalized_logs=logs,
        used=used,
        floor_logs=floors,
        claimed_exponent=claimed,
        passes=None if claimed is None else slope <= -claimed + 0.3,
        slope_stderr=2.0 * float(stderr[0]),
    )
