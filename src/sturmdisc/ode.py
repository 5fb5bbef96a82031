"""Initial-value machinery for ``-y'' + q y = lam y`` with an interior jump.

Everything is integrated in exponentially rescaled variables

    z(x) = y(x) * exp(-mu * |x - x_start|),      mu = |Im sqrt(lam)|,

so that solutions stay O(1) even far out on rays like ``lam = i y`` where the
raw solutions grow like ``exp(sqrt(y/2) x)`` and overflow float64 long before
``y = 1e6``.  Results are reported as :class:`ScaledVal` pairs
``(val, log)`` meaning ``val * exp(log)``.

The solver simultaneously advances the chain

    -y_nu'' + q y_nu = lam y_nu + y_{nu-1},   y_{-1} := 0,

whose members are the normalized lambda-derivatives ``(1/nu!) d^nu y/d lam^nu``
of the base solution; this is how characteristic-function derivatives and
multiple-eigenvalue data are obtained without finite differencing.

At the discontinuity ``x = d`` the state is pushed through the matching
conditions (or their inverse when integrating right-to-left).

One private segment walker (``_walk``) advances a batch of lambda through
the pieces of ``q`` and the jump at ``d`` and returns the states at the
points it is asked for.  :func:`solve_many` runs it on a batch and reads
the far end only; :func:`solve_chain` runs it on one lambda and reads a
list of points (the Wronskian's grid, ``b``, ``d-0``, ``d+0`` and ``pi``
for the bracket ``F``, the quadrature nodes of the norming integrals).  A
point inside a segment costs that segment a DOP853 interpolant, three extra
RHS stages per step; a point at a segment end costs nothing.

Bilinear integrals of pairs of solutions from two different problems are
accumulated inside their own solve (:func:`pair_integrals`); this matters
because quantities like ``y*z' - y'*z`` between two nearby problems are
exponentially smaller than their factors, and accumulating the exact
integral form avoids the catastrophic cancellation of forming the
difference afterwards.  That loop stays apart from the walker: it carries
two problems and bracket accumulators with their own jump term, which the
walker would have to branch on.

Accuracy is one argument, ``tol``: both loops run DOP853 through
``_integrate`` at ``rtol = tol`` and ``atol = tol / 100``.  ``TOL`` is the
default; ``BRACKET_TOL`` serves the brackets of two solutions (the
Wronskian, ``F`` and its ray probes), which lose digits to the
cancellation between their factors.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .problem import Problem

TOL = 1e-10  # default relative tolerance of every solve
BRACKET_TOL = 1e-12  # tolerance of the two-problem brackets and their ray probes
_LOG_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# Scaled values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledVal:
    """A complex number stored as ``val * exp(log)`` with real ``log``."""

    val: complex
    log: float = 0.0

    @classmethod
    def of(cls, z: complex) -> "ScaledVal":
        return cls(complex(z), 0.0)

    @property
    def value(self) -> complex:
        """The plain complex number; ``OverflowError`` if it exceeds a float."""

        a = abs(self.val)
        if a == 0:
            return 0.0
        total = self.log + math.log(a)
        if total > _LOG_MAX:
            raise OverflowError(
                f"|value| = exp({total:.6g}) exceeds the float range "
                f"(log scale {self.log:.6g})"
            )
        if self.log < _LOG_MAX:
            return self.val * math.exp(self.log)
        # the scale alone overflows but the product does not
        return (self.val / a) * math.exp(total)

    @property
    def log_abs(self) -> float:
        a = abs(self.val)
        return -math.inf if a == 0 else math.log(a) + self.log

    def __mul__(self, other):
        if isinstance(other, ScaledVal):
            return ScaledVal(self.val * other.val, self.log + other.log)
        return ScaledVal(self.val * other, self.log)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledVal):
            return ScaledVal(self.val / other.val, self.log - other.log)
        return ScaledVal(self.val / other, self.log)

    def __neg__(self):
        return ScaledVal(-self.val, self.log)

    def __add__(self, other):
        if not isinstance(other, ScaledVal):
            other = ScaledVal.of(other)
        hi, lo = (self, other) if self.log >= other.log else (other, self)
        shift = math.exp(lo.log - hi.log) if lo.log - hi.log > -745 else 0.0
        return ScaledVal(hi.val + lo.val * shift, hi.log)

    def __sub__(self, other):
        if not isinstance(other, ScaledVal):
            other = ScaledVal.of(other)
        return self + (-other)

    def __abs__(self) -> float:
        try:
            return abs(self.val) * math.exp(self.log)
        except OverflowError:
            return math.inf


def growth_rate(lam: complex) -> float:
    """``|Im sqrt(lam)|`` for the principal branch."""

    return abs(cmath.sqrt(lam).imag)


# ---------------------------------------------------------------------------
# Jump conditions
# ---------------------------------------------------------------------------


def jump_forward(state, beta: float, gamma: complex):
    """Apply the interior matching to ``state[..., (y, y')]`` left-to-right."""

    y, dy = state[..., 0], state[..., 1]
    out = np.empty_like(state)
    out[..., 0] = beta * y
    out[..., 1] = dy / beta + gamma * y
    return out


def jump_backward(state, beta: float, gamma: complex):
    y, dy = state[..., 0], state[..., 1]
    out = np.empty_like(state)
    out[..., 0] = y / beta
    out[..., 1] = beta * dy - gamma * y
    return out


# ---------------------------------------------------------------------------
# Chain solves: one segment walker, read at requested points
# ---------------------------------------------------------------------------


def _ordered_breaks(x_from: float, x_to: float, pts: Sequence[float]) -> list[float]:
    lo, hi = min(x_from, x_to), max(x_from, x_to)
    inner = sorted({p for p in pts if lo + 1e-12 < p < hi - 1e-12})
    path = [lo] + inner + [hi]
    if x_from > x_to:
        path.reverse()
    return path


def _start(problem: Problem, side: str, n: int, nu_max: int):
    """Start states ``(n, nu_max+1, 2)`` and interval of a chain solve.

    ``side='left'`` runs from 0 to pi from the Robin data ``(1, h)`` of
    ``phi``; ``side='right'`` runs from pi to 0 from ``(1, -H)`` (Robin) or
    ``(0, 1)`` (the Dirichlet-normalized ``psi``).  The higher chain members
    start at zero.
    """

    z = np.zeros((n, nu_max + 1, 2), dtype=complex)
    if side == "left":
        z[:, 0] = (1.0, problem.h)
        return z, 0.0, math.pi
    if side != "right":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    z[:, 0] = (0.0, 1.0) if problem.dirichlet else (1.0, -problem.H)
    return z, math.pi, 0.0


def _integrate(rhs, lo: float, hi: float, y0, tol: float, dense: bool = False):
    """One DOP853 solve over ``[lo, hi]``; the one place a tolerance reaches
    the integrator, as ``rtol = tol`` and ``atol = tol / 100``."""

    sol = solve_ivp(
        rhs, (lo, hi), y0, method="DOP853", dense_output=dense, rtol=tol, atol=tol * 1e-2
    )
    if not sol.success:
        raise RuntimeError(f"integration failed on [{lo}, {hi}]: {sol.message}")
    return sol


def _walk(problem: Problem, lams, z, a: float, at, *, tol):
    """Advance the chain states ``z`` (shape ``(n, nu_max+1, 2)``, one row
    per lambda of ``lams``) from ``a`` to the last point of ``at``, segment
    by segment between the breakpoints of ``q`` and ``d``, through the
    matching at ``d``, and read the states at the points ``at``.

    ``at`` is ordered along the walk.  A point inside a segment is read from
    that segment's DOP853 interpolant, which is built only for segments that
    hold such a point; a point at a segment end gets the integrated state.
    ``d`` listed once reads the state before the matching; listed twice, the
    second entry reads the state after it.

    Returns ``(states, logs)``: the scaled states, shape
    ``(len(at), n, nu_max+1, 2)``, and their log scales ``mu |x - a|``,
    shape ``(len(at), n)``.
    """

    lams = np.asarray(lams, dtype=complex)
    at = np.asarray(at, dtype=float).ravel()
    b = float(at[-1])
    direction = 1.0 if b >= a else -1.0
    if np.any(np.diff(np.append(a, at)) * direction < -1e-12):
        raise ValueError("points must be ordered along the walk from its start")
    nu_max = z.shape[1] - 1
    mus = np.array([growth_rate(lam) for lam in lams])
    mu_signed = (direction * mus)[:, None]
    lam_col = lams[:, None]
    qx = problem.q
    states = np.empty((at.size,) + z.shape, dtype=complex)
    i = 0
    while i < at.size and abs(at[i] - a) <= 1e-12:
        states[i] = z
        i += 1
    path = _ordered_breaks(a, b, [problem.d] + qx.breakpoints())
    for lo, hi in zip(path, path[1:]):
        qfn = qx.piece_fn(min(lo, hi), max(lo, hi))

        def rhs(x, flat, qfn=qfn):
            zz = flat.reshape(-1, nu_max + 1, 2)
            out = np.empty_like(zz)
            out[..., 0] = zz[..., 1] - mu_signed * zz[..., 0]
            out[..., 1] = (qfn(x) - lam_col) * zz[..., 0] - mu_signed * zz[..., 1]
            if nu_max:
                out[:, 1:, 1] -= zz[:, :-1, 0]
            return out.ravel()

        j = i  # at[i:j] lie inside this segment
        while j < at.size and (hi - at[j]) * direction > 1e-12:
            j += 1
        sol = _integrate(rhs, lo, hi, z.ravel(), tol, dense=j > i)
        if j > i:
            states[i:j] = sol.sol(at[i:j]).T.reshape((j - i,) + z.shape)
        z = sol.y[:, -1].reshape(z.shape).copy()
        i = j
        if i < at.size and abs(at[i] - hi) <= 1e-12:
            states[i] = z
            i += 1
        if abs(hi - problem.d) < 1e-12:
            if direction > 0:
                z = jump_forward(z, problem.beta, problem.gamma)
            else:
                z = jump_backward(z, problem.beta, problem.gamma)
        while i < at.size and abs(at[i] - hi) <= 1e-12:
            states[i] = z
            i += 1
    return states, np.abs(at - a)[:, None] * mus


def solve_chain(
    problem: Problem,
    lam: complex,
    at,
    *,
    nu_max: int = 0,
    side: str = "left",
    x_from: float | None = None,
    init: np.ndarray | None = None,
    tol: float = TOL,
):
    """Chain states of one lambda at the points ``at``, ordered along the
    walk from its start to its end, the last point.

    ``side='left'`` starts at 0 from the Robin data ``(1, h)``;
    ``side='right'`` starts at pi from ``(1, -H)`` (Robin) or ``(0, 1)``
    (Dirichlet).  ``x_from`` replaces the start and an explicit ``init``
    (shape ``(nu_max+1, 2)``) replaces the start data.  Points are read as
    :func:`_walk` describes: ``d`` listed twice gives the states before and
    after the matching.

    Returns ``(states, logs)``: the scaled states, shape
    ``(len(at), nu_max+1, 2)`` with ``(y, y')`` per member, and their log
    scales ``mu |x - x_from|``.
    """

    z, a, _ = _start(problem, side, 1, nu_max)
    a = a if x_from is None else x_from
    if init is not None:
        z = np.asarray(init, dtype=complex).reshape(z.shape).copy()
    states, logs = _walk(problem, [lam], z, a, at, tol=tol)
    return states[:, 0], logs[:, 0]


def solve_many(
    problem: Problem,
    lams: np.ndarray,
    *,
    side: str = "left",
    nu_max: int = 0,
    tol: float = TOL,
):
    """Chain end states for a batch of lambda values in one integration.

    Returns ``(states, logs)``: the scaled far-end chain states, shape
    ``(n, nu_max+1, 2)`` with ``(y, y')`` per member, and the per-lambda
    log scales.  The batch shares one step sequence and scipy's error norm
    is the RMS over all components, so a caller that needs each lambda
    within the single-solve error budget divides ``tol`` by ``sqrt(n)``.  No interpolant is built.
    """

    lams = np.asarray(lams, dtype=complex).ravel()
    z, a, b = _start(problem, side, lams.size, nu_max)
    states, logs = _walk(problem, lams, z, a, [b], tol=tol)
    return states[0], logs[0]


def wronskian_check(
    problem: Problem,
    lam: complex,
    r: float = 0.0,
    x0: float = math.pi,
    n_samples: int = 7,
    *,
    tol: float = BRACKET_TOL,
) -> float:
    """Max deviation of ``y1 y2' - y1' y2`` from 1 over a sample grid.

    ``y1, y2`` is the fundamental pair on ``[r, x0]``: ``y1(r)=1,
    y1'(r)=0`` and ``y2(r)=0, y2'(r)=1``, with the matching at ``d``
    applied if it lies inside.  Its bracket is exactly 1 at ``r`` and is
    conserved by both the equation and the matching conditions, so this is
    an end-to-end consistency check of the integrator.  Being a bracket, it
    runs at ``BRACKET_TOL`` by default: the deviation grows like ``tol``
    times ``exp(2 |Im sqrt(lam)| (x0 - r))``.
    """

    xs = np.linspace(r, x0, n_samples)
    (s1, logs), (s2, _) = (
        solve_chain(problem, lam, xs, x_from=r, init=init, tol=tol)
        for init in ((1.0, 0.0), (0.0, 1.0))
    )
    worst = 0.0
    for z1, z2, log in zip(s1[:, 0], s2[:, 0], logs):
        w = z1[0] * z2[1] - z1[1] * z2[0]
        worst = max(worst, abs(w * math.exp(2 * log) - 1.0))
    return float(worst)


# ---------------------------------------------------------------------------
# Paired solves with accumulated bilinear integrals
# ---------------------------------------------------------------------------


def pair_integrals(
    prob_a: Problem,
    prob_b: Problem,
    lam: complex,
    x_from: float,
    x_to: float,
    init_a: np.ndarray,
    init_b: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    *,
    tol: float = TOL,
) -> list[ScaledVal]:
    """Advance solutions of two problems together, accumulating for each
    requested column pair ``(i, j)`` the bracket increment

        W_ij(x_to) - W_ij(x_from),   W_ij = yA_i yB_j' - yA_i' yB_j,

    which satisfies ``W' = (qB - qA) yA yB`` away from ``d`` plus the jump
    contribution at ``d``.  Returns one :class:`ScaledVal` per pair, with
    the scale ``exp(2 mu (x_to - x_from))`` factored out, i.e. already
    normalized the way ray-decay diagnostics need them.  Requires ``d`` to
    coincide (forward direction only)."""

    if abs(prob_a.d - prob_b.d) > 1e-12:
        raise ValueError("paired problems must share the discontinuity point")
    if not x_to > x_from:
        raise ValueError("pair_integrals integrates left to right")
    mu = growth_rate(lam)
    na = init_a.shape[0]
    nb = init_b.shape[0]
    npair = len(pairs)
    qa_x = prob_a.q
    qb_x = prob_b.q
    d = prob_a.d
    pts = [d] + qa_x.breakpoints() + qb_x.breakpoints()
    path = _ordered_breaks(x_from, x_to, pts)
    ia = np.array([p[0] for p in pairs], dtype=int)
    ib = np.array([p[1] for p in pairs], dtype=int)

    za = np.asarray(init_a, dtype=complex).reshape(na, 2).copy()
    zb = np.asarray(init_b, dtype=complex).reshape(nb, 2).copy()
    acc = np.zeros(npair, dtype=complex)

    def bracket(za_, zb_):
        return za_[ia, 0] * zb_[ib, 1] - za_[ia, 1] * zb_[ib, 0]

    for lo, hi in zip(path, path[1:]):
        qa = qa_x.piece_fn(lo, hi)
        qb = qb_x.piece_fn(lo, hi)

        def rhs(x, flat, qa=qa, qb=qb):
            za_ = flat[: 2 * na].reshape(na, 2)
            zb_ = flat[2 * na : 2 * na + 2 * nb].reshape(nb, 2)
            qav = qa(x)
            qbv = qb(x)
            out = np.empty_like(flat)
            oa = out[: 2 * na].reshape(na, 2)
            ob = out[2 * na : 2 * na + 2 * nb].reshape(nb, 2)
            oa[:, 0] = za_[:, 1] - mu * za_[:, 0]
            oa[:, 1] = (qav - lam) * za_[:, 0] - mu * za_[:, 1]
            ob[:, 0] = zb_[:, 1] - mu * zb_[:, 0]
            ob[:, 1] = (qbv - lam) * zb_[:, 0] - mu * zb_[:, 1]
            weight = math.exp(-2.0 * mu * (x_to - x)) if mu * (x_to - x) < 350 else 0.0
            out[2 * na + 2 * nb :] = (
                (qbv - qav) * weight * za_[ia, 0] * zb_[ib, 0]
            )
            return out

        flat = np.concatenate([za.ravel(), zb.ravel(), acc])
        flat = _integrate(rhs, lo, hi, flat, tol).y[:, -1]
        za = flat[: 2 * na].reshape(na, 2).copy()
        zb = flat[2 * na : 2 * na + 2 * nb].reshape(nb, 2).copy()
        acc = flat[2 * na + 2 * nb :].copy()
        if abs(hi - d) < 1e-12 and abs(hi - x_to) > 1e-12:
            before = bracket(za, zb)
            za = jump_forward(za, prob_a.beta, prob_a.gamma)
            zb = jump_forward(zb, prob_b.beta, prob_b.gamma)
            after = bracket(za, zb)
            weight = math.exp(-2.0 * mu * (x_to - d)) if mu * (x_to - d) < 350 else 0.0
            acc = acc + (after - before) * weight
    log_end = 2.0 * mu * (x_to - x_from)
    return [ScaledVal(complex(v), log_end) for v in acc]
