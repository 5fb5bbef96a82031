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

One private segment walker (``_walk``) advances a batch of lambda, for one
problem or several that share ``d``, through the pieces of ``q`` and the
jump at ``d`` and returns the states at the points it is asked for.
:func:`solve_many` runs it on a batch and reads the far end only;
:func:`solve_chain` runs it on one lambda and reads a list of points
(``b``, ``d-0``, ``d+0`` and ``pi`` for the bracket ``F``, the quadrature
nodes of the norming integrals).  Each segment between breakpoints goes to
one kernel, ``_magnus``, a fourth-order Magnus scheme with two Gauss nodes
per step, exact on a constant piece of ``q`` and with an error that does not
grow with ``|lam|``.  Its step exponential is ``C(w) I + S(w) Omega`` with
``Omega^2 = w I``; the chain members are the Taylor coefficients in lambda
of the step products.  A point strictly inside a segment is one partial
step from the start of the step that holds it.

The bracket ``y*z' - y'*z`` of solutions of two nearby problems is
exponentially smaller than its factors, so :func:`pair_integrals` does not
form it from the end states.  It walks both problems for a whole batch of
lambda at once and sums the exact integral form at quadrature nodes, which
avoids the catastrophic cancellation of forming the difference afterwards.

Accuracy is one argument, ``tol``.  ``TOL`` is the default;
``BRACKET_TOL`` serves the brackets of two solutions (the Wronskian, ``F``
and its ray probes), which lose digits to the cancellation between their
factors.  On each segment the kernel takes one step first, then 8 steps
per unit length, doubling, and keeps ``z_2N + (z_2N - z_N) / 15`` (the
``h^4`` error term extrapolated away) once every
row has ``max |z_2N - z_N| <= tol max |z_2N|`` over its whole chain, with
``y'`` weighed by ``1 / sqrt(max(|lam|, 1))``, or a change no larger than
the rounding ``8 eps (2N + sqrt|lam| |hi - lo|)`` of the step products and
the phase: first at the segment's end, then at the reads inside it, so
that reading a point leaves the end state as it is.
Past ``2**16`` steps it raises ``RuntimeError`` naming the segment and the
worst lambda.  Rows are judged one by one, so one ``tol`` serves a batch of
any size.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
# never called here: the benchmark tracer (perfbench/tracing.py) patches this name
from scipy.integrate import solve_ivp  # noqa: F401

from .problem import Problem

TOL = 1e-10  # default relative tolerance of every solve
BRACKET_TOL = 1e-12  # tolerance of the two-problem brackets and their ray probes
_LOG_MAX = math.log(sys.float_info.max)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_PAIR_BLOCK = 1024  # quadrature nodes read per walk of pair_integrals


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
    inner = sorted(p for p in pts if lo + 1e-12 < p < hi - 1e-12)
    # d within rounding of a break of q is one break, so the jump applies once
    path = [lo] + [p for k, p in enumerate(inner) if k == 0 or p - inner[k - 1] > 1e-12] + [hi]
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


class _Rows(NamedTuple):
    """The rows of one walk: the lambda of the batch for each problem in
    turn, their rates ``mu`` and the walk's ``tol``."""

    problems: Sequence[Problem]
    lams: np.ndarray
    mus: np.ndarray
    tol: float

    def q_fns(self, lo: float, hi: float) -> list:
        return [p.q.piece_fn(min(lo, hi), max(lo, hi)) for p in self.problems]


# the two Gauss nodes of a Magnus step, as fractions of the step
_NODES = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
_COSH = [1.0 / math.factorial(2 * k) for k in range(9)]  # series in s^2
_SINHC = [1.0 / math.factorial(2 * k + 1) for k in range(9)]
_ETA_SERIES = 16.0  # |s^2| below which eta_k, k >= 1, is summed from its series
_MAGNUS_BLOCK = 1 << 13  # step-lambda-member propagators built and folded at once
_MAGNUS_MAX_STEPS = 1 << 16


def _q_rows(qfns, n: int, x):
    """``q`` at the points ``x`` for the rows: shape ``(1, x.size)`` for one
    problem, ``(rows, x.size)`` for several, each repeated over its ``n``
    lambda."""

    if len(qfns) == 1:
        return np.broadcast_to(qfns[0](x), x.shape)[None, :]
    return np.repeat([np.broadcast_to(f(x), x.shape) for f in qfns], n, axis=0)


def _propagators(q1, q2, h, lam, damp, order: int):
    """The Taylor coefficients in lambda, up to ``order``, of the step
    propagators ``[[a, b], [c, d]] = exp(-damp) exp(Omega)``, four arrays of
    shape ``(order+1, rows, steps)``, from ``q`` at the Gauss nodes of each
    step of signed length ``h`` (one number, or one per step).

    ``Omega = [[c0, h], [h abar, -c0]]``, ``c0 = (sqrt(3) h^2 / 12)(q1 -
    q2)``, ``abar = (q1 + q2)/2 - lam``, squares to ``w I``, ``w = s^2 = c0^2
    + h^2 abar``, so ``exp(Omega) = C I + S Omega`` with ``C = cosh s`` and
    ``S = sinh(s)/s``, formed from ``exp(s - damp)`` and ``exp(-2s)`` (``Re s
    >= 0``) or, for ``|s| < 1/2``, their series.  As ``dw/dlam = -h^2`` and
    ``dOmega/dlam = [[0, 0], [-h, 0]]``, coefficient ``k`` is ``C_k I + S_k
    Omega + S_{k-1} [[0, 0], [-h, 0]]`` with ``C_k = (-h^2/2)^k eta_{k-1}(w)
    / k!`` and ``S_k = (-h^2/2)^k eta_k(w) / k!``, where ``eta_{-1} = C``,
    ``eta_0 = S`` and ``eta_k = (eta_{k-2} - (2k-1) eta_{k-1}) / w`` obey
    ``eta_k' = eta_{k+1} / 2`` (Ixaru's functions of the CP methods); for
    ``|w| < _ETA_SERIES`` that recursion loses digits, and ``eta_k`` is
    summed from its series."""

    c0 = (math.sqrt(3.0) / 12.0 * h * h) * (q1 - q2)
    abar = 0.5 * (q1 + q2) - lam
    w = c0 * c0 + h * h * abar
    s = np.sqrt(w, out=None if order else w)  # the principal root: Re s >= 0
    small = np.abs(s) < 0.5
    s_small = s[small]
    s[small] = 1.0
    half = s - damp
    np.exp(half, out=half)
    half *= 0.5
    back = -2.0 * s
    np.exp(back, out=back)  # |exp(-2s)| <= 1
    cosh = back + 1.0
    cosh *= half
    sinhc = np.subtract(1.0, back, out=back)
    sinhc *= half
    sinhc /= s
    if s_small.size:
        scale = np.broadcast_to(np.exp(-damp), s.shape)[small]
        s2 = s_small * s_small
        cosh[small] = np.polynomial.polynomial.polyval(s2, _COSH) * scale
        sinhc[small] = np.polynomial.polynomial.polyval(s2, _SINHC) * scale
    del s, half
    eta = [cosh, sinhc]  # eta_{-1}, eta_0, ..., all scaled by exp(-damp)
    if order:
        near = np.abs(w) < _ETA_SERIES
        w_far = np.where(near, 1.0, w)
        w_near = w[near]
        scale = np.broadcast_to(np.exp(-damp), w.shape)[near]
        for k in range(1, order + 1):
            e = (eta[-2] - (2 * k - 1) * eta[-1]) / w_far
            # eta_k(w) = 2^k sum_j (j+k)!/j! w^j / (2j+2k+1)!, 18 terms for |w| < 16
            series = [2.0**k * math.perm(j + k, k) / math.factorial(2 * j + 2 * k + 1)
                      for j in range(18)]
            e[near] = np.polynomial.polynomial.polyval(w_near, series) * scale
            eta.append(e)
    t = sinhc * c0
    a, d = [cosh + t], [np.subtract(cosh, t, out=t)]
    c = [np.multiply(abar, sinhc, out=None if order else abar)]
    c[0] *= h
    b = [np.multiply(sinhc, h, out=None if order else sinhc)]
    coef, s_prev = 1.0, sinhc
    for k in range(1, order + 1):
        coef = coef * (-0.5 * h * h / k)
        ck, sk = coef * eta[k], coef * eta[k + 1]  # C_k, S_k
        t = sk * c0
        a.append(ck + t)
        d.append(ck - t)
        b.append(sk * h)
        c.append((sk * abar - s_prev) * h)
        s_prev = sk
    return tuple(x[0][None] if order == 0 else np.stack(x) for x in (a, b, c, d))


def _conv(x, y):
    """The product of two power series in lambda, coefficients along axis
    0, truncated at the length of ``y``."""

    out = x[0] * y
    for j in range(1, x.shape[0]):
        out[j:] += x[j] * y[:-j]
    return out


def _apply(p, y):
    """The propagator series ``p = (a, b, c, d)`` applied to the chain ``y =
    (u, v)`` of values and derivatives."""

    a, b, c, d = p
    u, v = y
    return _conv(a, u) + _conv(b, v), _conv(c, u) + _conv(d, v)


def _mul(p1, p0):
    """The propagator series ``p1 p0``, ``p0`` first: ``p1`` applied to each
    column of ``p0``."""

    (a, c), (b, d) = _apply(p1, p0[0::2]), _apply(p1, p0[1::2])
    return a, b, c, d


def _sweep(p, y, starts: bool):
    """The product of the step propagators ``p`` (steps along the last axis,
    in walk order) applied to the chain ``y``, multiplying neighbouring
    steps pairwise until one is left, and, with ``starts``, the chain at the
    start of every step, from walking those levels back down."""

    levels = []
    while p[0].shape[-1] > 1:
        n = p[0].shape[-1]
        paired = n - n % 2
        up = _mul(tuple(t[..., 1:paired:2] for t in p), tuple(t[..., 0:paired:2] for t in p))
        if n % 2:  # the odd last step joins the last pair
            last = _mul(tuple(t[..., -1:] for t in p), tuple(t[..., -1:] for t in up))
            for t, j in zip(up, last):
                t[..., -1:] = j
        if starts:
            levels.append(p)
        p = up
    end = _apply([t[..., 0] for t in p], y)
    at = [v[..., None] for v in y]  # the chain at the start of each element
    for p in reversed(levels):
        n = p[0].shape[-1]
        odd = _apply([t[..., 0 : n - n % 2 : 2] for t in p], at)
        at = [np.stack(v, axis=-1).reshape(v[0].shape[:-1] + (-1,)) for v in zip(at, odd)]
        if n % 2:
            last = _apply([t[..., -2:-1] for t in p], [v[..., -1:] for v in at])
            at = [np.concatenate(v, axis=-1) for v in zip(at, last)]
    return end, at if starts else None


def _magnus_steps(rows: _Rows, qfns, lo: float, hi: float, steps: int, y, reads):
    """The states, shape ``(reads.size + 1, rows, order+1, 2)``, at the
    points ``reads`` and then at ``hi`` of the chain ``y = (u, v)`` (each
    ``(order+1, rows)``) carried from ``lo`` in ``steps`` Magnus steps of
    signed length ``h``, each scaled by ``exp(-mu |h|)``.  A read is one
    partial step from the start of the step that holds it.  At most
    ``_MAGNUS_BLOCK`` steps (or reads) times rows times chain members are
    built at once."""

    n = rows.lams.size // len(qfns)
    order = y[0].shape[0] - 1
    h = (hi - lo) / steps
    lam, mus = rows.lams[:, None], rows.mus[:, None]
    held = np.clip(np.floor((reads - lo) / h), 0, steps - 1).astype(int)
    out = np.empty((reads.size + 1, rows.lams.size, order + 1, 2), dtype=complex)
    per_block = max(1, _MAGNUS_BLOCK // (rows.lams.size * (order + 1)))
    for k0 in range(0, steps, per_block):
        k1 = min(steps, k0 + per_block)
        k = np.arange(k0, k1, dtype=float)
        q1, q2 = (_q_rows(qfns, n, lo + h * (k + node)) for node in _NODES)
        i0, i1 = np.searchsorted(held, [k0, k1])
        y_end, at = _sweep(_propagators(q1, q2, h, lam, mus * abs(h), order), y, i1 > i0)
        for r0 in range(i0, i1, per_block):
            r1 = min(i1, r0 + per_block)
            x0 = lo + h * held[r0:r1]
            t = reads[r0:r1] - x0
            q1, q2 = (_q_rows(qfns, n, x0 + t * node) for node in _NODES)
            part = _propagators(q1, q2, t, lam, mus * np.abs(t), order)
            u, v = _apply(part, [s[..., held[r0:r1] - k0] for s in at])
            out[r0:r1, ..., 0], out[r0:r1, ..., 1] = u.transpose(2, 1, 0), v.transpose(2, 1, 0)
        y = y_end
    out[-1, ..., 0], out[-1, ..., 1] = y[0].T, y[1].T
    return out


def _magnus(rows: _Rows, lo: float, hi: float, z, reads):
    """The walk's kernel: ``(end, states)``, the chain ``z`` (shape ``(rows,
    order+1, 2)``) carried over the segment ``[lo, hi]`` and read at the
    points ``reads`` strictly inside it, by the step rule of the module
    docstring.  The reads start from the two step counts that settled the
    end state and double on until they settle too."""

    qfns = rows.q_fns(lo, hi)
    y0 = z[..., 0].T, z[..., 1].T
    # rounding in the step products and in the phase sqrt|lam| |hi - lo|
    # puts a floor under the change between two step counts
    phase = np.sqrt(np.abs(rows.lams)) * abs(hi - lo)
    # the change and the size weigh (y, y' / sigma), sigma = sqrt(max(|lam|,
    # 1)), so that a state read where y' passes through zero keeps its size
    sigma = np.sqrt(np.maximum(np.abs(rows.lams), 1.0))
    weight = np.stack([np.ones_like(sigma), 1.0 / sigma], axis=-1)[:, None, :]

    def settle(pts, before, steps):
        prev = _magnus_steps(rows, qfns, lo, hi, before, y0, pts)
        while True:
            y = _magnus_steps(rows, qfns, lo, hi, steps, y0, pts)
            change = (np.abs(np.subtract(y, prev, out=prev)) * weight).max(axis=(2, 3))
            size = (np.abs(y) * weight).max(axis=(2, 3))
            floor = 8.0 * sys.float_info.epsilon * (steps + phase)
            if np.all(change <= np.maximum(rows.tol, floor) * size):
                # the scheme errs like h^4, so one Richardson step removes the
                # leading term: a segment's error no longer reaches tol, where
                # the solution shrinks after it and turns it into a larger
                # relative error of delta
                y += prev / ((steps / before) ** 4 - 1.0)
                return y, before, steps
            if 2 * steps > _MAGNUS_MAX_STEPS:
                with np.errstate(divide="ignore", invalid="ignore"):
                    gap = (change / size).max(axis=0)
                worst = int(np.argmax(np.where(np.isnan(gap), np.inf, gap)))
                raise RuntimeError(
                    f"Magnus steps on [{lo}, {hi}] do not settle within {steps} steps: "
                    f"relative change {gap[worst]:.3g} > tol = {rows.tol:.3g} "
                    f"at lambda = {complex(rows.lams[worst])}"
                )
            prev, before, steps = y, steps, 2 * steps

    y, before, steps = settle(reads[:0], 1, max(2, math.ceil(8.0 * abs(hi - lo))))
    return y[-1], (settle(reads, before, steps)[0] if reads.size else y)[:-1]


def _walk(problems: Sequence[Problem], lams, z, a: float, at, *, tol):
    """Advance the chain states ``z`` (shape ``(rows, nu_max+1, 2)``) from
    ``a`` to the last point of ``at``, segment by segment between the
    breakpoints of every ``q`` and ``d``, through the matching at ``d``, and
    read the states at the points ``at``.

    The rows run over ``lams`` for each of ``problems`` in turn, so
    ``rows = len(problems) * len(lams)``; the problems must share ``d``.
    Each row sees its own problem's ``q`` and matching.

    ``at`` is ordered along the walk.  Each segment is one :func:`_magnus`
    call, which also returns the states at the points of ``at`` strictly
    inside it; a point at a segment end gets the state there.  ``d``
    listed once reads the state before the matching; listed twice, the
    second entry reads the state after it.

    Returns ``(states, logs)``: the scaled states, shape
    ``(len(at), rows, nu_max+1, 2)``, and their log scales ``mu |x - a|``,
    shape ``(len(at), rows)``.
    """

    d = problems[0].d
    if any(abs(p.d - d) > 1e-12 for p in problems):
        raise ValueError("problems walked together must share the discontinuity point")
    lams = np.tile(np.asarray(lams, dtype=complex), len(problems))
    at = np.asarray(at, dtype=float).ravel()
    b = float(at[-1])
    direction = 1.0 if b >= a else -1.0
    if np.any(np.diff(np.append(a, at)) * direction < -1e-12):
        raise ValueError("points must be ordered along the walk from its start")
    mus = np.array([growth_rate(lam) for lam in lams])
    rows = _Rows(problems, lams, mus, tol)
    states = np.empty((at.size,) + z.shape, dtype=complex)
    i = 0
    while i < at.size and abs(at[i] - a) <= 1e-12:
        states[i] = z
        i += 1
    path = _ordered_breaks(a, b, [d] + [x for p in problems for x in p.q.breakpoints()])
    for lo, hi in zip(path, path[1:]):
        j = i  # at[i:j] lie inside this segment
        while j < at.size and (hi - at[j]) * direction > 1e-12:
            j += 1
        z, states[i:j] = _magnus(rows, lo, hi, z, at[i:j])
        i = j
        if i < at.size and abs(at[i] - hi) <= 1e-12:
            states[i] = z
            i += 1
        if abs(hi - d) < 1e-12:
            jump = jump_forward if direction > 0 else jump_backward
            z = np.concatenate([
                jump(block, p.beta, p.gamma)
                for block, p in zip(np.split(z, len(problems)), problems)
            ])
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
    states, logs = _walk([problem], [lam], z, a, at, tol=tol)
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
    log scales.  The batch shares each segment's step count, and every
    lambda is judged on its own, so each meets ``tol`` as a one-lambda solve
    does.
    """

    lams = np.asarray(lams, dtype=complex).ravel()
    z, a, b = _start(problem, side, lams.size, nu_max)
    states, logs = _walk([problem], lams, z, a, [b], tol=tol)
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
    conserved by both the equation and the matching conditions.  Being a
    bracket, it runs at ``BRACKET_TOL`` by default.

    Both solutions are walked together, one walk per grid interval.  The
    Magnus step propagators have determinant ``exp(-2 mu |h|)``, which the
    log scales put back, and the matching has determinant 1, so the bracket
    is kept to rounding whatever the step count and does not measure the
    accuracy of the steps.  It checks the walk (the log scales, the matching
    at ``d``, also at a grid point, and the states handed from one walk to
    the next); the deviation grows like the rounding error times ``exp(2
    |Im sqrt(lam)| (x0 - r))``, the cancellation between the pair.
    """

    xs = np.linspace(r, x0, n_samples)
    z = np.array([[[1.0, 0.0]], [[0.0, 1.0]]], dtype=complex)
    log, worst = 0.0, 0.0
    for lo, hi in zip(xs, xs[1:]):
        at = [hi, hi] if abs(hi - problem.d) <= 1e-12 else [hi]  # go on past d
        states, logs = _walk([problem], [lam, lam], z, lo, at, tol=tol)
        z, log = states[-1], log + logs[-1, 0]
        w = z[0, 0, 0] * z[1, 0, 1] - z[0, 0, 1] * z[1, 0, 0]
        worst = max(worst, abs(w * math.exp(2 * log) - 1.0))
    return float(worst)


# ---------------------------------------------------------------------------
# Brackets of two problems by quadrature over one walk
# ---------------------------------------------------------------------------


def _gauss_nodes(lam: complex, x_from: float, x_to: float, pts: Sequence[float]):
    """12-point Gauss-Legendre nodes and weights on panels of length about
    ``1/sqrt|lam|`` inside each segment of ``[x_from, x_to]`` between the
    breakpoints ``pts``, ordered along the walk from ``x_from``."""

    rate = abs(cmath.sqrt(lam))
    xs, ws = [], []
    path = _ordered_breaks(min(x_from, x_to), max(x_from, x_to), pts)
    for lo, hi in zip(path, path[1:]):
        n_panels = max(6, int(1.0 * rate * (hi - lo)) + 1)
        edges = np.linspace(lo, hi, n_panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        xs.append((half * _GL_NODES + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel())
        ws.append((half * _GL_WEIGHTS).ravel())
    x, w = np.concatenate(xs), np.concatenate(ws)
    return (x, w) if x_to >= x_from else (x[::-1], w[::-1])


def _bracket(ya, yb):
    return ya[..., 0] * yb[..., 1] - ya[..., 1] * yb[..., 0]


def pair_integrals(
    prob_a: Problem,
    prob_b: Problem,
    lams,
    x_from: float,
    x_to: float,
    init_a,
    init_b,
    *,
    tol: float = TOL,
):
    """The bracket ``W = yA yB' - yA' yB`` at ``x_to`` of the solutions of
    two problems that share ``d``, started from ``init_a`` and ``init_b``
    (each ``(y, y')``) at ``x_from < x_to``, for a batch of lambda:
    ``(vals, logs)`` with ``W = vals * exp(logs)``, ``logs = 2 mu (x_to -
    x_from)``.

    Between two nearby problems ``W`` is exponentially smaller than its
    factors, so it is summed from its value at the start, the integral of
    ``W' = (qB - qA) yA yB`` over the :func:`_gauss_nodes` of one walk of
    both problems, and its jump at ``d``, each term at the scale of the
    result.  A term more than ``350 / mu`` before ``x_to`` weighs less than
    ``exp(-700)``, so the walk crosses that stretch without reads.  The
    batch shares the walk: nodes from its largest ``|lam|``, skip-ahead from
    its smallest ``mu``, and ``_PAIR_BLOCK`` nodes read per walk to bound
    the memory.  Each node is a read inside a segment of the walk, so the
    step rule judges the states there as well as at the segment ends.
    """

    if not x_to > x_from:
        raise ValueError("pair_integrals integrates left to right")
    lams = np.asarray(lams, dtype=complex).ravel()
    n, d, problems = lams.size, prob_a.d, [prob_a, prob_b]
    mus = np.array([growth_rate(lam) for lam in lams])

    def decay(dist):  # exp(-2 mu dist) by math.exp, as a one-lambda call has it
        return np.array([math.exp(-2.0 * mu * dist) for mu in mus])

    # rows: lams for problem A, then lams for problem B
    z = np.repeat(np.array([init_a, init_b], dtype=complex).reshape(2, 1, 2), n, axis=0)
    mu_min = mus.min()
    start = x_from if mu_min * (x_to - x_from) <= 350.0 else x_to - 350.0 / mu_min
    if start > x_from:
        # d listed twice reads the state after the matching
        cut = [start, start] if abs(start - d) <= 1e-12 else [start]
        z = _walk(problems, lams, z, x_from, cut, tol=tol)[0][-1]
    total = _bracket(z[:n, 0], z[n:, 0]) * decay(x_to - start)
    x, w = _gauss_nodes(
        lams[np.argmax(np.abs(lams))], start, x_to,
        [d] + prob_a.q.breakpoints() + prob_b.q.breakpoints(),
    )
    k = int(np.searchsorted(x, d))
    crosses = start + 1e-12 < d < x_to - 1e-12
    if crosses:  # d read twice, with no quadrature weight
        x, w = np.insert(x, k, [d, d]), np.insert(w, k, [0.0, 0.0])
    i, pos = 0, start
    while i < x.size:
        j = min(i + _PAIR_BLOCK, x.size)
        if crosses and j == k + 1:
            j += 1  # both reads of d in one walk, so the matching is applied
        states = _walk(problems, lams, z, pos, x[i:j], tol=tol)[0]
        ya, yb, xb = states[:, :n, 0], states[:, n:, 0], x[i:j]
        f = (prob_b.q(xb) - prob_a.q(xb))[:, None] * ya[..., 0] * yb[..., 0]
        total = total + w[i:j] @ (f * np.exp(-2.0 * mus * (x_to - xb[:, None])))
        if crosses and i <= k < j:
            jump = _bracket(ya[k + 1 - i], yb[k + 1 - i]) - _bracket(ya[k - i], yb[k - i])
            total += jump * decay(x_to - d)
        z, pos, i = states[-1], x[j - 1], j
    return total, 2.0 * mus * (x_to - x_from)
