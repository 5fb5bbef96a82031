"""Eigenvalue location by argument-principle counting plus batched Newton.

``delta`` is entire of order 1/2, so the count of its zeros inside a closed
path is exact once the boundary sampling resolves the phase (every step
below pi/2).  A search for the zeros with ``|lam| < B`` runs in four steps:

1. Seeds ``rho^2 + mean(q)`` come from the real zeros ``rho`` of the
   leading term of ``delta / rho``, one per unit bracket.
2. Newton polishes all seeds together: each iteration integrates the chain
   ``(phi, d phi/d lam)`` for all of them in one vectorized solve, so the
   derivative is exact, and the seeds deflate each other, so two of them
   do not settle on one root.  Each lambda stops on its own rules.
3. One winding count on a circle ``|lam| = R >= B`` that passes no root
   found certifies them: all are simple when the distinct roots inside
   match the count; otherwise a small-circle count gives each its algebraic
   multiplicity, and multiple roots get a second, step-scaled polish.
4. Where the roots still fall short, the circle's bounding square is
   subdivided until each rectangle holds as many zeros as roots found, or
   one zero, or several at the size floor; Newton starts from one slice
   centre per zero such a leaf lacks, and splits what stays unresolved.
   Counts use relaxed tolerances and batched solves (:func:`delta_many`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import _deltas, char_delta, delta_many
from .ode import _gauss_nodes, solve_many
from .problem import Problem

_PHASE_LIMIT = 0.5 * math.pi
_SAMPLES_PER_RHO = 2.5  # per unit of sqrt(lam): phase steps of about pi / 2.5


class ZeroOnContour(RuntimeError):
    """A contour sample fell (numerically) on a zero; the caller should
    nudge the contour and retry."""


@dataclass(frozen=True)
class EigenRecord:
    lam: complex
    multiplicity: int
    residual: float  # |delta / delta'|, or (|delta| / |delta^(m)|)^(1/m) if m > 1


@dataclass
class ZeroSequence:
    """A multiset of zeros with multiplicities (computed or synthetic)."""

    zeros: np.ndarray
    mults: np.ndarray
    origin: str = "computed"

    def __post_init__(self):
        self.zeros = np.asarray(self.zeros, dtype=complex)
        self.mults = np.asarray(self.mults, dtype=int)

    @classmethod
    def from_records(cls, records, origin="computed"):
        return cls(
            np.array([r.lam for r in records], dtype=complex),
            np.array([r.multiplicity for r in records], dtype=int),
            origin,
        )

    def counting(self, t: float) -> int:
        return int(self.mults[np.abs(self.zeros) <= t].sum())

    def merged(self, other: "ZeroSequence") -> "ZeroSequence":
        return ZeroSequence(
            np.concatenate([self.zeros, other.zeros]),
            np.concatenate([self.mults, other.mults]),
            origin="merged",
        )

    def __len__(self):
        return len(self.zeros)


# ---------------------------------------------------------------------------
# Winding counts along closed paths
# ---------------------------------------------------------------------------


class _Cache:
    """Memoized batched evaluation of a complex function."""

    def __init__(self, f_batch):
        self.f_batch = f_batch
        self.store: dict[complex, complex] = {}

    def __call__(self, pts):
        missing = [p for p in pts if p not in self.store]
        if missing:
            vals = self.f_batch(np.array(missing, dtype=complex))
            for p, v in zip(missing, vals):
                self.store[p] = complex(v)
        return np.array([self.store[p] for p in pts], dtype=complex)


def _refine_until_resolved(cache, pts, max_depth=26, limit=_PHASE_LIMIT):
    """Insert midpoints until all phase steps are below ``limit``; return
    the resulting points, values and total winding."""

    pts = list(pts)
    vals = cache(pts)
    for depth in range(max_depth):
        mags = np.abs(vals)
        neighbor = np.maximum(np.roll(mags, 1), np.roll(mags, -1))
        if np.any(mags <= 1e-10 * neighbor):
            raise ZeroOnContour("sample magnitude collapse on contour")
        steps = np.angle(vals[1:] / vals[:-1])
        bad = set(np.nonzero(np.abs(steps) >= limit)[0])
        if not bad:
            return pts, vals, int(round(steps.sum() / (2 * math.pi)))
        new_pts = []
        for i, p in enumerate(pts[:-1]):
            new_pts.append(p)
            if i in bad:
                new_pts.append(0.5 * (pts[i] + pts[i + 1]))
        new_pts.append(pts[-1])
        pts = new_pts
        vals = cache(pts)
    raise ZeroOnContour("phase refinement did not converge (zero near contour?)")


def _winding_closed(cache, pts, max_depth=26, verify_passes=3):
    """Winding number of f along the closed polyline ``pts`` (pts[0] ==
    pts[-1]).

    Midpoints are inserted until every phase step is below pi/2; since a
    bounded step can still hide a silent extra turn of 2 pi on a coarse
    segment, at least one global halving pass must then leave the count
    unchanged before it is accepted.  A halving pass refines on to steps
    below pi/4: where the phase is smooth, halving halves the steps and
    adds no point, but a half step that stays large marks zeros close to
    the segment, whose combined turn (up to pi per zero) can wrap past 2 pi.
    """

    pts, vals, winding = _refine_until_resolved(cache, pts, max_depth)
    for _ in range(verify_passes):
        halved = []
        for a, b in zip(pts[:-1], pts[1:]):
            halved.append(a)
            halved.append(0.5 * (a + b))
        halved.append(pts[-1])
        pts, vals, new_winding = _refine_until_resolved(
            cache, halved, max_depth, limit=0.5 * _PHASE_LIMIT
        )
        if new_winding == winding:
            return winding
        winding = new_winding
    raise ZeroOnContour("winding count failed to stabilize under refinement")


def _rect_path(re_lo, re_hi, im_lo, im_hi, n_re, n_im):
    res = np.linspace(re_lo, re_hi, n_re + 1)
    ims = np.linspace(im_lo, im_hi, n_im + 1)
    return (
        [complex(r, im_lo) for r in res]
        + [complex(re_hi, i) for i in ims[1:]]
        + [complex(r, im_hi) for r in res[::-1][1:]]
        + [complex(re_lo, i) for i in ims[::-1][1:]]
    )


def count_zeros(f_batch, rect) -> int:
    """Number of zeros (with multiplicity) of an analytic function inside an
    axis-aligned rectangle ``(re_lo, re_hi, im_lo, im_hi)``."""

    cache = f_batch if isinstance(f_batch, _Cache) else _Cache(f_batch)
    re_lo, re_hi, im_lo, im_hi = rect
    # sample density follows the phase rate ~ pi * d(sqrt|lam|)/d(Re lam)
    span = abs(math.sqrt(abs(re_hi)) - math.sqrt(abs(re_lo))) + (
        math.sqrt(abs(re_hi)) + math.sqrt(abs(re_lo)) if re_lo < 0 < re_hi else 0.0
    )
    n_re = max(8, int(_SAMPLES_PER_RHO * span) + 4)
    n_im = max(6, int(0.35 * (im_hi - im_lo)))
    path = _rect_path(re_lo, re_hi, im_lo, im_hi, n_re, n_im)
    return _winding_closed(cache, path)


def _circle_samples(lam0: complex, r: float) -> int:
    """Initial samples of the circle ``|lam - lam0| = r``: 16, or more for
    its sqrt(lam) arc length ``~ pi r / sqrt(max(|lam0|, r))``."""

    return max(16, math.ceil(_SAMPLES_PER_RHO * math.pi * r / math.sqrt(max(abs(lam0), r))))


def multiplicity_probe(
    f_batch,
    lam0: complex,
    radius: float = 2e-2,
    *,
    check_shrink: bool = True,
) -> int:
    """Zero order of an analytic function at ``lam0`` by circle winding,
    cross-checked at half the radius."""

    cache = f_batch if isinstance(f_batch, _Cache) else _Cache(f_batch)

    def circle(r):
        n = _circle_samples(lam0, r)
        pts = [lam0 + r * np.exp(2j * math.pi * k / n) for k in range(n)]
        pts.append(pts[0])
        return _winding_closed(cache, pts)

    m = circle(radius)
    if check_shrink:
        m2 = circle(0.5 * radius)
        if m2 != m:
            raise ZeroOnContour(
                f"multiplicity unstable under radius shrink: {m} vs {m2}"
            )
    return m


# ---------------------------------------------------------------------------
# Eigenvalue search
# ---------------------------------------------------------------------------


def _problem_batch(problem: Problem, tol: float):
    def f_batch(lams):
        vals, _, _ = delta_many(problem, lams, tol=tol)
        return vals

    return f_batch


# the two Newton stages, coarse then fine: tol, and the step size relative
# to 1+|lam| that ends the stage
_NEWTON_TOL, _NEWTON_STOP = (1e-7, 1e-11), np.array([1e-5, 5e-13])


def _polish(problem: Problem, starts, mults=None, *, maxit: int = 60, groups=None):
    """Newton iteration on ``delta`` from every start at once.

    Each round integrates the chain ``(phi, d phi/d lam)`` for all active
    lambda in one :func:`solve_many` call, at the fine stage's tolerance once
    one of them is there, so the derivative is exact.  Every lambda follows
    the single-root rules on its own: steps at relaxed tolerance until the
    step is small, then at most two polish steps at tight tolerance.
    ``mults`` scales the step of known multiple roots, where plain Newton is
    only linearly convergent.  Starts that share a label in ``groups`` look
    for distinct zeros: each deflates the current iterates of the others by
    the Ehrlich-Aberth step ``N / (1 - N sum_j 1/(lam - lam_j))``, ``N =
    delta / delta'``.

    Returns the final lambda and ``|delta / delta'|`` of the last sample.
    """

    lam = np.array(starts, dtype=complex)
    m = np.ones(lam.size) if mults is None else np.asarray(mults, dtype=float)
    label = np.arange(lam.size) if groups is None else np.asarray(groups)
    stage = np.zeros(lam.size, dtype=int)
    polish_left = np.full(lam.size, 2)
    evals = np.zeros(lam.size, dtype=int)
    residual = np.full(lam.size, math.inf)
    active = np.ones(lam.size, dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        states, _ = solve_many(problem, lam[idx], nu_max=1, tol=_NEWTON_TOL[stage[idx].max()])
        d, _ = _deltas(problem, states)
        evals[idx] += 1
        flat = d[:, 1] == 0
        active[idx[flat]] = False
        idx, d = idx[~flat], d[~flat]
        step = d[:, 0] / d[:, 1]
        residual[idx] = np.abs(step)
        others = (label[idx, None] == label) & (idx[:, None] != np.arange(lam.size))
        if others.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                pull = np.where(others, 1.0 / (lam[idx, None] - lam), 0.0).sum(axis=1)
            aberth = step / (1.0 - step * pull)
            step = np.where(np.isfinite(aberth), aberth, step)
        lam[idx] -= m[idx] * step
        small = residual[idx] < _NEWTON_STOP[stage[idx]] * (1.0 + np.abs(lam[idx]))
        fine = stage[idx] == 1
        polish_left[idx[fine]] -= 1
        active[idx[fine & (small | (polish_left[idx] <= 0))]] = False
        stage[idx[~fine & small]] = 1
        active &= evals < maxit
    return lam, residual


@dataclass(eq=False)
class _Leaf:
    """A search rectangle that holds one zero, or a cluster at the size floor."""

    rect: tuple
    count: int
    depth: int

    def contains(self, z: complex, margin: float) -> bool:
        re_lo, re_hi, im_lo, im_hi = self.rect
        return (
            re_lo - margin <= z.real <= re_hi + margin
            and im_lo - margin <= z.imag <= im_hi + margin
        )

    def starts(self, k: int) -> list:
        """``k`` Newton start points: the centres of ``k`` equal slices
        across the longer side."""

        re_lo, re_hi, im_lo, im_hi = self.rect
        t = (np.arange(max(k, 0)) + 0.5) / max(k, 1)
        if re_hi - re_lo >= im_hi - im_lo:
            return list(re_lo + (re_hi - re_lo) * t + 0.5j * (im_lo + im_hi))
        return list(0.5 * (re_lo + re_hi) + 1j * (im_lo + (im_hi - im_lo) * t))


_LEAF_SIZE = 2.0  # rectangles this small are leaves, whatever their count
_COUNT_TOL = 3e-7  # integrator tolerance of the winding counts


def _multiplicity(cache, lam: complex) -> int:
    """Zero order at a root, on a circle small against the root spacing."""

    radius = min(0.02 * (1 + abs(lam)) ** 0.25, 0.45 * _LEAF_SIZE)
    try:
        return multiplicity_probe(cache, lam, radius, check_shrink=False)
    except ZeroOnContour:
        return multiplicity_probe(cache, lam, radius * 1.37, check_shrink=False)


def _polish_multiple(problem: Problem, roots: list) -> None:
    """Step-scaled polish, in place, of the multiple ``[lam, mult, ...]`` roots."""

    multiple = [r for r in roots if r[1] > 1]
    if multiple:
        lams, _ = _polish(problem, [r[0] for r in multiple], [r[1] for r in multiple], maxit=10)
        for root, lam in zip(multiple, lams):
            root[0] = lam


def _seeds(problem: Problem, bound: float) -> np.ndarray:
    """Newton starts ``rho^2 + mean(q)`` from the real zeros ``rho`` of the
    leading term of ``delta / rho``, ``-b1 sin(rho pi) + b2 sin(rho (2d -
    pi))``: 0 and one in each ``(n - 1/2, n + 1/2)``; for Dirichlet, ``b1
    cos(rho pi) + b2 cos(rho (2d - pi))``: one in each ``(n, n + 1)``.
    ``b1 > |b2|`` makes the sign at the bracket ends alternate."""

    x, w = _gauss_nodes(1.0, 0.0, math.pi, problem.q.breakpoints())
    shift = complex(w @ problem.q(x)) / math.pi
    n = np.arange(math.ceil(math.sqrt(bound + abs(shift))) + 2, dtype=float)
    trig, sign, lo = (np.cos, 1.0, n) if problem.dirichlet else (np.sin, -1.0, n[1:] - 0.5)
    b1, b2, tilt = sign * problem.b1, problem.b2, 2.0 * problem.d - math.pi

    def lead(r):
        return b1 * trig(r * math.pi) + b2 * trig(r * tilt)

    a, b, sign_a = lo, lo + 1.0, np.sign(lead(lo))
    for _ in range(53):  # a unit bracket halved 53 times is down to rounding
        mid = 0.5 * (a + b)
        left = np.sign(lead(mid)) == sign_a
        a, b = np.where(left, mid, a), np.where(left, b, mid)
    rho = 0.5 * (a + b)
    if not problem.dirichlet:
        lo, rho = np.append(0.0, lo), np.append(0.0, rho)
    # a root lies O(1) off its seed, so a bracket that reaches into the disc
    # keeps its seed even when the seed itself lies outside
    return (rho**2 + shift)[np.abs(lo**2 + shift) < bound]


def find_eigenvalues(
    problem: Problem,
    modulus_bound: float,
    *,
    im_halfwidth: float = math.inf,
) -> list[EigenRecord]:
    """All eigenvalues with ``|lam| < modulus_bound`` and ``|Im lam| <=
    im_halfwidth``, with multiplicities, by the four steps of the module
    docstring.  A search whose roots inside the counting circle do not add
    up to its winding count raises rather than return them.
    """

    B = float(modulus_bound)
    cache = _Cache(_problem_batch(problem, _COUNT_TOL))
    seeds = _seeds(problem, B)
    lams, residuals = _polish(problem, seeds, groups=np.zeros(seeds.size))
    roots: list[list] = []  # [lam, mult, residual, owning leaf]
    for lam, residual in zip(lams, residuals):
        converged = residual < _NEWTON_STOP[0] * (1.0 + abs(lam))
        if converged and not any(abs(lam - r[0]) < 2e-5 * (1 + abs(lam)) for r in roots):
            roots.append([lam, 1, residual, None])

    # the counting circle passes no root found closer than 1/20 of a step
    R, gap = B, 2.0 * math.pi * B / _circle_samples(0.0, B) / 20.0
    for modulus in sorted(abs(r[0]) for r in roots):
        if R - gap < modulus < R + gap:
            R = modulus + gap
    total = multiplicity_probe(cache, 0.0, R, check_shrink=False)

    roots = [r for r in roots if abs(r[0]) < R]
    if len(roots) != total:
        for root in roots:
            root[1] = _multiplicity(cache, root[0])
        roots = [r for r in roots if r[1] > 0]
        _polish_multiple(problem, roots)
    if sum(r[1] for r in roots) < total:
        _subdivide_square(problem, cache, roots, R)
    inside = sum(r[1] for r in roots if abs(r[0]) < R)
    if inside != total:
        raise RuntimeError(f"{inside} zeros found inside |lam| = {R:.6g}, winding {total}")

    records = []
    for lam, mult, residual, _ in roots:
        if abs(lam) >= B or abs(lam.imag) > im_halfwidth:
            continue
        if mult > 1:
            sample = char_delta(problem, lam, nu_max=mult)
            scale = abs(sample.ddelta[mult].val) + 1e-300
            residual = (abs(sample.delta.val) / scale) ** (1.0 / mult)
        records.append(EigenRecord(lam=lam, multiplicity=mult, residual=residual))
    records.sort(key=lambda r: (abs(r.lam), r.lam.real))
    return records


def _subdivide_square(problem: Problem, cache, roots: list, R: float) -> None:
    """Find the zeros inside ``|lam| < R`` that ``roots`` lacks by counting
    on the circle's bounding square and subdividing it; new roots are
    appended to ``roots``."""

    def split(rect, count):
        """Halve ``rect`` across its longer side, nudging the cut off zeros."""

        re_lo, re_hi, im_lo, im_hi = rect
        across_re = re_hi - re_lo >= im_hi - im_lo
        lo, span = (re_lo, re_hi - re_lo) if across_re else (im_lo, im_hi - im_lo)
        mid = lo + span * 0.5
        jitter = 1.9e-3 * span
        for off in (0.0, jitter, -jitter, 2.7 * jitter):
            cut = mid + off
            if across_re:
                r1, r2 = (re_lo, cut, im_lo, im_hi), (cut, re_hi, im_lo, im_hi)
            else:
                r1, r2 = (re_lo, re_hi, im_lo, cut), (re_lo, re_hi, cut, im_hi)
            try:
                c1 = count_zeros(cache, r1)
                c2 = count_zeros(cache, r2)
                break
            except ZeroOnContour:
                continue
        else:
            raise RuntimeError("subdivision kept hitting zeros on contours")
        if c1 + c2 != count:
            raise RuntimeError(f"winding counts inconsistent: {count} != {c1}+{c2} on {rect}")
        return (r1, c1), (r2, c2)

    def found(leaf):
        return sum(m for lam, m, _, owner in roots if owner is leaf or leaf.contains(lam, 1e-9))

    pending: list[_Leaf] = []

    def subdivide(rect, count, depth=0):
        """Queue the leaves of ``rect`` inside the disc that lack roots."""

        re_lo, re_hi, im_lo, im_hi = rect
        leaf = _Leaf(rect, count, depth)
        nearest = complex(min(max(0.0, re_lo), re_hi), min(max(0.0, im_lo), im_hi))
        if abs(nearest) >= R or count <= found(leaf):
            return
        if count == 1 or max(re_hi - re_lo, im_hi - im_lo) <= _LEAF_SIZE:
            pending.append(leaf)
            return
        for half, cnt in split(rect, count):
            subdivide(half, cnt, depth + 1)

    square = (-R, R, -R, R)
    subdivide(square, count_zeros(cache, square))

    def accept(leaf, lam, residual):
        """Record a Newton result that lands in ``leaf`` and is new."""

        re_lo, re_hi, im_lo, im_hi = leaf.rect
        inside = leaf.contains(lam, 1e-7 * (1.0 + max(re_hi - re_lo, im_hi - im_lo)))
        if inside and not any(abs(lam - r[0]) < 2e-5 * (1 + abs(lam)) for r in roots):
            # a leaf that holds one zero pins its order
            mult = 1 if leaf.count == 1 else _multiplicity(cache, lam)
            if mult > 0:
                roots.append([lam, mult, residual, leaf])

    # Every Newton round polishes the unresolved leaves in one batched solve:
    # one start per zero not yet found, the starts of one leaf deflating
    # each other; a leaf still unresolved after its round is split.
    while pending:
        todo = [(i, z) for i, leaf in enumerate(pending)
                for z in leaf.starts(leaf.count - found(leaf))]
        lams, residuals = _polish(problem, [z for _, z in todo], groups=[i for i, _ in todo])
        new = len(roots)
        for (i, _), lam, residual in zip(todo, lams, residuals):
            if found(pending[i]) < pending[i].count:
                accept(pending[i], lam, residual)
        _polish_multiple(problem, roots[new:])
        unresolved = [leaf for leaf in pending if found(leaf) != leaf.count]
        pending = []
        for leaf in unresolved:
            re_lo, re_hi, im_lo, im_hi = leaf.rect
            if max(re_hi - re_lo, im_hi - im_lo) <= 1e-3 or leaf.depth > 40:
                raise RuntimeError(f"leaf {leaf.rect}: could not resolve {leaf.count} zeros")
            for half, cnt in split(leaf.rect, leaf.count):
                subdivide(half, cnt, leaf.depth + 1)


def find_dirichlet_eigenvalues(problem: Problem, modulus_bound: float, **kw):
    """Zeros of ``delta_inf`` (the Dirichlet-variant spectrum)."""

    return find_eigenvalues(problem.dirichlet_variant(), modulus_bound, **kw)
