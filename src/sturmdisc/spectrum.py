"""Eigenvalue location by argument-principle counting plus batched Newton.

``delta`` is entire of order 1/2, so a rectangle count via the winding
number of its boundary values is exact once the boundary sampling resolves
the phase (every step below pi/2).  A search runs in three phases:

1. The strip is sliced and rectangles are subdivided until each leaf holds
   one zero, or a multiple zero or tight cluster at the size floor; this
   counting pass uses relaxed integrator tolerances and batched solves
   (:func:`delta_many`).
2. Newton rounds polish every unresolved leaf together, from one start per
   zero it still lacks: each iteration integrates the chain ``(phi, d
   phi/d lam)`` for all of them in one vectorized solve, so the derivative
   is exact.  The starts of one leaf deflate each other, so a leaf at the
   size floor that holds several simple zeros finds them in one round.
   Each lambda stops on its own rules.
3. A root is accepted when it lies in its leaf and is new.  A leaf that
   holds one zero pins its order; in a leaf at the size floor that holds
   more, a small-circle winding count gives the algebraic multiplicity, and
   multiple roots get a second, step-scaled polish.  A leaf still
   unresolved after its round is split and goes back to phase 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import _deltas, char_delta, delta_many
from .ode import solve_many
from .problem import Problem

_PHASE_LIMIT = 0.5 * math.pi


class ZeroOnContour(RuntimeError):
    """A contour sample fell (numerically) on a zero; the caller should
    nudge the contour and retry."""


@dataclass(frozen=True)
class EigenRecord:
    lam: complex
    multiplicity: int
    residual: float  # |delta| at the root, relative to the local scale


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
    n_re = max(8, int(2.5 * span) + 4)
    n_im = max(6, int(0.35 * (im_hi - im_lo)))
    path = _rect_path(re_lo, re_hi, im_lo, im_hi, n_re, n_im)
    return _winding_closed(cache, path)


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
        n = 16
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


def find_eigenvalues(
    problem: Problem,
    modulus_bound: float,
    *,
    im_halfwidth: float = 50.0,
) -> list[EigenRecord]:
    """Eigenvalues with ``|lam| < modulus_bound`` and ``|Im lam| <=
    im_halfwidth``, with multiplicities.

    The search box is ``[-B - margin, B + margin] x [-c, c]`` with ``c =
    min(im_halfwidth, B + 1)``; eigenvalues of the problems treated here lie
    in a horizontal strip, but one outside the strip (large complex ``h``,
    ``H`` or ``gamma`` can put one there) is not found and not reported.
    Each leaf of the subdivision holds one zero, or several at the size
    floor, and Newton starts from one slice centre of an unresolved leaf
    per zero it lacks.  Inside the box the total leaf count
    is reconciled against the outer-rectangle winding count, so dropped or
    doubled roots are detected rather than silently returned.
    """

    B = float(modulus_bound)
    cache = _Cache(_problem_batch(problem, _COUNT_TOL))
    c = min(im_halfwidth, B + 1.0)
    # the midline, where a slice is first cut across, lies 0.3056 above the
    # real axis: between two samples 20 times its distance apart or more,
    # the 2 pi phase turn of a real double zero aliases to nothing
    outer = (-B - 0.372, B + 0.413, -c - 0.0931, c + 0.7043)

    for attempt in range(4):
        try:
            total = count_zeros(cache, outer)
            break
        except ZeroOnContour:
            outer = (
                outer[0] - 0.311,
                outer[1] + 0.297,
                outer[2] - 0.151,
                outer[3] + 0.143,
            )
    else:
        raise RuntimeError("could not find a clean outer contour")

    # Slice the strip at sqrt-spaced cuts (between the typical eigenvalue
    # positions ~ (n + delta)^2) so most slices isolate one root right away;
    # binary subdivision below only has to clean up collisions.  The cut at
    # -offset keeps a root near 0 out of the long slice to the left, where
    # Newton would start far from it.
    def slice_counts(offset):
        cuts = [outer[0]] + ([-offset] if -offset > outer[0] else [])
        n = 0
        while (n + offset) ** 2 < outer[1] - 1.0:
            cuts.append((n + offset) ** 2)
            n += 1
        cuts.append(outer[1])
        counts = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            counts.append(count_zeros(cache, (a, b, outer[2], outer[3])))
        return cuts, counts

    for offset in (0.231, 0.367, 0.149, 0.4511):
        try:
            cuts, counts = slice_counts(offset)
            break
        except ZeroOnContour:
            continue
    else:
        cuts, counts = [outer[0], outer[1]], [total]
    if sum(counts) != total:
        raise RuntimeError(
            f"slice counts {sum(counts)} disagree with outer count {total}"
        )

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
            raise RuntimeError(
                f"winding counts inconsistent: {count} != {c1}+{c2} on {rect}"
            )
        return (r1, c1), (r2, c2)

    pending: list[_Leaf] = []

    def subdivide(rect, count, depth=0):
        if count == 0:
            return
        w, hgt = rect[1] - rect[0], rect[3] - rect[2]
        if count == 1 or max(w, hgt) <= _LEAF_SIZE:
            pending.append(_Leaf(rect, count, depth))
            return
        for half, cnt in split(rect, count):
            subdivide(half, cnt, depth + 1)

    for (a, b), cnt in zip(zip(cuts[:-1], cuts[1:]), counts):
        subdivide((a, b, outer[2], outer[3]), cnt)

    roots: list[list] = []  # [lam, mult, residual, owning leaf]

    def found(leaf):
        return sum(
            m
            for lam, m, _, owner in roots
            if owner is leaf or leaf.contains(lam, 1e-9)
        )

    def accept(leaf, lam, residual):
        """Record a Newton result that lands in ``leaf``; return the root
        if it still needs a multiple-root polish."""

        re_lo, re_hi, im_lo, im_hi = leaf.rect
        if not leaf.contains(lam, 1e-7 * (1.0 + max(re_hi - re_lo, im_hi - im_lo))):
            return None
        if any(abs(lam - r[0]) < 2e-5 * (1 + abs(lam)) for r in roots):
            return None
        if leaf.count == 1:
            # the leaf winding already pins the zero order
            mult = 1
        else:
            radius = min(0.02 * (1 + abs(lam)) ** 0.25, 0.45 * _LEAF_SIZE)
            try:
                mult = multiplicity_probe(cache, lam, radius, check_shrink=False)
            except ZeroOnContour:
                mult = multiplicity_probe(cache, lam, radius * 1.37, check_shrink=False)
            if mult == 0:
                return None
        root = [lam, mult, residual, leaf]
        roots.append(root)
        return root if mult > 1 else None

    # Every Newton round polishes the unresolved leaves in one batched solve:
    # one start per zero not yet found, the starts of one leaf deflating
    # each other; a leaf still unresolved after its round is split.
    while pending:
        todo = [(i, z) for i, leaf in enumerate(pending)
                for z in leaf.starts(leaf.count - found(leaf))]
        lams, residuals = _polish(problem, [z for _, z in todo], groups=[i for i, _ in todo])
        multiple = []
        for (i, _), lam, residual in zip(todo, lams, residuals):
            leaf = pending[i]
            if found(leaf) < leaf.count:
                root = accept(leaf, lam, residual)
                if root is not None:
                    multiple.append(root)
        if multiple:
            lams, _ = _polish(
                problem, [r[0] for r in multiple], [r[1] for r in multiple], maxit=10
            )
            for root, lam in zip(multiple, lams):
                root[0] = lam
        unresolved = [leaf for leaf in pending if found(leaf) != leaf.count]
        pending = []
        for leaf in unresolved:
            re_lo, re_hi, im_lo, im_hi = leaf.rect
            if max(re_hi - re_lo, im_hi - im_lo) <= 1e-3 or leaf.depth > 40:
                raise RuntimeError(
                    f"leaf {leaf.rect}: could not resolve {leaf.count} zeros"
                )
            for half, cnt in split(leaf.rect, leaf.count):
                subdivide(half, cnt, leaf.depth + 1)

    records = []
    for lam, mult, residual, _ in roots:
        if abs(lam) >= B:
            continue
        if mult > 1:
            sample = char_delta(problem, lam, nu_max=mult)
            scale = abs(sample.ddelta[mult].val) + 1e-300
            residual = (abs(sample.delta.val) / scale) ** (1.0 / mult)
        records.append(EigenRecord(lam=lam, multiplicity=mult, residual=residual))
    records.sort(key=lambda r: (abs(r.lam), r.lam.real))
    total_inside = sum(r.multiplicity for r in records)
    outside = sum(r[1] for r in roots if abs(r[0]) >= B)
    if total_inside + outside != total:
        raise RuntimeError("lost track of zeros during refinement")
    return records


def find_dirichlet_eigenvalues(problem: Problem, modulus_bound: float, **kw):
    """Zeros of ``delta_inf`` (the Dirichlet-variant spectrum)."""

    return find_eigenvalues(problem.dirichlet_variant(), modulus_bound, **kw)
