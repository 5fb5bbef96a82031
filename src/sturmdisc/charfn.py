"""Characteristic functions and two-problem brackets.

``delta`` is the characteristic function of the problem's own right-end
condition, evaluated from the left solution ``phi`` (``phi(0)=1,
phi'(0)=h``)::

    Robin:      delta(lam) = phi'(pi, lam) + H phi(pi, lam)
    Dirichlet:  delta(lam) = -phi(pi, lam)

``delta_inf`` is always the Dirichlet one.  Eigenvalues are the zeros of
``delta``; the zero order equals the algebraic multiplicity.  Derivatives in
``lam`` come from the chain solve: ``delta^(j)(lam) / j! =
phi_j'(pi) + H phi_j(pi)`` (resp. ``-phi_j(pi)``).

The two-problem bracket ``F(lam) = phi(pi) phit'(pi) - phi'(pi) phit(pi)``
is the basic closeness functional between a problem and a perturbed copy.
When the potentials agree on ``[b, pi]`` (and ``d`` coincides) it collapses
to the bracket at ``b`` (or at ``d+0`` for ``b = d``, or at ``b`` plus the
jump difference for ``b < d``).  Along rays (:func:`f_bracket_ray`) it is
summed from the integral identity ``<phi, phit>' = -(q - qt) phi phit`` by
Gauss-Legendre quadrature over one walk of both chains, batched over the
ray's lambda values, which is the only numerically viable route once the
scale ``exp(2 |Im sqrt(lam)| b)`` dwarfs the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import BRACKET_TOL, TOL, ScaledVal, pair_integrals, solve_chain, solve_many
from .problem import Problem


@dataclass
class CharSample:
    """Characteristic-function data at one ``lam``."""

    lam: complex
    delta: ScaledVal
    delta_inf: ScaledVal
    ddelta: list  # [delta, delta', delta'', ...] as ScaledVal
    ddelta_inf: list
    phi_end: ScaledVal
    dphi_end: ScaledVal


def _deltas(problem: Problem, states: np.ndarray):
    """``(delta^(j), delta_inf^(j))`` for ``j = 0..nu_max`` from end states
    ``states[..., j, (y, y')]`` of the ``phi`` chain, whose members are
    ``phi^(j) / j!``; the one place the Robin/Dirichlet formulas live."""

    fact = np.array([math.factorial(j) for j in range(states.shape[-2])], dtype=float)
    d_inf = -fact * states[..., 0]
    if problem.dirichlet:
        return d_inf, d_inf
    return fact * (states[..., 1] + problem.H * states[..., 0]), d_inf


def char_delta(
    problem: Problem,
    lam: complex,
    *,
    nu_max: int = 0,
    tol: float = TOL,
) -> CharSample:
    """Evaluate ``delta`` and ``delta_inf`` (and lam-derivatives up to order
    ``nu_max``) at ``lam`` via one chain solve of ``phi``.

    At the default ``tol`` the relative error of ``delta`` and ``delta_inf``
    stays below ``5e-11 * sqrt(|lam|)`` out to ``|lam| = 1e6``.  The Magnus
    kernel is exact on constant pieces of ``q``, for every chain member:
    against the exact free-jump values on the imaginary ray and at ``1e6 +
    1000i`` the error is rounding, at most 4.7e-13.  On ``a sin(kx) + c``
    with ``|lam| <= 1e4`` the tests hold it to the same bound against scipy's
    DOP853 at ``tol = 1e-13``.
    """

    states, logs = solve_many(problem, [lam], nu_max=nu_max, tol=tol)
    z, log = states[0], float(logs[0])
    d, d_inf = _deltas(problem, z)
    ddelta = [ScaledVal(v, log) for v in d]
    ddelta_inf = [ScaledVal(v, log) for v in d_inf]
    return CharSample(
        lam=lam,
        delta=ddelta[0],
        delta_inf=ddelta_inf[0],
        ddelta=ddelta,
        ddelta_inf=ddelta_inf,
        phi_end=ScaledVal(complex(z[0, 0]), log),
        dphi_end=ScaledVal(complex(z[0, 1]), log),
    )


def delta_many(problem: Problem, lams, *, tol: float = TOL):
    """Batched ``(delta, delta_inf)`` over an array of lambda values.

    Returns ``(vals, vals_inf, logs)`` with the scaled values and the common
    per-lambda log scale.  One vectorized integration serves the whole
    batch, which is what makes contour sampling affordable.
    """

    states, logs = solve_many(problem, lams, tol=tol)
    vals, vals_inf = _deltas(problem, states)
    return vals[:, 0], vals_inf[:, 0], logs


def delta_consistency(problem: Problem, lam: complex) -> float:
    """Disagreement between the left and right evaluations of ``delta``
    (``V(phi)`` versus ``-U(psi)``); an integrator diagnostic.

    ``delta`` is the Wronskian of ``phi`` and ``psi``, so the disagreement
    is taken relative to the Wronskian's scale ``s A(phi) A(psi)`` at ``pi``
    and at 0, or to ``|delta|`` where that is larger, with the amplitude
    ``A(y) = sqrt(|y|^2 + |y'/s|^2)`` and ``s = sqrt(max(|lam|, 1))``.  Each
    evaluation errs by about ``tol`` times that scale, also at an eigenvalue,
    where ``delta`` itself vanishes and a ratio to ``|delta|`` alone would
    report a working integrator as failing.
    """

    sample = char_delta(problem, lam)
    left = sample.delta
    states, logs = solve_many(problem, [lam], side="right")
    z = states[0, 0]
    right = ScaledVal(-(z[1] - problem.h * z[0]), float(logs[0]))
    s = math.sqrt(max(abs(lam), 1.0))

    def amp(y, dy):
        return math.hypot(abs(y), abs(dy) / s)

    # psi starts at pi from (0, 1) or (1, -H); phi starts at 0 from (1, h)
    amp_psi_pi = 1.0 / s if problem.dirichlet else amp(1.0, problem.H)
    at_pi = s * amp(sample.phi_end.val, sample.dphi_end.val) * amp_psi_pi
    at_0 = s * amp(1.0, problem.h) * amp(z[0], z[1])
    diff = left - right
    ref = max(
        left.log_abs,
        right.log_abs,
        math.log(at_pi) + sample.phi_end.log if at_pi > 0 else -math.inf,
        math.log(at_0) + float(logs[0]) if at_0 > 0 else -math.inf,
    )
    if ref == -math.inf:
        return abs(diff.val)
    return math.exp(diff.log_abs - ref)


# ---------------------------------------------------------------------------
# Two-problem bracket F
# ---------------------------------------------------------------------------


@dataclass
class FSample:
    lam: complex
    F: ScaledVal
    F1: ScaledVal  # phi(b) - phit(b)
    F2: ScaledVal  # phi'(b) - phit'(b)
    at: object


def f_function(prob_a: Problem, prob_b: Problem, lam: complex, at="pi") -> FSample:
    """The bracket functional ``F`` and the endpoint differences F1, F2.

    ``at='pi'`` evaluates the defining bracket at ``x = pi`` (always valid).
    A numeric ``at=b`` uses the collapsed forms, which agree with the
    defining one exactly when the potentials coincide on ``[b, pi]`` and the
    problems share ``d``:  bracket at ``b`` for ``b > d``, at ``d+0`` for
    ``b = d``, and bracket at ``b`` plus the jump difference at ``d`` for
    ``b < d``.  The chains are solved at ``BRACKET_TOL``.
    """

    reads = _f_reads(prob_a, prob_b, lam, None if at == "pi" else float(at))
    return _f_sample(reads, prob_a.d, lam, at)


def _f_reads(prob_a: Problem, prob_b: Problem, lam: complex, b: float | None) -> dict:
    """The left chains of both problems, walked to ``pi`` at ``BRACKET_TOL``
    and read at ``d-0``, ``d+0``, ``pi`` and (unless ``None``) ``b``:
    ``{name: (za, zb, log)}`` with the ``(y, y')`` states and their common
    log scale."""

    pts = {"d-": prob_a.d, "d+": prob_a.d, "pi": math.pi}
    if b is not None:
        pts["b"] = b
    names = sorted(pts, key=pts.get)  # stable: d-0 is read before d+0
    xs = [pts[k] for k in names]
    za, logs = solve_chain(prob_a, lam, xs, tol=BRACKET_TOL)
    zb, _ = solve_chain(prob_b, lam, xs, tol=BRACKET_TOL)
    return {k: (za[i, 0], zb[i, 0], float(logs[i])) for i, k in enumerate(names)}


def _f_sample(reads: dict, d: float, lam: complex, at) -> FSample:
    """The forms of :func:`f_function` from the reads of :func:`_f_reads`."""

    def bracket(name):
        za, zb, log = reads[name]
        return ScaledVal(complex(za[0] * zb[1] - za[1] * zb[0]), log + log)

    where = "pi" if at == "pi" else "b"
    if at == "pi":
        F = bracket("pi")
    elif float(at) > d + 1e-12:
        F = bracket("b")
    elif abs(float(at) - d) <= 1e-12:
        F = bracket("d+")
        where = "d-"
    else:
        F = bracket("b") + (bracket("d+") - bracket("d-"))
    za, zb, log = reads[where]
    F1 = ScaledVal(complex(za[0] - zb[0]), log)
    F2 = ScaledVal(complex(za[1] - zb[1]), log)
    return FSample(lam=lam, F=F, F1=F1, F2=F2, at=at)


def f_bracket_ray(prob_a: Problem, prob_b: Problem, b: float, lams):
    """``F`` at a batch of lambda as ``(vals, logs)``, through the identity

        F = (h_b - h_a) + integral_0^b (qB - qA) phi phit dt + jump terms,

    valid when the potentials agree on ``[b, pi]``: the cancellation-free
    route used on rays, one :func:`~sturmdisc.ode.pair_integrals` walk of
    both ``phi`` chains at ``BRACKET_TOL``.
    """

    return pair_integrals(
        prob_a, prob_b, lams, 0.0, b, (1.0, prob_a.h), (1.0, prob_b.h), tol=BRACKET_TOL
    )
