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
jump difference for ``b < d``); along rays this is evaluated through the
integral identity ``<phi, phit>' = -(q - qt) phi phit`` accumulated inside
the ODE solve, which is the only numerically viable route once the scale
``exp(2 |Im sqrt(lam)| b)`` dwarfs the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import (
    BRACKET_TOL,
    TOL,
    ChainSolution,
    ScaledVal,
    pair_integrals,
    solve_chain,
    solve_many,
)
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
    stays below ``5e-11 * sqrt(|lam|)`` out to ``|lam| = 1e6``, checked
    against the exact free-jump values on the imaginary ray and at
    ``1e6 + 1000i``.
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
    """Relative disagreement between the left and right evaluations of
    ``delta`` (``V(phi)`` versus ``-U(psi)``); an integrator diagnostic."""

    left = char_delta(problem, lam).delta
    states, logs = solve_many(problem, [lam], side="right")
    z = states[0]
    right = ScaledVal(-(z[0, 1] - problem.h * z[0, 0]), float(logs[0]))
    diff = left - right
    ref = max(left.log_abs, right.log_abs)
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


def _bracket(sol_a: ChainSolution, sol_b: ChainSolution, x: float, side: str = "auto") -> ScaledVal:
    za = sol_a.state(x, side)
    zb = sol_b.state(x, side)
    w = za[0, 0] * zb[0, 1] - za[0, 1] * zb[0, 0]
    return ScaledVal(complex(w), sol_a.logscale(x) + sol_b.logscale(x))


def f_function(prob_a: Problem, prob_b: Problem, lam: complex, at="pi") -> FSample:
    """The bracket functional ``F`` and the endpoint differences F1, F2.

    ``at='pi'`` evaluates the defining bracket at ``x = pi`` (always valid).
    A numeric ``at=b`` uses the collapsed forms, which agree with the
    defining one exactly when the potentials coincide on ``[b, pi]`` and the
    problems share ``d``:  bracket at ``b`` for ``b > d``, at ``d+0`` for
    ``b = d``, and bracket at ``b`` plus the jump difference at ``d`` for
    ``b < d``.  The chains are solved at ``BRACKET_TOL``.
    """

    sol_a = solve_chain(prob_a, lam, tol=BRACKET_TOL)
    sol_b = solve_chain(prob_b, lam, tol=BRACKET_TOL)
    return _f_sample(sol_a, sol_b, prob_a.d, lam, at)


def _f_sample(sol_a: ChainSolution, sol_b: ChainSolution, d: float, lam: complex, at) -> FSample:
    """The forms of :func:`f_function` from the two left-side chains."""

    if at == "pi":
        F = _bracket(sol_a, sol_b, math.pi, side="-")
        b_eval = math.pi
    else:
        b = float(at)
        if b > d + 1e-12:
            F = _bracket(sol_a, sol_b, b)
            b_eval = b
        elif abs(b - d) <= 1e-12:
            F = _bracket(sol_a, sol_b, d, side="+")
            b_eval = d
        else:
            F = _bracket(sol_a, sol_b, b)
            jump = _bracket(sol_a, sol_b, d, side="+") - _bracket(
                sol_a, sol_b, d, side="-"
            )
            F = F + jump
            b_eval = b
    za = sol_a.state(b_eval, side="-" if b_eval == math.pi else "auto")
    zb = sol_b.state(b_eval, side="-" if b_eval == math.pi else "auto")
    log = sol_a.logscale(b_eval)
    F1 = ScaledVal(complex(za[0, 0] - zb[0, 0]), log)
    F2 = ScaledVal(complex(za[0, 1] - zb[0, 1]), log)
    return FSample(lam=lam, F=F, F1=F1, F2=F2, at=at)


def f_bracket_ray(prob_a: Problem, prob_b: Problem, b: float, lam: complex) -> ScaledVal:
    """``F(lam)`` through the accumulated integral identity

        F = (h_b - h_a) + integral_0^b (qB - qA) phi phit dt + jump terms,

    valid when the potentials agree on ``[b, pi]``.  This is the
    cancellation-free route used on rays: every term is accumulated at the
    scale of the result rather than at the (exponentially larger) scale of
    the solutions themselves.
    """

    init_a = np.array([[1.0, prob_a.h]], dtype=complex)
    init_b = np.array([[1.0, prob_b.h]], dtype=complex)
    res = pair_integrals(
        prob_a, prob_b, lam, 0.0, b, init_a, init_b, [(0, 0)], tol=BRACKET_TOL
    )
    base = ScaledVal(prob_b.h - prob_a.h, 0.0)  # bracket at x=0
    return res.integrals[0] + base

