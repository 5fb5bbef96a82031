"""Generalized norming constants and the derivative identity they satisfy.

For an eigenvalue ``lam_n`` of multiplicity ``m`` the chain members
``phi_nu`` (normalized lambda-derivatives of ``phi``) span the root
subspace.  The two families of constants are

* ``kappa_nu = phi_nu(pi)`` (Robin right end) or ``phi_nu'(pi)``
  (Dirichlet), ``nu = 0..m-1``;
* ``alpha_nu = integral_0^pi psi_nu psi_{m-1} dx`` built from the chain of
  the right-end solution ``psi``.

They are tied to the characteristic function through

    delta^(m+nu)(lam_n) = -(m+nu)! * sum_{j=0}^{nu} kappa_j alpha_{nu-j},

which is the computable contract between the spectrum and the norming data;
:func:`check_identity` reports its relative residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import char_delta
from .ode import _gauss_nodes, solve_chain, solve_many
from .problem import Problem
from .spectrum import EigenRecord


@dataclass
class NormingRecord:
    lam: complex
    multiplicity: int
    kappas: list  # kappa_0 .. kappa_{m-1}
    alphas: list  # alpha_0 .. alpha_{m-1}


def _alphas(problem: Problem, lam: complex, m: int) -> list:
    """``alpha_nu = integral_0^pi psi_nu psi_{m-1} dx`` for ``nu = 0..m-1``
    by quadrature at the :func:`~sturmdisc.ode._gauss_nodes` of the ``psi``
    walk, with the states read at the nodes and the exponential scale
    stripped off by the integrator put back."""

    # psi walks from pi to 0, so the nodes are read in descending order
    x, w = _gauss_nodes(lam, math.pi, 0.0, [problem.d] + problem.q.breakpoints())
    states, logs = solve_chain(problem, lam, np.append(x, 0.0), nu_max=m - 1, side="right")
    psi = states[:-1, :, 0]
    f = psi * psi[:, m - 1 : m] * np.exp(2.0 * logs[:-1])[:, None]
    return [complex(v) for v in w @ f]


def compute_norming(problem: Problem, record: EigenRecord) -> NormingRecord:
    """Both norming families at one eigenvalue."""

    m = record.multiplicity
    lam = record.lam
    states, logs = solve_many(problem, [lam], nu_max=m - 1)
    scale = math.exp(logs[0])
    comp = 1 if problem.dirichlet else 0
    kappas = [complex(states[0, nu, comp]) * scale for nu in range(m)]
    alphas = _alphas(problem, lam, m)
    return NormingRecord(lam=lam, multiplicity=m, kappas=kappas, alphas=alphas)


def check_identity(
    problem: Problem,
    record: EigenRecord,
    norming: NormingRecord | None = None,
) -> list:
    """Relative residuals of the derivative identity, one per ``nu``.

    Returns ``|delta^(m+nu) + (m+nu)! sum_j kappa_j alpha_{nu-j}| /
    |delta^(m+nu)|`` for ``nu = 0..m-1``.
    """

    if norming is None:
        norming = compute_norming(problem, record)
    m = record.multiplicity
    sample = char_delta(problem, record.lam, nu_max=2 * m - 1)
    residuals = []
    for nu in range(m):
        lhs = sample.ddelta[m + nu].value
        conv = sum(
            norming.kappas[j] * norming.alphas[nu - j] for j in range(nu + 1)
        )
        rhs = -math.factorial(m + nu) * conv
        scale = max(abs(lhs), abs(rhs), 1e-300)
        residuals.append(abs(lhs - rhs) / scale)
    return residuals
