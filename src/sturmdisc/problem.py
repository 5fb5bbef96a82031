"""Problem data for the discontinuous Sturm-Liouville operator.

The differential expression is ``-y'' + q(x) y`` on ``(0, pi)`` with

* a Robin condition ``y'(0) - h y(0) = 0`` at the left end,
* either ``y'(pi) + H y(pi) = 0`` (Robin) or ``y(pi) = 0`` (Dirichlet) at
  the right end, and
* interior matching at ``x = d``::

      y(d+0) = beta * y(d-0)
      y'(d+0) = y'(d-0) / beta + gamma * y(d-0)

``beta`` is real positive while ``h``, ``H`` and ``gamma`` may be complex,
so the operator is in general non-self-adjoint.  The Dirichlet right end is
a distinct variant, not a limiting value of ``H``; it is tagged explicitly
(``H=None``) and never encoded as an infinite float.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from .expr import PotentialExpr

DIRICHLET = None  # sentinel spelling for the right-end variant


@dataclass(frozen=True)
class Problem:
    q: PotentialExpr
    h: complex = 0.0
    H: Optional[complex] = 0.0  # None selects the Dirichlet variant
    beta: float = 1.0
    gamma: complex = 0.0
    d: float = math.pi / 2

    def __post_init__(self):
        if isinstance(self.q, str) or isinstance(self.q, list):
            object.__setattr__(self, "q", PotentialExpr.from_spec(self.q))
        beta = self.beta
        if isinstance(beta, complex):
            if beta.imag != 0:
                raise ValueError("beta must be real")
            beta = beta.real
        if not beta > 0:
            raise ValueError("beta must be positive")
        object.__setattr__(self, "beta", float(beta))
        if not 0 < self.d < math.pi:
            raise ValueError("d must lie strictly inside (0, pi)")
        object.__setattr__(self, "h", complex(self.h))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if self.H is not None:
            object.__setattr__(self, "H", complex(self.H))

    @property
    def dirichlet(self) -> bool:
        return self.H is None

    @property
    def b1(self) -> float:
        return 0.5 * (self.beta + 1.0 / self.beta)

    @property
    def b2(self) -> float:
        return 0.5 * (self.beta - 1.0 / self.beta)

    def with_(self, **changes) -> "Problem":
        """Copy with replaced fields (H=None switches to Dirichlet)."""

        return dataclasses.replace(self, **changes)

    def dirichlet_variant(self) -> "Problem":
        return self.with_(H=DIRICHLET)
