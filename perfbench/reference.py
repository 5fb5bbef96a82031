"""Reference values computed apart from ``sturmdisc``.

Nothing here imports the package under test.  The closed forms are exact
for a constant potential ``q = c`` (the benchmark's seeded shift of the
"free" problems); the plain integrator is a fixed-step classical RK4 with
Richardson extrapolation, and the interior matching at ``d`` is applied
here, not by the program.  Conventions follow the problem statement::

    -y'' + q y = lam y,   y'(0) - h y(0) = 0,
    y(d+) = beta y(d-),   y'(d+) = y'(d-) / beta + gamma y(d-),
    Delta = phi'(pi) + H phi(pi)   (Robin),   Delta = -phi(pi)   (Dirichlet),
    Delta_inf = -phi(pi).

Run ``python3 perfbench/reference.py`` to print the values the self-test
expects, computed afresh.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

PI = math.pi
DPS = 40


# ---------------------------------------------------------------------------
# Free jump problem: exact Delta and Delta_inf
# ---------------------------------------------------------------------------


def free_jump_delta(lam, *, c=0.0, h=0.0, H=0.0, beta=1.0, gamma=0.0, d=PI / 2):
    """Exact ``(Delta, Delta_inf)`` of the problem with ``q = c`` as mpmath
    numbers.  ``H=None`` selects the Dirichlet right end.  The expressions
    are even in ``s = sqrt(lam - c)``, so the branch does not matter; mpmath
    carries the exponent, so ``|lam| = 1e6`` on the imaginary ray is fine."""

    with mpmath.workdps(DPS):
        s = mpmath.sqrt(mpmath.mpc(lam) - mpmath.mpf(c))
        d = mpmath.mpf(d)
        pi = mpmath.pi

        def sinc_over(x):  # sin(s x) / s, finite at s = 0
            return x if s == 0 else mpmath.sin(s * x) / s

        y = mpmath.cos(s * d) + mpmath.mpc(h) * sinc_over(d)
        dy = -s * mpmath.sin(s * d) + mpmath.mpc(h) * mpmath.cos(s * d)
        a = beta * y
        b = dy / beta + mpmath.mpc(gamma) * y
        rest = pi - d
        phi = a * mpmath.cos(s * rest) + b * sinc_over(rest)
        dphi = -a * s * mpmath.sin(s * rest) + b * mpmath.cos(s * rest)
        delta_inf = -phi
        delta = delta_inf if H is None else dphi + mpmath.mpc(H) * phi
        return +delta, +delta_inf


def growth_log(lam) -> float:
    """``pi |Im sqrt(lam)|``: the scale the program strips from ``Delta``."""

    return PI * abs(cmath.sqrt(complex(lam)).imag)


def scaled(value, lam) -> complex:
    """``value * exp(-pi |Im sqrt(lam)|)`` as an ordinary complex number."""

    with mpmath.workdps(DPS):
        return complex(value * mpmath.exp(-mpmath.mpf(growth_log(lam))))


def rel_error(val: complex, log: float, exact) -> float:
    """Relative error of the scaled pair ``val * exp(log)`` against ``exact``."""

    with mpmath.workdps(DPS):
        got = mpmath.mpc(val) * mpmath.exp(mpmath.mpf(log))
        return float(abs(got - exact) / abs(exact))


# ---------------------------------------------------------------------------
# Free jump problem: eigenvalues
# ---------------------------------------------------------------------------


def free_jump_eigenvalues(beta: float, d: float, bound: float, c: float = 0.0):
    """Eigenvalues ``< bound`` of ``q = c``, ``h = H = gamma = 0``: ``c`` and
    ``c + s^2`` for the positive roots ``s`` of
    ``-b1 sin(s pi) + b2 sin(s (2d - pi))``, sorted."""

    b1 = 0.5 * (beta + 1.0 / beta)
    b2 = 0.5 * (beta - 1.0 / beta)

    def g(s):
        return -b1 * mpmath.sin(s * mpmath.pi) + b2 * mpmath.sin(s * (2 * d - mpmath.pi))

    s_max = math.sqrt(bound - c) if bound > c else 0.0
    grid = np.linspace(1e-6, s_max + 1e-3, int(2000 * (s_max + 1)) + 2)
    vals = -b1 * np.sin(grid * PI) + b2 * np.sin(grid * (2 * d - PI))
    out = [c]
    with mpmath.workdps(30):
        for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
            s = mpmath.findroot(g, (grid[i], grid[i + 1]), solver="anderson")
            lam = c + float(s) ** 2
            if lam < bound:
                out.append(lam)
    return sorted(out)


# ---------------------------------------------------------------------------
# Closed-form norming constants (q = c, h = H = 0, no jump)
# ---------------------------------------------------------------------------


def neumann_norming(n: int) -> tuple[float, float]:
    """``(kappa_n, alpha_n)`` at ``lam = n^2 + c``: ``(-1)^n`` and ``pi/2``
    (``pi`` at ``n = 0``)."""

    return (-1.0) ** n, (PI if n == 0 else PI / 2)


def dirichlet_norming(n: int) -> tuple[float, float]:
    """``(kappa_n, alpha_n)`` at ``lam = (n + 1/2)^2 + c``:
    ``-s sin(s pi)`` and ``pi / (2 s^2)`` with ``s = n + 1/2``."""

    s = n + 0.5
    return -s * math.sin(s * PI), PI / (2 * s * s)


# ---------------------------------------------------------------------------
# Plain integrator for general potentials
# ---------------------------------------------------------------------------


def _rk4(qfun, lams, state, x0, x1, n):
    """Classical RK4 for ``(y, y', u, u')`` with ``y'' = (q - lam) y`` and
    ``u'' = (q - lam) u - y`` (``u = dy/dlam``), vectorized over ``lams``."""

    hstep = (x1 - x0) / n

    def f(x, z):
        k = qfun(x) - lams
        return np.stack([z[1], k * z[0], z[3], k * z[2] - z[0]])

    z = state
    for i in range(n):
        x = x0 + i * hstep
        k1 = f(x, z)
        k2 = f(x + 0.5 * hstep, z + 0.5 * hstep * k1)
        k3 = f(x + 0.5 * hstep, z + 0.5 * hstep * k2)
        k4 = f(x + hstep, z + hstep * k3)
        z = z + (hstep / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def _shoot(qfun, lams, h, H, beta, gamma, d, n):
    lams = np.asarray(lams, dtype=complex)
    z = np.zeros((4, lams.size), dtype=complex)
    z[0] = 1.0
    z[1] = h
    n_left = max(8, int(round(n * d / PI)))
    z = _rk4(qfun, lams, z, 0.0, d, n_left)
    jumped = z.copy()
    for i in (0, 2):  # the same linear matching acts on y and on dy/dlam
        jumped[i] = beta * z[i]
        jumped[i + 1] = z[i + 1] / beta + gamma * z[i]
    z = _rk4(qfun, lams, jumped, d, PI, max(8, n - n_left))
    if H is None:
        return -z[0], -z[2]
    return z[1] + H * z[0], z[3] + H * z[2]


def rk4_delta(qfun, lams, *, h=0.0, H=0.0, beta=1.0, gamma=0.0, d=PI / 2, n=4096):
    """``(Delta, Delta', err)`` at each ``lam`` from RK4 with ``n`` and ``n/2``
    steps, combined by Richardson extrapolation; ``err`` estimates the
    error of the extrapolated ``Delta``."""

    fine, dfine = _shoot(qfun, lams, h, H, beta, gamma, d, n)
    coarse, dcoarse = _shoot(qfun, lams, h, H, beta, gamma, d, n // 2)
    delta = (16 * fine - coarse) / 15
    ddelta = (16 * dfine - dcoarse) / 15
    return delta, ddelta, np.abs(delta - fine)


def root_distance(qfun, lams, **problem) -> tuple[np.ndarray, np.ndarray]:
    """Newton-step estimate ``|Delta / Delta'|`` of each ``lam``'s distance
    to the nearest zero, and the reference's own error on that estimate."""

    delta, ddelta, err = rk4_delta(qfun, lams, **problem)
    return np.abs(delta / ddelta), err / np.abs(ddelta)


def zeros_in_disc(qfun, radius: float, *, n_pts: int = 1024, **problem) -> int:
    """Number of zeros of ``Delta`` in ``|lam| < radius`` by the argument
    principle on the circle, sampled until every phase step is below pi/4."""

    while True:
        t = np.linspace(0.0, 2 * PI, n_pts + 1)
        lams = radius * np.exp(1j * t)
        delta, _, _ = rk4_delta(qfun, lams, n=512, **problem)
        steps = np.angle(delta[1:] / delta[:-1])
        if np.max(np.abs(steps)) < PI / 4:
            return int(round(steps.sum() / (2 * PI)))
        if n_pts >= 16384:
            raise RuntimeError("reference winding count did not resolve")
        n_pts *= 2


# ---------------------------------------------------------------------------
# Fresh computation of the stored self-test values
# ---------------------------------------------------------------------------


def _main():
    """Print, computed afresh, the values ``selftest.py`` expects."""

    print("free-jump eigenvalues, beta = 2, d = pi/3, below 227 (16 expected):")
    print(free_jump_eigenvalues(2.0, PI / 3, 227.0))
    print("zeros of free Neumann Delta in |lam| < 30 (6 expected):",
          zeros_in_disc(lambda x: 0.0 * x, 30.0))
    data = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j)
    for y in (1e2, 1e4, 1e6):
        delta, delta_inf = free_jump_delta(1j * y, **data)
        print(f"free jump (h=.3, H=.1, beta=1.5, gamma=.2i) at i*{y:g}: "
              f"log|Delta| = {float(mpmath.log(abs(delta))):.6f}, "
              f"scaled Delta = {scaled(delta, 1j * y):.10g}, "
              f"scaled Delta_inf = {scaled(delta_inf, 1j * y):.10g}")


if __name__ == "__main__":
    _main()
