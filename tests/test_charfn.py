"""Tests for the characteristic functions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmdisc.charfn import (
    char_delta,
    delta_consistency,
    delta_many,
    f_function,
)
from sturmdisc.expr import PotentialExpr
from sturmdisc.norming import check_identity
from sturmdisc.problem import Problem
from sturmdisc.spectrum import find_eigenvalues

PI = math.pi


def free(**kw):
    return Problem(q=PotentialExpr.parse("0"), **kw)


class TestClosedForms:
    @pytest.mark.parametrize("lam", [2.3, 7.3, 17.0, -4.0, 8.0 + 3.0j])
    def test_free_neumann(self, lam):
        # q=0, h=H=0, beta=1: delta = -sqrt(lam) sin(sqrt(lam) pi)
        s = cmath.sqrt(complex(lam))
        want = -s * cmath.sin(s * PI)
        got = char_delta(free(), complex(lam)).delta.value
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("lam", [2.3, 7.3, 17.0, -4.0])
    def test_free_dirichlet(self, lam):
        # delta_inf = -phi(pi) = -cos(sqrt(lam) pi)
        s = cmath.sqrt(complex(lam))
        want = -cmath.cos(s * PI)
        got = char_delta(free(), complex(lam)).delta_inf.value
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("lam", [5.0, 23.7, 11.0 - 2.0j])
    def test_free_with_jump(self, lam):
        # exact transfer-matrix formula for q=0, gamma=0, h=H=0
        p = free(beta=2.0, d=PI / 3)
        s = cmath.sqrt(complex(lam))
        want = s * (-p.b1 * cmath.sin(s * PI) + p.b2 * cmath.sin(s * (2 * p.d - PI)))
        got = char_delta(p, complex(lam)).delta.value
        assert got == pytest.approx(want, rel=1e-8)


def _complex(lo, hi):
    return st.builds(complex, st.floats(lo, hi), st.floats(lo, hi))


@st.composite
def consistency_setups(draw):
    q = "%.4f * cos(%d * x) + %.4f" % (
        draw(st.floats(-2.0, 2.0)), draw(st.integers(1, 4)), draw(st.floats(-2.0, 2.0))
    )
    problem = Problem(
        q=PotentialExpr.parse(q),
        h=draw(_complex(-1.0, 1.0)),
        H=draw(st.one_of(st.none(), _complex(-1.0, 1.0))),  # None: Dirichlet
        beta=draw(st.floats(0.4, 3.0)),
        gamma=draw(_complex(-1.0, 1.0)),
        d=draw(st.floats(0.3, PI - 0.3)),
    )
    lam = complex(draw(st.floats(-10.0, 200.0)), draw(st.floats(-8.0, 8.0)))
    return problem, lam


class TestConsistency:
    @given(consistency_setups())
    @settings(max_examples=40, deadline=None)
    def test_random_problems_agree(self, setup):
        problem, lam = setup
        assert delta_consistency(problem, lam) < 1e-8

    @given(consistency_setups())
    @settings(max_examples=6, deadline=None)
    def test_derivative_identity_at_random_roots(self, setup):
        problem, _ = setup
        for record in find_eigenvalues(problem, 40):
            assert max(check_identity(problem, record)) < 1e-6

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"h": 0.3 + 0.1j, "H": 0.2},
            {"beta": 2.0, "gamma": 0.4j, "d": 1.1, "h": 0.1},
        ],
    )
    def test_two_sided_evaluations_agree(self, kw):
        p = Problem(q=PotentialExpr.parse("cos(x)"), **kw)
        for lam in (3.0, 21.0 + 4.0j, -6.0):
            assert delta_consistency(p, complex(lam)) < 1e-10

    @pytest.mark.parametrize(
        "q, kw, lam",
        [
            ("0", {"H": None}, 6.25),  # delta = -cos(2.5 pi) = 0
            ("0", {}, 9.0),  # delta = -3 sin(3 pi) = 0
            # |delta| about 1/400 of the solution scale, next to an eigenvalue
            ("-0.125", {"h": -0.25, "H": None, "beta": 2.3125, "gamma": -0.25, "d": 0.3}, 188.0625),
        ],
    )
    def test_evaluations_agree_at_eigenvalues(self, q, kw, lam):
        p = Problem(q=PotentialExpr.parse(q), **kw)
        assert delta_consistency(p, complex(lam)) < 1e-10

    def test_derivatives_match_central_difference(self):
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.2, beta=1.5, gamma=0.1j)
        lam = 13.0
        sample = char_delta(p, lam, nu_max=2, tol=1e-12)
        eps = 1e-4  # second difference is noise-limited below this
        hi = char_delta(p, lam + eps, tol=1e-12).delta.value
        lo = char_delta(p, lam - eps, tol=1e-12).delta.value
        fd1 = (hi - lo) / (2 * eps)
        fd2 = (hi - 2 * sample.delta.value + lo) / eps**2
        assert sample.ddelta[1].value == pytest.approx(fd1, rel=1e-6)
        assert sample.ddelta[2].value == pytest.approx(fd2, rel=1e-3)

    def test_delta_many_matches_single(self):
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.2, H=0.4, beta=1.7, d=1.3)
        lams = np.array([4.0, 9.0 + 2.0j, -3.0, 44.0])
        vals, vals_inf, logs = delta_many(p, lams)
        for k, lam in enumerate(lams):
            s = char_delta(p, complex(lam))
            assert vals[k] * math.exp(logs[k]) == pytest.approx(
                s.delta.value, rel=1e-7
            )
            assert vals_inf[k] * math.exp(logs[k]) == pytest.approx(
                s.delta_inf.value, rel=1e-7
            )

    @given(consistency_setups(), st.lists(st.floats(2.0, 4.0), min_size=2, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_delta_many_on_a_ray_matches_char_delta(self, setup, decades):
        # the ray probes' batches: one walk at TOL keeps each point within
        # the 5e-11 sqrt|lam| of a one-lambda solve, as every lambda of the
        # batch is judged on its own
        problem, _ = setup
        lams = 1j * 10.0 ** np.array(decades)
        vals, vals_inf, logs = delta_many(problem, lams)
        for k, lam in enumerate(lams):
            s = char_delta(problem, complex(lam))
            bound = 1e-10 * math.sqrt(abs(lam))
            for got, want in ((vals[k], s.delta), (vals_inf[k], s.delta_inf)):
                assert want.log == logs[k]
                assert abs(got - want.val) <= bound * abs(want.val)


def free_jump_scaled(lam, h, H, beta, gamma, d):
    """Exact ``(delta, delta_inf)`` of the ``q = 0`` problem, divided by
    ``exp(pi Im s)`` with ``s = sqrt(lam)``, ``Im s >= 0``.

    ``cos(s x) = exp(-i s x) (1 + E)/2`` and ``sin(s x) = exp(-i s x) i (1 - E)/2``
    with ``|E| = |exp(2 i s x)| <= 1``; the ``exp(-i s x)`` factors of the two
    sides of ``d`` multiply to ``exp(-i s pi)``, whose modulus is the scale.
    """

    s = cmath.sqrt(lam)

    def cs(x):
        e = cmath.exp(2j * s * x)
        return (1 + e) / 2, 1j * (1 - e) / 2

    c, sn = cs(d)
    y, dy = c + h * sn / s, -s * sn + h * c
    a, b = beta * y, dy / beta + gamma * y
    c, sn = cs(PI - d)
    phi, dphi = a * c + b * sn / s, -a * s * sn + b * c
    phase = cmath.exp(-1j * s.real * PI)
    return phase * (dphi + H * phi), phase * -phi


class TestFarRayAccuracy:
    """``char_delta`` against the exact free-jump ``delta`` and ``delta_inf``:
    the relative error stays below ``5e-11 sqrt|lam|`` out to ``|lam| = 1e6``
    (the default ``tol``; the README's "Accuracy" section quotes this)."""

    DATA = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j, d=PI / 2)
    LAMS = [1j * 10.0**k for k in range(2, 7)] + [1e6 + 1e3j]

    def check(self, q, c, lam):
        # a constant potential c shifts the spectral parameter to lam - c
        sample = char_delta(Problem(q=PotentialExpr.parse(q), **self.DATA), lam)
        growth = PI * cmath.sqrt(lam - c).imag
        for got, want in zip(
            (sample.delta, sample.delta_inf), free_jump_scaled(lam - c, **self.DATA)
        ):
            err = abs(got.val * math.exp(got.log - growth) - want) / abs(want)
            assert err < 5e-11 * math.sqrt(abs(lam))

    @pytest.mark.parametrize("lam", LAMS)
    def test_relative_error_grows_like_sqrt_lam(self, lam):
        self.check("0", 0.0, lam)

    @pytest.mark.parametrize("lam", LAMS)
    def test_shifted_free_problem(self, lam):
        self.check("2 - 0.5i", 2 - 0.5j, lam)


class TestRayAsymptotics:
    def test_delta_ratio_near_limit(self):
        # |delta(iy)| ~ (b1/2) |y|^{1/2} exp(mu pi) with mu = sqrt(y/2)
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.3, H=0.1, beta=2.0,
                    gamma=0.5, d=1.2)
        for y in (1e4, 1e5, 1e6):
            s = char_delta(p, 1j * y)
            mu = math.sqrt(y / 2.0)
            predicted = math.log(p.b1 / 2) + 0.5 * math.log(y) + mu * PI
            ratio = math.exp(s.delta.log_abs - predicted)
            assert abs(ratio - 1.0) < 0.05

    def test_delta_inf_ratio_near_limit(self):
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.3, H=0.1, beta=2.0,
                    gamma=0.5, d=1.2)
        for y in (1e4, 1e5, 1e6):
            s = char_delta(p, 1j * y)
            mu = math.sqrt(y / 2.0)
            predicted = math.log(p.b1 / 2) + mu * PI
            ratio = math.exp(s.delta_inf.log_abs - predicted)
            assert abs(ratio - 1.0) < 0.05


class TestBracketFunctional:
    def test_identical_pair_vanishes(self):
        p = Problem(q=PotentialExpr.parse("cos(x)"), h=0.2, beta=1.5, d=1.3)
        for lam in (5.0, 20.0 + 3.0j):
            sample = f_function(p, p, complex(lam))
            assert abs(sample.F.val) < 1e-10
            assert abs(sample.F1.val) < 1e-10
            assert abs(sample.F2.val) < 1e-10

    def test_boundary_difference_only(self):
        # identical potentials, different h: F(lam) = h_b - h_a exactly
        qa = PotentialExpr.parse("cos(x)")
        pa = Problem(q=qa, h=0.2)
        pb = Problem(q=qa, h=0.7)
        for lam in (4.0, 16.0 + 1.0j):
            sample = f_function(pa, pb, complex(lam))
            assert sample.F.value == pytest.approx(0.5, rel=1e-8)
