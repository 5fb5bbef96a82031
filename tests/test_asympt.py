"""Tests for the large-lambda expansion machinery and ray-decay fits."""

import cmath
import math

import numpy as np
import pytest

from sturmdisc.asympt import (
    build_expansion,
    decay_order_fit,
    dy2_model,
    nu_kernel,
    s_series,
    s_tail_envelope,
    term_sign,
    y2_model,
)
from sturmdisc.expr import PotentialExpr
from sturmdisc.ode import ScaledVal, solve_chain
from sturmdisc.problem import Problem

PI = math.pi


def free(**kw):
    return Problem(q=PotentialExpr.parse("0"), **kw)


class TestKernels:
    def test_sign_period_four(self):
        # pattern -,-,+,+ repeating
        want = [-1, -1, 1, 1, -1, -1, 1, 1]
        assert [term_sign(j) for j in range(8)] == want

    def test_nu_kernel_parity(self):
        lam = 5.0 + 1.0j
        s = cmath.sqrt(lam)
        x = 0.7
        assert complex(nu_kernel(0, x, lam)) == pytest.approx(cmath.sin(s * x))
        assert complex(nu_kernel(1, x, lam)) == pytest.approx(
            cmath.cos(s * x) / (2 * s)
        )
        assert complex(nu_kernel(2, x, lam)) == pytest.approx(
            cmath.sin(s * x) / (2 * s) ** 2
        )


class TestExpansionTables:
    def test_constant_potential_exact(self):
        # q = 1, m = 0: every table entry has a short closed form
        t = build_expansion("1", m=0)
        assert t.path == "polynomial"
        for x in (0.0, 0.3, 1.0, 2.5, PI):
            assert t.f_at(1, 1, x) == pytest.approx(-x, abs=1e-14)
            assert t.f_at(1, 2, x) == pytest.approx(2.0, abs=1e-14)
            assert t.a_at(1, x) == pytest.approx(-x, abs=1e-14)
            assert t.a_at(2, x) == pytest.approx(-x * x / 2, abs=1e-13)
            assert t.b_at(0, x) == pytest.approx(x / 2, abs=1e-14)
            assert t.b_at(1, x) == pytest.approx(-x * x / 4, abs=1e-13)

    def test_missing_entry_is_zero(self):
        t = build_expansion("1", m=0)
        assert t.f_at(3, 1, 0.5) == 0.0

    def test_grid_backend_matches_polynomial(self):
        # the same polynomial through both representations
        tp = build_expansion("x^2 - 1", m=1)
        tg = build_expansion(lambda xs: np.asarray(xs) ** 2 - 1.0, m=1)
        assert tp.path == "polynomial"
        assert tg.path == "grid"
        for x in (0.5, 1.5, 3.0):
            for j in (1, 2, 3):
                assert tg.a_at(j, x) == pytest.approx(tp.a_at(j, x), abs=1e-10)
            for j in (0, 1, 2):
                assert tg.b_at(j, x) == pytest.approx(tp.b_at(j, x), abs=1e-10)

    def test_piecewise_potential_rejected(self):
        from sturmdisc.expr import Piece, parse_expr

        q = PotentialExpr(
            [Piece(0.0, 1.0, parse_expr("1")), Piece(1.0, PI, parse_expr("2"))],
            PI,
        )
        with pytest.raises(ValueError):
            build_expansion(q, m=0)

    def test_model_error_order(self):
        # residual of the m=0 model against the integrated solution should
        # drop by at least lam^{-3/2} when lam grows 4x
        t = build_expansion("1", m=0)
        p = Problem(q=PotentialExpr.parse("1"))
        errs = []
        for lam in (400.0, 1600.0):
            (end,), (log,) = solve_chain(p, lam, [PI], x_from=0.0, init=(0.0, 1.0))
            ytrue = ScaledVal(end[0, 0], log).value
            errs.append(abs(y2_model(t, PI, lam) - ytrue))
        assert errs[0] / errs[1] > 6.0

    def test_derivative_model_tracks_solution(self):
        t = build_expansion("1", m=0)
        p = Problem(q=PotentialExpr.parse("1"))
        lam = 900.0
        (end,), (log,) = solve_chain(p, lam, [PI], x_from=0.0, init=(0.0, 1.0))
        dtrue = ScaledVal(end[0, 1], log).value
        assert dy2_model(t, PI, lam) == pytest.approx(dtrue, rel=2e-4)


class TestIteratedSeries:
    def test_first_term_closed_form(self):
        # q = 1: S_1 = sin(s x)/(2 lam^{3/2}) - x cos(s x)/(2 lam)
        lam = 9.0 + 2.0j
        s = cmath.sqrt(lam)
        xs = np.linspace(0.0, PI, 4001)
        S, _ = s_series("1", xs, lam, 1)
        want = np.sin(s * xs) / (2 * lam**1.5) - xs * np.cos(s * xs) / (2 * lam)
        assert np.max(np.abs(S[1] - want)) < 1e-8

    def test_series_sums_to_solution(self):
        lam = 9.0 + 2.0j
        xs = np.linspace(0.0, PI, 4001)
        S, C = s_series("1", xs, lam, 10)
        p = Problem(q=PotentialExpr.parse("1"))
        (end,), (log,) = solve_chain(p, lam, [PI], x_from=0.0, init=(0.0, 1.0))
        v = ScaledVal(end[0, 0], log)
        dv = ScaledVal(end[0, 1], log)
        assert sum(Sp[-1] for Sp in S) == pytest.approx(v.value, abs=1e-9)
        assert sum(Cp[-1] for Cp in C) == pytest.approx(dv.value, abs=1e-9)

    def test_residual_shrinks_factorially(self):
        # partial sums converge to the integrated solution; consecutive
        # residual ratios grow like p/int|q| so the geometric mean over the
        # first several terms comfortably exceeds 5 even at moderate lam
        lam = 4.0
        xs = np.linspace(0.0, PI, 4001)
        S, _ = s_series("1", xs, lam, 8)
        p = Problem(q=PotentialExpr.parse("1"))
        pts = xs[::400]
        states, logs = solve_chain(p, lam, pts, x_from=0.0, init=(0.0, 1.0))
        ytrue = np.array([ScaledVal(z[0, 0], log).value for z, log in zip(states, logs)])
        res = []
        for pmax in range(1, 9):
            part = sum(S[j] for j in range(pmax + 1))[::400]
            res.append(np.max(np.abs(part - ytrue)))
        ratios = [res[i] / res[i + 1] for i in range(len(res) - 1)]
        gmean = math.exp(np.mean(np.log(ratios)))
        assert gmean >= 5.0
        # eventually each extra term buys more than a 5x reduction
        assert all(rat >= 5.0 for rat in ratios[2:])

    def test_tail_envelope_bounds_terms(self):
        lam = 4.0
        xs = np.linspace(0.0, PI, 2001)
        S, _ = s_series("1", xs, lam, 6)
        for p in (3, 4, 5, 6):
            env = s_tail_envelope("1", PI, lam, p, m=0)
            assert np.max(np.abs(S[p])) <= env


class TestLeadingPhi:
    def test_jump_case_matches_integration(self):
        p = Problem(
            q=PotentialExpr.parse("sin(x)"), h=0.3, beta=2.0, d=PI / 3
        )
        lam, x = 1e6, 2.5
        (end,), (log,) = solve_chain(p, lam, [x], x_from=0.0, init=(1.0, 0.3))
        got = ScaledVal(end[0, 0], log).value
        # leading large-lambda form of phi past the jump at d
        s = math.sqrt(lam)
        phi = p.b1 * math.cos(s * x) + p.b2 * math.cos(s * (2 * p.d - x))
        # the correction term is O(1/sqrt(lam)) = 1e-3
        assert abs(got - phi) / abs(phi) < 1e-2


class TestDecayOrder:
    YS = np.geomspace(1e2, 1e6, 5)

    def test_touching_order_sets_slope(self):
        # q difference vanishing to first order at x0 = 3: measured slopes
        # land one |s| power below the claimed exponents
        pa = free()
        pb = Problem(q=PotentialExpr.parse("x - 3"))
        want = {(1, 1): -2.0, (1, 2): -3.0, (2, 1): -3.0, (2, 2): -4.0}
        for combo, slope in want.items():
            fit = decay_order_fit(
                pa, pb, 0.5, 3.0, combo, self.YS, m_claimed=0
            )
            assert fit.slope == pytest.approx(slope, abs=0.15)
            assert fit.passes

    def test_step_difference_slow_decay(self):
        # merely integrable q difference: the cosine pair decays one power,
        # the sine pair three
        pa = free()
        pb = Problem(q=PotentialExpr.parse("1"))
        fit11 = decay_order_fit(pa, pb, 0.5, 3.0, "11", self.YS)
        fit22 = decay_order_fit(pa, pb, 0.5, 3.0, "22", self.YS)
        assert fit11.slope == pytest.approx(-1.0, abs=0.2)
        assert fit22.slope == pytest.approx(-3.0, abs=0.2)
        assert fit11.claimed_exponent is None and fit11.passes is None

    def test_identical_problems_below_floor(self):
        pa = free()
        fit = decay_order_fit(pa, pa, 0.5, 3.0, (2, 2), self.YS, m_claimed=0)
        assert fit.slope == -math.inf
        assert fit.passes
        assert not fit.used.any()

    def test_string_alias_matches_tuple(self):
        pa = free()
        pb = Problem(q=PotentialExpr.parse("1"))
        ys = np.geomspace(1e2, 1e4, 3)
        f1 = decay_order_fit(pa, pb, 0.5, 2.0, "12", ys)
        f2 = decay_order_fit(pa, pb, 0.5, 2.0, (1, 2), ys)
        assert f1.slope == f2.slope
        assert f1.combo == (1, 2)
