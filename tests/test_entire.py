"""Tests for canonical products, growth fits, and counting bounds."""

import cmath
import math

import numpy as np
import pytest

from sturmdisc.charfn import char_delta
from sturmdisc.entire import (
    ProductModel,
    check_counting_bound,
    doubling_check,
    fit_constant,
    growth_fit,
    number_ray_check,
    ray_points,
    truncated_product,
)
from sturmdisc.expr import PotentialExpr
from sturmdisc.problem import Problem
from sturmdisc.spectrum import ZeroSequence

PI = math.pi


def seq_of(values, mults=None):
    values = list(values)
    if mults is None:
        mults = [1] * len(values)
    return ZeroSequence(np.array(values, dtype=complex), np.array(mults, dtype=int))


class TestTruncatedProduct:
    def test_sine_product_identity(self):
        # prod (1 - lam/n^2) = sin(pi sqrt(lam)) / (pi sqrt(lam))
        seq = seq_of([float(n * n) for n in range(1, 10001)])
        lam = 0.25
        got = truncated_product(seq, lam).value
        want = math.sin(PI * 0.5) / (PI * 0.5)  # = 2/pi
        assert abs(got - want) < 1e-4

    def test_empty_product_at_zero(self):
        seq = seq_of([2.0, 5.0])
        assert truncated_product(seq, 0.0, constant=3.5).value == pytest.approx(3.5)

    def test_vanishes_at_listed_zero(self):
        seq = seq_of([2.0, 5.0])
        assert truncated_product(seq, 5.0).value == 0

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            ProductModel(seq_of([0.0, 4.0]))

    def test_doubling_shrinks_error(self):
        lam = 0.25
        want = 2 / PI
        err = {}
        for n in (2000, 4000):
            seq = seq_of([float(k * k) for k in range(1, n + 1)])
            err[n] = abs(truncated_product(seq, lam).value - want)
        # the truncation tail is ~ lam/N, so doubling N halves the error
        # asymptotically; allow a whisker for the finite-N correction
        assert err[4000] < err[2000] / 1.9

    def test_doubling_check_reports_gap(self):
        seq = seq_of([float(k * k) for k in range(1, 1001)])
        full, half = doubling_check(seq, 0.25)
        assert abs(full.value - half.value) > 0
        assert abs(full.value - 2 / PI) < abs(half.value - 2 / PI)


class TestFitConstant:
    def test_q_one_neumann_constant(self):
        # Delta(0) = sinh(pi) for q=1, h=H=0 (zeros at n^2+1)
        p = Problem(q=PotentialExpr.parse("1"), h=0.0, H=0.0)
        seq = seq_of([float(n * n + 1) for n in range(500)])
        C = fit_constant(p, seq, lam=0.0)
        assert abs(C - math.sinh(PI)) / math.sinh(PI) < 1e-3

    def test_shifted_free_problem_same_constant(self):
        # q = 0+1 is the same operator as q = 1
        p = Problem(q=PotentialExpr.parse("0 + 1"), h=0.0, H=0.0)
        seq = seq_of([float(n * n + 1) for n in range(500)])
        C = fit_constant(p, seq, lam=0.0)
        assert abs(C - math.sinh(PI)) / math.sinh(PI) < 1e-3

    def test_dirichlet_constant(self):
        # Delta_inf(0) = -cos(sqrt(-1) pi) = -cosh(pi) for q=1, h=0
        p = Problem(q=PotentialExpr.parse("1"), h=0.0, H=0.0)
        sample = char_delta(p, 0.0)
        assert sample.delta_inf.value == pytest.approx(-math.cosh(PI), rel=1e-9)


class TestGrowthFit:
    @staticmethod
    def _log_abs_cos(z):
        # log|cos z| without overflow: factor out e^{|Im z|}
        m = abs(z.imag)
        return m + math.log(
            abs(0.5 * (cmath.exp(1j * z - m) + cmath.exp(-1j * z - m)))
        )

    def test_cosine(self):
        ys = ray_points(1e2, 1e6)
        logs = np.array(
            [self._log_abs_cos(cmath.sqrt(1j * y) * PI) for y in ys]
        )
        fit = growth_fit(ys, logs)
        assert abs(fit.c - PI) / PI < 0.02
        assert abs(fit.p) < 0.05

    def test_free_delta(self):
        p = Problem(q=PotentialExpr.parse("0"), h=0.0, H=0.0)
        ys = ray_points(1e2, 1e6)
        logs = np.array([char_delta(p, 1j * y).delta.log_abs for y in ys])
        fit = growth_fit(ys, logs)
        assert abs(fit.c - PI) / PI < 0.02
        assert abs(fit.p - 0.5) < 0.05

    def test_constant_function(self):
        ys = ray_points(1e2, 1e6)
        fit = growth_fit(ys, np.zeros(ys.size))
        assert abs(fit.c) < 1e-10
        assert abs(fit.p) < 1e-10

    def test_needs_three_samples(self):
        with pytest.raises(ValueError, match="at least 3 samples"):
            growth_fit([1e2, 1e3], [1.0, 2.0])

    def test_ratio_additivity(self):
        # fitting f/g gives the difference of the fitted exponents
        ys = ray_points(1e2, 1e6)
        logs_f = 2.0 * np.sqrt(ys / 2.0) + 0.75 * np.log(ys) + 0.3
        logs_g = 0.5 * np.sqrt(ys / 2.0) + 0.25 * np.log(ys) - 1.1
        fit = growth_fit(ys, logs_f - logs_g)
        assert fit.c == pytest.approx(1.5, abs=1e-9)
        assert fit.p == pytest.approx(0.5, abs=1e-9)


class TestCountingBound:
    def test_self_margin_zero(self):
        seq = seq_of([float(n * n + 1) for n in range(200)])
        out = check_counting_bound(seq, seq, None, 1, 0, 0)
        assert out.margin == 0.0
        assert out.satisfied

    def test_dropped_first_entry(self):
        seq = seq_of([float(n * n + 1) for n in range(200)])
        dropped = seq_of([float(n * n + 1) for n in range(1, 200)])
        out = check_counting_bound(dropped, seq, None, 1, 0, -1)
        assert out.margin == 0.0
        assert out.satisfied

    def test_violated_bound_detected(self):
        seq = seq_of([float(n * n + 1) for n in range(200)])
        dropped = seq_of([float(n * n + 1) for n in range(1, 200)])
        out = check_counting_bound(dropped, seq, None, 1, 0, 0)
        assert out.margin < 0
        assert not out.satisfied


class TestRayLowerBound:
    def test_merged_free_style_sequences(self):
        n = 20000
        seq_b = seq_of([float(k * k + 1) for k in range(n)])
        seq_bi = seq_of([(k + 0.5) ** 2 + 1 for k in range(n)])
        model = ProductModel(seq_b.merged(seq_bi), constant=1.0)
        out = number_ray_check(model, 1, 1, 0)
        assert out.min_value > 0
        # the normalized magnitude should be roughly flat, not collapsing
        spread = out.normalized_logs.max() - out.normalized_logs.min()
        assert spread < 1.0
