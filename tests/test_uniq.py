"""Tests for the uniqueness-ingredient probes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_charfn import consistency_setups
from test_ode import complex_in, wronskian_scale

from sturmdisc import charfn, uniq
from sturmdisc.charfn import char_delta, delta_many, f_bracket_ray, f_function
from sturmdisc.expr import PotentialExpr
from sturmdisc.ode import BRACKET_TOL, ScaledVal, solve_chain
from sturmdisc.problem import Problem
from sturmdisc.spectrum import ZeroSequence
from sturmdisc.uniq import (
    collapse_consistency,
    bracket_decay_probe,
    modify_below,
    product_ratio_probe,
)

PI = math.pi


def base_jump():
    return Problem(
        q=PotentialExpr.parse("sin(x)"), h=0.3, H=0.1, beta=1.5, gamma=0.2j
    )


class TestModifyBelow:
    def test_difference_supported_below_b(self):
        p = base_jump()
        b = 2.0
        pb = modify_below(p, b, m=1, weight=0.7)
        xs = np.linspace(0.0, PI, 301)
        diff = pb.q(xs) - p.q(xs)
        want = np.where(xs < b, 0.7 * (xs - b) ** 2, 0.0)
        assert np.max(np.abs(diff - want)) < 1e-12

    def test_vanishing_order_at_b(self):
        p = base_jump()
        b = 1.5
        for m in (0, 1, 2):
            pb = modify_below(p, b, m=m)
            eps = 1e-3
            d = pb.q(np.array([b - eps]))[0] - p.q(np.array([b - eps]))[0]
            assert abs(d) == pytest.approx(eps ** (m + 1), rel=1e-9)

    def test_boundary_shift_and_shared_jump(self):
        p = base_jump()
        pb = modify_below(p, 2.0, m=0, dh=0.25j)
        assert pb.h == p.h + 0.25j
        assert pb.beta == p.beta and pb.gamma == p.gamma and pb.d == p.d

    def test_b_out_of_range(self):
        with pytest.raises(ValueError):
            modify_below(base_jump(), -0.5, m=0)
        with pytest.raises(ValueError):
            modify_below(base_jump(), 4.0, m=0)


class TestBracketDecayProbe:
    YS = np.geomspace(1e2, 1e6, 7)

    def test_decay_order_zero(self):
        p = Problem(q=PotentialExpr.parse("0"))
        pb = modify_below(p, 2.0, m=0)
        probe = bracket_decay_probe(p, pb, 2.0, m=0, ys=self.YS)
        assert probe.passes
        # the bracket actually decays a full order faster than the threshold
        assert probe.slope == pytest.approx(-1.0, abs=0.1)
        assert probe.threshold == pytest.approx(-0.35)

    def test_decay_order_one(self):
        p = Problem(q=PotentialExpr.parse("0"))
        pb = modify_below(p, 2.0, m=1)
        probe = bracket_decay_probe(p, pb, 2.0, m=1, ys=self.YS)
        assert probe.passes
        assert probe.slope == pytest.approx(-1.5, abs=0.1)

    def test_identical_pair_decays_beyond_resolution(self):
        # F = 0 exactly or at rounding level: no point clears the noise
        # floor, so there is no line to fit
        p = base_jump()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = bracket_decay_probe(p, p, 2.0, 0, ys=np.geomspace(1e2, 1e3, 3))
        assert probe.slope == -math.inf
        assert probe.passes
        assert math.isnan(probe.slope_stderr)


class TestCollapsedEvaluation:
    LAMS = np.array(
        [1.7, 12.0, 33.0, 55.0, -1.5, 8.0 + 2.0j, 30.0 - 2.5j, 50.0 + 1.0j]
    )

    @pytest.mark.parametrize("b", [2.2, PI / 2, 1.0])
    def test_agreement_around_jump(self, b):
        # b to the right of, at, and to the left of the discontinuity
        p = base_jump()
        pb = modify_below(p, b, m=0, weight=0.4, dh=0.2)
        rep = collapse_consistency(p, pb, b, lams=self.LAMS)
        assert rep.max_rel < 1e-8

    def test_each_chain_solved_once_per_lambda(self, monkeypatch):
        b = 2.0
        p = base_jump()
        pb = modify_below(p, b, m=0, weight=0.4, dh=0.2)
        lams = self.LAMS[:4]
        want = []
        for lam in lams:
            # one read set that holds both b and pi: b inside a segment takes
            # that segment to another kernel, so f_function at "pi" alone
            # would not reproduce these reads bit for bit
            reads = charfn._f_reads(p, pb, complex(lam), b)
            ref = charfn._f_sample(reads, p.d, complex(lam), "pi").F
            col = charfn._f_sample(reads, p.d, complex(lam), b).F
            want.append(math.exp((ref - col).log_abs - max(ref.log_abs, col.log_abs)))
        calls = []

        def counting(prob, lam, *args, **kw):
            calls.append(lam)
            return solve_chain(prob, lam, *args, **kw)

        monkeypatch.setattr(charfn, "solve_chain", counting)
        rep = collapse_consistency(p, pb, b, lams=lams)
        # one chain per problem and lambda, shared by both forms of F
        assert len(calls) == 2 * len(lams)
        assert list(rep.rels) == want

    @given(
        consistency_setups(),
        st.sampled_from([-1, 0, 1]),
        st.floats(0.05, 0.25),
        st.integers(0, 2),
        complex_in(-1.0, 1.0),
        complex_in(-0.5, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_ray_route_matches_collapsed_bracket(self, setup, side, gap, m, weight, dh):
        # b to the left of, at, and to the right of the discontinuity
        p, lam = setup
        b = p.d + side * gap
        pb = modify_below(p, b, m=m, weight=weight, dh=dh)
        (val,), (log_f,) = f_bracket_ray(p, pb, b, [lam])
        diff = ScaledVal(val, log_f) - f_function(p, pb, lam, at=b).F
        (za,), (log,) = solve_chain(p, lam, [b], tol=BRACKET_TOL)
        (zb,), _ = solve_chain(pb, lam, [b], tol=BRACKET_TOL)
        # relative to the Wronskian scale of phi and phi~ at b
        assert math.exp(diff.log_abs - 2 * log) < 1e-10 * wronskian_scale(lam, za[0], zb[0])

    def test_default_grid(self):
        p = Problem(q=PotentialExpr.parse("0"), h=0.1)
        pb = modify_below(p, 2.0, m=0, dh=0.3)
        rep = collapse_consistency(p, pb, 2.0)
        assert rep.lams.size == 20
        assert rep.max_rel < 1e-8


class TestRatioProbe:
    def test_normalization_at_zero_computed_once(self, monkeypatch):
        b = 2.0
        p = Problem(q=PotentialExpr.parse("0"), h=0.2)
        pb = modify_below(p, b, m=0, dh=0.1)
        ys = np.geomspace(1e2, 1e4, 3)
        calls = []

        def counting(prob, lam, **kw):
            calls.append(lam)
            return char_delta(prob, lam, **kw)

        monkeypatch.setattr(uniq, "char_delta", counting)
        rep = product_ratio_probe(p, pb, b, ys=ys)
        # each problem once at 0; the ray points are batched
        assert calls == [0.0, 0.0]
        # the log ratios are those of normalizing at 0 at every ray point,
        # with each problem's factors from one batch at 1e-9
        log_g = np.zeros(ys.size)
        for prob in (p, pb):
            s0 = char_delta(prob, 0.0)
            log_g -= s0.delta.log_abs + s0.delta_inf.log_abs
        for prob in (p, pb):
            vals, vals_inf, logs = delta_many(prob, 1j * ys, tol=1e-9)
            log_g += np.log(np.abs(vals)) + np.log(np.abs(vals_inf)) + 2.0 * logs
        vals, logs = f_bracket_ray(p, pb, b, 1j * ys)
        assert list(rep.log_ratios) == list(np.log(np.abs(vals)) + logs - log_g)

    def test_zero_at_origin_is_refused(self, monkeypatch):
        # Problem(q="0") has the Neumann eigenvalue 0, so delta(0) = 0
        p = Problem(q=PotentialExpr.parse("0"))
        pb = modify_below(p, 2.0, m=0)

        def unreachable(*args, **kw):
            raise AssertionError("the ray loop ran")

        monkeypatch.setattr(uniq, "f_bracket_ray", unreachable)
        ys = np.array([1e2, 1e3])
        with pytest.raises(ValueError, match=r"problem_a: delta\(0\) = 0.*shift q"):
            product_ratio_probe(p, pb, 2.0, ys=ys)
        # q = -1/4: phi(x, 0) = cos(x/2), so delta_inf(0) = -phi(pi, 0) = 0
        quarter = Problem(q=PotentialExpr.parse("-0.25"))
        with pytest.raises(ValueError, match=r"problem_b: delta_inf\(0\) = 0"):
            product_ratio_probe(Problem(q=PotentialExpr.parse("1")), quarter, 2.0, ys=ys)

    def test_identical_pair_decays_beyond_resolution(self):
        # F = 0: no point clears the noise floor the decay probes share, so
        # there is no rate to fit and the tail passes, with no warning
        p = Problem(q=PotentialExpr.parse("1"), h=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = product_ratio_probe(p, p, 2.0, ys=np.geomspace(1e2, 1e3, 3))
        assert rep.fitted_rate == -math.inf
        assert math.isnan(rep.rate_stderr)
        assert rep.monotone_tail

    def test_exact_products_rate(self):
        b = 2.0
        p = Problem(q=PotentialExpr.parse("0"), h=0.2)
        pb = modify_below(p, b, m=0, dh=0.1)
        rep = product_ratio_probe(p, pb, b, ys=np.geomspace(1e2, 1e6, 7))
        assert rep.expected_rate == pytest.approx(-(4 * PI - 2 * b))
        assert rep.fitted_rate == pytest.approx(rep.expected_rate, rel=0.05)
        assert rep.monotone_tail
        assert rep.counting is None

    def test_explicit_products_run_counting_first(self):
        b = 2.0
        p = Problem(q=PotentialExpr.parse("0"), h=0.2)
        pb = modify_below(p, b, m=0, dh=0.1)
        n = np.arange(1, 2001, dtype=float)
        robin = ZeroSequence(n**2 + 1.0, np.ones_like(n), origin="given")
        dirich = ZeroSequence((n + 0.5) ** 2 + 1.0, np.ones_like(n), origin="given")
        rep = product_ratio_probe(
            p,
            pb,
            b,
            seq_robin=robin,
            seq_dirichlet=dirich,
            ys=np.geomspace(1e2, 1e4, 5),
        )
        assert rep.counting is not None
        assert rep.counting.satisfied
        assert np.isfinite(rep.log_ratios).all()

    def test_explicit_products_require_sequences(self):
        p = Problem(q=PotentialExpr.parse("0"))
        pb = modify_below(p, 2.0, m=0)
        with pytest.raises(ValueError):
            product_ratio_probe(p, pb, 2.0, seq_robin=ZeroSequence([1.0], [1]))
