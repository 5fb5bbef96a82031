"""Tests for the problem descriptor."""

import math

import pytest

from sturmdisc.config import problem_from_config
from sturmdisc.expr import PotentialExpr
from sturmdisc.problem import Problem


def make(q="0", **kw):
    return Problem(q=PotentialExpr.parse(q), **kw)


class TestValidation:
    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            make(beta=-1.0)

    def test_d_inside_interval(self):
        with pytest.raises(ValueError):
            make(d=4.0)

    def test_dirichlet_tag(self):
        p = make(H=None)
        assert p.dirichlet

    def test_default_is_robin(self):
        assert not make().dirichlet


class TestJumpCoefficients:
    def test_b1_b2_identity(self):
        for beta in (0.5, 1.0, 2.0, 3.7):
            p = make(beta=beta)
            assert p.b1**2 - p.b2**2 == pytest.approx(1.0, rel=1e-14)

    def test_beta_one_has_no_skew(self):
        p = make(beta=1.0)
        assert p.b1 == 1.0
        assert p.b2 == 0.0


class TestSerialization:
    def test_round_trip(self):
        spec = {
            "q": "sin(x)",
            "h": [0.3, 0.1],
            "H": 0.2,
            "beta": 2.0,
            "gamma": [0.0, 0.5],
            "d": 1.1,
        }
        p = make("sin(x)", h=0.3 + 0.1j, H=0.2, beta=2.0, gamma=0.5j, d=1.1)
        again = problem_from_config(spec, "$")
        assert again.h == p.h
        assert again.H == p.H
        assert again.beta == p.beta
        assert again.gamma == p.gamma
        assert again.d == p.d
        assert again.q(0.7) == pytest.approx(p.q(0.7), rel=1e-15)

    def test_dirichlet_round_trip(self):
        spec = {
            "q": "0",
            "h": 0.0,
            "H": "dirichlet",
            "beta": 1.0,
            "gamma": 0.0,
            "d": math.pi / 2,
        }
        assert problem_from_config(spec, "$").dirichlet

    def test_variants(self):
        p = make(H=0.25)
        assert p.dirichlet_variant().dirichlet
        assert p.dirichlet_variant().with_(H=0.25).H == 0.25
