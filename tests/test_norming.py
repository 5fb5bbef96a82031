"""Tests for generalized norming constants."""

import math

import pytest

from sturmdisc.expr import PotentialExpr
from sturmdisc.norming import check_identity, compute_norming
from sturmdisc.problem import Problem
from sturmdisc.spectrum import EigenRecord, find_dirichlet_eigenvalues, find_eigenvalues

PI = math.pi


def free(**kw):
    return Problem(q=PotentialExpr.parse("0"), **kw)


class TestFreeNeumannOracle:
    """q=0, h=H=0: everything is available in closed form.

    Eigenvalues are n^2 with phi = cos(n x); kappa_n = phi(pi) = (-1)^n and
    alpha_n = int_0^pi psi^2 = pi for n=0, pi/2 otherwise.
    """

    def test_kappa_alpha_closed_form(self):
        p = free()
        records = sorted(find_eigenvalues(p, 40.0), key=lambda r: r.lam.real)
        for n, rec in enumerate(records):
            norm = compute_norming(p, rec)
            want_kappa = (-1.0) ** n
            want_alpha = PI if n == 0 else PI / 2
            assert norm.kappas[0] == pytest.approx(want_kappa, rel=1e-9, abs=1e-9)
            assert norm.alphas[0] == pytest.approx(want_alpha, rel=1e-9)

    def test_identity_residuals(self):
        p = free()
        for rec in find_eigenvalues(p, 40.0):
            resids = check_identity(p, rec)
            assert max(resids) < 1e-9


class TestFreeDirichletOracle:
    """Dirichlet at pi: eigenvalues (n+1/2)^2, kappa_n = phi'(pi)."""

    def test_kappa_closed_form(self):
        p = free(H=None)
        records = sorted(find_dirichlet_eigenvalues(free(), 40.0),
                         key=lambda r: r.lam.real)
        for n, rec in enumerate(records):
            s = n + 0.5
            norm = compute_norming(p, rec)
            # phi'(pi) = -s sin(s pi) = -s (-1)^n
            assert norm.kappas[0] == pytest.approx(-s * (-1.0) ** n, rel=1e-9)
            assert norm.alphas[0] == pytest.approx(PI / (2 * s * s), rel=1e-8)

    def test_identity_residuals(self):
        p = free(H=None)
        for rec in find_dirichlet_eigenvalues(free(), 40.0):
            assert max(check_identity(p, rec)) < 1e-9


class TestNonSelfAdjoint:
    def test_identity_for_complex_jump_problem(self):
        p = Problem(
            q=PotentialExpr.parse("sin(x) + 0.3i * x"),
            h=0.2,
            H=0.1 - 0.2j,
            beta=1.5,
            gamma=0.2j,
            d=1.2,
        )
        records = find_eigenvalues(p, 40.0)
        assert len(records) >= 5
        for rec in records:
            resids = check_identity(p, rec)
            assert max(resids) < 1e-6

    def test_norming_record_shapes(self):
        p = free(h=0.3)
        rec = find_eigenvalues(p, 10.0)[0]
        norm = compute_norming(p, rec)
        assert len(norm.kappas) == rec.multiplicity
        assert len(norm.alphas) == rec.multiplicity


class TestDoubleEigenvalue:
    """q=0, h=2i, H=-2i: lam=4 is a double eigenvalue with phi = psi = e^{2ix}.

    With u = x - pi, psi_1 = (i u e^{2ix} - (i/2) sin 2x) / 4, so
    kappa = (1, i pi/4) and alpha = (pi/8, -3 pi/128 - i pi^2/32).
    """

    def test_two_kappas_two_alphas(self):
        p = free(h=2j, H=-2j)
        rec = EigenRecord(lam=4.0 + 0j, multiplicity=2, residual=0.0)
        norm = compute_norming(p, rec)
        assert norm.multiplicity == 2
        assert len(norm.kappas) == 2 and len(norm.alphas) == 2
        want_kappas = (1.0, 1j * PI / 4)
        want_alphas = (PI / 8, -3 * PI / 128 - 1j * PI**2 / 32)
        for got, want in zip(norm.kappas + norm.alphas, want_kappas + want_alphas):
            assert abs(got - want) < 1e-8
        assert max(check_identity(p, rec, norm)) < 1e-6

    def test_found_double_root(self):
        p = free(h=2j, H=-2j)
        rec = next(r for r in find_eigenvalues(p, 10.0) if abs(r.lam - 4) < 1e-3)
        assert rec.multiplicity == 2
        assert max(check_identity(p, rec)) < 1e-6
