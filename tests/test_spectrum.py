"""Tests for the eigenvalue search."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from test_charfn import consistency_setups, free_jump_scaled

from sturmdisc import spectrum
from sturmdisc.charfn import char_delta
from sturmdisc.expr import PotentialExpr
from sturmdisc.norming import check_identity
from sturmdisc.problem import Problem
from sturmdisc.spectrum import (
    ZeroOnContour,
    ZeroSequence,
    _polish,
    count_zeros,
    find_dirichlet_eigenvalues,
    find_eigenvalues,
    multiplicity_probe,
)

PI = math.pi


def free(**kw):
    return Problem(q=PotentialExpr.parse("0"), **kw)


def newton_batch_sizes(monkeypatch):
    """The lambda count of every ``solve_many`` call the search makes."""

    sizes = []
    solve_many = spectrum.solve_many

    def counting(problem, lams, **kw):
        sizes.append(np.size(lams))
        return solve_many(problem, lams, **kw)

    monkeypatch.setattr(spectrum, "solve_many", counting)
    return sizes


class TestWindingCounts:
    def test_polynomial_count(self):
        def f(lams):
            lams = np.asarray(lams, dtype=complex)
            return (lams - 5.0) ** 2 * (lams - 20.0)

        assert count_zeros(f, (0.0, 25.0, -3.0, 3.0)) == 3
        assert count_zeros(f, (0.0, 10.0, -3.0, 3.0)) == 2
        assert count_zeros(f, (30.0, 40.0, -3.0, 3.0)) == 0

    def test_multiplicity_probe(self):
        def f(lams):
            lams = np.asarray(lams, dtype=complex)
            return (lams - 5.0) ** 2 * (lams - 20.0)

        assert multiplicity_probe(f, 5.0) == 2
        assert multiplicity_probe(f, 20.0) == 1

    def test_complex_zero_off_axis(self):
        def f(lams):
            lams = np.asarray(lams, dtype=complex)
            return (lams - (4.0 + 2.0j)) * (lams - 9.0)

        assert count_zeros(f, (0.0, 12.0, -5.0, 5.0)) == 2
        assert count_zeros(f, (0.0, 12.0, 1.0, 5.0)) == 1

    def test_two_zeros_close_to_a_coarse_edge(self):
        # delta of q = 0, h = H = 0, beta = 1, gamma = i, d = 1; its zeros
        # 0.1174 + 0.2949i and 0.9758 + 0.1964i pass one sample step of the
        # left edge together, with a combined turn that wraps past 2 pi
        def f(lams):
            s = np.sqrt(np.asarray(lams, dtype=complex))
            return -s * np.sin(s * PI) + 1j * np.cos(s) * np.cos(s * (PI - 1.0))

        assert count_zeros(f, (0.053361, 1.515361, -41.0931, 41.1043)) == 2
        records = find_eigenvalues(free(gamma=1j, d=1.0), 40.0)
        assert [r.multiplicity for r in records] == [1] * 7
        assert abs(records[0].lam - (0.1173899 + 0.2949410j)) < 1e-6


class TestClassicalSpectra:
    def test_free_neumann_squares(self):
        records = find_eigenvalues(free(), 90.0)
        lams = sorted(r.lam.real for r in records)
        assert len(lams) == 10
        for n, lam in enumerate(lams):
            assert abs(lam - n * n) < 1e-8
            assert abs(records[0].lam.imag) < 1e-8

    def test_free_dirichlet_half_integers(self):
        records = find_dirichlet_eigenvalues(free(), 90.0)
        lams = sorted(r.lam.real for r in records)
        want = [(n + 0.5) ** 2 for n in range(10)]
        want = [w for w in want if w <= 90.0]
        assert len(lams) == len(want)
        for got, expect in zip(lams, want):
            assert abs(got - expect) < 1e-8

    def test_root_near_zero_has_its_own_slice(self, monkeypatch):
        sizes = newton_batch_sizes(monkeypatch)
        records = find_eigenvalues(Problem(q=PotentialExpr.parse("0.01")), 370.0)
        # a Newton walk from the middle of [-370, 0] to the root near 0
        # would be about 45 solves that no other leaf shares
        assert sizes.count(1) <= 2
        lams = sorted((r.lam for r in records), key=lambda z: z.real)
        assert len(lams) == 20
        for n, lam in enumerate(lams):
            assert abs(lam - (n * n + 0.01)) < 1e-8

    def test_all_simple(self):
        for r in find_eigenvalues(free(), 60.0):
            assert r.multiplicity == 1
            assert r.residual < 1e-6


class TestNewtonRounds:
    def test_floor_leaf_with_two_simple_zeros_takes_one_round(self, monkeypatch):
        # 0.117+0.295i and 0.976+0.196i lie 0.87 apart, next to the seeds 0
        # and 1; the seeds deflate each other, so one batched round finds all
        # seven roots, where plain Newton from the centre of their shared
        # leaf took four rounds and 25 one-lambda solves
        rounds = []
        polish = spectrum._polish

        def counting(problem, starts, *args, **kw):
            rounds.append(len(starts))
            return polish(problem, starts, *args, **kw)

        monkeypatch.setattr(spectrum, "_polish", counting)
        sizes = newton_batch_sizes(monkeypatch)
        data = dict(h=0.0, H=0.0, beta=1.0, gamma=1j, d=1.0)
        records = find_eigenvalues(Problem(q="0", **data), 40.0)
        assert rounds == [7]
        assert 1 not in sizes
        assert [r.multiplicity for r in records] == [1] * 7

        def delta(lam):
            return free_jump_scaled(lam, **data)[0]

        for r in records:
            # a zero of the closed form: its Newton step is rounding
            slope = (delta(r.lam + 1e-6) - delta(r.lam - 1e-6)) / 2e-6
            assert abs(delta(r.lam) / slope) < 1e-9 * (1.0 + abs(r.lam))


class TestJumpSpectrum:
    def test_matches_bisection_oracle(self):
        # q=0, gamma=0, h=H=0: eigenvalues are the real roots of
        #   -b1 sin(s pi) + b2 sin(s (2d - pi)) = 0, s = sqrt(lam)
        p = free(beta=2.0, d=PI / 3)

        def oracle(s):
            return -p.b1 * math.sin(s * PI) + p.b2 * math.sin(s * (2 * p.d - PI))

        # bisection on the s axis (roots are real and lam=0 is one of them)
        roots = [0.0]
        grid = np.linspace(1e-6, math.sqrt(70.0), 4000)
        vals = [oracle(s) for s in grid]
        for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if fa == 0 or fa * fb < 0:
                lo, hi = a, b
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if oracle(lo) * oracle(mid) <= 0:
                        hi = mid
                    else:
                        lo = mid
                roots.append(0.5 * (lo + hi))
        want = sorted(s * s for s in roots)

        records = find_eigenvalues(p, 70.0)
        got = sorted(r.lam.real for r in records)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8


class TestComplexPotential:
    def test_residuals_and_closure(self):
        p = Problem(
            q=PotentialExpr.parse("sin(x) + 0.5i * cos(2 * x)"),
            h=0.2 + 0.1j,
            H=0.3,
            beta=1.5,
            gamma=0.2j,
            d=1.2,
        )
        records = find_eigenvalues(p, 40.0)
        assert len(records) >= 5
        for r in records:
            s = char_delta(p, r.lam, tol=1e-12)
            # relative smallness of delta at the root
            scale = char_delta(p, r.lam + 0.5).delta.log_abs
            assert s.delta.log_abs - scale < math.log(1e-7)

    def test_two_roots_of_one_slice_need_no_lone_newton_walk(self, monkeypatch):
        # the problem of acceptance criterion 04; the roots 1.721 + 0.098i and
        # 4.803 + 0.112i once shared one sqrt-spaced slice, and a Newton walk
        # from its middle took 46 solves that no other leaf shared
        sizes = newton_batch_sizes(monkeypatch)
        p = Problem(
            q=PotentialExpr.parse("sin(x) + 0.2i*cos(2*x)"),
            h=0.3,
            H=0.1,
            beta=1.5,
            gamma=0.2j,
        )
        records = find_eigenvalues(p, 62.0, im_halfwidth=12.0)
        assert sizes.count(1) <= 4
        assert len(records) >= 8
        for r in records:
            assert max(check_identity(p, r)) < 1e-6


class TestDiscContract:
    @given(consistency_setups())
    # a 16-gon of radius 40 aliased a turn and counted 6 of these 7 zeros
    @example((Problem(q="-1.875", H=None, beta=1.125, gamma=1j, d=0.375), 0j))
    @settings(max_examples=8, deadline=None)
    def test_circle_winding_equals_returned_multiplicities(self, setup):
        problem, _ = setup
        f = spectrum._problem_batch(problem, spectrum._COUNT_TOL)
        for B in (40.0, 150.0):
            try:
                winding = multiplicity_probe(f, 0.0, B, check_shrink=False)
            except ZeroOnContour:
                reject()
            records = find_eigenvalues(problem, B)
            assert sum(r.multiplicity for r in records) == winding


class TestZeroSequence:
    def test_counting_function(self):
        seq = ZeroSequence(np.array([1.0, 4.0, 9.0]), np.array([1, 2, 1]))
        assert seq.counting(0.5) == 0
        assert seq.counting(4.0) == 3
        assert seq.counting(100.0) == 4

    def test_merge(self):
        a = ZeroSequence(np.array([1.0]), np.array([1]))
        b = ZeroSequence(np.array([2.0]), np.array([3]))
        merged = a.merged(b)
        assert merged.counting(10.0) == 4

    def test_from_records(self):
        records = find_eigenvalues(free(), 20.0)
        seq = ZeroSequence.from_records(records)
        assert seq.counting(20.0) == len(records)


def scalar_newton(problem, lam0, mult=1, maxit=60):
    """One-root Newton loop on ``char_delta``: the reference for the batched
    polish, under the same stopping rules."""

    lam = complex(lam0)
    coarse, polish_left = True, 2
    for _ in range(maxit):
        tol = 1e-7 if coarse else 1e-11
        sample = char_delta(problem, lam, nu_max=1, tol=tol)
        d0, d1 = sample.ddelta[0], sample.ddelta[1]
        if d1.val == 0:
            break
        step = (d0 / d1).value
        lam -= mult * step
        if coarse:
            coarse = abs(step) >= 1e-5 * (1.0 + abs(lam))
        else:
            polish_left -= 1
            if abs(step) < 5e-13 * (1.0 + abs(lam)) or polish_left <= 0:
                break
    return lam


@st.composite
def polish_cases(draw):
    c = draw(st.floats(-0.5, 0.5))
    if draw(st.booleans()):
        problem = Problem(q=PotentialExpr.parse(repr(c)))
    else:
        problem = Problem(
            q=PotentialExpr.parse(repr(c)),
            h=draw(st.floats(-0.5, 0.5)),
            H=draw(st.floats(-0.5, 0.5)),
            beta=draw(st.floats(0.6, 1.8)),
            gamma=complex(draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))),
            d=draw(st.floats(0.9, 2.2)),
        )
    ns = draw(st.lists(st.integers(0, 18), min_size=1, max_size=5, unique=True))
    offsets = [
        complex(draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))) for _ in ns
    ]
    return problem, [n * n for n in ns], offsets


class TestBatchedPolish:
    @given(polish_cases())
    @settings(max_examples=8, deadline=None)
    def test_agrees_with_scalar_newton(self, case):
        problem, guesses, offsets = case
        # start both near a root, well inside its basin
        roots, _ = _polish(problem, guesses)
        starts = [r + off for r, off in zip(roots, offsets)]
        batched, residuals = _polish(problem, starts)
        for start, lam, res in zip(starts, batched, residuals):
            want = scalar_newton(problem, start)
            assert abs(lam - want) <= 1e-9 * max(1.0, abs(want))
            assert res < 1e-8 * (1.0 + abs(lam))

    def test_multiplicity_hint(self):
        # delta = -(lam - 4) sin(sqrt(lam) pi) / sqrt(lam): a double zero at 4
        p = free(h=2j, H=-2j)
        starts = [4.3 + 0.2j, 3.8 - 0.1j]
        got, _ = _polish(p, starts, [2, 2], maxit=10)
        for start, lam in zip(starts, got):
            assert abs(lam - 4.0) < 1e-6
            assert abs(lam - scalar_newton(p, start, mult=2, maxit=10)) < 1e-6


def assert_double_root_among_simple_ones(records):
    by_mult = {}
    for r in records:
        by_mult.setdefault(r.multiplicity, []).append(r.lam)
    assert sorted(by_mult) == [1, 2]
    (double,) = by_mult[2]
    assert abs(double - 4.0) < 1e-6
    simple = sorted(by_mult[1], key=lambda z: z.real)
    assert len(simple) == 4
    for lam, want in zip(simple, (1.0, 9.0, 16.0, 25.0)):
        assert abs(lam - want) < 1e-8


class TestMultipleEigenvalue:
    def test_double_root_among_simple_ones(self):
        assert_double_root_among_simple_ones(find_eigenvalues(free(h=2j, H=-2j), 30.0))

    def test_double_root_from_the_square_alone(self, monkeypatch):
        # with no seed, the subdivision of the circle's bounding square finds
        # every root; its cut along the real axis passes the double zero 4
        monkeypatch.setattr(spectrum, "_seeds", lambda problem, bound: np.zeros(0))
        assert_double_root_among_simple_ones(find_eigenvalues(free(h=2j, H=-2j), 30.0))


class TestSearchBox:
    def test_finds_eigenvalue_far_off_the_real_axis(self):
        # no seed reaches it, so the square's subdivision must find it
        # lam = -h^2 = 28 - 96i is an eigenvalue with |lam| = 100
        records = find_eigenvalues(free(h=-6 - 8j), 150.0)
        assert min(abs(r.lam - (28 - 96j)) for r in records) < 1e-6
