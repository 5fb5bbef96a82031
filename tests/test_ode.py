"""Tests for the scaled chain integrator."""

import cmath
import importlib
import inspect
import math
import pkgutil

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from test_charfn import consistency_setups, free_jump_scaled

import sturmdisc
from sturmdisc import ode
from sturmdisc.charfn import _deltas, char_delta, delta_consistency, delta_many, f_function
from sturmdisc.expr import Const, Piece, PotentialExpr
from sturmdisc.norming import compute_norming
from sturmdisc.ode import (
    BRACKET_TOL,
    TOL,
    ScaledVal,
    growth_rate,
    jump_backward,
    jump_forward,
    pair_integrals,
    solve_chain,
    solve_many,
    wronskian_check,
)
from sturmdisc.problem import Problem
from sturmdisc.spectrum import EigenRecord
from sturmdisc.uniq import collapse_consistency, modify_below

PI = math.pi


def free_problem(**kw):
    return Problem(q=PotentialExpr.parse("0"), **kw)


class TestScaledVal:
    def test_value_recombines(self):
        v = ScaledVal(2.0 + 1.0j, 3.0)
        assert v.value == pytest.approx((2 + 1j) * math.exp(3.0), rel=1e-15)

    def test_value_folds_magnitude_into_scale(self):
        # exp(715) alone overflows a float, 1e-5 * exp(715) does not
        v = ScaledVal(-1e-5j, 715.0)
        want = -1e-5j * math.exp(700.0) * math.exp(15.0)
        assert v.value == pytest.approx(want, rel=1e-12)

    def test_value_overflow_names_log_scale(self):
        with pytest.raises(OverflowError, match="log scale 2221"):
            ScaledVal(0.5, 2221.0).value

    def test_product_adds_logs(self):
        a = ScaledVal(2.0, 100.0)
        b = ScaledVal(3.0, 200.0)
        c = a * b
        assert c.val == pytest.approx(6.0)
        assert c.log == pytest.approx(300.0)

    def test_addition_aligns_scales(self):
        a = ScaledVal(1.0, 0.0)
        b = ScaledVal(1.0, math.log(2.0))
        assert (a + b).value == pytest.approx(3.0, rel=1e-14)

    def test_huge_scale_survives(self):
        a = ScaledVal(1.5, 2000.0)
        b = a * a
        assert b.log_abs == pytest.approx(4000.0 + math.log(2.25), rel=1e-12)


class TestClosedFormFree:
    """q = 0, beta = 1: solutions are trigonometric."""

    @pytest.mark.parametrize("lam", [4.0, 25.0, -9.0, 3.0 + 4.0j])
    def test_phi_matches_cosine(self, lam):
        p = free_problem()
        xs = (0.5, 1.7, PI)
        states, logs = solve_chain(p, complex(lam), xs)
        s = cmath.sqrt(complex(lam))
        for x, st_, log in zip(xs, states, logs):
            scale = math.exp(log)
            assert st_[0, 0] * scale == pytest.approx(cmath.cos(s * x), rel=1e-9, abs=1e-9)
            assert st_[0, 1] * scale == pytest.approx(-s * cmath.sin(s * x), rel=1e-9, abs=1e-9)

    def test_psi_backward_dirichlet_at_pi(self):
        # right-side solution normalized by the Robin data at pi
        p = free_problem(H=0.25)
        states, _ = solve_chain(p, 16.0, [PI, 0.0], side="right")
        end = states[0]
        assert end[0, 0] == pytest.approx(1.0)
        assert end[0, 1] == pytest.approx(-0.25)

    def test_left_robin_data(self):
        p = free_problem(h=0.3 + 0.2j)
        states, _ = solve_chain(p, 9.0, [0.0, PI])
        start = states[0]
        assert start[0, 0] == pytest.approx(1.0)
        assert start[0, 1] == pytest.approx(0.3 + 0.2j)


class TestJumpConditions:
    @pytest.mark.parametrize("lam", [7.0, -3.0, 10.0 + 5.0j])
    def test_matching_at_d(self, lam):
        p = Problem(
            q=PotentialExpr.parse("sin(x)"),
            beta=2.5,
            gamma=0.4 - 0.2j,
            d=1.1,
        )
        # d listed twice: the states before and after the matching
        (left, right), _ = solve_chain(p, complex(lam), [p.d, p.d])
        ref = max(1.0, abs(left[0, 0]), abs(left[0, 1]))
        assert abs(right[0, 0] - p.beta * left[0, 0]) / ref < 1e-12
        want = left[0, 1] / p.beta + p.gamma * left[0, 0]
        assert abs(right[0, 1] - want) / ref < 1e-12

    def test_forward_backward_inverse(self):
        state = np.array([[1.3 + 0.2j, -0.7j]])
        out = jump_backward(jump_forward(state, 2.0, 0.3j), 2.0, 0.3j)
        assert np.allclose(out, state, rtol=1e-15)


class TestScaling:
    def test_growth_rate_on_imaginary_axis(self):
        assert growth_rate(1j * 1e6) == pytest.approx(math.sqrt(5e5), rel=1e-14)

    def test_large_imaginary_lambda_finite_state(self):
        # raw solutions reach exp(~2221) here; the scaled state must stay O(1)
        p = free_problem()
        lam = 1e6j
        states, _ = solve_chain(p, lam, [PI])
        end = states[0]
        assert np.all(np.isfinite(end))
        # cos(s pi) e^{-mu pi} without overflow: the e^{-i s pi} half carries
        # all the growth, the other half is exponentially negligible
        s = cmath.sqrt(lam)
        want = 0.5 * cmath.exp(-1j * s.real * PI)
        assert end[0, 0] == pytest.approx(want, rel=1e-6)

    def test_solve_many_matches_single(self):
        p = Problem(q=PotentialExpr.parse("cos(x)"), h=0.2, H=0.1)
        lams = np.array([4.0, 9.0 + 1.0j, 30.0])
        states, logs = solve_many(p, lams)
        for k, lam in enumerate(lams):
            states_1, logs_1 = solve_chain(p, complex(lam), [PI], tol=1e-9)
            end = states_1[0]
            ref = logs_1[0]
            assert states[k, 0, 0] * math.exp(logs[k]) == pytest.approx(
                complex(end[0, 0]) * math.exp(ref), rel=1e-7
            )


@st.composite
def random_setups(draw):
    # keep |Im sqrt(lam)| moderate: the absolute deviation of the bracket
    # from 1 scales with exp(2 mu pi) times the integrator tolerance, so an
    # absolute 1e-9 target is only meaningful away from deep negative lam
    lam = complex(
        draw(st.floats(1.0, 60.0)),
        draw(st.floats(-8.0, 8.0)),
    )
    beta = draw(st.floats(0.4, 3.0))
    gamma = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    coeff = draw(st.floats(-2.0, 2.0))
    q = PotentialExpr.parse("%.4f * cos(x)" % coeff)
    return Problem(q=q, beta=beta, gamma=gamma, d=1.3), lam


class TestWronskian:
    @given(random_setups())
    @settings(max_examples=50, deadline=None)
    def test_pair_bracket_is_one(self, setup):
        problem, lam = setup
        # tol 1e-13: the deviation scales like tol * exp(2 mu pi), and the
        # corner of the draw domain (Im lam near 8) eats three decades of it
        assert wronskian_check(problem, lam, tol=1e-13) < 1e-9

    def test_fundamental_pair_initial_data(self):
        p = free_problem()
        # the pair wronskian_check walks from r = 0.5 to x0 = 2.5
        y1, y2 = (
            solve_chain(p, 12.0, [0.5, 2.5], x_from=0.5, init=init)[0][0]
            for init in ((1.0, 0.0), (0.0, 1.0))
        )
        assert y1[0, 0] == pytest.approx(1.0)
        assert y1[0, 1] == pytest.approx(0.0)
        assert y2[0, 0] == pytest.approx(0.0)
        assert y2[0, 1] == pytest.approx(1.0)

    def test_small_real_part_corner(self):
        # read from DOP853 interpolants, the grid's samples drifted 1.46e-9
        p = Problem(q="0", beta=2.0, d=1.3)
        assert wronskian_check(p, 1 + 8j, tol=1e-13) < 1e-9

    def test_matching_at_a_grid_point(self, monkeypatch):
        # d = pi/2 is the fourth point of the 7-point grid on [0, pi]
        betas = []

        def counted(state, beta, gamma):
            betas.append(beta)
            return jump_forward(state, beta, gamma)

        monkeypatch.setattr("sturmdisc.ode.jump_forward", counted)
        p = Problem(q="cos(x)", beta=2.0, gamma=0.5j, d=math.pi / 2)
        assert wronskian_check(p, 20 + 3j) < 1e-9
        assert betas == [2.0]


class TestOneWalker:
    """Single and batched solves run the same segment walker."""

    PROBLEMS = {
        "robin": Problem(q="sin(x)", h=0.3, H=0.1),
        "dirichlet": Problem(q="cos(x)", h=0.2, H=None),
        "jump": Problem(q="0.1", h=0.3, H=0.1, beta=1.5, gamma=0.2j),
    }

    @pytest.mark.parametrize("nu_max", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_delta_bit_identical_across_routes(self, name, nu_max):
        p = self.PROBLEMS[name]
        for lam in (4.0, 3.7 + 0.2j, 250.0, 1e2j, 1e4j):
            sample = char_delta(p, lam, nu_max=nu_max)
            states, logs = solve_many(p, [lam], nu_max=nu_max, tol=TOL)
            d, d_inf = _deltas(p, states[0])
            chain_states, chain_logs = solve_chain(p, lam, [PI], nu_max=nu_max)
            z = chain_states[0]
            for j in range(nu_max + 1):
                fact = math.factorial(j)
                want_inf = -fact * z[j, 0]
                want = want_inf if p.dirichlet else fact * (z[j, 1] + p.H * z[j, 0])
                assert sample.ddelta[j].val == d[j] == want
                assert sample.ddelta_inf[j].val == d_inf[j] == want_inf
                assert sample.ddelta[j].log == logs[0] == chain_logs[0]

    def test_side_names_are_checked(self):
        p = free_problem()
        with pytest.raises(ValueError, match="side"):
            solve_many(p, [4.0], side="up")
        with pytest.raises(ValueError, match="side"):
            solve_chain(p, 4.0, [PI], side="up")

    def test_solve_many_shape(self):
        p = free_problem()
        for nu_max in (0, 2):
            states, logs = solve_many(p, np.array([4.0, 9.0]), nu_max=nu_max)
            assert states.shape == (2, nu_max + 1, 2)
            assert logs.shape == (2,)


class TestReadPoints:
    """``solve_chain`` reads the states of one walk at requested points."""

    @given(consistency_setups(), st.lists(st.floats(0.05, PI - 0.05), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_points_of_one_walk(self, setup, xs):
        problem, lam = setup
        d = problem.d
        assume(all(abs(x - d) > 1e-9 for x in xs))
        pts = sorted(xs + [d, d]) + [PI]
        states, logs = solve_chain(problem, lam, pts, nu_max=1)
        # the far end is the batched solve's end state, bit for bit
        end, end_logs = solve_many(problem, [lam], nu_max=1)
        assert np.array_equal(states[-1], end[0])
        assert logs[-1] == end_logs[0]
        # d listed twice: the states before and after the matching
        k = pts.index(d)
        left, right = states[k], states[k + 1]
        ref = max(1.0, np.abs(left).max())
        assert np.abs(right[:, 0] - problem.beta * left[:, 0]).max() / ref < 1e-12
        want = left[:, 1] / problem.beta + problem.gamma * left[:, 0]
        assert np.abs(right[:, 1] - want).max() / ref < 1e-12
        # restarting from an intermediate state reaches the same end state
        k = pts.index(xs[0])
        if k > pts.index(d):
            k += 1  # past d, the state after the matching
        restart, restart_logs = solve_chain(
            problem, lam, [PI], nu_max=1, x_from=pts[k], init=states[k]
        )
        again = restart[0] * math.exp(restart_logs[0] + logs[k] - logs[-1])
        assert np.abs(again - end[0]).max() <= 1e-8 * np.abs(end[0]).max()

    def test_points_must_follow_the_walk(self):
        p = free_problem()
        with pytest.raises(ValueError, match="ordered"):
            solve_chain(p, 4.0, [PI, 1.0])
        with pytest.raises(ValueError, match="ordered"):
            solve_chain(p, 4.0, [1.0, 0.0], side="right", x_from=0.5)


class TestDenseOutput:
    """One Magnus kernel call per segment of a walk: reads inside a segment
    come from the same call as its end state, and no walk calls scipy."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        """``((lo, hi), number of reads)`` for each segment a walk hands to
        the kernel, and a guard that scipy's ``solve_ivp`` is never called."""

        calls = []
        real = ode._magnus

        def spy(rows, lo, hi, z, reads):
            calls.append(((lo, hi), reads.size))
            return real(rows, lo, hi, z, reads)

        def unreachable(*args, **kw):
            raise AssertionError("a walk called solve_ivp")

        monkeypatch.setattr(ode, "_magnus", spy)
        monkeypatch.setattr(ode, "solve_ivp", unreachable)
        return calls

    def test_end_state_readers(self, kernels):
        p = Problem(q="sin(x)", h=0.3, H=0.1, beta=1.5, gamma=0.2j)
        char_delta(p, 9.0 + 1j, nu_max=1)
        delta_consistency(p, 9.0 + 1j)
        # three walks (phi with its chain, phi, psi), split at d alone
        spans = [span for span, _ in kernels]
        assert spans == [(0.0, p.d), (p.d, PI)] * 2 + [(PI, p.d), (p.d, 0.0)]
        assert not any(reads for _, reads in kernels)

    def test_norming_phi_solve(self, kernels):
        p = free_problem()
        record = EigenRecord(lam=4.0 + 0j, multiplicity=1, residual=0.0)
        norming = compute_norming(p, record)
        # phi runs left to right and is read at pi only; psi runs right to
        # left and is read at every quadrature node of the alpha integral,
        # on the same two segments, one kernel call each
        x, _ = ode._gauss_nodes(4.0, PI, 0.0, [p.d])
        assert kernels == [
            ((0.0, p.d), 0), ((p.d, PI), 0),
            ((PI, p.d), int(np.sum(x > p.d))), ((p.d, 0.0), int(np.sum(x < p.d))),
        ]
        # the reads cost no extra walk: psi read at the nodes ends where psi
        # read at 0 alone ends, bit for bit
        kernels.clear()
        states, logs = solve_chain(p, 4.0, np.append(x, 0.0), side="right")
        end, end_logs = solve_chain(p, 4.0, [0.0], side="right")
        assert np.array_equal(states[-1], end[0]) and logs[-1] == end_logs[0]
        assert len(kernels) == 4
        # alpha_0 of the free Neumann problem at 4 is pi / 2
        assert norming.alphas[0] == pytest.approx(PI / 2, rel=1e-10)

    def test_bracket_reads(self, kernels):
        p = Problem(q="sin(x)", h=0.3, H=0.1, beta=1.5, gamma=0.2j, d=PI / 2)
        pb = modify_below(p, p.d, m=0, weight=0.4, dh=0.2)
        # d-0, d+0 and pi are segment ends of both walks: no read inside
        f_function(p, pb, 5.0)
        collapse_consistency(p, pb, p.d, lams=[5.0])
        assert kernels
        assert not any(reads for _, reads in kernels)
        # b = 2 ends a segment of the perturbed walk only
        kernels.clear()
        f_function(p, modify_below(p, 2.0, m=0, weight=0.4), 5.0, at=2.0)
        assert [(span, reads) for span, reads in kernels if reads] == [((PI / 2, PI), 1)]
        assert len(kernels) == 5  # two segments, then three with the break at 2


class TestDerivativeChain:
    def test_first_derivative_matches_central_difference(self):
        # the operator has complex coefficients, so a central difference in
        # lam is the right independent check (complex step needs realness)
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.3, beta=1.5, gamma=0.2j)
        lam = 11.0
        end = solve_chain(p, lam, [PI], nu_max=1)[0][0]
        eps = 1e-5
        hi = solve_chain(p, lam + eps, [PI])[0][0, 0, 0]
        lo = solve_chain(p, lam - eps, [PI])[0][0, 0, 0]
        fd = (hi - lo) / (2 * eps)
        assert end[1, 0] == pytest.approx(fd, rel=1e-7)

    def test_free_chain_closed_form(self):
        # for q=0, beta=1: d(phi)/d(lam) at pi is -(pi/(2 sqrt(lam))) sin(sqrt(lam) pi)
        p = free_problem()
        lam = 6.25
        s = math.sqrt(lam)
        end = solve_chain(p, lam, [PI], nu_max=1)[0][0]
        want = -PI * math.sin(s * PI) / (2 * s)
        assert end[1, 0] == pytest.approx(want, rel=1e-9)

    def test_chain_initial_data_is_zero(self):
        p = free_problem()
        start = solve_chain(p, 3.0, [0.0, PI], nu_max=2)[0][0]
        assert start[1, 0] == 0 and start[1, 1] == 0
        assert start[2, 0] == 0 and start[2, 1] == 0


def wronskian_scale(lam, ya, yb):
    """``s A(ya) A(yb)``, the scale of the bracket of two ``(y, y')``
    states, with ``A(y) = sqrt(|y|^2 + |y'/s|^2)`` and ``s =
    sqrt(max(|lam|, 1))``; the scale ``delta_consistency`` uses."""

    s = math.sqrt(max(abs(lam), 1.0))
    return s * math.hypot(abs(ya[0]), abs(ya[1]) / s) * math.hypot(abs(yb[0]), abs(yb[1]) / s)


def complex_in(lo, hi):
    return st.builds(complex, st.floats(lo, hi), st.floats(lo, hi))


@st.composite
def pair_setups(draw):
    """Two problems that share ``d``, each with its own ``q = a cos kx + c``,
    ``h``, ``beta`` and ``gamma``, complex start data at ``x_from < d <
    x_to`` and a lambda."""

    d = draw(st.floats(0.3, PI - 0.3))

    def problem():
        q = "%.4f * cos(%d * x) + %.4f" % (
            draw(st.floats(-2.0, 2.0)), draw(st.integers(1, 4)), draw(st.floats(-2.0, 2.0))
        )
        return Problem(
            q=PotentialExpr.parse(q),
            h=draw(complex_in(-1.0, 1.0)),
            beta=draw(st.floats(0.4, 3.0)),
            gamma=draw(complex_in(-1.0, 1.0)),
            d=d,
        )

    pa, pb = problem(), problem()
    inits = [(draw(complex_in(-1.0, 1.0)), draw(complex_in(-1.0, 1.0))) for _ in range(2)]
    assume(all(abs(y) + abs(dy) > 0.1 for y, dy in inits))
    x_from = draw(st.floats(0.0, d - 0.05))
    x_to = draw(st.floats(d + 0.05, PI))
    lam = complex(draw(st.floats(-10.0, 200.0)), draw(st.floats(-8.0, 8.0)))
    return pa, pb, inits, x_from, x_to, lam


class TestPairIntegrals:
    def test_identical_problems_zero_bracket(self):
        p = Problem(q=PotentialExpr.parse("sin(x)"), h=0.1)
        init = np.array([[1.0, 0.1]], dtype=complex)
        (val,), _ = pair_integrals(p, p, [14.0], 0.0, 2.0, init, init)
        assert abs(val) < 1e-12

    def test_accumulated_integral_matches_quadrature(self):
        pa = Problem(q=PotentialExpr.parse("0"))
        pb = Problem(q=PotentialExpr.parse("1"))
        lam = 5.0
        init = np.array([[1.0, 0.0]], dtype=complex)
        (val,), (log,) = pair_integrals(pa, pb, [lam], 0.0, 1.2, init, init)
        # direct quadrature of (qB - qA) * yA * yB with explicit solutions
        xs = np.linspace(0.0, 1.2, 2001)
        sa, _ = solve_chain(pa, lam, xs, x_from=0.0, init=init)
        sb, _ = solve_chain(pb, lam, xs, x_from=0.0, init=init)
        vals = sa[:, 0, 0] * sb[:, 0, 0]
        want = np.trapezoid(vals, xs)
        assert ScaledVal(val, log).value == pytest.approx(want, rel=1e-6)

    def test_reads_where_y_prime_vanishes(self):
        # at lam = 1e6 the nodes of the walk fall next to zeros of y' = i
        # cos(1000 x), where y = i sin(1000 x) / 1000 is all of the state:
        # the step rule weighs y' by 1/sqrt|lam|, so the rounding of the
        # phase there does not read as a change that never settles
        p = free_problem(d=1.0)
        (val,), _ = pair_integrals(p, p, [1e6], 0.0, PI, (1.0, 0.0), (0.0, 1.0j), tol=BRACKET_TOL)
        assert abs(val - 1j) < 1e-12

    def test_problems_must_share_d(self):
        pa, pb = Problem(q="0", d=1.0), Problem(q="0", d=1.2)
        with pytest.raises(ValueError, match="share"):
            pair_integrals(pa, pb, [5.0], 0.0, 2.0, (1.0, 0.0), (1.0, 0.0))

    @given(pair_setups())
    @settings(max_examples=40, deadline=None)
    def test_bracket_of_end_states(self, setup):
        # distinct beta and gamma give W a jump at d
        pa, pb, (init_a, init_b), x_from, x_to, lam = setup
        (val,), (got_log,) = pair_integrals(
            pa, pb, [lam], x_from, x_to, init_a, init_b, tol=BRACKET_TOL
        )
        (za,), (log,) = solve_chain(pa, lam, [x_to], x_from=x_from, init=init_a, tol=BRACKET_TOL)
        (zb,), _ = solve_chain(pb, lam, [x_to], x_from=x_from, init=init_b, tol=BRACKET_TOL)
        # both at the scale exp(2 mu (x_to - x_from))
        assert got_log == pytest.approx(2 * log, rel=1e-14)
        want = za[0, 0] * zb[0, 1] - za[0, 1] * zb[0, 0]
        scale = max(
            wronskian_scale(lam, za[0], zb[0]),
            wronskian_scale(lam, init_a, init_b) * math.exp(-2 * log),
        )
        assert abs(val - want) < 1e-10 * scale

    @given(pair_setups(), st.lists(st.floats(0.0, 4.0), min_size=2, max_size=5),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_one_lambda_calls(self, setup, decades, angle):
        # |lam| up to 1e4 in one walk: nodes from the largest, the
        # skip-ahead from the smallest mu, one tol for every lambda
        pa, pb, (init_a, init_b), x_from, x_to, _ = setup
        lams = [10.0**e * cmath.exp(1j * angle * (k + 1) / len(decades))
                for k, e in enumerate(decades)]
        vals, logs = pair_integrals(pa, pb, lams, x_from, x_to, init_a, init_b, tol=BRACKET_TOL)
        for k, lam in enumerate(lams):
            (val,), (log,) = pair_integrals(
                pa, pb, [lam], x_from, x_to, init_a, init_b, tol=BRACKET_TOL
            )
            assert logs[k] == log
            (za,), _ = solve_chain(pa, lam, [x_to], x_from=x_from, init=init_a, tol=BRACKET_TOL)
            (zb,), _ = solve_chain(pb, lam, [x_to], x_from=x_from, init=init_b, tol=BRACKET_TOL)
            scale = max(
                wronskian_scale(lam, za[0], zb[0]),
                wronskian_scale(lam, init_a, init_b) * math.exp(-log),
            )
            assert abs(vals[k] - val) < 1e-9 * scale


class TestAccuracyArgument:
    """One accuracy argument, ``tol``, reaches the integrator; ``atol`` is
    derived from it and nothing else sets a tolerance."""

    TAKES_TOL = {
        "sturmdisc.ode.solve_chain",
        "sturmdisc.ode.solve_many",
        "sturmdisc.ode.wronskian_check",
        "sturmdisc.ode.pair_integrals",
        "sturmdisc.charfn.char_delta",
        "sturmdisc.charfn.delta_many",
    }

    @staticmethod
    def public_callables():
        seen = {}
        for info in pkgutil.iter_modules(sturmdisc.__path__):
            module = importlib.import_module(f"sturmdisc.{info.name}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    seen[f"{module.__name__}.{name}"] = obj
                elif inspect.isclass(obj) and not issubclass(obj, Exception):
                    seen[f"{module.__name__}.{name}"] = obj
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            seen[f"{module.__name__}.{name}.{attr}"] = member
        return seen

    def test_only_the_integrator_entry_points_take_tol(self):
        takes = {}
        for qualname, obj in self.public_callables().items():
            params = set(inspect.signature(obj).parameters)
            assert not params & {"rtol", "atol"}, qualname
            takes[qualname] = "tol" in params
        assert {name for name, has in takes.items() if has} == self.TAKES_TOL


def _exact_walk(problem, cuts, values, lam, x_from, state, xs):
    """The ``(y, y')`` states at the points ``xs``, ordered along the walk
    and off the piece ends, of the solution with ``state`` at ``x_from``
    for a piecewise-constant ``q`` (``values[k]`` on ``[cuts[k],
    cuts[k+1]]``): the mpmath product of the exact transfer matrices
    ``[[cos s l, sin s l / s], [-s sin s l, cos s l]]``, ``s = sqrt(lam -
    c)`` over signed lengths ``l``, and of the matching at ``d`` (its
    inverse walking left).  Its entries are even in ``s``, so the states are
    analytic in ``lam``."""

    edges = sorted(set(cuts) | {problem.d, PI})
    lam = mpmath.mpc(lam)
    y, dy = (mpmath.mpc(v) for v in state)
    x, out = x_from, []
    for target in xs:
        while x != target:
            ahead = [e for e in edges if 0 < (e - x) / (target - x) < 1]
            nxt = min(ahead, key=lambda e: abs(e - x)) if ahead else target
            c = values[max(k for k in range(len(values)) if cuts[k] <= 0.5 * (x + nxt))]
            s = mpmath.sqrt(lam - mpmath.mpc(c))
            cos, sin = mpmath.cos(s * (nxt - x)), mpmath.sin(s * (nxt - x))
            y, dy = cos * y + sin / s * dy, -s * sin * y + cos * dy
            if nxt == problem.d and target > x:
                y, dy = problem.beta * y, dy / problem.beta + mpmath.mpc(problem.gamma) * y
            elif nxt == problem.d:
                y, dy = y / problem.beta, problem.beta * dy - mpmath.mpc(problem.gamma) * y
            x = nxt
        out.append((y, dy))
    return out


def _exact_end_state(problem, cuts, values, lam):
    """``(phi(pi), phi'(pi))`` of a piecewise-constant ``q``, exactly."""

    return _exact_walk(problem, cuts, values, lam, 0.0, (1, problem.h), [PI])[0]


def _exact_chain(problem, cuts, values, lam, x_from, state, xs, nu_max):
    """The chains ``[(y_nu, y_nu') for nu = 0..nu_max]`` at the points
    ``xs``: the Taylor coefficients in lambda of :func:`_exact_walk`, the
    normalized lambda-derivatives of the exact transfer product."""

    def component(k, j):
        return lambda lam: _exact_walk(problem, cuts, values, lam, x_from, state, xs)[k][j]

    chains = []
    for k in range(len(xs)):
        ys, dys = (mpmath.taylor(component(k, j), lam, nu_max) for j in (0, 1))
        chains.append(list(zip(ys, dys)))
    return chains


def _chain_error(got, log, want, lam):
    """The largest error of the scaled chain ``got`` (shape ``(nu_max+1,
    2)``, at ``exp(log)``) against ``want``, member by member, relative to
    each member's size ``sqrt(|y|^2 + |y'/sigma|^2)``, ``sigma =
    sqrt(max(|lam|, 1))``."""

    sigma = math.sqrt(max(abs(lam), 1.0))
    scale = mpmath.exp(log)
    worst = 0.0
    for (y, dy), (gy, gdy) in zip(want, got):
        size = mpmath.sqrt(abs(y) ** 2 + abs(dy / sigma) ** 2)
        err = max(abs(mpmath.mpc(gy) * scale - y), abs(mpmath.mpc(gdy) * scale - dy) / sigma)
        worst = max(worst, float(err / size))
    return worst


def _dop853_states(problem, lam, xs, max_step=np.inf):
    """``(phi, phi')`` at the points ``xs`` (ascending, ``d`` read before
    the matching), scaled by ``exp(-mu x)``, from scipy's DOP853 at ``rtol
    = 1e-13``, ``atol = 1e-15`` on the scaled system, one dense solve on
    each side of ``d``: an integrator apart from the library's Magnus
    kernel, for a ``q`` of one smooth piece."""

    mu = abs(cmath.sqrt(lam).imag)
    q = problem.q.piece_fn(0.0, PI)

    def rhs(x, z):
        return [z[1] - mu * z[0], (q(x) - lam) * z[0] - mu * z[1]]

    z, states = np.array([1.0, problem.h], dtype=complex), []
    for lo, hi in ((0.0, problem.d), (problem.d, PI)):
        sol = solve_ivp(rhs, (lo, hi), z, method="DOP853", rtol=1e-13, atol=1e-15,
                        max_step=max_step, dense_output=True)
        assert sol.success, sol.message
        states += [sol.sol(x) for x in xs if lo < x <= hi]
        z = jump_forward(sol.y[:, -1], problem.beta, problem.gamma)
    return np.array(states)


@st.composite
def piecewise_constant_setups(draw):
    """A problem with ``q`` constant on up to four pieces (complex values)
    and three lambda with ``|lam|`` from 1 to ``1e6`` in any direction."""

    cuts = sorted(draw(st.lists(st.floats(0.1, PI - 0.1), max_size=3)))
    edges = [0.0] + cuts + [PI]
    assume(min(b - a for a, b in zip(edges, edges[1:])) > 0.05)
    values = [complex(draw(st.floats(-20.0, 20.0)), draw(st.floats(-5.0, 5.0)))
              for _ in cuts + [PI]]
    q = PotentialExpr([Piece(lo, hi, Const(c)) for lo, hi, c in zip(edges, edges[1:], values)])
    problem = Problem(
        q=q,
        h=draw(complex_in(-1.0, 1.0)),
        H=draw(st.one_of(st.none(), complex_in(-1.0, 1.0))),
        beta=draw(st.floats(0.4, 3.0)),
        gamma=draw(complex_in(-1.0, 1.0)),
        d=draw(st.floats(0.3, PI - 0.3)),
    )
    lams = [10.0 ** draw(st.floats(0.0, 6.0)) * cmath.exp(1j * draw(st.floats(-PI, PI)))
            for _ in range(3)]
    return problem, edges[:-1], values, lams


class TestMagnusKernel:
    """Witnesses for the Magnus kernel that serves every segment of a walk:
    end states, lambda-derivative chains and reads inside a segment.  Its
    step propagators have determinant 1, so the Wronskian does not measure
    its accuracy; these tests do."""

    @given(piecewise_constant_setups())
    @settings(max_examples=40, deadline=None)
    def test_exact_on_piecewise_constant_q(self, setup):
        problem, cuts, values, lams = setup
        vals, vals_inf, logs = delta_many(problem, lams)
        with mpmath.workdps(30):
            for k, lam in enumerate(lams):
                sample = char_delta(problem, lam)
                y, dy = _exact_end_state(problem, cuts, values, lam)
                H = 0 if problem.dirichlet else problem.H
                want = -y if problem.dirichlet else dy + H * y
                # relative to the size of the end state, so a lambda next to
                # an eigenvalue is measured at the scale it is computed at
                sigma = math.sqrt(max(abs(lam), 1.0))
                size = mpmath.sqrt(abs(y) ** 2 + abs(dy / sigma) ** 2)
                scales = (max(abs(want), size * (sigma + abs(H))), max(abs(y), size))
                bound = 5e-11 * math.sqrt(abs(lam))
                for got, exact, scale in zip(
                    ((sample.delta, vals[k]), (sample.delta_inf, vals_inf[k])),
                    (want, -y),
                    scales,
                ):
                    for val, log in ((got[0].val, got[0].log), (got[1], logs[k])):
                        err = abs(mpmath.mpc(val) * mpmath.exp(log) - exact) / scale
                        assert err < bound

    @given(piecewise_constant_setups())
    @settings(max_examples=30, deadline=None)
    def test_chain_exact_on_piecewise_constant_q(self, setup):
        # the chain members are the Taylor coefficients in lambda of the
        # step exponentials, so on constant pieces they are exact as well
        problem, cuts, values, lams = setup
        states, logs = solve_many(problem, lams, nu_max=3)
        with mpmath.workdps(30):
            for k, lam in enumerate(lams):
                (want,) = _exact_chain(problem, cuts, values, lam, 0.0, (1, problem.h), [PI], 3)
                assert _chain_error(states[k], logs[k], want, lam) < 1e-12 * math.sqrt(abs(lam))

    @given(
        piecewise_constant_setups(),
        st.lists(st.floats(0.01, PI - 0.01), min_size=1, max_size=4, unique=True),
        st.sampled_from(["left", "right"]),
        st.integers(0, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_reads_exact_on_piecewise_constant_q(self, setup, xs, side, nu_max):
        # a read inside a segment is one partial step from the start of
        # the step that holds it
        problem, cuts, values, lams = setup
        assume(all(abs(x - e) > 1e-6 for x in xs for e in cuts + [problem.d]))
        lam = lams[0]
        pts = sorted(xs, reverse=side == "right")
        states, logs = solve_chain(problem, lam, pts, nu_max=nu_max, side=side)
        if side == "left":
            x_from, state = 0.0, (1, problem.h)
        else:
            x_from, state = PI, (0, 1) if problem.dirichlet else (1, -problem.H)
        with mpmath.workdps(30):
            wants = _exact_chain(problem, cuts, values, lam, x_from, state, pts, nu_max)
            for got, log, want in zip(states, logs, wants):
                assert _chain_error(got, log, want, lam) < 1e-12 * math.sqrt(abs(lam))

    @given(piecewise_constant_setups(), st.floats(-50.0, 1e4), st.floats(-50.0, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_norming_alpha_exact_on_piecewise_constant_q(self, setup, re, im):
        # alpha_0 = integral of psi^2, summed at Gauss-Legendre nodes read
        # inside the segments of the psi walk, against its closed form; the
        # lambda lie near the real axis, as eigenvalues do, where psi^2
        # stays within the float range
        problem, cuts, values, _ = setup
        lam = complex(re, im)
        assume(min(abs(lam - c) for c in values) > 1e-3)
        got = compute_norming(problem, EigenRecord(lam=lam, multiplicity=1, residual=0.0))
        start = (0, 1) if problem.dirichlet else (1, -problem.H)
        edges = sorted(set(cuts) | {problem.d, PI})
        mids = [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
        with mpmath.workdps(30):
            states = _exact_walk(problem, cuts, values, lam, PI, start, mids[::-1])[::-1]
            alpha, size = mpmath.mpc(0), mpmath.mpf(0)
            for lo, hi, mid, (y, dy) in zip(edges, edges[1:], mids, states):
                c = values[max(k for k in range(len(values)) if cuts[k] <= mid)]
                s = mpmath.sqrt(mpmath.mpc(lam) - mpmath.mpc(c))
                b = dy / s  # psi = y cos(s t) + b sin(s t), t = x - mid

                def antiderivative(t):
                    return (
                        (y * y + b * b) * t / 2
                        + (y * y - b * b) * mpmath.sin(2 * s * t) / (4 * s)
                        + y * b * mpmath.sin(s * t) ** 2 / s
                    )

                alpha += antiderivative(hi - mid) - antiderivative(lo - mid)
                for t in (lo - mid, 0, hi - mid):
                    psi = y * mpmath.cos(s * t) + b * mpmath.sin(s * t)
                    size = max(size, PI * abs(psi) ** 2)
            assert abs(got.alphas[0] - alpha) < 1e-11 * size

    @given(piecewise_constant_setups(), st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
           complex_in(-1.0, 1.0), st.tuples(complex_in(-1.0, 1.0), complex_in(-1.0, 1.0)),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_pair_integrals_exact_on_piecewise_constant_q(
        self, setup, shifts, gamma_b, init_b, u_from, u_to
    ):
        # W(x_to) summed over the quadrature nodes read inside the walk of
        # both problems, against the bracket of the exact end states
        pa, cuts, values, lams = setup
        values_b = [v + dv for v, dv in zip(values, shifts)]
        edges = cuts + [PI]
        pb = Problem(
            q=PotentialExpr([Piece(lo, hi, Const(c))
                             for lo, hi, c in zip(edges, edges[1:], values_b)]),
            h=pa.h, beta=pa.beta, gamma=gamma_b, d=pa.d,
        )
        x_from, x_to = sorted((PI * u_from, PI * u_to))
        assume(x_to - x_from > 0.05)
        assume(all(abs(x - e) > 1e-6 for x in (x_from, x_to) for e in cuts[1:] + [pa.d]))
        lam, init_a = lams[0], (1.0, pa.h)
        assume(abs(init_b[0]) + abs(init_b[1]) > 0.1)
        (val,), (log,) = pair_integrals(
            pa, pb, [lam], x_from, x_to, init_a, init_b, tol=BRACKET_TOL
        )
        with mpmath.workdps(40):
            ((ya, dya),) = _exact_walk(pa, cuts, values, lam, x_from, init_a, [x_to])
            ((yb, dyb),) = _exact_walk(pb, cuts, values_b, lam, x_from, init_b, [x_to])
            want = (ya * dyb - dya * yb) * mpmath.exp(-log)
            half = mpmath.exp(-log / 2)
            scale = max(
                wronskian_scale(lam, (ya * half, dya * half), (yb * half, dyb * half)),
                wronskian_scale(lam, init_a, init_b) * math.exp(-log),
            )
            assert abs(mpmath.mpc(val) - want) < 1e-10 * scale

    def test_reads_are_held_to_the_step_rule(self):
        # a read just off a sharp bump is a partial step over part of it,
        # whose error is larger than the end state's at the same step
        # count: at tol = 1e-8 the end state at 3 settles at 3072 steps,
        # where the reads still err by up to 4.8e-9; judged on their own
        # they settle at 6144 steps, within 3e-10 like the end state
        p = Problem(q="30 * exp(0 - ((x - 1.5) / 0.01)^2)", d=3.0)
        lam, xs = 20.0 + 1.0j, [1.49, 1.5, 1.51, 2.0, 3.0]
        states, _ = solve_chain(p, lam, xs, tol=1e-8)
        for got, want in zip(states[:, 0], _dop853_states(p, lam, xs, max_step=1e-3)):
            assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()

    @given(
        st.floats(-5.0, 5.0), st.integers(1, 4), st.floats(-5.0, 5.0),
        st.floats(0.0, 4.0), st.floats(-PI, PI), complex_in(-1.0, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_smooth_q_matches_dop853(self, a, k, c, decade, angle, h):
        p = Problem(q="%.4f * sin(%d * x) + %.4f" % (a, k, c), h=h, H=0.3, beta=1.5,
                    gamma=0.2j)
        lam = 10.0**decade * cmath.exp(1j * angle)
        got = char_delta(p, lam)
        ((y, dy),) = _dop853_states(p, lam, [PI])
        want = dy + p.H * y
        shift = math.exp(got.delta.log - abs(cmath.sqrt(lam).imag) * PI)
        scale = max(abs(want), abs(y), abs(dy))
        assert abs(got.delta.val * shift - want) < 5e-11 * math.sqrt(abs(lam)) * scale

    def test_free_jump_error_is_lambda_uniform(self):
        # the DOP853 kernel at TOL erred by 1.1e-10 at 1e2 i and by 1.4e-8
        # at 1e6 i; what is left is rounding in the phase pi sqrt|lam|, which
        # the closed form shares
        data = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j, d=PI / 2)
        p = Problem(q="0", **data)
        for k in range(2, 7):
            lam = 1j * 10.0**k
            sample = char_delta(p, lam)
            growth = PI * cmath.sqrt(lam).imag
            for got, want in zip((sample.delta, sample.delta_inf), free_jump_scaled(lam, **data)):
                assert abs(got.val * math.exp(got.log - growth) - want) < 1e-12 * abs(want)

    def test_step_count_limit_names_the_segment(self):
        # a non-finite state never settles
        p = free_problem()
        with pytest.raises(RuntimeError, match=r"on \[0.0, 1.5707.*lambda = \(4\+0j\)"):
            ode._walk([p], [4.0], np.full((1, 1, 2), np.nan, dtype=complex), 0.0, [PI], tol=TOL)
