"""Fast self-test of the benchmark (a few seconds).

    python3 perfbench/selftest.py

Checks the reference module against values known in closed form or computed
another way, the determinism of the seeded inputs, the tracer's wrapping on
tiny calls, and that every metric the benchmark prints is named in
``BENCHMARK.json`` with its unit.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys
import unittest

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PI = math.pi


class TestReference(unittest.TestCase):
    def test_delta_without_jump_is_closed_form(self):
        # q = c, h = H = 0, beta = 1: Delta = -s sin(s pi), Delta_inf = -cos(s pi)
        for lam in (2.3, 17.0, 8 + 3j, -4.0):
            s = cmath.sqrt(lam - 0.1)
            delta, delta_inf = reference.free_jump_delta(lam, c=0.1)
            self.assertAlmostEqual(complex(delta), -s * cmath.sin(s * PI), delta=1e-12 * abs(delta))
            self.assertAlmostEqual(complex(delta_inf), -cmath.cos(s * PI), delta=1e-12)

    def test_delta_on_far_ray_has_the_growth_of_the_theory(self):
        # log|Delta(iy)| = pi sqrt(y/2) + log(b1 |s| / 2) + o(1) with a Robin end
        data = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j)
        delta, _ = reference.free_jump_delta(1e6j, **data)
        b1 = 0.5 * (1.5 + 1 / 1.5)
        want = PI * math.sqrt(1e6 / 2) + math.log(b1 * 1e3 / 2)
        self.assertAlmostEqual(float(mpmath.log(abs(delta))), want, delta=1e-2)
        self.assertLess(reference.rel_error(reference.scaled(delta, 1e6j),
                                            reference.growth_log(1e6j), delta), 1e-14)

    def test_jump_eigenvalues_include_the_exact_ones(self):
        # beta = 2, d = pi/3: s = 3k zeroes both sines, so 9 k^2 are eigenvalues
        eigs = reference.free_jump_eigenvalues(2.0, PI / 3, 227.0)
        self.assertEqual(len(eigs), 16)
        for exact in (0.0, 9.0, 36.0, 81.0, 144.0, 225.0):
            self.assertLess(min(abs(e - exact) for e in eigs), 1e-12)
        shifted = reference.free_jump_eigenvalues(2.0, PI / 3, 227.0, c=-0.2)
        self.assertLess(max(abs(a - 0.2 - b) for a, b in zip(eigs, shifted)), 1e-12)

    def test_norming_closed_forms_match_quadrature(self):
        for n in (0, 1, 4):
            kappa, alpha = reference.neumann_norming(n)
            self.assertEqual(kappa, math.cos(n * PI))
            self.assertAlmostEqual(alpha, float(mpmath.quad(lambda x: mpmath.cos(n * x) ** 2, [0, PI])), 12)
            kappa, alpha = reference.dirichlet_norming(n)
            s = n + 0.5
            self.assertAlmostEqual(kappa, -s * math.sin(s * PI), 12)
            psi2 = float(mpmath.quad(lambda x: (mpmath.sin(s * (PI - x)) / s) ** 2, [0, PI]))
            self.assertAlmostEqual(alpha, psi2, 12)

    def test_plain_integrator_matches_exact_jump_delta(self):
        data = dict(h=0.3, H=0.1, beta=1.5, gamma=0.2j, d=PI / 2)
        lams = np.array([20 + 3j, 5.0, -2 + 1j])
        delta, ddelta, err = reference.rk4_delta(lambda x: 0.0 * x + 0.1, lams, **data)
        for lam, got, bound in zip(lams, delta, err):
            exact = complex(reference.free_jump_delta(lam, c=0.1, **data)[0])
            self.assertLess(abs(got - exact), 1e-9 * abs(exact))
            self.assertLess(bound, 1e-8 * abs(exact))
        # Delta' against a central difference of the exact Delta
        eps = 1e-5
        for lam, got in zip(lams, ddelta):
            fd = (complex(reference.free_jump_delta(lam + eps, c=0.1, **data)[0])
                  - complex(reference.free_jump_delta(lam - eps, c=0.1, **data)[0])) / (2 * eps)
            self.assertLess(abs(got - fd), 1e-6 * abs(fd))

    def test_winding_count_of_free_neumann(self):
        # zeros 0, 1, 4, 9, 16, 25 inside |lam| < 30
        self.assertEqual(reference.zeros_in_disc(lambda x: 0.0 * x, 30.0), 6)


class TestInputs(unittest.TestCase):
    def test_seeded_inputs_repeat_and_vary(self):
        for name, cls in workloads.WORKLOADS.items():
            a, b, c = (cls(s, ROOT, HERE) for s in (3, 3, 4))
            self.assertEqual(vars(a).keys(), vars(b).keys())
            fields = {k: v for k, v in vars(a).items() if k not in ("rng", "_root_cache")}
            self.assertEqual(fields, {k: vars(b)[k] for k in fields}, name)
            self.assertNotEqual(a.c, c.c, name)
            self.assertLessEqual(abs(a.c), 0.25)

    def test_stratified_draws_cover_each_slice(self):
        import random

        xs = workloads._stratified(random.Random(1), 4.0, 60.0, 16)
        for k, x in enumerate(xs):
            self.assertTrue(4.0 + 3.5 * k <= x <= 4.0 + 3.5 * (k + 1))


class TestTracing(unittest.TestCase):
    def test_wrappers_patch_every_namespace_and_restore(self):
        sd, _, _ = run.set_up("spectrum", 0)
        original = sd.charfn.char_delta
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sd.spectrum.char_delta, original)
            self.assertIs(sd.spectrum.char_delta, sd.spectrum.char_delta)
            recs = sd.find_eigenvalues(sd.Problem(q="0"), 5.0)
            sd.char_delta(sd.Problem(q="0"), 1e3j)
            m = tracer.metrics()
        finally:
            tracer.uninstall()
        self.assertIs(sd.charfn.char_delta, original)
        self.assertIs(sd.spectrum.char_delta, original)
        self.assertEqual(len(recs), 3)  # 0, 1, 4
        self.assertGreater(m["spectrum.newton_calls"], 0)
        self.assertEqual(m["charfn.char_delta.calls"], m["spectrum.newton_calls"] + 1)
        self.assertGreater(m["spectrum.contour_samples"], 0)
        self.assertEqual(m["spectrum.contour_samples"], m["ode.solve_many.lams"])
        self.assertGreater(m["ode.rhs_evals"], 0)
        self.assertEqual(m["expr.q_evals"], m["ode.rhs_evals"])
        self.assertGreater(m["charfn.char_delta.mean_s.1e3"], 0.0)
        self.assertEqual(m["spectrum.samples_per_eig"], m["spectrum.contour_samples"] / 3)


class TestMetricNames(unittest.TestCase):
    def test_printed_metrics_are_declared_with_their_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        printed_e2e = {k: u for k, (_, u) in run.end_to_end([1.0], [1.0], [1.0], 9.0, 80.0).items()}
        self.assertEqual(printed_e2e, declared_e2e)
        declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        printed_layer = {k: u for k, (_, u) in run.per_layer([tracing.Tracer().metrics()]).items()}
        self.assertEqual(printed_layer, declared_layer)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
