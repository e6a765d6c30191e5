import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from klmdp import (
    ConvergenceError,
    FactoredKernel,
    OdeConfig,
    ProductStateSpace,
    ResidualToleranceError,
    StochasticMatrix,
    aroe_fixed_point_oracle,
    fh_block_ode_oracle,
    generate_wind_field,
    induced_transition,
    solve_average_reward,
    solve_finite_horizon,
)
from klmdp.chain_solvers import BorderedLU
from klmdp.kl_calculus import _tilt_values
from klmdp.ode_engine import (
    ANDERSON_DEPTH,
    PREDICTOR_MAX_NODES,
    _anderson_step,
    _extrapolate,
    _extrapolation_weights,
)
from klmdp.uav_benchmark import UavScenario, build_scenario_model

from conftest import random_factored_model, random_utility


def ar_vector_field(h, model, utility, basepoint):
    """Average-reward vector field ``(dh/dzeta, deta/dzeta)`` at ``h``: the
    reference the continuation is checked against.

    The Poisson solution of the chain tilted by ``h``, pinned at the
    basepoint, and that chain's mean utility, from one dense Poisson solve.
    """
    rule = StochasticMatrix(_tilt_values(h, model)[0])
    P_h = induced_transition(FactoredKernel(model.space, rule, model.Q0)).entries
    return BorderedLU(P_h, basepoint, P_h.__matmul__).solve(utility)


def unconstrained_two_state():
    sp = ProductStateSpace(2, 1)
    R0 = StochasticMatrix(np.full((2, 2), 0.5))
    Q0 = StochasticMatrix(np.ones((2, 1)))
    return FactoredKernel(sp, R0, Q0)


class TestArVectorField:
    """The reference vector field above, against hand and nominal solutions."""

    def test_constant_utility(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        H, eta = ar_vector_field(np.zeros(6), kernel, np.full(6, 2.0), 0)
        np.testing.assert_allclose(H, 0.0, atol=1e-10)
        assert eta == pytest.approx(2.0, abs=1e-12)

    def test_nominal_poisson_at_zero(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        H, eta = ar_vector_field(np.zeros(6), kernel, U, 1)
        P0 = induced_transition(kernel).entries
        expected_H, expected_eta = BorderedLU(P0, 1, P0.__matmul__).solve(U)
        np.testing.assert_allclose(H, expected_H, atol=1e-12)
        assert eta == pytest.approx(expected_eta, abs=1e-12)

    def test_two_state_hand_solve(self):
        kernel = unconstrained_two_state()
        U = np.array([1.0, 0.0])
        H, eta = ar_vector_field(np.zeros(2), kernel, U, 1)
        # P0 = 1 (x) pi here, so the Poisson solution is U - pi(U), pinned
        np.testing.assert_allclose(H, [1.0, 0.0], atol=1e-12)
        assert eta == pytest.approx(0.5, abs=1e-12)


class TestSolveAverageReward:
    def test_zero_weight_boundary(self, rng):
        kernel = random_factored_model(rng, 2, 2)
        path = solve_average_reward(kernel, random_utility(rng, 4), OdeConfig(zeta_max=0.0))
        assert len(path.checkpoints) == 1
        cp = path.checkpoints[0]
        assert cp.zeta == 0.0 and cp.eta == 0.0
        np.testing.assert_array_equal(cp.h.values, 0.0)
        # built from the rule on demand, not stored
        assert "controlled_P" not in {f.name for f in dataclasses.fields(cp)}
        np.testing.assert_allclose(
            cp.controlled_P.entries, induced_transition(kernel).entries, atol=1e-15
        )

    def test_constant_utility_linear_eta(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        cfg = OdeConfig(zeta_max=1.0, step=0.05, checkpoints=(1.0,))
        path = solve_average_reward(kernel, np.full(6, -0.7), cfg)
        cp = path.checkpoints[-1]
        np.testing.assert_allclose(cp.h.values, 0.0, atol=1e-10)
        assert cp.eta == pytest.approx(-0.7, abs=1e-10)

    def test_matches_perron_frobenius(self):
        kernel = unconstrained_two_state()
        U = np.array([0.0, 1.0])
        cfg = OdeConfig(zeta_max=1.0, step=0.005, checkpoints=(1.0,))
        cp = solve_average_reward(kernel, U, cfg).checkpoints[-1]
        e = np.e
        assert cp.eta == pytest.approx(np.log((1 + e) / 2), abs=1e-9)
        np.testing.assert_allclose(
            cp.controlled_P.entries, [[1 / (1 + e), e / (1 + e)]] * 2, atol=1e-9
        )

    def test_checkpoint_snapping(self, rng):
        kernel = random_factored_model(rng, 2, 2)
        cfg = OdeConfig(zeta_max=0.1, step=0.01, checkpoints=(0.034,))
        path = solve_average_reward(kernel, random_utility(rng, 4), cfg)
        assert path.snapped == [(0.034, 0.03)]
        assert path.checkpoints[0].zeta == pytest.approx(0.03)

    def test_residual_failure_advises_smaller_step(self):
        # every grid node is certified, not only the checkpoints: the first
        # node past the exact start fails a tolerance below rounding level
        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=0.5, step=0.01, checkpoints=(0.5,), residual_tol=1e-20)
        with pytest.raises(ResidualToleranceError, match=r"zeta=0\.01 .*step"):
            solve_average_reward(kernel, U, cfg, scenario.basepoint)

    def test_single_step_matches_fixed_point_oracle(self):
        rng = np.random.default_rng(2024)
        kernel = random_factored_model(rng, 4, 3)
        U = random_utility(rng, 12)
        cfg = OdeConfig(zeta_max=2.0, step=2.0)
        cp = solve_average_reward(kernel, U, cfg).checkpoints[-1]
        h, eta = aroe_fixed_point_oracle(kernel, U, 2.0)
        assert cp.zeta == 2.0
        assert np.max(np.abs(h.values - cp.h.values)) <= 1e-6
        assert abs(eta - cp.eta) <= 1e-6

    @pytest.mark.parametrize("solve", [
        lambda kernel, U: solve_average_reward(kernel, U, OdeConfig(zeta_max=0.1)),
        lambda kernel, U: solve_finite_horizon(kernel, U, 2, OdeConfig(zeta_max=0.1)),
    ], ids=["average-reward", "finite-horizon"])
    @pytest.mark.parametrize("utility, message", [
        ([np.nan, 0.0], "non-finite"),
        ([1.0], "utility has length 1, expected 2"),  # would broadcast over the d = 2 states
    ], ids=["non-finite", "wrong-length"])
    def test_bad_utility_rejected(self, rng, solve, utility, message):
        kernel = random_factored_model(rng, 2, 1)
        with pytest.raises(ValueError, match=message):
            solve(kernel, np.array(utility))

    def test_basepoint_must_be_a_recurrent_state(self):
        # state 0 leaks into the recurrent pair {1, 2}
        R0 = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.4, 0.6]])
        kernel = FactoredKernel(ProductStateSpace(3, 1), StochasticMatrix(R0), StochasticMatrix(np.ones((3, 1))))
        U, cfg = np.arange(3.0), OdeConfig(zeta_max=0.1)
        with pytest.raises(ValueError, match="basepoint 0 is transient"):
            solve_average_reward(kernel, U, cfg, basepoint=0)
        for basepoint in (3, 5, -1):
            with pytest.raises(ValueError, match=rf"^basepoint {basepoint} outside \[0, 3\)$"):
                solve_average_reward(kernel, U, cfg, basepoint=basepoint)
        assert solve_average_reward(kernel, U, cfg, basepoint=1).checkpoints[-1].h.values[1] == 0.0

    def test_trace_counts_every_factorization_and_solve(self, monkeypatch):
        # the LU is kept across Newton steps and nodes: each correction is one
        # triangular solve, the first correction factors the first LU, and
        # refactoring is rare
        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        kernel, U = build_scenario_model(scenario)
        calls = {"lu_factor": 0, "lu_solve": 0}

        def counting(name):
            original = getattr(scipy.linalg, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(scipy.linalg, name, counting(name))
        monkeypatch.setattr(np.linalg, "solve", None)  # every solve goes through the kept LU
        path = solve_average_reward(kernel, U, OdeConfig(zeta_max=0.5, step=0.01), scenario.basepoint)
        for counts in (path.newton_steps, path.factorizations):
            assert counts.shape == path.grid.shape and counts.dtype.kind == "i"
        assert path.newton_steps[0] == 0 and path.factorizations[0] == 0
        assert path.factorizations[1] >= 1  # no LU is kept before the first correction
        assert path.newton_steps.sum() >= path.grid.size - 1
        assert calls["lu_factor"] == path.factorizations.sum()
        assert calls["lu_solve"] == path.newton_steps.sum()
        assert path.factorizations.sum() < path.newton_steps.sum()
        # node 1 starts from the exact h = 0, eta = 0 of node 0: its residual
        # is zeta U plus the log of R0's row sums, which are 1 to rounding
        assert path.predictor_nodes[1] == 1
        assert path.predictor_residual[1] <= path.grid[1] * np.max(np.abs(U)) + 1e-15

    def test_rules_normalized_only_where_used(self, monkeypatch):
        # Newton steps need only the log-normalizer: the rule is normalized for
        # each factorization and each checkpoint
        import klmdp.ode_engine as ode_engine

        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        rng = np.random.default_rng(4)
        # the random R0's row sums are off 1 in the last bits, so normalizing
        # one rule twice would show in its checkpoint at zeta = 0
        cases = [(*build_scenario_model(scenario), scenario.basepoint),
                 (random_factored_model(rng, 4, 3), random_utility(rng, 12), 0)]
        normalizations, normalized_tilts = [0], [0]
        normalize_rule, tilt_values = ode_engine._normalize_rule, ode_engine._tilt_values

        def counted_normalize(weights, out=None):
            normalizations[0] += 1
            return normalize_rule(weights, out=out)

        def counted_tilt(values, model, normalize=True):
            normalized_tilts[0] += normalize
            return tilt_values(values, model, normalize)

        monkeypatch.setattr(ode_engine, "_normalize_rule", counted_normalize)
        monkeypatch.setattr(ode_engine, "_tilt_values", counted_tilt)
        cfg = OdeConfig(zeta_max=0.5, step=0.01, checkpoints=(0.0, 0.25, 0.5))
        for kernel, U, basepoint in cases:
            normalizations[0] = normalized_tilts[0] = 0
            path = solve_average_reward(kernel, U, cfg, basepoint)
            assert normalized_tilts[0] == 0
            assert normalizations[0] == path.factorizations.sum() + len(path.checkpoints)
            assert normalizations[0] < path.newton_steps.sum() / 4
            for cp in path.checkpoints:
                rule = tilt_values(cp.h.values, kernel)[0]
                np.testing.assert_array_equal(cp.tilted_rule.entries, rule)

    def test_chord_safeguard_matches_fixed_point_oracle(self):
        # chord steps on the LU of zeta = 0 diverge at zeta = 0.01 here unless a
        # step that does not lower the residual is undone for a full Newton step
        scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=0.05, step=0.01, checkpoints=(0.01, 0.02, 0.03, 0.04, 0.05))
        for cp in solve_average_reward(kernel, U, cfg, scenario.basepoint).checkpoints:
            h, eta = aroe_fixed_point_oracle(kernel, U, cp.zeta, scenario.basepoint, tol=1e-13)
            assert np.max(np.abs(h.values - cp.h.values)) <= 1e-10
            assert abs(eta - cp.eta) <= 1e-10

    def test_step_counts_on_the_full_uav8_sweep(self):
        # the order-selected predictor starts each node close, and Anderson
        # mixing speeds the chord steps on the kept LU: 1,597 Newton steps
        # and 22 factorizations with a 3-node predictor and plain chord steps
        scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=2.0, step=0.01, checkpoints=(0.0, 1.0, 2.0))
        path = solve_average_reward(kernel, U, cfg, scenario.basepoint)
        assert path.newton_steps.sum() <= 900
        assert path.factorizations.sum() <= 22
        assert path.predictor_nodes.max() > 2
        for cp in path.checkpoints:
            h, eta = aroe_fixed_point_oracle(kernel, U, cp.zeta, scenario.basepoint, tol=1e-13)
            assert np.max(np.abs(h.values - cp.h.values)) <= 1e-10
            assert abs(eta - cp.eta) <= 1e-10

    def test_derivative_consistency(self, rng):
        # central difference of the path matches the vector field to O(step^2)
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        step = 0.02
        zetas = (0.5 - step, 0.5, 0.5 + step)
        cfg = OdeConfig(zeta_max=0.6, step=step, checkpoints=zetas)
        cps = solve_average_reward(kernel, U, cfg).checkpoints
        fd = (cps[2].h.values - cps[0].h.values) / (2 * step)
        vf, _ = ar_vector_field(cps[1].h.values, kernel, U, 0)
        assert np.max(np.abs(fd - vf)) <= 50 * step**2

    def test_eta_convex_and_monotone_for_nonpositive_utility(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = -rng.uniform(0.0, 1.0, size=6)
        cfg = OdeConfig(zeta_max=1.0, step=0.02, checkpoints=(1.0,))
        path = solve_average_reward(kernel, U, cfg)
        assert np.all(np.diff(path.eta_trace) <= 1e-12)
        assert np.all(np.diff(path.eta_trace, 2) >= -1e-8)

    def test_normalization_along_path(self, rng):
        kernel = random_factored_model(rng, 2, 3)
        U = random_utility(rng, 6)
        cfg = OdeConfig(zeta_max=0.8, step=0.02, checkpoints=(0.2, 0.8))
        for cp in solve_average_reward(kernel, U, cfg, basepoint=4).checkpoints:
            assert cp.h.values[4] == 0.0
            H, _ = ar_vector_field(cp.h.values, kernel, U, 4)
            assert H[4] == 0.0

    def test_poisson_residual_at_checkpoints(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        cfg = OdeConfig(zeta_max=1.0, step=0.02, checkpoints=(0.5, 1.0))
        for cp in solve_average_reward(kernel, U, cfg).checkpoints:
            H, eta = ar_vector_field(cp.h.values, kernel, U, 0)
            residual = cp.controlled_P.entries @ H - H + U - eta
            assert np.max(np.abs(residual)) <= 1e-6


def reference_lagrange_weights(nodes, z):
    """Lagrange weights of ``nodes`` at ``z``, one product per node."""
    return [
        math.prod((z - zk) / (zj - zk) for k, zk in enumerate(nodes) if k != j)
        for j, zj in enumerate(nodes)
    ]


class TestExtrapolation:
    @pytest.mark.parametrize("n", range(1, PREDICTOR_MAX_NODES + 1))
    def test_reproduces_polynomials_of_degree_below_the_node_count(self, n):
        rng = np.random.default_rng(n)
        nodes = np.sort(rng.uniform(0.0, 2.0, size=PREDICTOR_MAX_NODES))
        z = nodes[-1] + 0.013
        coefficients = rng.uniform(-1.0, 1.0, size=(n, 3))  # three polynomials of degree n - 1
        values = np.polynomial.polynomial.polyval(nodes, coefficients).T
        weights = _extrapolation_weights(nodes, z)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(weights[n - 1, : PREDICTOR_MAX_NODES - n] == 0.0)  # only the last n nodes
        expected = np.polynomial.polynomial.polyval(z, coefficients)
        np.testing.assert_allclose(weights[n - 1] @ values, expected, rtol=0, atol=1e-12)
        reference = reference_lagrange_weights(nodes[-n:].tolist(), z)
        np.testing.assert_allclose(weights[n - 1, -n:], reference, rtol=1e-13, atol=0)

    def test_order_selection_is_low_on_a_stiff_start_and_high_on_a_polynomial(self):
        zetas = 0.02 * np.arange(PREDICTOR_MAX_NODES + 1)
        stiff = np.exp(-50.0 * zetas)
        smooth = np.polynomial.polynomial.polyval(zetas, [0.3, -1.0, 0.5, 2.0, -0.7, 0.2])
        orders = {}
        for name, h in (("stiff", stiff), ("smooth", smooth)):
            X = np.column_stack([h, -h, np.zeros_like(h), zetas])  # three h entries, then eta
            predicted, orders[name] = _extrapolate(zetas, X, zetas[-1] + 0.02)
            assert predicted.shape == (4,)
        assert orders["stiff"] < orders["smooth"]
        assert orders["smooth"] >= 6  # exact from 6 nodes on
        assert 2 <= orders["stiff"] and orders["smooth"] <= PREDICTOR_MAX_NODES


class TestAndersonStep:
    def test_solves_an_affine_problem_of_its_depth_like_gmres(self):
        # for an affine map, Anderson mixing over the full history matches
        # GMRES, which solves a problem of dimension n in n steps
        n = ANDERSON_DEPTH
        rng = np.random.default_rng(3)
        A = np.eye(n) + 0.4 * rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=n)
        history, x, plain = [], np.zeros(n), np.zeros(n)
        for _ in range(n + 1):
            x = _anderson_step(history, x, b - A @ x)
            plain = plain + (b - A @ plain)
        np.testing.assert_allclose(A @ x, b, rtol=0, atol=1e-12)
        assert np.max(np.abs(A @ plain - b)) > 1e-3
        x = _anderson_step(history, x, b - A @ x)
        assert len(history) == ANDERSON_DEPTH + 1  # the last ANDERSON_DEPTH differences
        np.testing.assert_allclose(A @ x, b, rtol=0, atol=1e-12)

    def test_skips_differences_without_new_directions(self):
        x, f = np.array([1.0, 2.0]), np.array([0.5, -0.5])
        history = [(x, f), (x, f)]  # every difference is zero
        np.testing.assert_array_equal(_anderson_step(history, x, f), x + f)


class TestAroeFixedPointOracle:
    def test_zero_weight(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        h, eta = aroe_fixed_point_oracle(kernel, random_utility(rng, 6), 0.0)
        np.testing.assert_allclose(h.values, 0.0, atol=1e-10)
        assert eta == pytest.approx(0.0, abs=1e-10)

    def test_constant_utility(self, rng):
        kernel = random_factored_model(rng, 2, 2)
        h, eta = aroe_fixed_point_oracle(kernel, np.full(4, 1.3), 0.6)
        np.testing.assert_allclose(h.values, 0.0, atol=1e-10)
        assert eta == pytest.approx(0.78, abs=1e-9)

    def test_agrees_with_ode_path(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        cfg = OdeConfig(zeta_max=0.7, step=0.005, checkpoints=(0.7,))
        cp = solve_average_reward(kernel, U, cfg).checkpoints[-1]
        h, eta = aroe_fixed_point_oracle(kernel, U, 0.7)
        assert np.max(np.abs(h.values - cp.h.values)) <= 1e-6
        assert abs(eta - cp.eta) <= 1e-6


class TestFiniteHorizon:
    def test_backward_recursion_boundaries(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        cp = solve_finite_horizon(kernel, U, 0, OdeConfig(zeta_max=0.9, step=0.9)).checkpoints[-1]
        np.testing.assert_allclose(cp.W[0], 0.9 * U)
        cp = solve_finite_horizon(kernel, U, 3, OdeConfig(zeta_max=0.0)).checkpoints[-1]
        np.testing.assert_allclose(cp.W, 0.0, atol=1e-14)

    def test_backward_recursion_hand_value(self):
        kernel = unconstrained_two_state()
        cfg = OdeConfig(zeta_max=1.0, step=1.0)
        W = solve_finite_horizon(kernel, np.array([0.0, 1.0]), 1, cfg).checkpoints[-1].W
        c = np.log((1 + np.e) / 2)
        np.testing.assert_allclose(W[1], [c, 1 + c], atol=1e-14)

    def test_ode_boundary_at_zero(self, rng):
        kernel = random_factored_model(rng, 2, 2)
        U = random_utility(rng, 4)
        cfg = OdeConfig(zeta_max=0.5, step=0.01, checkpoints=(0.0,))
        cp = solve_finite_horizon(kernel, U, 3, cfg).checkpoints[0]
        np.testing.assert_array_equal(cp.W, 0.0)
        for rule in cp.policies:
            np.testing.assert_allclose(rule.entries, kernel.R.entries, atol=1e-14)

    def test_constant_utility_closed_form(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        c = -0.4
        cfg = OdeConfig(zeta_max=1.0, step=0.02, checkpoints=(1.0,))
        cp = solve_finite_horizon(kernel, np.full(6, c), 4, cfg).checkpoints[-1]
        for k in range(5):
            np.testing.assert_allclose(cp.W[k], (k + 1) * c, atol=1e-9)

    def test_first_block_is_linear(self, rng):
        kernel = random_factored_model(rng, 2, 3)
        U = random_utility(rng, 6)
        cfg = OdeConfig(zeta_max=0.8, step=0.02, checkpoints=(0.8,))
        cp = solve_finite_horizon(kernel, U, 2, cfg).checkpoints[-1]
        np.testing.assert_allclose(cp.W[0], 0.8 * U, atol=1e-12)

    def test_matches_block_ode_oracle(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        cfg = OdeConfig(zeta_max=0.5, step=0.005, checkpoints=(0.5,))
        cp = solve_finite_horizon(kernel, U, 4, cfg).checkpoints[-1]
        oracle = fh_block_ode_oracle(kernel, U, 4, 0.5, 0.005)
        assert np.max(np.abs(cp.W - oracle)) <= 1e-6

    def test_non_finite_value_fails_at_its_stage(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = np.full(6, 1e308)  # finite, but 2 U overflows
        cfg = OdeConfig(zeta_max=2.0, step=0.5, checkpoints=(1.0, 2.0))
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match=r"W\[0\] at zeta=2$"):
            solve_finite_horizon(kernel, U, 0, cfg)
        # at zeta = 1, U itself is finite and the first tilt overflows
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match=r"W\[1\] at zeta=1$"):
            solve_finite_horizon(kernel, U, 2, cfg)

    def test_values_do_not_depend_on_the_grid_step(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        cfgs = [OdeConfig(zeta_max=1.0, step=step, checkpoints=(1.0,)) for step in (0.01, 0.5)]
        cps = [solve_finite_horizon(kernel, U, 4, cfg).checkpoints[-1] for cfg in cfgs]
        assert cps[0].zeta == cps[1].zeta == 1.0
        np.testing.assert_array_equal(cps[0].W, cps[1].W)

    def test_values_convex_and_monotone_in_weight(self, rng):
        kernel = random_factored_model(rng, 2, 2)
        U = -rng.uniform(0.0, 1.0, size=4)
        zetas = tuple(np.round(np.arange(0.0, 1.01, 0.1), 10))
        cfg = OdeConfig(zeta_max=1.0, step=0.02, checkpoints=zetas)
        cps = solve_finite_horizon(kernel, U, 3, cfg).checkpoints
        stacked = np.stack([cp.W for cp in cps])  # (n_zeta, T+1, d)
        assert np.all(np.diff(stacked, axis=0) <= 1e-10)
        assert np.all(np.diff(stacked, 2, axis=0) >= -1e-8)


@st.composite
def fh_cases(draw):
    """Random factored model whose ``R0`` may have zeros, with utility, horizon and weight."""
    d_u, d_n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    d = d_u * d_n
    unit = st.floats(0.05, 1.0)
    support = draw(arrays(bool, (d, d_u)))
    support[np.arange(d), draw(arrays(np.int64, d, elements=st.integers(0, d_u - 1)))] = True
    R0 = draw(arrays(float, (d, d_u), elements=unit)) * support
    Q0 = draw(arrays(float, (d, d_n), elements=unit))
    kernel = FactoredKernel(
        ProductStateSpace(d_u, d_n),
        StochasticMatrix(R0 / R0.sum(axis=1, keepdims=True)),
        StochasticMatrix(Q0 / Q0.sum(axis=1, keepdims=True)),
    )
    U = draw(arrays(float, d, elements=st.floats(-1.0, 1.0)))
    return kernel, U, draw(st.integers(0, 4)), draw(st.integers(0, 100)) / 20


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(fh_cases())
def test_finite_horizon_matches_block_ode_on_random_models(case):
    kernel, U, T, zeta = case
    cp = solve_finite_horizon(kernel, U, T, OdeConfig(zeta_max=zeta, step=1.0)).checkpoints[-1]
    oracle = fh_block_ode_oracle(kernel, U, T, cp.zeta, 0.02)
    assert np.max(np.abs(cp.W - oracle)) <= 1e-6


@st.composite
def ar_cases(draw):
    """Random factored model whose ``R0`` may have zeros and transient states, with utility and weight."""
    d_u, d_n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    d = d_u * d_n
    unit = st.floats(0.05, 1.0)
    support = draw(arrays(bool, (d, d_u)))
    support[:, draw(arrays(bool, d_u))] = False  # no state moves there: those states are transient
    support[:, 0] = True  # every state reaches x_u = 0, whose states hold a self-loop: unichain, aperiodic
    R0 = draw(arrays(float, (d, d_u), elements=unit)) * support
    Q0 = draw(arrays(float, (d, d_n), elements=unit))
    kernel = FactoredKernel(
        ProductStateSpace(d_u, d_n),
        StochasticMatrix(R0 / R0.sum(axis=1, keepdims=True)),
        StochasticMatrix(Q0 / Q0.sum(axis=1, keepdims=True)),
    )
    U = draw(arrays(float, d, elements=st.floats(-1.0, 1.0)))
    return kernel, U, draw(st.integers(0, 80)) / 4


# States 1 and 2 are transient, and past zeta = log 3 staying near state 1 earns
# more than the recurrent pair {0, 3}: the optimal average reward then depends
# on the start, and the optimality equation has no solution.
_TRANSIENT_WINS = (
    FactoredKernel(
        ProductStateSpace(4, 1),
        StochasticMatrix(np.array([[0.5, 0, 0, 0.5], [0.25] * 4, [0.25] * 4, [0.5, 0, 0, 0.5]])),
        StochasticMatrix(np.ones((4, 1))),
    ),
    np.array([0.0, 1.0, 0.0, 0.0]),
    1.25,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ar_cases())
@example(_TRANSIENT_WINS)
def test_average_reward_matches_relative_value_iteration_on_random_models(case):
    kernel, U, zeta = case
    # damped: on a nearly periodic tilted chain (3 states, zeta = 10) undamped
    # sweeps did not settle to 1e-13 in 1e6 sweeps
    rvi = dict(tol=1e-13, damping=0.5)
    try:
        cp = solve_average_reward(kernel, U, OdeConfig(zeta_max=zeta, step=0.5)).checkpoints[-1]
    except (ConvergenceError, ResidualToleranceError) as exc:
        # a failure is only allowed where the optimality equation has no
        # solution, and then relative value iteration cannot converge either
        failed_at = float(re.search(r"at zeta=([^ ;]+)", str(exc)).group(1))
        with pytest.raises(ConvergenceError):
            aroe_fixed_point_oracle(kernel, U, failed_at, max_iter=20_000, **rvi)
        return
    h, eta = aroe_fixed_point_oracle(kernel, U, cp.zeta, **rvi)
    assert np.max(np.abs(h.values - cp.h.values)) <= 1e-10
    assert abs(eta - cp.eta) <= 1e-10
