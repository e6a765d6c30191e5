import ast
import dataclasses
import inspect
import math
import pickle
import re
import sys
import tracemalloc
import weakref

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
    perron_frobenius_baseline,
    solve_average_reward,
    solve_finite_horizon,
)
from klmdp.kl_calculus import _tilt_values, tilted_rule
from klmdp.ode_engine import (
    ANDERSON_DEPTH,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    PREDICTOR_MAX_NODES,
    _anderson_step,
    _Corrector,
    _extrapolate,
    _extrapolation_weights,
    _zeta_grid,
)
from klmdp.oracles import kl_step_cost
from klmdp.state_space import ClassRows
from klmdp.uav_benchmark import UavScenario, build_scenario_model

from conftest import (
    bordered_lu,
    controlled_chain,
    dense_bordered_lu,
    induced_transition,
    random_factored_model,
    random_utility,
    repeated_rows_model,
)


def ar_vector_field(h, model, utility, basepoint):
    """Average-reward vector field ``(dh/dzeta, deta/dzeta)`` at ``h``: the
    reference the continuation is checked against.

    The Poisson solution of the chain tilted by ``h``, pinned at the
    basepoint, and that chain's mean utility, from one dense Poisson solve.
    """
    return bordered_lu(model, h, basepoint).solve(utility)


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
        expected_H, expected_eta = dense_bordered_lu(P0, 1).solve(U)
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
        np.testing.assert_array_equal(cp.h, 0.0)
        # kept as its factors: no dense chain is stored or built
        assert not hasattr(cp, "controlled_P")
        np.testing.assert_allclose(controlled_chain(cp), induced_transition(kernel).entries, atol=1e-15)

    def test_constant_utility_linear_eta(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        cfg = OdeConfig(zeta_max=1.0, step=0.05, checkpoints=(1.0,))
        path = solve_average_reward(kernel, np.full(6, -0.7), cfg)
        cp = path.checkpoints[-1]
        np.testing.assert_allclose(cp.h, 0.0, atol=1e-10)
        assert cp.eta == pytest.approx(-0.7, abs=1e-10)

    def test_matches_perron_frobenius(self):
        kernel = unconstrained_two_state()
        U = np.array([0.0, 1.0])
        cfg = OdeConfig(zeta_max=1.0, step=0.005, checkpoints=(1.0,))
        cp = solve_average_reward(kernel, U, cfg).checkpoints[-1]
        e = np.e
        assert cp.eta == pytest.approx(np.log((1 + e) / 2), abs=1e-9)
        np.testing.assert_allclose(
            controlled_chain(cp), [[1 / (1 + e), e / (1 + e)]] * 2, atol=1e-9
        )

    def test_checkpoint_snapping(self, rng):
        kernel = random_factored_model(rng, 2, 2)
        cfg = OdeConfig(zeta_max=0.1, step=0.01, checkpoints=(0.034,))
        path = solve_average_reward(kernel, random_utility(rng, 4), cfg)
        assert path.snapped == [(0.034, 0.03)]
        assert path.checkpoints[0].zeta == pytest.approx(0.03)

    def test_residual_failure_advises_smaller_step(self):
        # every grid node is certified, not only the checkpoints: the first
        # node past the exact start fails a tolerance between its residual and
        # node 0's, the log of R0's row sums, read from a clean run
        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=0.5, step=0.01, checkpoints=(0.5,))
        node0, node1 = solve_average_reward(kernel, U, cfg, scenario.basepoint).residual_trace[:2]
        assert node0 < node1
        tight = dataclasses.replace(cfg, residual_tol=float(np.sqrt(max(node0, 1e-300) * node1)))
        with pytest.raises(ResidualToleranceError, match=r"zeta=0\.01 .*step"):
            solve_average_reward(kernel, U, tight, scenario.basepoint)

    def test_single_step_matches_fixed_point_oracle(self):
        rng = np.random.default_rng(2024)
        kernel = random_factored_model(rng, 4, 3)
        U = random_utility(rng, 12)
        cfg = OdeConfig(zeta_max=2.0, step=2.0)
        cp = solve_average_reward(kernel, U, cfg).checkpoints[-1]
        h, eta = aroe_fixed_point_oracle(kernel, U, 2.0)
        assert cp.zeta == 2.0
        assert np.max(np.abs(h - cp.h)) <= 1e-6
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
        assert solve_average_reward(kernel, U, cfg, basepoint=1).checkpoints[-1].h[1] == 0.0

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

    @pytest.mark.parametrize("failure, message, nth", [
        ("singular", "singular", 5),
        ("non-finite", "non-finite optimality-equation residual", 100),
    ])
    def test_a_failure_names_its_grid_node_once(self, monkeypatch, failure, message, nth):
        # a singular LU and a non-finite residual each raise from the corrector
        # with the grid node they arose at, named once
        import klmdp.ode_engine as ode_engine

        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=0.5, step=0.01)
        clean = solve_average_reward(kernel, U, cfg, scenario.basepoint)
        # the nth factorization, or the nth tilt (one per correction, plus the last), fails
        if failure == "non-finite":
            module, name, per_node = ode_engine, "_tilt_values", clean.newton_steps + 1
        else:
            module, name, per_node = scipy.linalg, "lu_factor", clean.factorizations
        node = clean.grid[np.searchsorted(np.cumsum(per_node), nth)]
        assert node > clean.grid[1]
        original = getattr(module, name)
        calls = [0]

        def failing(*args, **kwargs):
            calls[0] += 1
            out = original(*args, **kwargs)
            if calls[0] == nth:
                if failure == "singular":
                    raise scipy.linalg.LinAlgWarning("exactly singular")
                if failure == "non-finite":
                    out = (*out[:-1], out[-1] + np.nan)  # the log-normalizer
            return out

        monkeypatch.setattr(module, name, failing)
        with pytest.raises(ConvergenceError, match=message) as info:
            solve_average_reward(kernel, U, cfg, scenario.basepoint)
        assert str(info.value).endswith(f" at zeta={node:g}")
        assert str(info.value).count("zeta=") == 1

    def test_a_failed_certificate_names_its_grid_node_once(self, monkeypatch):
        # the corrupted LU is chosen by its first right-hand side, not by its
        # place in the refactor schedule: the first LU factored past node 1
        # whose first right-hand side reaches 1e-3, so that an error of 1e-3 in
        # one entry of its factors leaves a residual far above POISSON_TOL
        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=0.5, step=0.01)
        lu_factor, lu_solve = scipy.linalg.lu_factor, scipy.linalg.lu_solve
        first_rhs = []  # the sup-norm of each factorization's first right-hand side

        def factor(*args, **kwargs):
            first_rhs.append(None)
            return lu_factor(*args, **kwargs)

        def solve(lu, b, **kwargs):
            if first_rhs[-1] is None:
                first_rhs[-1] = float(np.max(np.abs(b)))
            return lu_solve(lu, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", factor)
        monkeypatch.setattr(scipy.linalg, "lu_solve", solve)
        clean = solve_average_reward(kernel, U, cfg, scenario.basepoint)
        nodes = clean.grid[np.searchsorted(np.cumsum(clean.factorizations), np.arange(1, len(first_rhs) + 1))]
        nth = next(i for i, (z, b) in enumerate(zip(nodes, first_rhs), 1) if z > clean.grid[1] and b >= 1e-3)
        calls = [0]

        def corrupting(*args, **kwargs):
            calls[0] += 1
            out = lu_factor(*args, **kwargs)
            if calls[0] == nth:
                out[0][1, 1] += 1e-3  # one entry of the LU factors
            return out

        monkeypatch.setattr(scipy.linalg, "lu_factor", corrupting)
        monkeypatch.setattr(scipy.linalg, "lu_solve", lu_solve)
        with pytest.raises(ConvergenceError, match="Poisson residual") as info:
            solve_average_reward(kernel, U, cfg, scenario.basepoint)
        assert str(info.value).endswith(f" at zeta={nodes[nth - 1]:g}")
        assert str(info.value).count("zeta=") == 1

    def test_rules_normalized_only_where_used(self, monkeypatch):
        # Newton steps and factorizations need only the class exponent and the
        # row sums: the solve forms no rule, and each checkpoint's policy
        # derives one from h when it is asked for
        import klmdp.kl_calculus as kl_calculus
        import klmdp.ode_engine as ode_engine

        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        rng = np.random.default_rng(4)
        cases = [(*build_scenario_model(scenario), scenario.basepoint),
                 (random_factored_model(rng, 4, 3), random_utility(rng, 12), 0)]
        rules = [0]

        def counted(values, kernel):
            rules[0] += 1
            return tilted_rule(values, kernel)

        # in both modules, so a rule derived in the solve or in a checkpoint is counted
        for module in (ode_engine, kl_calculus):
            monkeypatch.setattr(module, "tilted_rule", counted)
        cfg = OdeConfig(zeta_max=0.5, step=0.01, checkpoints=(0.0, 0.25, 0.5))
        for kernel, U, basepoint in cases:
            rules[0] = 0
            path = solve_average_reward(kernel, U, cfg, basepoint)
            assert rules[0] == 0 and path.factorizations.sum() > 0
            for cp in path.checkpoints:
                cp.policy()
            assert rules[0] == len(path.checkpoints)

    def test_checkpoints_hold_values_not_rules(self):
        # the 15x15x5 stiff start (d = 1125, d_u = 225) with 3 checkpoints:
        # each checkpoint's rule is derived from h, so the path holds no rule
        scenario = UavScenario(d_a=15, d_o=15, d_N=5, wind=generate_wind_field(15, 15, 5, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=0.0002, step=0.0001, checkpoints=(0.0, 0.0001, 0.0002))
        tracemalloc.start()
        try:
            path = solve_average_reward(kernel, U, cfg, scenario.basepoint)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(path.checkpoints) == 3
        assert held < 8 * kernel.space.d * kernel.space.d_u
        for cp in path.checkpoints:
            rule = cp.policy().entries
            np.testing.assert_array_equal(rule, tilted_rule(cp.h, kernel).entries)
            assert rule.shape == (kernel.space.d, kernel.space.d_u)

    def test_chord_safeguard_matches_fixed_point_oracle(self):
        # the stiff start: the chord steps stall on the first nodes, which take
        # 6 and 3 LUs, refactored where a step does not cut the residual by
        # CHORD_RHO; no step is undone here (TestCorrector forces the undo)
        scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
        kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=0.05, step=0.01, checkpoints=(0.01, 0.02, 0.03, 0.04, 0.05))
        for cp in solve_average_reward(kernel, U, cfg, scenario.basepoint).checkpoints:
            h, eta = aroe_fixed_point_oracle(kernel, U, cp.zeta, scenario.basepoint, tol=1e-13)
            assert np.max(np.abs(h - cp.h)) <= 1e-10
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
            assert np.max(np.abs(h - cp.h)) <= 1e-10
            assert abs(eta - cp.eta) <= 1e-10

    def test_derivative_consistency(self, rng):
        # central difference of the path matches the vector field to O(step^2)
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        step = 0.02
        zetas = (0.5 - step, 0.5, 0.5 + step)
        cfg = OdeConfig(zeta_max=0.6, step=step, checkpoints=zetas)
        cps = solve_average_reward(kernel, U, cfg).checkpoints
        fd = (cps[2].h - cps[0].h) / (2 * step)
        vf, _ = ar_vector_field(cps[1].h, kernel, U, 0)
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
            assert cp.h[4] == 0.0
            H, _ = ar_vector_field(cp.h, kernel, U, 4)
            assert H[4] == 0.0

    def test_poisson_residual_at_checkpoints(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        cfg = OdeConfig(zeta_max=1.0, step=0.02, checkpoints=(0.5, 1.0))
        for cp in solve_average_reward(kernel, U, cfg).checkpoints:
            H, eta = ar_vector_field(cp.h, kernel, U, 0)
            residual = controlled_chain(cp) @ H - H + U - eta
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


class TestCorrector:
    """The corrector alone: Newton on the optimality equation with a kept LU,
    Anderson-mixed chord steps and the undo of a chord step that does not help."""

    @staticmethod
    def uav4():
        scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
        return (*build_scenario_model(scenario), scenario.basepoint)

    @pytest.mark.parametrize("pairs", [None, 4], ids=["random", "repeated-rows"])
    def test_converges_from_a_perturbed_converged_solution(self, pairs):
        rng = np.random.default_rng(17)
        for _ in range(5):
            kernel = random_factored_model(rng, 4, 3) if pairs is None else repeated_rows_model(rng, 4, 3, pairs)
            d, zeta = kernel.space.d, 1.0
            U = random_utility(rng, d)
            cp = solve_average_reward(kernel, U, OdeConfig(zeta_max=zeta, step=0.25)).checkpoints[-1]
            x = np.append(cp.h, cp.eta) + 0.1 * rng.standard_normal(d + 1)
            x[0] = 0.0  # the basepoint: a correction leaves h there as it is
            corrector = _Corrector(kernel, U, 0)
            y, res, first, steps, lus = corrector.solve(x, zeta, NEWTON_MAX_ITER)
            assert first > 1e-3 and 1 <= lus <= steps < NEWTON_MAX_ITER
            assert res <= NEWTON_TOL * (1 + np.max(np.abs(y[:d])) + zeta * np.max(np.abs(U)))
            assert np.max(np.abs(y[:d] - cp.h)) <= 1e-12 and abs(y[d] - cp.eta) <= 1e-12
            assert corrector.solve(y, zeta, NEWTON_MAX_ITER)[3:] == (0, 0)  # converged: only measured

    def test_a_chord_step_that_does_not_help_is_undone(self, monkeypatch):
        # the first chord step, one on a kept LU with an Anderson history, is
        # corrupted: the corrector returns to where it started, refactors
        # there and takes the full Newton step from it
        import klmdp.ode_engine as ode_engine

        kernel, U, x0 = self.uav4()
        d, zeta = kernel.space.d, 0.5
        clean = _Corrector(kernel, U, x0).solve(np.zeros(d + 1), zeta, NEWTON_MAX_ITER)
        anderson, factor = ode_engine._anderson_step, ode_engine.BorderedLU
        steps, factored, corrupted = [], [], []  # (start, history length) per step; s per LU

        def corrupting(history, x, f):
            step = anderson(history, x, f)
            steps.append((x, len(history)))
            if len(history) > 1 and not corrupted:  # the history was not cleared: a chord step
                corrupted.append((len(steps), len(factored)))
                step = step + 10.0
            return step

        def recording(workspace, e, s):
            factored.append(s)
            return factor(workspace, e, s)

        monkeypatch.setattr(ode_engine, "_anderson_step", corrupting)
        monkeypatch.setattr(ode_engine, "BorderedLU", recording)
        x, res, _, _, _ = _Corrector(kernel, U, x0).solve(np.zeros(d + 1), zeta, NEWTON_MAX_ITER)
        [(k, n)] = corrupted
        start = steps[k - 1][0]
        assert steps[k][0] is start and steps[k][1] == 1  # the next step: from the same start, on a new LU
        assert len(factored) > n
        np.testing.assert_array_equal(factored[n], _tilt_values(start[:d], ClassRows(kernel))[1])
        assert res <= NEWTON_TOL * (1 + np.max(np.abs(x[:d])) + zeta * np.max(np.abs(U)))
        assert np.max(np.abs(x - clean[0])) <= 1e-12

    def test_factorizations_share_one_buffer_and_one_live_lu(self, monkeypatch):
        # each LU is assembled in the corrector's one r x r buffer, and only
        # once the last LU is dropped
        import klmdp.ode_engine as ode_engine

        kernel, U, x0 = self.uav4()
        d, zeta = kernel.space.d, 0.5
        corrector = _Corrector(kernel, U, x0)
        factor, made = ode_engine.BorderedLU, []

        def recording(workspace, e, s):
            assert workspace is corrector.workspace and corrector.lu is None
            assert all(lu() is None for lu in made)
            lu = factor(workspace, e, s)
            made.append(weakref.ref(lu))
            assert np.shares_memory(lu._lu[0], workspace.buffer)
            return lu

        monkeypatch.setattr(ode_engine, "BorderedLU", recording)
        _, res, _, _, lus = corrector.solve(np.zeros(d + 1), zeta, NEWTON_MAX_ITER)
        assert lus == len(made) >= 2 and res <= 1e-12
        assert corrector.workspace.buffer.shape == (kernel.lumping[1].size,) * 2

    @pytest.mark.parametrize("solve", ["average-reward", "finite-horizon", "failed"])
    def test_no_class_rows_outlive_their_solve(self, monkeypatch, solve):
        # each solve makes one ClassRows and holds it only while it runs
        import klmdp.ode_engine as ode_engine

        kernel, U, x0 = self.uav4()
        cfg = OdeConfig(zeta_max=0.1, step=0.01, checkpoints=(0.05, 0.1))
        made = []

        class Recorded(ClassRows):
            def __init__(self, kernel):
                super().__init__(kernel)
                made.append(weakref.ref(self))

        monkeypatch.setattr(ode_engine, "ClassRows", Recorded)
        if solve == "finite-horizon":
            assert len(solve_finite_horizon(kernel, U, 3, cfg).checkpoints) == 2
        elif solve == "average-reward":
            assert len(solve_average_reward(kernel, U, cfg, x0).checkpoints) == 2
        else:
            lu_factor = scipy.linalg.lu_factor
            calls = [0]

            def failing(*args, **kwargs):  # the second LU is singular
                calls[0] += 1
                if calls[0] == 2:
                    raise scipy.linalg.LinAlgWarning("exactly singular")
                return lu_factor(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, "lu_factor", failing)
            try:
                solve_average_reward(kernel, U, cfg, x0)
            except ConvergenceError:
                pass
            else:
                pytest.fail("the singular LU did not fail the solve")
        assert len(made) == 1 and made[0]() is None

    def test_a_kernel_pickles_to_the_same_bytes_before_and_after_a_solve(self):
        # the solves leave nothing on the kernel: it is the model and its
        # lumping, which the first bordered LU would otherwise make
        kernel, U, x0 = self.uav4()
        kernel.lumping
        before = pickle.dumps(kernel)
        cfg = OdeConfig(zeta_max=0.1, step=0.01)
        solve_average_reward(kernel, U, cfg, x0)
        solve_finite_horizon(kernel, U, 3, cfg)
        assert pickle.dumps(kernel) == before


class TestAroeFixedPointOracle:
    def test_zero_weight(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        h, eta = aroe_fixed_point_oracle(kernel, random_utility(rng, 6), 0.0)
        np.testing.assert_allclose(h, 0.0, atol=1e-10)
        assert eta == pytest.approx(0.0, abs=1e-10)

    def test_constant_utility(self, rng):
        kernel = random_factored_model(rng, 2, 2)
        h, eta = aroe_fixed_point_oracle(kernel, np.full(4, 1.3), 0.6)
        np.testing.assert_allclose(h, 0.0, atol=1e-10)
        assert eta == pytest.approx(0.78, abs=1e-9)

    def test_agrees_with_ode_path(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        cfg = OdeConfig(zeta_max=0.7, step=0.005, checkpoints=(0.7,))
        cp = solve_average_reward(kernel, U, cfg).checkpoints[-1]
        h, eta = aroe_fixed_point_oracle(kernel, U, 0.7)
        assert np.max(np.abs(h - cp.h)) <= 1e-6
        assert abs(eta - cp.eta) <= 1e-6

    @pytest.mark.parametrize("basepoint", [6, -1])
    def test_basepoint_outside_the_states_rejected(self, rng, basepoint):
        kernel = random_factored_model(rng, 3, 2)
        U = random_utility(rng, 6)
        message = rf"^basepoint {basepoint} outside \[0, 6\)$"
        # no sweep or power iteration is allowed: the basepoint is checked before the first
        with pytest.raises(ValueError, match=message):
            aroe_fixed_point_oracle(kernel, U, 0.5, basepoint=basepoint, max_iter=0)
        with pytest.raises(ValueError, match=message):
            perron_frobenius_baseline(induced_transition(kernel), U, 0.5, x0=basepoint, max_iter=0)


@pytest.mark.parametrize("model", ["random", "uav-8x8x3"])
def test_solved_values_are_pinned_and_frozen(rng, model):
    # every checkpoint's h and every RVI h reads +0.0 at the basepoint and is read-only
    if model == "random":
        kernel, x0 = random_factored_model(rng, 3, 4), 5
        U = random_utility(rng, kernel.space.d)
    else:
        sc = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
        (kernel, U), x0 = build_scenario_model(sc), sc.basepoint
    cfg = OdeConfig(zeta_max=0.5, step=0.01, checkpoints=(0.0, 0.25, 0.5))
    cps = solve_average_reward(kernel, U, cfg, basepoint=x0).checkpoints
    solved = [cp.h for cp in cps] + [aroe_fixed_point_oracle(kernel, U, cp.zeta, x0)[0] for cp in cps]
    for h in solved:
        assert h[x0] == 0.0 and not np.signbit(h[x0])
        assert not h.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h[x0] = 1.0


def test_groups_are_found_only_by_the_average_reward_solve():
    # the finite-horizon recursion solves no linear system, so it never pays
    # for the kernel's groups; the first bordered LU finds them once
    scenario = UavScenario(d_a=4, d_o=4, d_N=2, wind=generate_wind_field(4, 4, 2, seed=0))
    kernel, U = build_scenario_model(scenario)
    cfg = OdeConfig(zeta_max=0.1, step=0.01, checkpoints=(0.1,))
    solve_finite_horizon(kernel, U, 3, cfg).checkpoints[-1].policy(0)
    assert "lumping" not in vars(kernel)
    solve_average_reward(kernel, U, cfg, scenario.basepoint)
    assert "lumping" in vars(kernel)


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
        for k in range(3):
            np.testing.assert_allclose(cp.policy(k).entries, kernel.R.entries, atol=1e-14)

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

    @pytest.mark.parametrize("model", ["random", "uav8"])
    def test_stage_policies_are_gibbs_maximizers(self, rng, model):
        if model == "random":
            kernel = random_factored_model(rng, 3, 2)
            U = random_utility(rng, 6)
        else:
            scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
            kernel, U = build_scenario_model(scenario)
        cfg = OdeConfig(zeta_max=2.0, step=0.01, checkpoints=(0.0, 1.0, 2.0))
        for cp in solve_finite_horizon(kernel, U, 6, cfg).checkpoints:
            assert_stage_policies_are_gibbs_maximizers(kernel, U, cp)
            with pytest.raises(IndexError):
                cp.policy(6)  # W[6] is the last stage's value; no decision follows it
            with pytest.raises(ValueError, match="read-only"):
                cp.W[0, 0] = 1.0

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


def assert_stage_policies_are_gibbs_maximizers(kernel, U, cp):
    """Each stage policy attains the Gibbs variational maximum that the recursion's next value holds.

    ``W[k+1] - zeta U = max_R sum_u R g_k - KL(R || R0)`` with ``g_k`` the
    conditional expectation of ``W[k]``, and the maximizer is the tilt.
    """
    tol = 1e-10 * (1.0 + np.max(np.abs(cp.W)))
    for k in range(cp.W.shape[0] - 1):
        rule = cp.policy(k)
        g = kernel.Q0.entries @ cp.W[k].reshape(kernel.space.d_u, kernel.space.d_n).T
        achieved = (rule.entries * g).sum(axis=1) - kl_step_cost(rule, kernel.R)
        assert np.max(np.abs(cp.W[k + 1] - cp.zeta * U - achieved)) <= tol


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(fh_cases())
def test_stage_policies_are_gibbs_maximizers_on_random_models(case):
    kernel, U, T, zeta = case
    cp = solve_finite_horizon(kernel, U, T, OdeConfig(zeta_max=zeta, step=1.0)).checkpoints[-1]
    assert_stage_policies_are_gibbs_maximizers(kernel, U, cp)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(fh_cases())
def test_finite_horizon_matches_block_ode_on_random_models(case):
    kernel, U, T, zeta = case
    cp = solve_finite_horizon(kernel, U, T, OdeConfig(zeta_max=zeta, step=1.0)).checkpoints[-1]
    oracle = fh_block_ode_oracle(kernel, U, T, cp.zeta, 0.02)
    assert np.max(np.abs(cp.W - oracle)) <= 1e-6


def dense_block_ode(kernel, U, T, zeta, step):
    """The block ODE integrated by RK4 on the oracle's grid, with a dense right-hand side.

    ``V_k = U + P_{k-1} V_{k-1}`` per state, with ``P_{k-1}`` the full chain
    of the normalized tilt of ``W[k-1]``, built by ``induced_transition``.
    """

    def rhs(W):
        V = np.empty_like(W)
        V[0] = U
        for k in range(1, T + 1):
            rule = tilted_rule(W[k - 1], kernel)
            V[k] = U + induced_transition(FactoredKernel(kernel.space, rule, kernel.Q0)).entries @ V[k - 1]
        return V

    W = np.zeros((T + 1, kernel.space.d))
    for dz in np.diff(_zeta_grid(OdeConfig(zeta_max=zeta, step=step))):
        k1 = rhs(W)
        k2 = rhs(W + 0.5 * dz * k1)
        k3 = rhs(W + 0.5 * dz * k2)
        k4 = rhs(W + dz * k3)
        W = W + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return W


def assert_block_ode_oracle_matches_dense(kernel, U, T, zeta, step):
    W = fh_block_ode_oracle(kernel, U, T, zeta, step)
    assert W.shape == (T + 1, kernel.space.d)
    reference = dense_block_ode(kernel, U, T, zeta, step)
    # the same ODE and grid: the two differ only in the rounding of their sums
    assert np.max(np.abs(W - reference)) <= 1e-12 * (1.0 + np.max(np.abs(reference)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(fh_cases())
def test_block_ode_oracle_matches_dense_rhs_on_random_models(case):
    kernel, U, T, zeta = case  # a random Q0: one row class per state
    assert_block_ode_oracle_matches_dense(kernel, U, T, zeta, 0.25)


def uav8_model():
    scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
    return scenario, *build_scenario_model(scenario)


class TestBlockOdeOracle:
    @pytest.mark.parametrize("T", [0, 1, 4])
    def test_matches_dense_rhs_with_one_exogenous_state(self, rng, T):
        kernel = random_factored_model(rng, 5, 1)
        assert_block_ode_oracle_matches_dense(kernel, random_utility(rng, 5), T, 1.5, 0.1)

    def test_matches_dense_rhs_on_uav8(self):
        _, kernel, U = uav8_model()
        assert kernel.class_Q0.shape[0] == 6
        assert_block_ode_oracle_matches_dense(kernel, U, 4, 0.5, 0.05)

    def test_peak_memory_is_one_copy_of_the_nominal_rule(self):
        # the default 15x15x5 scenario: d = 1125, d_u = 225
        scenario = UavScenario(d_a=15, d_o=15, d_N=5, wind=generate_wind_field(15, 15, 5, seed=0))
        kernel, U = build_scenario_model(scenario)
        rule_bytes = 8 * kernel.space.d * kernel.space.d_u
        tracemalloc.start()
        try:
            fh_block_ode_oracle(kernel, U, 4, 0.01, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one class-ordered copy of R0, and vectors of the stages
        assert peak < 1.5 * rule_bytes


def test_oracles_are_one_module_independent_by_import():
    from klmdp import chain_solvers, kl_calculus, ode_engine, oracles, uav_benchmark

    # klmdp.oracles imports numpy, the standard library (but not the modules
    # that import by name) and only these names of the package.  A
    # whole-module import (`from . import x`, `import klmdp.x`) would reach
    # the solvers' tilt or LU through an attribute.
    shared = {
        "errors": None,  # any of its names
        "state_space": {"FactoredKernel", "StochasticMatrix"},
        "ode_engine": {"OdeConfig", "_zeta_grid"},  # the weight grid
        "uav_benchmark": {"UavScenario", "build_wind_chain"},
    }
    outside = (sys.stdlib_module_names - {"importlib", "sys"}) | {"numpy"}

    def forbidden(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names if a.name.split(".")[0] not in outside]
        if node.level == 0:
            return [] if node.module.split(".")[0] in outside else [node.module]
        names = shared.get(node.module, set()) if node.level == 1 else set()
        return [f"{'.' * node.level}{node.module or ''} import {a.name}" for a in node.names
                if names is not None and a.name not in names]

    tree = ast.parse(inspect.getsource(oracles))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    assert [bad for node in imports for bad in forbidden(node)] == []
    # the kernel that the oracles may import feeds the solvers' class products:
    # no name, attribute or string of oracles.py may reach them
    used = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "ClassRows")
            or (isinstance(node, ast.Attribute) and node.attr == "products")
            or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.search(r"\bClassRows\b|\.products\b", node.value))]
    assert used == []
    # and no production module defines or re-exports an oracle
    names = ("_ClassBlocks", "aroe_fixed_point_oracle", "fh_block_ode_oracle", "perron_frobenius_baseline",
             "RolloutResult", "rollout_oracle", "kl_step_cost")
    assert all(callable(getattr(oracles, name)) for name in names)
    assert [(m.__name__, n) for m in (ode_engine, chain_solvers, uav_benchmark, kl_calculus)
            for n in names if hasattr(m, n)] == []


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
    assert np.max(np.abs(h - cp.h)) <= 1e-10
    assert abs(eta - cp.eta) <= 1e-10
