import numpy as np
import pytest

from klmdp import (
    AbsoluteContinuityError,
    FactoredKernel,
    ProductStateSpace,
    StochasticMatrix,
    ValueFunction,
    induced_transition,
    kl_step_cost,
)
from klmdp.kl_calculus import _normalize_rule, _tilt_values, conditional_expectation_values
from klmdp.uav_benchmark import UavScenario, build_scenario_model, generate_wind_field

from conftest import random_factored_model, random_utility


def simple_kernel():
    sp = ProductStateSpace(2, 2)
    R = StochasticMatrix(np.array([[0.5, 0.5]] * 4))
    Q0 = StochasticMatrix(np.array([[0.3, 0.7]] * 4))
    return FactoredKernel(sp, R, Q0)


class TestConditionalExpectation:
    def test_zero(self):
        kernel = simple_kernel()
        out = conditional_expectation_values(np.zeros(4), kernel)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_constant(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        out = conditional_expectation_values(np.full(6, 2.5), kernel)
        np.testing.assert_allclose(out, 2.5, atol=1e-14)

    def test_hand_value(self):
        kernel = simple_kernel()
        out = conditional_expectation_values(np.array([1.0, 2.0, 3.0, 4.0]), kernel)
        np.testing.assert_allclose(out[0], [0.3 * 1 + 0.7 * 2, 0.3 * 3 + 0.7 * 4])

    def test_rows_gathered_from_the_classes(self, rng):
        # one product over the class rows; each state gets its class's row
        scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
        kernel, _ = build_scenario_model(scenario)
        values = 10.0 * rng.standard_normal(kernel.space.d)
        by_class = conditional_expectation_values(values, kernel, by_class=True)
        assert by_class.shape == (6, kernel.space.d_u)
        out = conditional_expectation_values(values, kernel)
        np.testing.assert_array_equal(out, by_class[kernel.row_class])
        direct = kernel.Q0.entries @ values.reshape(kernel.space.d_u, kernel.space.d_n).T
        np.testing.assert_allclose(out, direct, rtol=1e-14, atol=1e-14)


def tiled_kernel(rng, d_u, d_n, distinct_rows):
    """Kernel whose ``Q0`` repeats ``distinct_rows`` rows and whose ``R0`` has zeros,
    so that states share a ``Q0`` row but not always a support."""
    d = d_u * d_n
    Q0 = rng.dirichlet(np.ones(d_n), size=distinct_rows)[rng.integers(0, distinct_rows, size=d)]
    R0 = rng.uniform(0.05, 1.0, size=(d, d_u)) * (rng.random((d, d_u)) < 0.6)
    R0[np.arange(d), rng.integers(0, d_u, size=d)] = rng.uniform(0.05, 1.0, size=d)
    return FactoredKernel(
        ProductStateSpace(d_u, d_n),
        StochasticMatrix(R0 / R0.sum(axis=1, keepdims=True)),
        StochasticMatrix(Q0),
    )


class TestRowClasses:
    """States that share their ``Q0`` row and their ``R0`` support form one class."""

    def check_classes(self, kernel):
        Q0, support = kernel.Q0.entries, kernel.support
        np.testing.assert_array_equal(kernel.class_Q0[kernel.row_class], Q0)
        np.testing.assert_array_equal(kernel.class_support[kernel.row_class], support)
        K = kernel.class_Q0.shape[0]
        # numbered in order of first appearance, and no two classes alike
        firsts = [int(np.flatnonzero(kernel.row_class == c)[0]) for c in range(K)]
        assert firsts == sorted(firsts)
        keys = {Q0[x].tobytes() + support[x].tobytes() for x in firsts}
        assert len(keys) == K
        for name in ("row_class", "class_Q0", "class_support"):
            assert not getattr(kernel, name).flags.writeable

    def test_uav_has_two_classes_per_wind_state(self):
        for d_a, d_o, d_N in ((8, 8, 3), (4, 4, 2)):
            scenario = UavScenario(d_a=d_a, d_o=d_o, d_N=d_N, wind=generate_wind_field(d_a, d_o, d_N, seed=0))
            kernel, _ = build_scenario_model(scenario)
            self.check_classes(kernel)
            # one class per wind state off the target, one per wind state on it
            assert kernel.class_Q0.shape[0] == 2 * d_N
            on_target = np.arange(kernel.space.d) // d_N == scenario.target_index
            assert set(kernel.row_class[on_target]).isdisjoint(kernel.row_class[~on_target])

    def test_dirichlet_q0_has_one_class_per_state(self, rng):
        kernel = random_factored_model(rng, 4, 3)
        self.check_classes(kernel)
        np.testing.assert_array_equal(kernel.row_class, np.arange(kernel.space.d))

    def test_shared_q0_rows_split_by_support(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            kernel = tiled_kernel(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            self.check_classes(kernel)


def unconstrained_kernel(R0):
    """``d_n = 1`` kernel: the tilt's conditional expectation is ``h`` itself."""
    R0 = np.asarray(R0, dtype=float)
    sp = ProductStateSpace(R0.shape[1], 1)
    rows = np.resize(R0, (sp.d, sp.d_u))
    return FactoredKernel(sp, StochasticMatrix(rows), StochasticMatrix(np.ones((sp.d, 1))))


class TestLogNormalizer:
    """The tilt's log-normalizer ``Lambda_h``, the per-state log moment generating
    function of ``h`` under ``R0``, read on ``d_n = 1`` kernels."""

    def test_zero(self):
        kernel = unconstrained_kernel([[0.5, 0.5]])
        _, lam = _tilt_values(np.zeros(2), kernel)
        np.testing.assert_allclose(lam, 0.0, atol=1e-15)

    def test_constant_rows(self, rng):
        kernel = random_factored_model(rng, 4, 1)
        _, lam = _tilt_values(np.full(4, -3.7), kernel)
        np.testing.assert_allclose(lam, -3.7, atol=1e-13)

    def test_hand_value(self):
        kernel = unconstrained_kernel([[0.5, 0.5]])
        _, lam = _tilt_values(np.array([0.0, np.log(3.0)]), kernel)
        np.testing.assert_allclose(lam, np.log(2.0))

    def test_overflow_safe(self):
        kernel = unconstrained_kernel([[0.5, 0.5]])
        _, lam = _tilt_values(np.array([1000.0, 2000.0]), kernel)
        np.testing.assert_allclose(lam, 2000.0 + np.log(0.5))

    def test_zero_support_ignored(self):
        kernel = unconstrained_kernel([[1.0, 0.0]])
        _, lam = _tilt_values(np.array([2.0, 1e9]), kernel)
        np.testing.assert_allclose(lam, 2.0)


class TestTilt:
    def test_identity_at_zero(self):
        kernel = simple_kernel()
        rule, lam = _tilt_values(np.zeros(4), kernel)
        np.testing.assert_allclose(rule, kernel.R.entries, atol=1e-15)
        np.testing.assert_allclose(lam, 0.0, atol=1e-15)

    def test_constant_shift_cancels(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        rule, _ = _tilt_values(np.full(6, 4.2), kernel)
        np.testing.assert_allclose(rule, kernel.R.entries, atol=1e-13)

    def test_hand_value(self):
        sp = ProductStateSpace(2, 1)
        R0 = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        Q0 = StochasticMatrix(np.ones((2, 1)))
        kernel = FactoredKernel(sp, R0, Q0)
        rule, lam = _tilt_values(np.array([0.0, np.log(3.0)]), kernel)
        np.testing.assert_allclose(rule[0], [0.25, 0.75])
        np.testing.assert_allclose(lam[0], np.log(2.0))

    def test_shift_invariance(self, rng):
        kernel = random_factored_model(rng, 4, 3)
        h = random_utility(rng, 12)
        rule_a, lam_a = _tilt_values(h, kernel)
        rule_b, lam_b = _tilt_values(h + 17.3, kernel)
        np.testing.assert_allclose(rule_a, rule_b, atol=1e-14)
        np.testing.assert_allclose(lam_b - lam_a, 17.3, atol=1e-12)

    def test_support_preserved(self):
        sp = ProductStateSpace(3, 1)
        R0 = StochasticMatrix(np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [1.0, 0.0, 0.0]]))
        Q0 = StochasticMatrix(np.ones((3, 1)))
        kernel = FactoredKernel(sp, R0, Q0)
        rule, _ = _tilt_values(np.array([5.0, -2.0, 9.0]), kernel)
        assert np.all(rule[R0.entries == 0] == 0.0)

    def test_legendre_duality_identity(self, rng):
        # KL cost of the tilted rule equals mean tilt minus log-normalizer
        for _ in range(10):
            kernel = random_factored_model(rng, 4, 3)
            h = 3.0 * random_utility(rng, 12)
            rule, lam = _tilt_values(h, kernel)
            g = conditional_expectation_values(h, kernel)
            kl = kl_step_cost(StochasticMatrix(rule), kernel.R)
            expected = (rule * g).sum(axis=1) - lam
            np.testing.assert_allclose(kl, expected, atol=1e-10)


def reference_tilt(values, kernel):
    """The tilt with masked copies and one exp over the whole array: the reference."""
    g = conditional_expectation_values(values, kernel)
    R0 = kernel.R.entries
    support = R0 > 0
    m = np.max(np.where(support, g, -np.inf), axis=1)
    t = R0 * np.exp(np.where(support, g - m[:, None], -np.inf))
    s = t.sum(axis=1)
    return t / s[:, None], np.log(s) + m


class TestTiltInPlace:
    """The production tilt works once per row class, in place on the class
    supports cached on the kernel, and matches the reference bit for bit."""

    def check(self, values, kernel):
        rule, lam = _tilt_values(values, kernel)
        ref_rule, ref_lam = reference_tilt(values, kernel)
        np.testing.assert_array_equal(rule, ref_rule)
        np.testing.assert_array_equal(lam, ref_lam)
        assert not np.any(np.signbit(rule))  # +0.0 off the support, never -0.0

    def test_random_models_with_zeros(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d_u, d_n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            d = d_u * d_n
            R0 = rng.uniform(0.05, 1.0, size=(d, d_u)) * (rng.random((d, d_u)) < 0.6)
            R0[np.arange(d), rng.integers(0, d_u, size=d)] = rng.uniform(0.05, 1.0, size=d)
            Q0 = rng.dirichlet(np.ones(d_n), size=d)
            kernel = FactoredKernel(
                ProductStateSpace(d_u, d_n),
                StochasticMatrix(R0 / R0.sum(axis=1, keepdims=True)),
                StochasticMatrix(Q0),
            )
            self.check(rng.choice([1.0, 30.0, 300.0]) * rng.standard_normal(d), kernel)

    def test_uav_model(self):
        scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
        kernel, U = build_scenario_model(scenario)
        assert not np.all(kernel.support)  # the absorbing target row
        for scale in (0.0, 1.0, 40.0):
            self.check(scale * U + np.linspace(-1.0, 1.0, kernel.space.d), kernel)

    def test_tiled_q0_rows_with_zeros_in_r0(self):
        # rows of one Q0 row but different supports fall in different classes
        rng = np.random.default_rng(11)
        shared, split = 0, 0
        for _ in range(200):
            d_u, d_n = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            kernel = tiled_kernel(rng, d_u, d_n, int(rng.integers(1, 3)))
            K = kernel.class_Q0.shape[0]
            shared += K < kernel.space.d
            split += len({q.tobytes() for q in kernel.class_Q0}) < K
            self.check(rng.choice([1.0, 30.0, 300.0]) * rng.standard_normal(kernel.space.d), kernel)
        assert shared > 100 and split > 100

    def test_unnormalized_weights_normalize_to_the_rule(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kernel = tiled_kernel(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)), 2)
            values = 30.0 * rng.standard_normal(kernel.space.d)
            rule, lam = _tilt_values(values, kernel)
            weights, lam_lazy = _tilt_values(values, kernel, normalize=False)
            np.testing.assert_array_equal(lam_lazy, lam)
            np.testing.assert_array_equal(_normalize_rule(weights), rule)


class TestOptimalRule:
    def test_flat_continuation(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        rule, _ = _tilt_values(np.zeros(6), kernel)
        np.testing.assert_allclose(rule, kernel.R.entries, atol=1e-14)

    def test_two_state_gibbs(self):
        sp = ProductStateSpace(2, 1)
        R0 = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        Q0 = StochasticMatrix(np.ones((2, 1)))
        kernel = FactoredKernel(sp, R0, Q0)
        rule, _ = _tilt_values(np.array([0.0, 1.0]), kernel)
        e = np.e
        np.testing.assert_allclose(rule[0], [1 / (1 + e), e / (1 + e)])

    def test_gibbs_variational_bound(self, rng):
        # no feasible rule beats the tilted one on reward plus continuation
        kernel = random_factored_model(rng, 3, 2)
        W = 2.0 * random_utility(rng, 6)
        g = conditional_expectation_values(W, kernel)
        best, lam = _tilt_values(W, kernel)
        best_value = (best * g).sum(axis=1) - kl_step_cost(StochasticMatrix(best), kernel.R)
        np.testing.assert_allclose(best_value, lam, atol=1e-12)
        for _ in range(100):
            R = StochasticMatrix(rng.dirichlet(np.ones(3), size=6))
            value = (R.entries * g).sum(axis=1) - kl_step_cost(R, kernel.R)
            assert np.all(value <= best_value + 1e-12)


class TestKlStepCost:
    def test_zero_at_nominal(self, rng):
        kernel = random_factored_model(rng, 4, 2)
        np.testing.assert_allclose(kl_step_cost(kernel.R, kernel.R), 0.0, atol=1e-15)

    def test_hand_values(self):
        R0 = StochasticMatrix(np.array([[0.5, 0.5], [0.25, 0.75]]))
        rule = StochasticMatrix(np.array([[1.0, 0.0], [0.75, 0.25]]))
        cost = kl_step_cost(rule, R0)
        np.testing.assert_allclose(cost[0], np.log(2.0))
        np.testing.assert_allclose(cost[1], 0.75 * np.log(3.0) + 0.25 * np.log(1.0 / 3.0))

    def test_nonnegative(self, rng):
        kernel = random_factored_model(rng, 5, 1)
        rule = StochasticMatrix(rng.dirichlet(np.ones(5), size=5))
        assert np.all(kl_step_cost(rule, kernel.R) >= 0.0)

    def test_absolute_continuity(self):
        R0 = StochasticMatrix(np.array([[1.0, 0.0]]))
        rule = StochasticMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(AbsoluteContinuityError):
            kl_step_cost(rule, R0)

    def test_r_form_equals_p_form(self, rng):
        # divergence over full transition rows reduces to the rule rows
        kernel = random_factored_model(rng, 3, 3)
        rule, _ = _tilt_values(random_utility(rng, 9), kernel)
        ruled = FactoredKernel(kernel.space, StochasticMatrix(rule), kernel.Q0)
        P = induced_transition(ruled).entries
        P0 = induced_transition(kernel).entries
        p_form = (P * np.log(P / P0)).sum(axis=1)
        np.testing.assert_allclose(p_form, kl_step_cost(StochasticMatrix(rule), kernel.R), atol=1e-12)
