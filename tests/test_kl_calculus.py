import numpy as np
import pytest

from klmdp import (
    AbsoluteContinuityError,
    FactoredKernel,
    ProductStateSpace,
    StochasticMatrix,
    kl_step_cost,
)
from klmdp.kl_calculus import _class_exponent, _tilt_values, conditional_expectation_values, tilted_rule
from klmdp.state_space import ClassRows
from klmdp.uav_benchmark import UavScenario, build_scenario_model, generate_wind_field

from conftest import induced_transition, random_factored_model, random_utility


def direct_conditional_expectation(values, kernel):
    """``g(x, x_u') = sum_n Q0(x, n) values(x_u', n)`` per state, in one product over all rows."""
    return kernel.Q0.entries @ values.reshape(kernel.space.d_u, kernel.space.d_n).T


def simple_kernel():
    sp = ProductStateSpace(2, 2)
    R = StochasticMatrix(np.array([[0.5, 0.5]] * 4))
    Q0 = StochasticMatrix(np.array([[0.3, 0.7]] * 4))
    return FactoredKernel(sp, R, Q0)


class TestConditionalExpectation:
    def test_zero(self):
        kernel = simple_kernel()
        out = conditional_expectation_values(np.zeros(4), kernel)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))  # the four states form one class

    def test_constant(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        out = conditional_expectation_values(np.full(6, 2.5), kernel)
        assert out.shape == (6, 3)  # a Dirichlet Q0: one class per state
        np.testing.assert_allclose(out, 2.5, atol=1e-14)

    def test_hand_value(self):
        kernel = simple_kernel()
        out = conditional_expectation_values(np.array([1.0, 2.0, 3.0, 4.0]), kernel)
        np.testing.assert_allclose(out[0], [0.3 * 1 + 0.7 * 2, 0.3 * 3 + 0.7 * 4])

    def test_rows_gathered_from_the_classes(self, rng):
        # one product over the class rows; gathered, each state gets its own row
        scenario = UavScenario(d_a=8, d_o=8, d_N=3, wind=generate_wind_field(8, 8, 3, seed=0))
        kernel, _ = build_scenario_model(scenario)
        values = 10.0 * rng.standard_normal(kernel.space.d)
        by_class = conditional_expectation_values(values, kernel)
        assert by_class.shape == (6, kernel.space.d_u)
        direct = direct_conditional_expectation(values, kernel)
        np.testing.assert_allclose(by_class[kernel.row_class], direct, rtol=1e-14, atol=1e-14)


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
        Q0, support = kernel.Q0.entries, kernel.R.entries > 0
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
        lam = _tilt_values(np.zeros(2), ClassRows(kernel))[2]
        np.testing.assert_allclose(lam, 0.0, atol=1e-15)

    def test_constant_rows(self, rng):
        kernel = random_factored_model(rng, 4, 1)
        lam = _tilt_values(np.full(4, -3.7), ClassRows(kernel))[2]
        np.testing.assert_allclose(lam, -3.7, atol=1e-13)

    def test_hand_value(self):
        kernel = unconstrained_kernel([[0.5, 0.5]])
        lam = _tilt_values(np.array([0.0, np.log(3.0)]), ClassRows(kernel))[2]
        np.testing.assert_allclose(lam, np.log(2.0))

    def test_overflow_safe(self):
        kernel = unconstrained_kernel([[0.5, 0.5]])
        lam = _tilt_values(np.array([1000.0, 2000.0]), ClassRows(kernel))[2]
        np.testing.assert_allclose(lam, 2000.0 + np.log(0.5))

    def test_zero_support_ignored(self):
        kernel = unconstrained_kernel([[1.0, 0.0]])
        lam = _tilt_values(np.array([2.0, 1e9]), ClassRows(kernel))[2]
        np.testing.assert_allclose(lam, 2.0)


class TestTilt:
    def test_identity_at_zero(self):
        kernel = simple_kernel()
        rule = tilted_rule(np.zeros(4), kernel).entries
        lam = _tilt_values(np.zeros(4), ClassRows(kernel))[2]
        np.testing.assert_allclose(rule, kernel.R.entries, atol=1e-15)
        np.testing.assert_allclose(lam, 0.0, atol=1e-15)

    def test_constant_shift_cancels(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        rule = tilted_rule(np.full(6, 4.2), kernel).entries
        np.testing.assert_allclose(rule, kernel.R.entries, atol=1e-13)

    def test_hand_value(self):
        sp = ProductStateSpace(2, 1)
        R0 = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        Q0 = StochasticMatrix(np.ones((2, 1)))
        kernel = FactoredKernel(sp, R0, Q0)
        rule = tilted_rule(np.array([0.0, np.log(3.0)]), kernel).entries
        lam = _tilt_values(np.array([0.0, np.log(3.0)]), ClassRows(kernel))[2]
        np.testing.assert_allclose(rule[0], [0.25, 0.75])
        np.testing.assert_allclose(lam[0], np.log(2.0))

    def test_shift_invariance(self, rng):
        kernel = random_factored_model(rng, 4, 3)
        h = random_utility(rng, 12)
        rule_a = tilted_rule(h, kernel).entries
        lam_a = _tilt_values(h, ClassRows(kernel))[2]
        rule_b = tilted_rule(h + 17.3, kernel).entries
        lam_b = _tilt_values(h + 17.3, ClassRows(kernel))[2]
        np.testing.assert_allclose(rule_a, rule_b, atol=1e-14)
        np.testing.assert_allclose(lam_b - lam_a, 17.3, atol=1e-12)

    def test_support_preserved(self):
        sp = ProductStateSpace(3, 1)
        R0 = StochasticMatrix(np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [1.0, 0.0, 0.0]]))
        Q0 = StochasticMatrix(np.ones((3, 1)))
        kernel = FactoredKernel(sp, R0, Q0)
        rule = tilted_rule(np.array([5.0, -2.0, 9.0]), kernel).entries
        assert np.all(rule[R0.entries == 0] == 0.0)

    def test_legendre_duality_identity(self, rng):
        # KL cost of the tilted rule equals mean tilt minus log-normalizer
        for _ in range(10):
            kernel = random_factored_model(rng, 4, 3)
            h = 3.0 * random_utility(rng, 12)
            rule = tilted_rule(h, kernel)
            lam = _tilt_values(h, ClassRows(kernel))[2]
            g = direct_conditional_expectation(h, kernel)
            kl = kl_step_cost(rule, kernel.R)
            expected = (rule.entries * g).sum(axis=1) - lam
            np.testing.assert_allclose(kl, expected, atol=1e-10)


def reference_tilt(values, kernel):
    """The tilt with masked copies and one exp over the whole array: the reference.

    Its ``g`` is one product over the class rows, gathered to the states:
    the product over all ``d`` rows rounds some entries differently, which
    a bit-for-bit comparison would report.  ``test_rows_gathered_from_the_classes``
    ties those rows to that direct product.
    """
    g = (kernel.class_Q0 @ values.reshape(kernel.space.d_u, kernel.space.d_n).T)[kernel.row_class]
    R0 = kernel.R.entries
    support = R0 > 0
    m = np.max(np.where(support, g, -np.inf), axis=1)
    t = R0 * np.exp(np.where(support, g - m[:, None], -np.inf))
    s = t.sum(axis=1)
    return t / s[:, None], np.log(s) + m


class TestTiltInPlace:
    """The production tilt works once per row class, on the class supports
    cached on the kernel.  Its rule matches the reference bit for bit; its
    log-normalizer, whose row sums are BLAS products over stacks of classes
    rather than numpy's pairwise row sums, matches within ``2 d_u eps (1 +
    |Lambda_h|)``: each sum of ``d_u`` nonnegative terms is within ``d_u eps``
    of the exact one, relatively, in either order."""

    def check(self, values, kernel):
        rule = tilted_rule(values, kernel).entries
        lam = _tilt_values(values, ClassRows(kernel))[2]
        ref_rule, ref_lam = reference_tilt(values, kernel)
        np.testing.assert_array_equal(rule, ref_rule)
        assert not np.any(np.signbit(rule))  # +0.0 off the support, never -0.0
        bound = 2 * kernel.space.d_u * np.finfo(float).eps * (1 + np.abs(ref_lam))
        assert np.all(np.abs(lam - ref_lam) <= bound)

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

    def test_dirichlet_q0_one_class_per_state(self):
        # one stack of d classes of one state each
        rng = np.random.default_rng(13)
        for d_u, d_n in ((7, 3), (20, 2), (3, 9)):
            kernel = random_factored_model(rng, d_u, d_n)
            assert kernel.class_Q0.shape[0] == kernel.space.d
            (stack,) = ClassRows(kernel).stacks
            assert stack[2].shape == (kernel.space.d, 1, d_u)
            for scale in (1.0, 30.0, 300.0):
                self.check(scale * rng.standard_normal(kernel.space.d), kernel)

    @pytest.mark.parametrize("d_a, d_N, classes, stacks", [(8, 3, 6, 2), (25, 5, 673, 17)], ids=["8x8x3", "25x25x5"])
    def test_uav_model(self, d_a, d_N, classes, stacks):
        # 25x25x5: the truncated Gaussian rows split the states into 673 classes of 17 sizes
        scenario = UavScenario(d_a=d_a, d_o=d_a, d_N=d_N, wind=generate_wind_field(d_a, d_a, d_N, seed=0))
        kernel, U = build_scenario_model(scenario)
        assert not np.all(kernel.R.entries > 0)  # the absorbing target row
        assert kernel.class_Q0.shape[0] == classes and len(ClassRows(kernel).stacks) == stacks
        for scale in (0.0, 1.0, 40.0):
            self.check(scale * U + np.linspace(-1.0, 1.0, kernel.space.d), kernel)
        # the values above peak at the target, where each class's exponent is then 1; these do not
        self.check(10.0 * np.random.default_rng(d_a).standard_normal(kernel.space.d), kernel)

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

    def test_row_sums_are_those_of_the_rule_before_normalizing(self):
        # the rule is R0 e over its own numpy row sums; Lambda_h takes BLAS row
        # sums of the same products, in class order, gathered back to the states
        rng = np.random.default_rng(5)
        for _ in range(50):
            kernel = tiled_kernel(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)), 2)
            values = 30.0 * rng.standard_normal(kernel.space.d)
            e, s, lam = _tilt_values(values, ClassRows(kernel))
            exponent, m = _class_exponent(values, kernel)
            np.testing.assert_array_equal(e, exponent)
            t = e[kernel.row_class] * kernel.R.entries
            np.testing.assert_array_equal(tilted_rule(values, kernel).entries, t / t.sum(axis=1)[:, None])
            assert np.all(np.abs(s - t.sum(axis=1)) <= 2 * kernel.space.d_u * np.finfo(float).eps * s)
            np.testing.assert_array_equal(lam, np.log(s) + m[kernel.row_class])


class TestOptimalRule:
    def test_flat_continuation(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        rule = tilted_rule(np.zeros(6), kernel).entries
        np.testing.assert_allclose(rule, kernel.R.entries, atol=1e-14)

    def test_two_state_gibbs(self):
        sp = ProductStateSpace(2, 1)
        R0 = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        Q0 = StochasticMatrix(np.ones((2, 1)))
        kernel = FactoredKernel(sp, R0, Q0)
        rule = tilted_rule(np.array([0.0, 1.0]), kernel).entries
        e = np.e
        np.testing.assert_allclose(rule[0], [1 / (1 + e), e / (1 + e)])

    def test_gibbs_variational_bound(self, rng):
        # no feasible rule beats the tilted one on reward plus continuation
        kernel = random_factored_model(rng, 3, 2)
        W = 2.0 * random_utility(rng, 6)
        g = direct_conditional_expectation(W, kernel)
        best = tilted_rule(W, kernel)
        lam = _tilt_values(W, ClassRows(kernel))[2]
        best_value = (best.entries * g).sum(axis=1) - kl_step_cost(best, kernel.R)
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
        rule = tilted_rule(random_utility(rng, 9), kernel)
        ruled = FactoredKernel(kernel.space, rule, kernel.Q0)
        P = induced_transition(ruled).entries
        P0 = induced_transition(kernel).entries
        p_form = (P * np.log(P / P0)).sum(axis=1)
        np.testing.assert_allclose(p_form, kl_step_cost(rule, kernel.R), atol=1e-12)
