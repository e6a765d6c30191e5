import numpy as np
import pytest

from klmdp import (
    ConvergenceError,
    NotAperiodicError,
    NotUnichainError,
    StochasticMatrix,
    induced_transition,
    invariant_pmf,
    perron_frobenius_baseline,
    poisson_solve,
    recurrent_class,
)

from klmdp.chain_solvers import BorderedLU

from conftest import random_factored_model, random_utility


def two_state(a=0.3, b=0.1):
    return StochasticMatrix(np.array([[1 - a, a], [b, 1 - b]]))


class TestInvariantPmf:
    def test_single_state(self):
        np.testing.assert_allclose(invariant_pmf(StochasticMatrix(np.ones((1, 1)))), [1.0])

    def test_doubly_stochastic_uniform(self):
        d = 5
        delta = 0.05
        Q = np.zeros((d, d))
        for n in range(d):
            Q[n, n] = 1 - delta
            Q[n, (n + 1) % d] += delta / 2
            Q[n, (n - 1) % d] += delta / 2
        pi = invariant_pmf(StochasticMatrix(Q))
        np.testing.assert_allclose(pi, 0.2, atol=1e-12)

    def test_two_state_closed_form(self):
        pi = invariant_pmf(two_state())
        np.testing.assert_allclose(pi, [0.25, 0.75], atol=1e-12)

    def test_multiple_recurrent_classes_rejected(self):
        with pytest.raises(NotUnichainError):
            invariant_pmf(StochasticMatrix(np.eye(2)))

    def test_periodic_rejected(self):
        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotAperiodicError):
            invariant_pmf(P)

    def test_unichain_with_transient_states(self):
        # state 0 leaks into the absorbing pair {1, 2}
        P = StochasticMatrix(np.array([
            [0.5, 0.25, 0.25],
            [0.0, 0.5, 0.5],
            [0.0, 0.4, 0.6],
        ]))
        pi = invariant_pmf(P)
        assert pi[0] == pytest.approx(0.0, abs=1e-12)
        assert pi.sum() == pytest.approx(1.0)


class TestRecurrentClass:
    def test_members(self):
        P = np.array([
            [0.5, 0.25, 0.25],
            [0.0, 0.5, 0.5],
            [0.0, 0.4, 0.6],
        ])
        np.testing.assert_array_equal(recurrent_class(P), [1, 2])

    def test_aperiodic_without_self_loops(self):
        # two cycle lengths 2 and 3 sharing states: gcd 1, no self loop
        P = np.array([
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
            [1.0, 0.0, 0.0],
        ])
        np.testing.assert_array_equal(recurrent_class(P), [0, 1, 2])


class TestPoissonSolve:
    def test_constant_utility(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(5), size=5))
        out = poisson_solve(P, np.full(5, 3.0), x0=2)
        np.testing.assert_allclose(out.poisson_solution, 0.0, atol=1e-10)
        assert out.mean_reward == pytest.approx(3.0)

    def test_zero_utility(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(4), size=4))
        out = poisson_solve(P, np.zeros(4), x0=0)
        np.testing.assert_allclose(out.poisson_solution, 0.0, atol=1e-12)
        assert out.mean_reward == 0.0

    def test_non_finite_utility_fails_residual_check(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(4), size=4))
        with pytest.raises(ConvergenceError, match="Poisson residual nan"):
            poisson_solve(P, np.array([np.nan, 0.0, 0.0, 0.0]), x0=0)

    def test_multiple_right_hand_sides_match_single_solves(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(6), size=6))
        U = rng.uniform(-1.0, 1.0, size=(6, 2))
        out = poisson_solve(P, U, x0=2)
        assert out.poisson_solution.shape == (6, 2) and out.mean_reward.shape == (2,)
        for k in range(2):
            single = poisson_solve(P, U[:, k], x0=2)
            assert np.max(np.abs(out.poisson_solution[:, k] - single.poisson_solution)) <= 1e-13
            assert abs(out.mean_reward[k] - single.mean_reward) <= 1e-13

    def test_non_finite_column_fails_residual_check(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(4), size=4))
        U = np.zeros((4, 2))
        U[1, 1] = np.nan
        with pytest.raises(ConvergenceError, match="Poisson residual nan"):
            poisson_solve(P, U, x0=0)

    @pytest.mark.parametrize("shape", [(3,), (5,), (3, 2), (5, 2), (4, 2, 1)])
    def test_wrong_utility_shape_rejected(self, rng, shape):
        P = StochasticMatrix(rng.dirichlet(np.ones(4), size=4))
        with pytest.raises(ValueError, match="utility has shape"):
            poisson_solve(P, np.zeros(shape), x0=0)

    def test_singular_bordered_matrix_is_a_convergence_error(self):
        # two closed classes, with the structure check skipped as the integrator does
        with pytest.raises(ConvergenceError, match="singular"):
            poisson_solve(np.eye(2), np.array([1.0, 0.0]), x0=0, check_structure=False)

    def test_kept_factorization_serves_later_right_hand_sides(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(6), size=6)).entries
        lu = BorderedLU(P, 2, P.__matmul__)
        lu.solve(np.zeros(6))  # the first solve is certified
        for _ in range(3):
            U = random_utility(rng, 6)
            H, eta = lu.solve(U)
            expected = poisson_solve(P, U, x0=2)
            assert np.max(np.abs(H - expected.poisson_solution)) <= 1e-13
            assert abs(eta - expected.mean_reward) <= 1e-13

    def test_first_solve_on_a_factorization_is_certified(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(4), size=4)).entries
        wrong = rng.dirichlet(np.ones(4), size=4)  # certify against another chain
        with pytest.raises(ConvergenceError, match="Poisson residual"):
            BorderedLU(P, 0, wrong.__matmul__).solve(random_utility(rng, 4))

    def test_two_state_hand_check(self):
        P = two_state()
        U = np.array([1.0, 0.0])
        out = poisson_solve(P, U, x0=1)
        assert out.mean_reward == pytest.approx(0.25)
        # brute-force series sum_n (P^n - 1 (x) pi) U
        A = P.entries
        pi = invariant_pmf(P)
        acc = np.zeros(2)
        Pn = np.eye(2)
        for _ in range(5000):
            acc += Pn @ U - pi @ U
            Pn = Pn @ A
        acc -= acc[1]
        np.testing.assert_allclose(out.poisson_solution, acc, atol=1e-8)

    def test_residual_identity(self, rng):
        for _ in range(3):
            P = StochasticMatrix(rng.dirichlet(np.ones(8), size=8))
            U = random_utility(rng, 8)
            for chain in (P, P.entries):  # a raw array is accepted too
                out = poisson_solve(chain, U, x0=3)
                H = out.poisson_solution
                residual = P.entries @ H - H + U - out.mean_reward
                assert np.max(np.abs(residual)) <= 1e-8
                assert H[3] == 0.0
                assert abs(out.mean_reward - invariant_pmf(P) @ U) <= 1e-12

    def test_transient_basepoint_rejected(self):
        P = StochasticMatrix(np.array([
            [0.5, 0.25, 0.25],
            [0.0, 0.5, 0.5],
            [0.0, 0.4, 0.6],
        ]))
        U = np.arange(3.0)
        with pytest.raises(ValueError, match="transient"):
            poisson_solve(P, U, x0=0)
        out = poisson_solve(P, U, x0=1)
        H = out.poisson_solution
        assert np.max(np.abs(P.entries @ H - H + U - out.mean_reward)) <= 1e-8
        assert abs(out.mean_reward - invariant_pmf(P) @ U) <= 1e-12


class TestPerronFrobeniusBaseline:
    def test_zeta_zero(self, rng):
        P0 = StochasticMatrix(rng.dirichlet(np.ones(4), size=4))
        pf, twisted = perron_frobenius_baseline(P0, random_utility(rng, 4), 0.0, x0=0)
        assert pf.lam == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pf.v, 1.0, atol=1e-10)
        np.testing.assert_allclose(twisted.entries, P0.entries, atol=1e-10)

    def test_constant_utility(self, rng):
        P0 = StochasticMatrix(rng.dirichlet(np.ones(3), size=3))
        pf, twisted = perron_frobenius_baseline(P0, np.full(3, 2.0), 1.5, x0=0)
        assert pf.lam == pytest.approx(np.exp(3.0), rel=1e-10)
        np.testing.assert_allclose(twisted.entries, P0.entries, atol=1e-10)

    def test_two_state_closed_form(self):
        P0 = StochasticMatrix(np.full((2, 2), 0.5))
        pf, twisted = perron_frobenius_baseline(P0, np.array([0.0, 1.0]), 1.0, x0=0)
        e = np.e
        assert pf.lam == pytest.approx((1 + e) / 2, rel=1e-12)
        np.testing.assert_allclose(twisted.entries, [[1 / (1 + e), e / (1 + e)]] * 2, atol=1e-12)

    def test_eigen_identity_and_rows(self, rng):
        P0 = StochasticMatrix(rng.dirichlet(np.ones(7), size=7))
        U = random_utility(rng, 7)
        pf, twisted = perron_frobenius_baseline(P0, U, 0.8, x0=2)
        W = np.exp(0.8 * U)[:, None] * P0.entries
        np.testing.assert_allclose(W @ pf.v, pf.lam * pf.v, atol=1e-10 * pf.lam)
        assert pf.v[2] == pytest.approx(1.0)
        assert np.all(pf.v > 0)
        np.testing.assert_allclose(twisted.entries.sum(axis=1), 1.0, atol=1e-10)
