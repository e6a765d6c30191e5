import numpy as np
import pytest

from klmdp import (
    ConvergenceError,
    NotAperiodicError,
    NotUnichainError,
    StochasticMatrix,
    perron_frobenius_baseline,
    recurrent_class,
)

from klmdp.chain_solvers import BorderedLU

from conftest import balance_pmf, random_utility


def two_state(a=0.3, b=0.1):
    return StochasticMatrix(np.array([[1 - a, a], [b, 1 - b]]))


def bordered_pmf(P, x0):
    """Invariant pmf read off the bordered solve: ``eta`` for the utility
    ``1{x}`` is ``pi(x)``."""
    lu = BorderedLU(P, x0, P.__matmul__)
    return np.array([lu.solve(e)[1] for e in np.eye(P.shape[0])])


class TestInvariantPmf:
    def test_single_state(self):
        np.testing.assert_allclose(bordered_pmf(np.ones((1, 1)), 0), [1.0])

    def test_doubly_stochastic_uniform(self):
        d = 5
        delta = 0.05
        Q = np.zeros((d, d))
        for n in range(d):
            Q[n, n] = 1 - delta
            Q[n, (n + 1) % d] += delta / 2
            Q[n, (n - 1) % d] += delta / 2
        np.testing.assert_allclose(bordered_pmf(Q, 0), 0.2, atol=1e-12)

    def test_two_state_closed_form(self):
        np.testing.assert_allclose(bordered_pmf(two_state().entries, 1), [0.25, 0.75], atol=1e-12)

    def test_unichain_with_transient_states(self):
        # state 0 leaks into the absorbing pair {1, 2}
        P = np.array([
            [0.5, 0.25, 0.25],
            [0.0, 0.5, 0.5],
            [0.0, 0.4, 0.6],
        ])
        pi = bordered_pmf(P, 1)
        assert pi[0] == pytest.approx(0.0, abs=1e-12)
        assert pi.sum() == pytest.approx(1.0)

    def test_random_chains_with_transient_states_match_balance_equations(self, rng):
        for _ in range(5):
            P = rng.dirichlet(np.ones(7), size=7)
            P[:, rng.choice(np.arange(1, 7), size=3, replace=False)] = 0.0  # 3 transient states
            P /= P.sum(axis=1, keepdims=True)
            x0 = rng.choice(recurrent_class(P))
            pi = bordered_pmf(P, x0)
            assert np.max(np.abs(pi - balance_pmf(P))) <= 1e-12
            assert np.all(pi[P.sum(axis=0) == 0.0] == pytest.approx(0.0, abs=1e-12))


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

    def test_multiple_recurrent_classes_rejected(self):
        with pytest.raises(NotUnichainError):
            recurrent_class(StochasticMatrix(np.eye(2)))

    def test_periodic_rejected(self):
        P = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotAperiodicError):
            recurrent_class(P)


class TestBorderedLU:
    def test_constant_utility(self, rng):
        P = rng.dirichlet(np.ones(5), size=5)
        H, eta = BorderedLU(P, 2, P.__matmul__).solve(np.full(5, 3.0))
        np.testing.assert_allclose(H, 0.0, atol=1e-10)
        assert eta == pytest.approx(3.0)

    def test_zero_utility(self, rng):
        P = rng.dirichlet(np.ones(4), size=4)
        H, eta = BorderedLU(P, 0, P.__matmul__).solve(np.zeros(4))
        np.testing.assert_allclose(H, 0.0, atol=1e-12)
        assert eta == 0.0

    def test_non_finite_utility_fails_residual_check(self, rng):
        P = rng.dirichlet(np.ones(4), size=4)
        with pytest.raises(ConvergenceError, match="Poisson residual nan"):
            BorderedLU(P, 0, P.__matmul__).solve(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_singular_bordered_matrix_is_a_convergence_error(self):
        # two closed classes: the structure check that would catch them is not run
        P = np.eye(2)
        with pytest.raises(ConvergenceError, match="singular"):
            BorderedLU(P, 0, P.__matmul__)

    def test_kept_factorization_serves_later_right_hand_sides(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(6), size=6)).entries
        lu = BorderedLU(P, 2, P.__matmul__)
        lu.solve(np.zeros(6))  # the first solve is certified
        for _ in range(3):
            U = random_utility(rng, 6)
            H, eta = lu.solve(U)
            expected_H, expected_eta = BorderedLU(P, 2, P.__matmul__).solve(U)
            assert np.max(np.abs(H - expected_H)) <= 1e-13
            assert abs(eta - expected_eta) <= 1e-13

    def test_first_solve_on_a_factorization_is_certified(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(4), size=4)).entries
        wrong = rng.dirichlet(np.ones(4), size=4)  # certify against another chain
        with pytest.raises(ConvergenceError, match="Poisson residual"):
            BorderedLU(P, 0, wrong.__matmul__).solve(random_utility(rng, 4))

    def test_two_state_hand_check(self):
        A = two_state().entries
        U = np.array([1.0, 0.0])
        H, eta = BorderedLU(A, 1, A.__matmul__).solve(U)
        assert eta == pytest.approx(0.25)
        # brute-force series sum_n (P^n - 1 (x) pi) U
        pi = balance_pmf(A)
        acc = np.zeros(2)
        Pn = np.eye(2)
        for _ in range(5000):
            acc += Pn @ U - pi @ U
            Pn = Pn @ A
        acc -= acc[1]
        np.testing.assert_allclose(H, acc, atol=1e-8)

    def test_residual_identity(self, rng):
        for _ in range(3):
            P = rng.dirichlet(np.ones(8), size=8)
            U = random_utility(rng, 8)
            H, eta = BorderedLU(P, 3, P.__matmul__).solve(U)
            residual = P @ H - H + U - eta
            assert np.max(np.abs(residual)) <= 1e-8
            assert H[3] == 0.0
            assert abs(eta - balance_pmf(P) @ U) <= 1e-12

    def test_transient_states_with_a_recurrent_basepoint(self):
        # state 0 leaks into the absorbing pair {1, 2}
        P = np.array([
            [0.5, 0.25, 0.25],
            [0.0, 0.5, 0.5],
            [0.0, 0.4, 0.6],
        ])
        U = np.arange(3.0)
        H, eta = BorderedLU(P, 1, P.__matmul__).solve(U)
        assert np.max(np.abs(P @ H - H + U - eta)) <= 1e-8
        assert abs(eta - balance_pmf(P) @ U) <= 1e-12


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
