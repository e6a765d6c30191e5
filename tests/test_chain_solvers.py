import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from klmdp import (
    ConvergenceError,
    FactoredKernel,
    NotAperiodicError,
    NotUnichainError,
    ProductStateSpace,
    StochasticMatrix,
    perron_frobenius_baseline,
    recurrent_class,
)

from klmdp.chain_solvers import FLUSH_BELOW, POISSON_TOL, BorderedLU, BorderedWorkspace
from klmdp.kl_calculus import _tilt_values, tilted_rule
from klmdp.state_space import ClassRows
from klmdp.uav_benchmark import UavScenario, build_scenario_model, generate_wind_field

from conftest import (
    balance_pmf,
    bordered_lu,
    dense_bordered_lu,
    dense_chain_kernel,
    induced_transition,
    random_factored_model,
    random_utility,
    repeated_rows_model,
)


def two_state(a=0.3, b=0.1):
    return StochasticMatrix(np.array([[1 - a, a], [b, 1 - b]]))


def bordered_pmf(P, x0):
    """Invariant pmf read off the bordered solve: ``eta`` for the utility
    ``1{x}`` is ``pi(x)``."""
    lu = dense_bordered_lu(P, x0)
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
            x0 = rng.choice(recurrent_class(dense_chain_kernel(P)))
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
        np.testing.assert_array_equal(recurrent_class(dense_chain_kernel(P)), [1, 2])

    def test_aperiodic_without_self_loops(self):
        # two cycle lengths 2 and 3 sharing states: gcd 1, no self loop
        P = np.array([
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
            [1.0, 0.0, 0.0],
        ])
        np.testing.assert_array_equal(recurrent_class(dense_chain_kernel(P)), [0, 1, 2])

    def test_multiple_recurrent_classes_rejected(self):
        with pytest.raises(NotUnichainError):
            recurrent_class(dense_chain_kernel(np.eye(2)))

    def test_periodic_rejected(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotAperiodicError):
            recurrent_class(dense_chain_kernel(P))

    def test_period_two_without_two_cycles_rejected(self):
        # cycles of lengths 4 and 6 through state 0, and a transient entry state 7
        P = np.zeros((8, 8))
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 0), (7, 0)):
            P[a, b] = 1.0
        P /= P.sum(axis=1, keepdims=True)
        with pytest.raises(NotAperiodicError):
            recurrent_class(dense_chain_kernel(P))

    def test_row_class_with_recurrent_and_transient_states(self):
        # states 0 and 2 share their R row into {0, 1}, so they are one row
        # class; 1 goes to 0, and nothing enters 2
        R = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        kernel = dense_chain_kernel(R)
        np.testing.assert_array_equal(kernel.row_class, [0, 1, 0])
        np.testing.assert_array_equal(recurrent_class(kernel), [0, 1])

    def test_factored_matches_dense_reference(self, rng):
        outcomes = {"members": 0, NotUnichainError: 0, NotAperiodicError: 0}
        for _ in range(300):
            d_u, d_n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            kernel = sparse_factored_model(rng, d_u, d_n, keep=rng.choice([0.0, 0.3, 0.6]))
            expected = dense_recurrent_class(induced_transition(kernel).entries)
            try:
                got = recurrent_class(kernel)
            except (NotUnichainError, NotAperiodicError) as exc:
                assert type(exc) is expected
                outcomes[expected] += 1
            else:
                np.testing.assert_array_equal(got, expected)
                outcomes["members"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_shared_q0_rows_match_dense_reference(self, rng):
        # states share one of a few Q0 rows, so a row class holds several
        # states, and their sparse R0 rows split those that share a Q0 row
        grouped = 0
        for _ in range(200):
            d_u, d_n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            kernel = sparse_factored_model(rng, d_u, d_n, keep=rng.choice([0.3, 0.6]))
            Q0 = kernel.Q0.entries[rng.integers(0, 2, size=kernel.space.d)]
            kernel = FactoredKernel(kernel.space, kernel.R, StochasticMatrix(Q0))
            grouped += kernel.class_Q0.shape[0] < kernel.space.d
            expected = dense_recurrent_class(induced_transition(kernel).entries)
            try:
                got = recurrent_class(kernel)
            except (NotUnichainError, NotAperiodicError) as exc:
                assert type(exc) is expected
            else:
                np.testing.assert_array_equal(got, expected)
        assert grouped >= 100

    @pytest.mark.parametrize("d_a, d_o, d_N", [(4, 4, 2), (5, 5, 2)])
    def test_uav_kernel_matches_dense_reference(self, d_a, d_o, d_N):
        scenario = UavScenario(d_a=d_a, d_o=d_o, d_N=d_N, wind=generate_wind_field(d_a, d_o, d_N, seed=0))
        kernel, _ = build_scenario_model(scenario)
        assert kernel.class_Q0.shape[0] < kernel.space.d
        expected = dense_recurrent_class(induced_transition(kernel).entries)
        np.testing.assert_array_equal(recurrent_class(kernel), expected)


def sparse_factored_model(rng, d_u, d_n, keep):
    """The random model of the conftest with each factor entry kept with
    probability ``keep`` (one per row at least) and the rows renormalized:
    ``keep = 0`` gives a deterministic chain."""
    kernel = random_factored_model(rng, d_u, d_n)
    factors = []
    for F in (kernel.R.entries.copy(), kernel.Q0.entries.copy()):
        mask = rng.random(F.shape) < keep
        mask[np.arange(F.shape[0]), rng.integers(F.shape[1], size=F.shape[0])] = True
        F *= mask
        factors.append(StochasticMatrix(F / F.sum(axis=1, keepdims=True)))
    return FactoredKernel(kernel.space, *factors)


def dense_recurrent_class(P):
    """Members of the single closed class of a dense chain, or the error type
    for none or several closed classes and for a periodic one.  Aperiodicity
    is primitivity of the class: by Wielandt's bound, a power ``(m-1)^2 + 1``
    of its ``m x m`` support is positive."""
    support = P > 0
    n_comp, labels = connected_components(sp.csr_matrix(support), directed=True, connection="strong")
    closed = [c for c in range(n_comp) if not support[labels == c][:, labels != c].any()]
    if len(closed) != 1:
        return NotUnichainError
    members = np.flatnonzero(labels == closed[0])
    A = support[np.ix_(members, members)].astype(int)
    power = A
    for _ in range((members.size - 1) ** 2):
        power = np.minimum(power @ A, 1)
    return members if power.all() else NotAperiodicError


class TestBorderedLU:
    def test_factors_match_dense_bordered_solve(self, rng):
        for d_u, d_n in ((3, 1), (3, 2), (4, 3)):
            kernel = random_factored_model(rng, d_u, d_n)
            P = induced_transition(kernel).entries
            d = P.shape[0]
            x0 = int(rng.integers(d))
            U = random_utility(rng, d)
            H, eta = bordered_lu(kernel, np.zeros(d), x0).solve(U)
            M = np.eye(d) - P
            M[:, x0] = 1.0
            y = scipy.linalg.solve(M, U)
            assert abs(eta - y[x0]) <= 1e-13
            y[x0] = 0.0
            assert np.max(np.abs(H - y)) <= 1e-13

    def test_tiny_entries_flushed_before_factoring_only(self, rng):
        # the factors drop the entries below FLUSH_BELOW; the certified solve
        # still matches the dense solve of the exact bordered matrix
        P = rng.dirichlet(np.ones(6), size=6)
        P[rng.random((6, 6)) < 0.3] = 1e-300  # subnormal in the products below
        P /= P.sum(axis=1, keepdims=True)
        Q0 = rng.dirichlet(np.ones(2), size=12)
        R = np.repeat(P, 2, axis=0)
        kernel = FactoredKernel(ProductStateSpace(6, 2), StochasticMatrix(R), StochasticMatrix(Q0))
        Pd = induced_transition(kernel).entries
        assert 0 < np.min(Pd[Pd > 0]) < FLUSH_BELOW
        U = random_utility(rng, 12)
        H, eta = bordered_lu(kernel, np.zeros(12), 5).solve(U)
        M = np.eye(12) - Pd
        M[:, 5] = 1.0
        y = scipy.linalg.solve(M, U)
        assert abs(eta - y[5]) <= 1e-13
        y[5] = 0.0
        assert np.max(np.abs(H - y)) <= 1e-13

    def test_constant_utility(self, rng):
        P = rng.dirichlet(np.ones(5), size=5)
        H, eta = dense_bordered_lu(P, 2).solve(np.full(5, 3.0))
        np.testing.assert_allclose(H, 0.0, atol=1e-10)
        assert eta == pytest.approx(3.0)

    def test_zero_utility(self, rng):
        P = rng.dirichlet(np.ones(4), size=4)
        H, eta = dense_bordered_lu(P, 0).solve(np.zeros(4))
        np.testing.assert_allclose(H, 0.0, atol=1e-12)
        assert eta == 0.0

    def test_non_finite_utility_fails_residual_check(self, rng):
        P = rng.dirichlet(np.ones(4), size=4)
        with pytest.raises(ConvergenceError, match="Poisson residual nan"):
            dense_bordered_lu(P, 0).solve(np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_singular_bordered_matrix_is_a_convergence_error(self):
        # two closed classes: the structure check that would catch them is not run
        P = np.eye(2)
        with pytest.raises(ConvergenceError, match="singular"):
            dense_bordered_lu(P, 0)

    def test_kept_factorization_serves_later_right_hand_sides(self, rng):
        P = StochasticMatrix(rng.dirichlet(np.ones(6), size=6)).entries
        lu = dense_bordered_lu(P, 2)
        lu.solve(np.zeros(6))  # the first solve is certified
        for _ in range(3):
            U = random_utility(rng, 6)
            H, eta = lu.solve(U)
            expected_H, expected_eta = dense_bordered_lu(P, 2).solve(U)
            assert np.max(np.abs(H - expected_H)) <= 1e-13
            assert abs(eta - expected_eta) <= 1e-13

    def test_first_solve_on_a_factorization_is_certified(self, rng):
        # the certificate recomputes P y from the factors the LU was built
        # from, so an LU that no longer factors that matrix fails it
        P = StochasticMatrix(rng.dirichlet(np.ones(4), size=4)).entries
        lu = dense_bordered_lu(P, 0)
        lu._lu[0][2, 1] += 1e-3  # one entry of the kept LU factors
        with pytest.raises(ConvergenceError, match="Poisson residual"):
            lu.solve(random_utility(rng, 4))

    def test_two_state_hand_check(self):
        A = two_state().entries
        U = np.array([1.0, 0.0])
        H, eta = dense_bordered_lu(A, 1).solve(U)
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
            H, eta = dense_bordered_lu(P, 3).solve(U)
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
        H, eta = dense_bordered_lu(P, 1).solve(U)
        assert np.max(np.abs(P @ H - H + U - eta)) <= 1e-8
        assert abs(eta - balance_pmf(P) @ U) <= 1e-12


@st.composite
def lumped_cases(draw, repeated):
    """A random strictly positive kernel, with ``(R0, Q0)`` row pairs repeated
    (fewer groups than states) or Dirichlet (one group per state), a random
    ``h`` to tilt it by, a right-hand side and a basepoint: the last state of
    a random group, so that with repeated rows it is rarely its group's first."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_u, d_n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    if repeated:
        kernel = repeated_rows_model(rng, d_u, d_n, pairs=int(rng.integers(1, d_u * d_n)))
    else:
        kernel = random_factored_model(rng, d_u, d_n)
    group = kernel.lumping[0]
    x0 = int(np.flatnonzero(group == rng.integers(group.max() + 1))[-1])
    d = kernel.space.d
    return kernel, rng.uniform(-3.0, 3.0, size=d), random_utility(rng, d), x0


class TestLumpedBorderedLU:
    """The bordered LU solves on the kernel's groups of equal ``(R0, Q0)`` row
    pairs, and the certificate of its first solve checks the full system."""

    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated-rows", "dirichlet"])
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_dense_bordered_solve(self, repeated, data):
        kernel, h, rhs, x0 = data.draw(lumped_cases(repeated))
        rule = tilted_rule(h, kernel).entries
        d = kernel.space.d
        assert (kernel.lumping[1].size < d) == repeated
        H, eta = bordered_lu(kernel, h, x0).solve(rhs)
        M = np.eye(d) - np.einsum("xu,xn->xun", rule, kernel.Q0.entries).reshape(d, d)
        M[:, x0] = 1.0
        y = np.linalg.solve(M, rhs)
        assert abs(eta - y[x0]) <= 1e-12
        y[x0] = 0.0
        assert H[x0] == 0.0 and np.max(np.abs(H - y)) <= 1e-12

    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated-rows", "dirichlet"])
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tilted_rows_are_bit_identical_within_a_group(self, repeated, data):
        kernel, h, _, _ = data.draw(lumped_cases(repeated))
        group, reps, _ = kernel.lumping
        rule = tilted_rule(h, kernel).entries
        np.testing.assert_array_equal(rule.view(np.int64), rule[reps[group]].view(np.int64))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_rule_that_splits_a_group_fails_the_certificate(self, data):
        # the factorization reads the tilt only at the group representatives;
        # a row sum changed at one other state leaves it as it was, and the
        # certificate, on the full H, sees the changed row
        kernel, h, rhs, x0 = data.draw(lumped_cases(repeated=True))
        group, reps, layers = kernel.lumping
        rows = ClassRows(kernel)
        e, s, _ = _tilt_values(h, rows)
        y = int(layers[0][0][-1])  # a state that is not its group's first: its row is not factored
        split = s.copy()
        split[y] *= 2.0
        # one workspace each: an LU is factored in its workspace's buffer
        clean, lu = (BorderedLU(BorderedWorkspace(rows, x0), e, t) for t in (s, split))
        for a, b in zip((*clean._lu, clean._block), (*lu._lu, lu._block)):
            np.testing.assert_array_equal(a, b)  # the same factorization
        H, eta = clean.solve(rhs)
        assert abs(H[y] - rhs[y] + eta) > 2 * POISSON_TOL  # P H(y), which the split row halves
        with pytest.raises(ConvergenceError, match="Poisson residual"):
            lu.solve(rhs)


def per_call_bordered_factors(kernel, e, s, x0):
    """``(lu, piv, kept)`` of the bordered LU as it was built in a fresh matrix per call: ``C S`` summed
    from ``R0[reps, cols]`` four rule columns at a time, then negated and flushed in a second pass,
    the unit diagonal and the border written last."""
    group, reps, layers = kernel.lumping
    (r,), (d_u, d_n) = reps.shape, (kernel.space.d_u, kernel.space.d_n)
    R0, at_reps, s_reps = kernel.R.entries, kernel.row_class[reps], s[reps, None]
    pinned = reps.copy()
    pinned[group[x0]] = x0
    others = np.setdiff1d(np.arange(group.size), pinned)
    M, kept = np.empty((r, r), order="F"), np.empty((r, others.size), order="F")
    Q0t = np.ascontiguousarray(kernel.Q0.entries[reps].T)
    step = max(4, 2**14 // (d_n * r))
    for u in range(0, d_u, step):
        y0, y1 = u * d_n, min(u + step, d_u) * d_n
        rule = R0[reps, u : u + step] * e[at_reps, u : u + step] / s_reps
        Ct = (rule.T[:, None, :] * Q0t).reshape(-1, r)
        a, b = np.searchsorted(reps, (y0, y1))
        M.T[a:b] = Ct[reps[a:b] - y0]
        for states, groups in layers:
            a, b = np.searchsorted(states, (y0, y1))
            M.T[groups[a:b]] += Ct[states[a:b] - y0]
        a, b = np.searchsorted(others, (y0, y1))
        kept.T[a:b] = Ct[others[a:b] - y0]
    width = max(1, 2**16 // r)
    for j in range(0, r, width):
        block = M[:, j : j + width]
        np.negative(block, out=block)
        block[block > -FLUSH_BELOW] = 0.0
    M.flat[:: r + 1] += 1.0
    M[:, group[x0]] = 1.0
    lu, piv = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
    return lu, piv, kept


def assert_same_factors(lu, expected):
    """The LU, pivots and kept block of a ``BorderedLU`` equal ``expected`` bit for bit."""
    (factors, piv), block = lu._lu, lu._block
    for a, b in ((factors, expected[0]), (block, expected[2])):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    np.testing.assert_array_equal(piv, expected[1])


class TestBorderedAssembly:
    """The LU assembles ``-C S`` in its workspace's buffer, from the workspace's
    copy of the rule at the representatives, and flushes it in one pass: the
    factors are those of the per-call assembly bit for bit."""

    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated-rows", "dirichlet"])
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_factors_are_the_per_call_factors_bit_for_bit(self, repeated, data):
        kernel, h, _, x0 = data.draw(lumped_cases(repeated))
        rows = ClassRows(kernel)
        e, s, _ = _tilt_values(h, rows)
        assert_same_factors(BorderedLU(BorderedWorkspace(rows, x0), e, s), per_call_bordered_factors(kernel, e, s, x0))

    def test_uav_factors_are_the_per_call_factors_bit_for_bit(self):
        # 15x15x5: r = 928 groups of 1,125 states, with entries below FLUSH_BELOW
        scenario = UavScenario(d_a=15, d_o=15, d_N=5, wind=generate_wind_field(15, 15, 5, seed=0))
        kernel, U = build_scenario_model(scenario)
        rows = ClassRows(kernel)
        workspace = BorderedWorkspace(rows, scenario.basepoint)
        for zeta in (0.01, 1.0):
            e, s, _ = _tilt_values(zeta * U, rows)
            expected = per_call_bordered_factors(kernel, e, s, scenario.basepoint)
            assert np.any((expected[2] > 0) & (expected[2] < FLUSH_BELOW))  # C has entries to flush
            assert_same_factors(BorderedLU(workspace, e, s), expected)

    def test_a_factorization_in_the_reused_buffer_equals_a_fresh_one(self, rng):
        kernel = repeated_rows_model(rng, 4, 3, pairs=7)
        rows = ClassRows(kernel)
        workspace = BorderedWorkspace(rows, 0)
        first = BorderedLU(workspace, *_tilt_values(rng.uniform(-3.0, 3.0, size=12), rows)[:2])
        assert np.shares_memory(first._lu[0], workspace.buffer)
        del first  # at most one LU per buffer
        e, s, _ = _tilt_values(rng.uniform(-3.0, 3.0, size=12), rows)
        again = BorderedLU(workspace, e, s)
        assert np.shares_memory(again._lu[0], workspace.buffer)
        fresh = BorderedLU(BorderedWorkspace(rows, 0), e, s)
        assert not np.shares_memory(fresh._lu[0], workspace.buffer)
        assert_same_factors(again, (*fresh._lu, fresh._block))

    def test_a_second_live_lu_in_one_buffer_is_refused(self, rng):
        kernel = random_factored_model(rng, 3, 2)
        rows = ClassRows(kernel)
        workspace = BorderedWorkspace(rows, 0)
        e, s, _ = _tilt_values(np.zeros(6), rows)
        lu = BorderedLU(workspace, e, s)
        with pytest.raises(RuntimeError, match="still holds a live LU"):
            BorderedLU(workspace, e, s)
        lu.solve(np.arange(6.0))  # its factors are untouched: the certificate passes
        del lu
        BorderedLU(workspace, e, s)


class TestPerronFrobeniusBaseline:
    def test_zeta_zero(self, rng):
        P0 = StochasticMatrix(rng.dirichlet(np.ones(4), size=4))
        lam, v, twisted = perron_frobenius_baseline(P0, random_utility(rng, 4), 0.0, x0=0)
        assert lam == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v, 1.0, atol=1e-10)
        np.testing.assert_allclose(twisted.entries, P0.entries, atol=1e-10)

    def test_constant_utility(self, rng):
        P0 = StochasticMatrix(rng.dirichlet(np.ones(3), size=3))
        lam, _, twisted = perron_frobenius_baseline(P0, np.full(3, 2.0), 1.5, x0=0)
        assert lam == pytest.approx(np.exp(3.0), rel=1e-10)
        np.testing.assert_allclose(twisted.entries, P0.entries, atol=1e-10)

    def test_two_state_closed_form(self):
        P0 = StochasticMatrix(np.full((2, 2), 0.5))
        lam, _, twisted = perron_frobenius_baseline(P0, np.array([0.0, 1.0]), 1.0, x0=0)
        e = np.e
        assert lam == pytest.approx((1 + e) / 2, rel=1e-12)
        np.testing.assert_allclose(twisted.entries, [[1 / (1 + e), e / (1 + e)]] * 2, atol=1e-12)

    def test_eigen_identity_and_rows(self, rng):
        P0 = StochasticMatrix(rng.dirichlet(np.ones(7), size=7))
        U = random_utility(rng, 7)
        lam, v, twisted = perron_frobenius_baseline(P0, U, 0.8, x0=2)
        W = np.exp(0.8 * U)[:, None] * P0.entries
        np.testing.assert_allclose(W @ v, lam * v, atol=1e-10 * lam)
        assert v[2] == pytest.approx(1.0)
        assert np.all(v > 0)
        np.testing.assert_allclose(twisted.entries.sum(axis=1), 1.0, atol=1e-10)
