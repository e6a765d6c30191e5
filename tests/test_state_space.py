import re

import numpy as np
import pytest

from klmdp import FactoredKernel, ProductStateSpace, StochasticMatrix
from klmdp.state_space import ClassRows

from klmdp.uav_benchmark import UavScenario, build_scenario_model, generate_wind_field

from conftest import induced_transition, random_factored_model, repeated_rows_model


def test_degenerate_space():
    with pytest.raises(ValueError):
        ProductStateSpace(0, 2)


def test_stochastic_matrix_validation():
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[1.1, -0.1]]))
    m = StochasticMatrix(np.array([[0.25, 0.75]]))
    assert m.rows == 1 and m.cols == 2
    assert not m.entries.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stochastic_matrix_rejects_non_finite_entries(bad):
    a = np.full((3, 2), 0.5)
    a[1, 0] = bad
    with pytest.raises(ValueError, match=re.escape(f"non-finite entry {bad} at (1, 0)")):
        StochasticMatrix(a)


def test_induced_transition_deterministic_factor():
    sp = ProductStateSpace(2, 2)
    R = StochasticMatrix(np.array([[1.0, 0.0]] * 4))
    Q0 = StochasticMatrix(np.array([[0.5, 0.5]] * 4))
    P = induced_transition(FactoredKernel(sp, R, Q0))
    np.testing.assert_allclose(P.entries[0], [0.5, 0.5, 0.0, 0.0])


def test_induced_transition_degenerate_product():
    sp = ProductStateSpace(1, 1)
    one = StochasticMatrix(np.ones((1, 1)))
    P = induced_transition(FactoredKernel(sp, one, one))
    np.testing.assert_allclose(P.entries, [[1.0]])


def test_induced_transition_outer_product_row():
    sp = ProductStateSpace(2, 2)
    R = StochasticMatrix(np.array([[0.3, 0.7]] * 4))
    Q0 = StochasticMatrix(np.array([[0.4, 0.6]] * 4))
    P = induced_transition(FactoredKernel(sp, R, Q0))
    np.testing.assert_allclose(P.entries[0], [0.12, 0.18, 0.28, 0.42])


def test_marginalization_recovers_factors(rng):
    kernel = random_factored_model(rng, 3, 4)
    P = induced_transition(kernel).entries
    d_u, d_n = 3, 4
    cube = P.reshape(-1, d_u, d_n)
    np.testing.assert_allclose(cube.sum(axis=1), kernel.Q0.entries, atol=1e-13)
    np.testing.assert_allclose(cube.sum(axis=2), kernel.R.entries, atol=1e-13)


def test_induced_rows_sum_to_one(rng):
    for _ in range(5):
        kernel = random_factored_model(rng, rng.integers(1, 5), rng.integers(1, 5))
        P = induced_transition(kernel)
        np.testing.assert_allclose(P.entries.sum(axis=1), 1.0, atol=1e-12)


def test_lumping_groups_equal_row_pairs():
    # states 0, 2 and 3 share both rows; 1 shares only its R row with them
    sp = ProductStateSpace(2, 2)
    R = StochasticMatrix(np.array([[0.3, 0.7]] * 4))
    Q0 = StochasticMatrix(np.array([[0.4, 0.6], [0.5, 0.5], [0.4, 0.6], [0.4, 0.6]]))
    group, reps, layers = FactoredKernel(sp, R, Q0).lumping
    np.testing.assert_array_equal(group, [0, 1, 0, 0])
    np.testing.assert_array_equal(reps, [0, 1])
    assert [(s.tolist(), g.tolist()) for s, g in layers] == [([2], [0]), ([3], [0])]
    assert not any(a.flags.writeable for a in (group, reps, *layers[0]))


@pytest.mark.parametrize("pairs", [3, None], ids=["repeated-rows", "dirichlet"])
def test_lumping_layers_hold_each_non_first_state_once(rng, pairs):
    for _ in range(20):
        if pairs is None:
            kernel = random_factored_model(rng, 3, 2)
        else:
            kernel = repeated_rows_model(rng, 3, 2, pairs)
        R, Q0 = kernel.R.entries, kernel.Q0.entries
        group, reps, layers = kernel.lumping
        assert np.all(reps == np.sort(reps)) and np.all(group[reps] == np.arange(reps.size))
        assert np.array_equal(R[reps[group]], R) and np.array_equal(Q0[reps[group]], Q0)
        states = np.concatenate([np.empty(0, dtype=np.intp), *(s for s, _ in layers)])
        np.testing.assert_array_equal(np.sort(np.concatenate([reps, states])), np.arange(kernel.space.d))
        for k, (s, g) in enumerate(layers):  # each state follows k + 1 earlier states of its group
            np.testing.assert_array_equal(group[s], g)
            assert all(np.count_nonzero(group[:x] == group[x]) == k + 1 for x in s)
        assert (reps.size < kernel.space.d) == (pairs is not None)
        assert_same_lumping(kernel.lumping, per_state_lumping(kernel))


def per_state_lumping(kernel):
    """``kernel.lumping`` as a per-state loop found it: each ``R`` row keyed by its row class and the hash of
    its bytes, and compared in full with the first row of each group under that key."""
    R, d = kernel.R.entries, kernel.space.d
    by_key, reps, sizes = {}, [], []
    group, rank = np.empty(d, dtype=np.intp), np.empty(d, dtype=np.intp)
    for x, (c, r) in enumerate(zip(kernel.row_class.tolist(), R)):
        groups = by_key.setdefault((c, hash(r.tobytes())), [])
        g = next((g for g in groups if np.array_equal(r, R[reps[g]])), len(reps))
        if g == len(reps):
            groups.append(g)
            reps.append(x)
            sizes.append(0)
        group[x], rank[x] = g, sizes[g]
        sizes[g] += 1
    layers = tuple((s, group[s]) for s in map(np.flatnonzero, (rank == k for k in range(1, max(sizes)))))
    return group, np.array(reps, dtype=np.intp), layers


def assert_same_lumping(a, b):
    (group, reps, layers), (group_b, reps_b, layers_b) = a, b
    np.testing.assert_array_equal(group, group_b)
    np.testing.assert_array_equal(reps, reps_b)
    assert len(layers) == len(layers_b)
    for (s, g), (s_b, g_b) in zip(layers, layers_b):
        np.testing.assert_array_equal(s, s_b)
        np.testing.assert_array_equal(g, g_b)


@pytest.mark.parametrize("grid", [(8, 8, 3), (15, 15, 5)])
def test_uav_lumping_is_the_per_state_lumping(grid):
    # the sorted keys group the states as the per-state loop over hashed rows did
    kernel, _ = build_scenario_model(UavScenario(*grid, wind=generate_wind_field(*grid, seed=0)))
    assert_same_lumping(kernel.lumping, per_state_lumping(kernel))


def test_a_key_collision_does_not_merge_groups(rng, monkeypatch):
    # with every row keyed 0, each row class is one run: its unequal rows are
    # told apart by their bits, and the groups are the per-state loop's
    import klmdp.state_space as state_space

    monkeypatch.setattr(state_space, "_row_keys", lambda bits: np.zeros(bits.shape[0], dtype=np.uint64))
    a, b = [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]  # one row class: full support, Q0 = 1
    kernel = FactoredKernel(ProductStateSpace(4, 1), StochasticMatrix(np.array([a, b, a, b])),
                            StochasticMatrix(np.ones((4, 1))))
    group, reps, layers = kernel.lumping
    np.testing.assert_array_equal(group, [0, 1, 0, 1])
    np.testing.assert_array_equal(reps, [0, 1])
    assert [(s.tolist(), g.tolist()) for s, g in layers] == [([2, 3], [0, 1])]
    for _ in range(10):
        kernel = repeated_rows_model(rng, 3, 2, 3)
        assert_same_lumping(kernel.lumping, per_state_lumping(kernel))


def test_class_rows_stack_the_rows_of_r_by_class_size(rng):
    # 12 states in 5 classes of sizes 1, 2, 3, 4 and 2: four stacks, by increasing size
    d_u, d_n = 4, 3
    Q0 = rng.dirichlet(np.ones(d_n), size=5)[[0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4]]
    perm = rng.permutation(12)
    kernel = FactoredKernel(ProductStateSpace(d_u, d_n), StochasticMatrix(rng.dirichlet(np.ones(d_u), size=12)),
                            StochasticMatrix(Q0[perm]))
    rows = ClassRows(kernel)
    assert rows.kernel is kernel
    sizes = np.bincount(kernel.row_class)
    assert [blocks.shape[:2] for _, _, blocks in rows.stacks] == [(1, 1), (2, 2), (1, 3), (1, 4)]
    in_order = np.empty(kernel.space.d, dtype=np.intp)
    in_order[rows.inverse] = np.arange(kernel.space.d)  # the state at each place
    for classes, states, blocks in rows.stacks:
        assert np.all(sizes[classes] == blocks.shape[1]) and not blocks.flags.writeable
        np.testing.assert_array_equal(kernel.row_class[in_order[states]], np.repeat(classes, blocks.shape[1]))
        np.testing.assert_array_equal(blocks.reshape(-1, d_u), kernel.R.entries[in_order[states]])


@pytest.mark.parametrize("pairs", [None, 3], ids=["dirichlet", "repeated-rows"])
def test_class_row_products_are_the_row_sums_against_the_class_rows(rng, pairs):
    # one BLAS product per stack, in BLAS order: equal to numpy's row sums to rounding
    kernel = random_factored_model(rng, 3, 2) if pairs is None else repeated_rows_model(rng, 3, 2, pairs)
    w = rng.standard_normal((kernel.class_Q0.shape[0], 3))
    expected = (kernel.R.entries * w[kernel.row_class]).sum(axis=1)
    np.testing.assert_allclose(ClassRows(kernel).products(w), expected, rtol=1e-15, atol=1e-15)
