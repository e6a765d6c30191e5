import re

import numpy as np
import pytest

from klmdp import (
    FactoredKernel,
    ProductStateSpace,
    StochasticMatrix,
    ValueFunction,
    induced_transition,
)

from conftest import random_factored_model


def test_flatten_layout():
    sp = ProductStateSpace(3, 2)
    assert sp.flatten(0, 0) == 0
    assert sp.flatten(2, 1) == 5
    assert sp.flatten(1, 0) == 2


def test_flatten_unflatten_roundtrip():
    sp = ProductStateSpace(4, 3)
    for i in range(sp.d):
        assert sp.flatten(*sp.unflatten(i)) == i
    for xu in range(4):
        for xn in range(3):
            assert sp.unflatten(sp.flatten(xu, xn)) == (xu, xn)


def test_flatten_out_of_range():
    sp = ProductStateSpace(3, 2)
    with pytest.raises(ValueError):
        sp.flatten(3, 0)
    with pytest.raises(ValueError):
        sp.flatten(0, -1)
    with pytest.raises(ValueError):
        sp.unflatten(6)


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


def test_value_function_pinned():
    v = ValueFunction(np.array([3.0, 5.0, 2.0]), basepoint=1)
    assert v.values[1] == 0.0
    np.testing.assert_allclose(v.values, [-2.0, 0.0, -3.0])
    with pytest.raises(ValueError):
        ValueFunction(np.zeros(3), basepoint=3)


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
