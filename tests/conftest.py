import numpy as np
import pytest

from klmdp import FactoredKernel, ProductStateSpace, StochasticMatrix
from klmdp.chain_solvers import BorderedLU
from klmdp.kl_calculus import _tilt_values
from klmdp.state_space import ClassRows


def random_factored_model(rng, d_u, d_n, min_mass=0.05):
    """Random strictly positive factored kernel (irreducible and aperiodic)."""
    space = ProductStateSpace(d_u, d_n)
    R = rng.dirichlet(np.ones(d_u), size=space.d)
    Q0 = rng.dirichlet(np.ones(d_n), size=space.d)
    # keep entries away from zero so tilted chains stay well conditioned
    R = (R + min_mass) / (1.0 + min_mass * d_u)
    Q0 = (Q0 + min_mass) / (1.0 + min_mass * d_n)
    return FactoredKernel(space, StochasticMatrix(R), StochasticMatrix(Q0))


def repeated_rows_model(rng, d_u, d_n, pairs):
    """The random model above with each state's ``(R0, Q0)`` row pair drawn
    from ``pairs < d`` of its pairs, so states share both rows: fewer groups than states."""
    kernel = random_factored_model(rng, d_u, d_n)
    pick = rng.integers(pairs, size=kernel.space.d)
    R, Q0 = kernel.R.entries[pick], kernel.Q0.entries[pick]
    return FactoredKernel(kernel.space, StochasticMatrix(R), StochasticMatrix(Q0))


def induced_transition(kernel):
    """Dense reference chain of a kernel: ``P(x, (x_u', x_n')) = R(x, x_u') Q0(x, x_n')``."""
    d = kernel.space.d
    return StochasticMatrix(np.einsum("xu,xn->xun", kernel.R.entries, kernel.Q0.entries).reshape(d, d))


def balance_pmf(P):
    """Invariant pmf of a unichain chain from its balance equations, the last
    replaced by the normalization: a reference independent of the solver."""
    d = P.shape[0]
    M = P.T - np.eye(d)
    M[-1, :] = 1.0
    return np.linalg.solve(M, np.eye(d)[-1])


def dense_chain_kernel(P):
    """A stochastic dense ``P`` as a kernel: the rule ``P`` over ``d`` controlled states, ``d_n = 1``."""
    d = P.shape[0]
    return FactoredKernel(ProductStateSpace(d, 1), StochasticMatrix(P), StochasticMatrix(np.ones((d, 1))))


def bordered_lu(kernel, h, x0):
    """The bordered LU of the chain of ``R0`` tilted by ``h``, from the tilt's class exponent and row sums."""
    rows = ClassRows(kernel)
    e, s, _ = _tilt_values(h, rows)
    return BorderedLU(rows, e, s, x0)


def dense_bordered_lu(P, x0):
    """The bordered LU of a dense chain: ``P`` tilted by zero, ``P`` over its row sums, from whose rows
    the first solve is certified."""
    return bordered_lu(dense_chain_kernel(P), np.zeros(P.shape[0]), x0)


def controlled_chain(cp):
    """Dense controlled chain of a checkpoint, built from its policy in the test."""
    kernel = cp.kernel
    return induced_transition(FactoredKernel(kernel.space, cp.policy(), kernel.Q0)).entries


def random_utility(rng, d):
    return rng.uniform(-1.0, 1.0, size=d)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
