import numpy as np
import pytest

from klmdp import FactoredKernel, ProductStateSpace, StochasticMatrix


def random_factored_model(rng, d_u, d_n, min_mass=0.05):
    """Random strictly positive factored kernel (irreducible and aperiodic)."""
    space = ProductStateSpace(d_u, d_n)
    R = rng.dirichlet(np.ones(d_u), size=space.d)
    Q0 = rng.dirichlet(np.ones(d_n), size=space.d)
    # keep entries away from zero so tilted chains stay well conditioned
    R = (R + min_mass) / (1.0 + min_mass * d_u)
    Q0 = (Q0 + min_mass) / (1.0 + min_mass * d_n)
    return FactoredKernel(space, StochasticMatrix(R), StochasticMatrix(Q0))


def balance_pmf(P):
    """Invariant pmf of a unichain chain from its balance equations, the last
    replaced by the normalization: a reference independent of the solver."""
    d = P.shape[0]
    M = P.T - np.eye(d)
    M[-1, :] = 1.0
    return np.linalg.solve(M, np.eye(d)[-1])


def random_utility(rng, d):
    return rng.uniform(-1.0, 1.0, size=d)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
