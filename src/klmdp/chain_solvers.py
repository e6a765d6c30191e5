"""Linear-algebraic solvers for finite Markov chains.

The recurrent class of a chain, the factored bordered Poisson system that
the continuation keeps across Newton steps, and the Perron-Frobenius baseline
for the unconstrained (exogenous-free) model.

Admissibility is unichain aperiodic: one recurrent class, possibly with
transient states.  The bordered Poisson system stays nonsingular in that
generality, and the first solve on every factorization is certified by an
explicit residual check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gcd

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import ConvergenceError, NotAperiodicError, NotUnichainError
from .state_space import StochasticMatrix

POISSON_TOL = 1e-8


@dataclass(frozen=True)
class PerronFrobeniusPair:
    """Principal eigenvalue and positive eigenvector, normalized at the basepoint."""

    lam: float
    v: np.ndarray


def recurrent_class(P: StochasticMatrix | np.ndarray) -> np.ndarray:
    """Indices of the unique recurrent class of a unichain aperiodic matrix.

    Raises :class:`NotUnichainError` if the support graph has more than one
    closed communicating class, and :class:`NotAperiodicError` if the single
    class is periodic.
    """
    A = P.entries if isinstance(P, StochasticMatrix) else np.asarray(P)
    support = sp.csr_matrix(A > 0)
    n_comp, labels = connected_components(support, directed=True, connection="strong")
    src, dst = support.nonzero()
    leaving = np.zeros(n_comp, dtype=bool)
    cross = labels[src] != labels[dst]
    leaving[labels[src[cross]]] = True
    closed = np.flatnonzero(~leaving)
    if closed.size != 1:
        raise NotUnichainError(f"found {closed.size} recurrent classes, expected exactly 1")
    members = np.flatnonzero(labels == closed[0])
    if not _is_aperiodic(A, members):
        raise NotAperiodicError("the recurrent class is periodic")
    return members


def _is_aperiodic(A: np.ndarray, members: np.ndarray) -> bool:
    # A self-loop inside a single communicating class settles it immediately.
    if np.any(A[members, members] > 0):
        return True
    sub = sp.csr_matrix(A[np.ix_(members, members)] > 0)
    order, pred = breadth_first_order(sub, 0, directed=True, return_predecessors=True)
    level = np.full(members.size, -1)
    level[0] = 0
    for node in order[1:]:
        level[node] = level[pred[node]] + 1
    # gcd of (level(u) + 1 - level(v)) over edges equals the chain period
    src, dst = sub.nonzero()
    g = 0
    for u, v in zip(src, dst):
        g = gcd(g, level[u] + 1 - level[v])
        if g == 1:
            return True
    return abs(g) == 1


class BorderedLU:
    """LU factorization of the bordered Poisson matrix ``[I - P | 1]`` of one chain.

    Column ``x0`` of ``I - P``, which would multiply the pinned ``H(x0) = 0``,
    is replaced by ones, so slot ``x0`` of a solution carries the mean
    ``eta``.  ``matvec(y)``, the product ``P y``, certifies the first solve:
    its Poisson residual ``sup |P H - H + rhs - eta|`` must be within
    ``POISSON_TOL``, which also settles that the factorization is sound.
    Later solves reuse the factors unchecked; ``P`` itself is not kept.
    """

    def __init__(self, P: np.ndarray, x0: int, matvec):
        d = P.shape[0]
        M = np.negative(P, order="F")  # Fortran order: LAPACK factors it in place
        M.flat[:: d + 1] += 1.0
        M[:, x0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                self._lu = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
            except scipy.linalg.LinAlgWarning as exc:  # an exactly zero pivot
                # not unichain with x0 recurrent, e.g. after an underflowed tilt
                raise ConvergenceError(f"bordered Poisson matrix is singular ({exc})") from exc
        self._x0 = x0
        self._matvec = matvec

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """``(H, eta)`` with ``(I - P) H + eta 1 = rhs`` and ``H(x0) = 0``."""
        y = scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)
        eta = float(y[self._x0])
        y[self._x0] = 0.0
        if self._matvec is not None:
            residual = np.max(np.abs(self._matvec(y) - y + rhs - eta))
            if not residual <= POISSON_TOL:
                raise ConvergenceError(f"Poisson residual {residual:.3e} exceeds {POISSON_TOL}")
            self._matvec = None
        return y, eta


def perron_frobenius_baseline(
    P0: StochasticMatrix,
    utility: np.ndarray,
    zeta: float,
    x0: int,
    max_iter: int = 100_000,
    tol: float = 1e-12,
) -> tuple[PerronFrobeniusPair, StochasticMatrix]:
    """Principal eigenpair of ``exp(zeta U(x)) P0(x, x')`` and its twisted matrix.

    Power iteration with the eigenvector normalized to 1 at the basepoint;
    the twisted matrix ``(1/lam) v(x')/v(x) W(x, x')`` is the optimally
    controlled chain of the unconstrained model.
    """
    U = np.asarray(utility, dtype=float)
    W = np.exp(zeta * U)[:, None] * P0.entries
    v = np.ones(W.shape[0])
    lam = 1.0
    for _ in range(max_iter):
        w = W @ v
        lam = w[x0]
        if lam <= 0:
            raise ConvergenceError("power iteration hit a nonpositive normalization")
        v_new = w / lam
        if np.max(np.abs(W @ v_new - lam * v_new)) <= tol * lam * np.max(np.abs(v_new)):
            v = v_new
            break
        v = v_new
    else:
        raise ConvergenceError(f"power iteration did not converge in {max_iter} iterations")
    twisted = W * v[None, :] / (lam * v[:, None])
    twisted /= twisted.sum(axis=1, keepdims=True)
    return PerronFrobeniusPair(lam=float(lam), v=v), StochasticMatrix(twisted)
