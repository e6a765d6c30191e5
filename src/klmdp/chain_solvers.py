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

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import ConvergenceError, NotAperiodicError, NotUnichainError
from .state_space import FactoredKernel, StochasticMatrix

POISSON_TOL = 1e-8


@dataclass(frozen=True)
class PerronFrobeniusPair:
    """Principal eigenvalue and positive eigenvector, normalized at the basepoint."""

    lam: float
    v: np.ndarray


def recurrent_class(kernel: FactoredKernel) -> np.ndarray:
    """Indices of the unique recurrent class of the unichain aperiodic chain ``R ⊗ Q0``.

    The chain is ``P(x, (x_u', x_n')) = R(x, x_u') Q0(x, x_n')``, so row ``x``
    of its support is ``supp R(x) × supp Q0(x)``: it is formed once per row
    class of the kernel, whose states share both supports, and the support
    graph is built in CSR form from those rows, with no dense ``P``.  A chain
    held as a dense ``P`` is the kernel ``FactoredKernel(ProductStateSpace(d,
    1), P, ones((d, 1)))``.

    Raises :class:`NotUnichainError` if the support graph has more than one
    closed communicating class, and :class:`NotAperiodicError` if the single
    class is periodic.
    """
    d, d_n = kernel.space.d, kernel.space.d_n
    columns = [  # int32 column indices of each class's support row
        (np.flatnonzero(r)[:, None] * d_n + np.flatnonzero(q)).ravel().astype(np.int32)
        for r, q in zip(kernel.class_support, kernel.class_Q0 > 0)
    ]
    row_class = kernel.row_class
    indptr = np.zeros(d + 1, dtype=np.int32)
    np.cumsum([columns[k].size for k in row_class], out=indptr[1:])
    indices = np.concatenate([columns[k] for k in row_class])
    graph = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(d, d))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    # a state stays in its class when the least and the greatest class of its
    # successors are its own; a class is closed when all its states stay
    least = np.array([labels[c].min() for c in columns])[row_class]
    greatest = np.array([labels[c].max() for c in columns])[row_class]
    leaving = labels[(least != labels) | (greatest != labels)]
    closed = np.setdiff1d(np.arange(n_comp), leaving)
    if closed.size != 1:
        raise NotUnichainError(f"found {closed.size} recurrent classes, expected exactly 1")
    members = np.flatnonzero(labels == closed[0])
    if not _is_aperiodic(graph, members):
        raise NotAperiodicError("the recurrent class is periodic")
    return members


def _is_aperiodic(graph: sp.csr_matrix, members: np.ndarray) -> bool:
    """Whether the closed communicating class ``members`` of ``graph`` is aperiodic."""
    # the class is closed, so its states' successors are its states: its edges
    # are renumbered with numpy alone (scipy's sparse indexing pages in about
    # 0.4 MB more of compiled code, a visible share of a small run's RSS)
    position = np.empty(graph.shape[0], dtype=np.intp)
    position[members] = np.arange(members.size)
    rows = [graph.indices[graph.indptr[x] : graph.indptr[x + 1]] for x in members]
    dst = position[np.concatenate(rows)]
    counts = [row.size for row in rows]
    src = np.repeat(np.arange(members.size), counts)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    sub = sp.csr_matrix((np.ones(dst.size), dst, indptr), shape=(members.size,) * 2)
    level = shortest_path(sub, unweighted=True, indices=0).astype(np.intp)  # BFS levels
    # gcd of (level(u) + 1 - level(v)) over the edges equals the chain period
    return int(np.gcd.reduce(level[src] + 1 - level[dst])) == 1


FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))


class BorderedLU:
    """LU factorization of the bordered Poisson matrix ``[I - P | 1]`` of a chain ``P = R ⊗ Q0``.

    ``P(x, (x_u', x_n')) = R(x, x_u') Q0(x, x_n')`` is written negated
    straight into the Fortran-ordered buffer that LAPACK factors in place, so
    that buffer is the only ``d x d`` array; a chain held as a dense ``P`` is
    the kernel ``R = P``, ``Q0 = ones((d, 1))``.  Column ``x0`` of ``I - P``,
    which would multiply the pinned ``H(x0) = 0``, is replaced by ones, so
    slot ``x0`` of a solution carries the mean ``eta``.  Entries below
    ``FLUSH_BELOW`` in magnitude are zeroed before factoring: subnormals slow
    the factorization many times over, while the flushed LU still solves
    the exact system to rounding.  The first solve is certified against the
    exact factors: ``P y = sum_u R(x, u) sum_n Q0(x, n) y(u, n)`` gives its
    Poisson residual ``sup |P H - H + rhs - eta|``, which must be within
    ``POISSON_TOL`` and so also settles that the factorization is sound.
    ``R`` and ``Q0`` are held until then and dropped; later solves reuse
    the LU unchecked, and no dense ``P`` is kept.
    """

    def __init__(self, R: np.ndarray, Q0: np.ndarray, x0: int):
        (d, d_u), d_n = R.shape, Q0.shape[1]
        M = np.empty((d, d), order="F")  # Fortran order: LAPACK factors it in place
        # M.T is C-ordered, so its (d_u, d_n, d) view is M[x, (u, n)] at [u, n, x]
        np.einsum("xu,xn->unx", R, Q0, out=M.T.reshape(d_u, d_n, d))
        # negate and flush in place, by contiguous column blocks of about 2^16
        # entries: no d x d temporary
        width = max(1, 2**16 // d)
        for j in range(0, d, width):
            block = M[:, j : j + width]
            np.negative(block, out=block)
            block[np.abs(block) < FLUSH_BELOW] = 0.0
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
        self._factors = (R, Q0)  # for the certificate of the first solve

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """``(H, eta)`` with ``(I - P) H + eta 1 = rhs`` and ``H(x0) = 0``."""
        y = scipy.linalg.lu_solve(self._lu, rhs, check_finite=False)
        eta = float(y[self._x0])
        y[self._x0] = 0.0
        if self._factors is not None:
            R, Q0 = self._factors
            Py = np.einsum("xu,xu->x", R, Q0 @ y.reshape(R.shape[1], Q0.shape[1]).T)
            residual = np.max(np.abs(Py - y + rhs - eta))
            if not residual <= POISSON_TOL:
                raise ConvergenceError(f"Poisson residual {residual:.3e} exceeds {POISSON_TOL}")
            self._factors = None
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
