"""Linear-algebraic solvers for finite Markov chains.

The recurrent class of a chain, the factored bordered Poisson system that
the continuation keeps across Newton steps, and the Perron-Frobenius baseline
for the unconstrained (exogenous-free) model.

Admissibility is unichain aperiodic: one recurrent class, possibly with
transient states.  The bordered Poisson system stays nonsingular in that
generality, and the first solve on every factorization is certified by an
explicit residual check.

scipy is imported inside the functions that call it (``recurrent_class``,
``BorderedLU``), so importing this module loads no scipy submodule: the
finite-horizon recursion solves no linear system and never loads one.
``scipy.linalg`` is the costly import: scipy's array-API shim loads
``numpy.f2py`` and ``numpy.testing`` with it.  The ``solve-ar`` and
``validate`` verbs import both before they solve.
LAPACK is called through ``scipy.linalg.<name>`` attribute lookups, so a
wrapper installed on ``scipy.linalg`` sees every call.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConvergenceError, NotAperiodicError, NotUnichainError
from .state_space import FactoredKernel, StochasticMatrix

POISSON_TOL = 1e-8


def recurrent_class(kernel: FactoredKernel) -> np.ndarray:
    """Indices of the unique recurrent class of the unichain aperiodic chain ``R ⊗ Q0``.

    The chain is ``P(x, (x_u', x_n')) = R(x, x_u') Q0(x, x_n')``, so the
    successors of ``x`` are ``supp R(x) × supp Q0(x)``, shared by the states
    of its row class.  The support graph is routed through the ``K`` row
    classes, with no dense ``P``: of its ``d + K`` nodes, state ``x`` has one
    edge, to the node ``d + c`` of its class ``c``, and that node has an edge
    to each state of ``supp R(c) × supp Q0(c)``.  A path of ``n`` steps of
    the chain is a path of ``2 n`` edges, so each closed class of the graph
    holds a recurrent class of the chain and the class nodes of its states,
    and the chain is aperiodic exactly when that class has period 2.  A chain
    held as a dense ``P`` is the kernel ``FactoredKernel(ProductStateSpace(d,
    1), P, ones((d, 1)))``.

    Raises :class:`NotUnichainError` if the support graph has more than one
    closed communicating class, and :class:`NotAperiodicError` if the single
    class is periodic.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components, shortest_path

    d, d_n = kernel.space.d, kernel.space.d_n
    support, wind = kernel.class_support, kernel.class_Q0 > 0
    n = d + support.shape[0]
    counts = np.concatenate([np.ones(d, dtype=np.int32), support.sum(axis=1) * wind.sum(axis=1)])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = np.concatenate([
        d + kernel.row_class.astype(np.int32),  # each state's class node
        *(  # each class's successor states
            (np.flatnonzero(r)[:, None] * d_n + np.flatnonzero(q)).ravel().astype(np.int32)
            for r, q in zip(support, wind)
        ),
    ])
    graph = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    # a node stays in its component when the least and the greatest component
    # of its successors are its own; a component is closed when all its nodes stay
    least = np.minimum.reduceat(labels[indices], indptr[:-1])
    greatest = np.maximum.reduceat(labels[indices], indptr[:-1])
    leaving = labels[(least != labels) | (greatest != labels)]
    closed = np.setdiff1d(np.arange(n_comp), leaving)
    if closed.size != 1:
        raise NotUnichainError(f"found {closed.size} recurrent classes, expected exactly 1")
    inside = labels == closed[0]
    members = np.flatnonzero(inside[:d])
    # gcd of (level(u) + 1 - level(v)) over the closed class's edges, with BFS
    # levels from a member, is the class's period: twice the chain's.  Its
    # edges are its nodes' CSR rows, in order, so each source repeats over its row
    level = shortest_path(graph, unweighted=True, indices=members[0])
    gaps = np.repeat(level[inside] + 1, counts[inside]) - level[indices[np.repeat(inside, counts)]]
    if int(np.gcd.reduce(gaps.astype(np.intp))) != 2:
        raise NotAperiodicError("the recurrent class is periodic")
    return members


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
        import scipy.linalg

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
        import scipy.linalg

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
) -> tuple[float, np.ndarray, StochasticMatrix]:
    """Principal eigenpair of ``exp(zeta U(x)) P0(x, x')`` and its twisted matrix.

    Power iteration with the eigenvector normalized to 1 at the basepoint.
    Returns ``(lam, v, twisted)``: the Perron root, the positive eigenvector
    and the twisted matrix ``(1/lam) v(x')/v(x) W(x, x')``, the optimally
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
    return float(lam), v, StochasticMatrix(twisted)
