"""Linear-algebraic solvers for finite Markov chains.

The recurrent class of a chain and the factored bordered Poisson system that
the continuation keeps across Newton steps.

Admissibility is unichain aperiodic: one recurrent class, possibly with
transient states.  The bordered Poisson system stays nonsingular in that
generality, and the first solve on every factorization is certified by an
explicit residual check.

scipy is imported inside the functions that call it, so the finite-horizon
recursion, which solves no linear system, never loads ``scipy.linalg`` (with
``numpy.f2py`` and ``numpy.testing``).  LAPACK is called through
``scipy.linalg.<name>`` lookups, so a wrapper installed there sees every call.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConvergenceError, NotAperiodicError, NotUnichainError
from .kl_calculus import conditional_expectation_values
from .state_space import ClassRows, FactoredKernel

POISSON_TOL = 1e-8


def recurrent_class(kernel: FactoredKernel) -> np.ndarray:
    """Indices of the unique recurrent class of the unichain aperiodic chain ``R ⊗ Q0``.

    The successors of ``x`` are ``supp R(x) × supp Q0(x)``, shared by its
    row class, so the support graph is routed through the ``K`` row classes,
    with no dense ``P``: of its ``d + K`` nodes, state ``x`` has one edge, to
    the node ``d + c`` of its class ``c``, and that node has an edge to each
    state of ``supp R(c) × supp Q0(c)``.  A path of ``n`` steps of the chain
    is a path of ``2 n`` edges, so each closed class of the graph holds a
    recurrent class of the chain and its states' class nodes, and the chain
    is aperiodic exactly when that class has period 2.  Raises
    :class:`NotUnichainError` for more than one closed class and
    :class:`NotAperiodicError` for a periodic one.
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
    """The kept LU factorization of the bordered Poisson matrix ``[I - P | 1]``, lumped on the kernel's groups.

    Made from a solve's :class:`ClassRows` ``rows`` and the basepoint
    ``x0`` and kept for the solve, it holds what depends only on them: the
    contiguous ``d_u x r`` copy ``R0[reps].T`` of the rule at the group
    representatives, and the border's indices: the groups, the
    representatives with ``x0`` in place of its group's first state, the
    ``others``, their representatives and ``x0``'s group.  :meth:`factor`
    factors the chain of a tilt of the rule, given by its class exponent
    ``e`` and row sums ``s`` (``kl_calculus._tilt_values``): ``R(x, u) =
    R0(x, u) e(c(x), u) / s(x)`` and ``P(x, (x_u', x_n')) = R(x, x_u')
    Q0(x, x_n')``.  That is ``S C`` (:meth:`FactoredKernel.lumped`), with
    the rows ``C`` at the representatives formed a block of columns at a
    time, and ``x0`` represents its own group.  So ``H = w[group] +
    delta``, with ``delta(y) = rhs(y) - rhs(rep(y))``, and ``(w, eta)``
    solves ``(I - C S) w + eta 1 = rhs[reps] + C[:, others] delta`` with
    ``w(g(x0)) = 0``: column ``g(x0)`` is replaced by ones, so slot
    ``g(x0)`` carries ``eta``.  ``C S`` is assembled over the previous
    factors, in the ``r x r`` Fortran-ordered buffer made at the first
    factorization; one pass then zeroes its entries below ``FLUSH_BELOW``
    (subnormals slow the LU many times over, and the flushed LU still
    solves the exact system to rounding), negates it, and writes the unit
    diagonal and the border, and LAPACK factors the result there.  Only
    ``C[:, others]`` is kept beside it; with ``r = d`` this is the full
    system.  The first solve after each factorization is certified on the
    full ``H``: its residual ``sup |P H - H + rhs - eta|``, from ``P y =
    rows.products(e * z) / s`` with ``z`` the conditional expectation of
    ``y`` (:meth:`ClassRows.products`), must be within ``POISSON_TOL``, so
    a bad LU, or a tilt unequal within a group, fails.  The tilt is then
    dropped, and later solves reuse the LU unchecked.
    """

    def __init__(self, rows: ClassRows, x0: int):
        kernel = rows.kernel
        group, reps, _ = kernel.lumping
        pinned = reps.copy()
        pinned[group[x0]] = x0
        others = np.setdiff1d(np.arange(group.size), pinned)
        self.rows, self.reps, self.at_reps = rows, reps, kernel.row_class[reps]
        self.columns = np.take(kernel.R.entries.T, reps, axis=1)  # R0[reps].T, C-ordered, in one copy
        self._lumping = (group, pinned, others, pinned[group[others]], group[x0])
        self._lu = self._tilt = None  # no factors yet: the buffer is made at the first factorization

    def factor(self, e: np.ndarray, s: np.ndarray) -> None:
        """Factor the chain of the tilt ``(e, s)`` over the previous factors."""
        import scipy.linalg

        rows, columns, at_reps, s_reps = self.rows, self.columns, self.at_reps, s[self.reps]
        _, _, others, _, g0 = self._lumping
        r = self.reps.size
        M = np.empty((r, r), order="F") if self._lu is None else self._lu[0]
        # drop the last factors and kept block first: a failed factorization
        # leaves none to solve with, and no two blocks are alive at once
        self._lu = self._block = None

        def rule(cols: slice) -> np.ndarray:  # the tilt's columns cols at the representatives, transposed
            t = e.T[cols, at_reps]
            np.multiply(columns[cols], t, out=t)
            return np.divide(t, s_reps, out=t)

        self._block = rows.kernel.lumped(rule, M, others)
        # flush and negate in place, by column blocks of about 2^16 entries: no r x r temporary.
        # C S >= 0, so times 0 an entry below FLUSH_BELOW is +0.0, and 0.0 - x is +0.0 there
        width = max(1, 2**16 // r)
        for j in range(0, r, width):
            block = M[:, j : j + width]
            np.multiply(block, block >= FLUSH_BELOW, out=block)
            np.subtract(0.0, block, out=block)
        M.flat[:: r + 1] += 1.0
        M[:, g0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                self._lu = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
            except scipy.linalg.LinAlgWarning as exc:  # an exactly zero pivot
                # not unichain with x0 recurrent, e.g. after an underflowed tilt
                raise ConvergenceError(f"bordered Poisson matrix is singular ({exc})") from exc
        self._tilt = (rows, e, s)  # for the certificate of the first solve

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """``(H, eta)`` with ``(I - P) H + eta 1 = rhs`` and ``H(x0) = 0``."""
        import scipy.linalg

        group, reps, others, their_reps, g0 = self._lumping
        delta = rhs[others] - rhs[their_reps]
        b = rhs[reps]
        if others.size:  # adding an empty product would turn each -0.0 into +0.0
            b += self._block @ delta
        w = scipy.linalg.lu_solve(self._lu, b, overwrite_b=True, check_finite=False)
        eta = float(w[g0])
        w[g0] = 0.0
        y = w[group]
        y[others] += delta
        if self._tilt is not None:
            rows, e, s = self._tilt
            Py = rows.products(e * conditional_expectation_values(y, rows.kernel)) / s
            residual = np.max(np.abs(Py - y + rhs - eta))
            if not residual <= POISSON_TOL:
                raise ConvergenceError(f"Poisson residual {residual:.3e} exceeds {POISSON_TOL}")
            self._tilt = None
        return y, eta
