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
    """LU factorization of the bordered Poisson matrix ``[I - P | 1]``, lumped on the kernel's groups.

    The chain is that of a tilt of the rule of ``rows.kernel``, given by its
    class exponent ``e`` and row sums ``s`` (``kl_calculus._tilt_values``): ``R(x,
    u) = R0(x, u) e(c(x), u) / s(x)`` and ``P(x, (x_u', x_n')) = R(x, x_u')
    Q0(x, x_n')``.  That is ``S C`` (:meth:`FactoredKernel.lumped`), with the
    rows ``C`` at the group representatives formed a block of columns at a
    time, and ``x0`` represents its own group.  So ``H = w[group] + delta``,
    with ``delta(y) = rhs(y) - rhs(rep(y))``, and ``(w, eta)`` solves ``(I -
    C S) w + eta 1 = rhs[reps] + C[:, others] delta`` with ``w(g(x0)) = 0``:
    column ``g(x0)`` is replaced by ones, so slot ``g(x0)`` carries ``eta``.
    LAPACK factors ``C S`` in place, and only ``C[:, others]`` is kept beside
    it; with ``r = d`` this is the full system.  Entries below
    ``FLUSH_BELOW`` are zeroed first: subnormals slow the LU many times over,
    and the flushed LU still solves the exact system to rounding.  The first
    solve is certified on the full ``H``: its residual ``sup |P H - H + rhs -
    eta|``, from ``P y = rows.products(e * z) / s`` with ``z`` the
    conditional expectation of ``y`` (:meth:`ClassRows.products`), must be
    within ``POISSON_TOL``, so a bad LU, or a tilt unequal within a group, fails.
    The tilt is then dropped, and later solves reuse the LU unchecked.
    """

    def __init__(self, rows: ClassRows, e: np.ndarray, s: np.ndarray, x0: int):
        import scipy.linalg

        kernel = rows.kernel
        group, reps, _ = kernel.lumping
        R0, at_reps, s_reps = kernel.R.entries, kernel.row_class[reps], s[reps, None]
        pinned = reps.copy()
        pinned[group[x0]] = x0
        others = np.setdiff1d(np.arange(group.size), pinned)
        # the tilt's columns cols at the representatives, a block at a time
        M, self._block = kernel.lumped(lambda cols: R0[reps, cols] * e[at_reps, cols] / s_reps, others)
        r = reps.size
        # negate and flush in place, by column blocks of about 2^16 entries: no r x r temporary
        width = max(1, 2**16 // r)
        for j in range(0, r, width):
            block = M[:, j : j + width]
            np.negative(block, out=block)
            block[block > -FLUSH_BELOW] = 0.0  # C S >= 0, so this is |block| < FLUSH_BELOW
        M.flat[:: r + 1] += 1.0
        M[:, group[x0]] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                self._lu = scipy.linalg.lu_factor(M, overwrite_a=True, check_finite=False)
            except scipy.linalg.LinAlgWarning as exc:  # an exactly zero pivot
                # not unichain with x0 recurrent, e.g. after an underflowed tilt
                raise ConvergenceError(f"bordered Poisson matrix is singular ({exc})") from exc
        self._lumping = (group, pinned, others, pinned[group[others]], group[x0])
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
