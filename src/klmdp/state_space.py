"""Product state space, stochastic matrices, and the factored transition model.

The state splits into a controlled coordinate (index set of size ``d_u``,
chosen through a randomized decision rule ``R``) and an exogenous coordinate
(size ``d_n``, driven by a fixed kernel ``Q0``).  The full transition matrix
is the product ``P(x, (x_u', x_n')) = R(x, x_u') * Q0(x, x_n')``.

States are enumerated row-major over ``(x_u, x_n)``, so the exogenous
coordinate is the fast axis.  The kernel groups states into row classes that
share their ``Q0`` row and the support of their ``R`` row; the tilt forms its
conditional expectation and exponent once per class, and sums ``R`` against
them by one product per stack of classes of one size
(:meth:`ClassRows.products`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProductStateSpace:
    """Sizes of the two coordinates; state ``(x_u, x_n)`` has flat index ``x_u d_n + x_n``."""

    d_u: int
    d_n: int

    def __post_init__(self):
        if self.d_u < 1 or self.d_n < 1:
            raise ValueError(f"coordinate sizes must be >= 1, got ({self.d_u}, {self.d_n})")

    @property
    def d(self) -> int:
        return self.d_u * self.d_n


@dataclass(frozen=True)
class StochasticMatrix:
    """Dense nonnegative matrix whose rows are pmfs."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        row_sums = a.sum(axis=1)
        # a non-finite entry makes its row's sum non-finite: only then are the entries scanned
        if not np.all(np.isfinite(row_sums)) and not np.all(np.isfinite(a)):
            x, y = np.argwhere(~np.isfinite(a))[0]
            raise ValueError(f"non-finite entry {a[x, y]} at ({x}, {y}) in stochastic matrix")
        if np.any(a < 0):
            raise ValueError("negative entry in stochastic matrix")
        row_err = np.abs(row_sums - 1.0)
        if np.any(row_err > ROW_SUM_TOL):
            worst = int(np.argmax(row_err))
            raise ValueError(
                f"row {worst} sums to {a[worst].sum():.17g}, off by more than {ROW_SUM_TOL}"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class FactoredKernel:
    """Decision rule and exogenous kernel generating a product transition matrix.

    ``R`` has shape ``(d, d_u)`` and ``Q0`` shape ``(d, d_n)``, both
    row-indexed by the full flat state.  A state enters the tilt's
    conditional expectation only through its ``Q0`` row, and its exponent
    only through its support, so states that share both form one row class:
    ``row_class`` maps each state to its class, numbered in order of first
    appearance, and ``class_Q0`` and ``class_support`` hold each class's
    ``Q0`` row and support ``R > 0``, read-only.  The UAV model has ``2 d_N``
    classes, one per wind state off the target and one on it (6 for 192
    states at 8x8x3); a Dirichlet ``Q0`` has one class per state.

    States with equal ``R`` and ``Q0`` rows have equal rows of ``P`` under
    any tilt of ``R``: the chain is exactly lumpable on these groups (Kemeny &
    Snell, *Finite Markov Chains*, 1960, §6.3), 142 of 192 states at UAV
    8x8x3 and 928 of 1125 at 15x15x5, one per state for a Dirichlet ``Q0``.
    """

    space: ProductStateSpace
    R: StochasticMatrix
    Q0: StochasticMatrix
    row_class: np.ndarray = field(init=False, repr=False, compare=False)
    class_Q0: np.ndarray = field(init=False, repr=False, compare=False)
    class_support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.space.d
        if self.R.rows != d or self.R.cols != self.space.d_u:
            raise ValueError(f"R has shape {self.R.entries.shape}, expected ({d}, {self.space.d_u})")
        if self.Q0.rows != d or self.Q0.cols != self.space.d_n:
            raise ValueError(f"Q0 has shape {self.Q0.entries.shape}, expected ({d}, {self.space.d_n})")
        support = self.R.entries > 0
        # each state's class is found by the bytes of its two rows: a dict
        # stays flat in memory where a row-wise np.unique sorts copies of both
        first: dict[bytes, int] = {}  # class key -> its first state
        firsts = [
            first.setdefault(q.tobytes() + s.tobytes(), x)
            for x, (q, s) in enumerate(zip(self.Q0.entries, support))
        ]
        reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))  # ascending
        row_class = np.searchsorted(reps, firsts)
        for name, value in (
            ("row_class", row_class),
            ("class_Q0", self.Q0.entries[reps]),
            ("class_support", support[reps]),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @cached_property
    def lumping(self) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """``(group, reps, layers)``: the groups of states with equal ``R`` rows in one row class.

        ``group`` numbers the groups by first appearance, ``reps`` holds each
        group's first state, and ``layers[k]`` the states ``k + 2``-th in their
        group, ascending, with their groups.  Rows are keyed by hash (a dict
        keyed by their bytes would copy them) and compared in full, so a hash
        collision cannot merge two groups.  Computed where first needed; read-only.
        """
        R, d = self.R.entries, self.space.d
        by_key: dict[tuple[int, int], list[int]] = {}  # (row class, hash of the R row) -> its groups
        reps: list[int] = []
        sizes: list[int] = []
        group, rank = np.empty(d, dtype=np.intp), np.empty(d, dtype=np.intp)  # rank: earlier states of the group
        for x, (c, r) in enumerate(zip(self.row_class.tolist(), R)):
            groups = by_key.setdefault((c, hash(r.tobytes())), [])
            g = next((g for g in groups if np.array_equal(r, R[reps[g]])), len(reps))
            if g == len(reps):
                groups.append(g)
                reps.append(x)
                sizes.append(0)
            group[x], rank[x] = g, sizes[g]
            sizes[g] += 1
        layers = tuple((s, group[s]) for s in map(np.flatnonzero, (rank == k for k in range(1, max(sizes)))))
        reps = np.array(reps, dtype=np.intp)
        for a in (group, reps, *(a for layer in layers for a in layer)):
            a.setflags(write=False)
        return group, reps, layers

    def lumped(
        self, rule: Callable[[slice], np.ndarray], keep: np.ndarray = np.empty(0, dtype=np.intp)
    ) -> tuple[np.ndarray, np.ndarray]:
        """The lumped chain ``M = C S`` of a tilt of ``R``, and the columns ``keep`` of ``C``.

        ``rule(cols)`` returns the tilt's columns ``cols`` at the ``reps`` of
        :attr:`lumping`, an ``(r, len(cols))`` array.  ``C`` holds the rows
        ``P(x, (u, n)) = rule(x, u) Q0(x, n)`` at the ``reps`` and ``S`` is
        the ``d x r`` 0/1 group map, so column ``g`` of ``M`` sums group
        ``g``'s columns of ``C`` by increasing state.  Both are
        Fortran-ordered, so LAPACK works on ``M`` in place.  ``C`` is formed
        from at least 4 columns of the rule at a time, with no ``r x d`` or
        ``r x d_u`` array.
        """
        _, reps, layers = self.lumping
        (r,), (d_u, d_n) = reps.shape, (self.space.d_u, self.space.d_n)
        M = np.empty((r, r), order="F")
        kept = np.empty((r, keep.size), order="F")
        Q0t = np.ascontiguousarray(self.Q0.entries[reps].T)
        step = max(4, 2**14 // (d_n * r))
        for u in range(0, d_u, step):
            y0, y1 = u * d_n, min(u + step, d_u) * d_n
            Ct = (rule(slice(u, u + step)).T[:, None, :] * Q0t).reshape(-1, r)  # columns y0 ... y1 of C
            a, b = np.searchsorted(reps, (y0, y1))
            M.T[a:b] = Ct[reps[a:b] - y0]
            for states, groups in layers:
                a, b = np.searchsorted(states, (y0, y1))
                M.T[groups[a:b]] += Ct[states[a:b] - y0]
            a, b = np.searchsorted(keep, (y0, y1))
            kept.T[a:b] = Ct[keep[a:b] - y0]
        return M, kept


class ClassRows:
    """The rows of a kernel's ``R`` in row-class order, stacked by class size.

    States are ordered by the size of their class, then by class, so each
    size's classes hold one contiguous run of states.  ``stacks`` holds, per
    size ``n``, its ``G`` classes, the slice of their states in that order,
    and a ``(G, n, d_u)`` view of one read-only copy of ``R`` in that order;
    ``inverse[x]`` is state ``x``'s place in it.  Sorted in Python: numpy's
    sort kernels would page in library code that a finite-horizon run
    touches nowhere else.

    Each solve makes its own, which its tilts and its factorizations'
    certificates share, and drops it on return: the kernel stays model data,
    and the workers forked after a solve do not inherit the copy.
    """

    def __init__(self, kernel: FactoredKernel):
        self.kernel = kernel
        c, size = kernel.row_class.tolist(), np.bincount(kernel.row_class).tolist()
        order = np.array(sorted(range(len(c)), key=lambda x: (size[c[x]], c[x])), dtype=np.intp)
        self.inverse = np.empty_like(order)
        self.inverse[order] = np.arange(order.size)
        rows = kernel.R.entries[order]
        rows.setflags(write=False)  # before its views are taken, which inherit the flag
        self.stacks: list[tuple[np.ndarray, slice, np.ndarray]] = []
        x0 = 0
        for n in sorted(set(size)):
            classes = np.array([k for k, m in enumerate(size) if m == n], dtype=np.intp)
            x1 = x0 + classes.size * n
            self.stacks.append((classes, slice(x0, x1), rows[x0:x1].reshape(classes.size, n, -1)))
            x0 = x1

    def products(self, w: np.ndarray) -> np.ndarray:
        """``out[x] = sum_u R(x, u) w(row_class[x], u)`` for a ``(K, d_u)`` array ``w`` of class rows.

        One batched BLAS product per stack, so no ``(d, d_u)`` array is
        formed.  The sum runs in BLAS order, not in numpy's pairwise order of
        ``(R * w[row_class]).sum(axis=1)``.
        """
        out = np.empty(self.inverse.size)
        for classes, states, blocks in self.stacks:
            np.matmul(blocks, w[classes, :, None], out=out[states].reshape(*blocks.shape[:2], 1))
        return out[self.inverse]
