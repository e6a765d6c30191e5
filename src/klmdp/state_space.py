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
        group, ascending, with their groups.  Rows are sorted by row class and
        a 64-bit key of their bits (:func:`_row_keys`), and each state is
        compared bit for bit with the first state of its run, so a key
        collision cannot merge two groups: a run whose rows differ is split
        by its rows.  Computed where first needed; read-only.
        """
        bits, d = self.R.entries.view(np.uint64), self.space.d
        keys = _row_keys(bits)
        order = np.lexsort((keys, self.row_class))  # stable: by state within a run of one class and key
        c, k = self.row_class[order], keys[order]
        starts = np.flatnonzero(np.concatenate([[True], (c[1:] != c[:-1]) | (k[1:] != k[:-1])]))
        first = np.empty(d, dtype=np.intp)  # each state's group, as its first state
        first[order] = np.repeat(order[starts], np.diff(np.append(starts, d)))
        later = np.flatnonzero(first != np.arange(d))
        for run in np.unique(first[later[np.any(bits[later] != bits[first[later]], axis=1)]]):
            states = np.flatnonzero(first == run)  # a key collision: regroup the run by its rows
            for x in states:
                first[x] = next(y for y in states if np.array_equal(bits[y], bits[x]))
        reps = np.flatnonzero(first == np.arange(d))
        group = np.searchsorted(reps, first)
        sizes = np.bincount(group)
        rank = np.empty(d, dtype=np.intp)  # earlier states of the group
        rank[np.argsort(group, kind="stable")] = np.arange(d) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        layers = tuple((s, group[s]) for s in map(np.flatnonzero, (rank == k for k in range(1, sizes.max()))))
        for a in (group, reps, *(a for layer in layers for a in layer)):
            a.setflags(write=False)
        return group, reps, layers

    def lumped(
        self, rule: Callable[[slice], np.ndarray], out: np.ndarray, keep: np.ndarray = np.empty(0, dtype=np.intp)
    ) -> np.ndarray:
        """Write ``M = C S`` for a tilt of ``R`` into ``out``; return the columns ``keep`` of ``C``.

        ``rule(cols)`` returns the tilt's columns ``cols`` at the ``reps`` of
        :attr:`lumping`, transposed: a ``(len(cols), r)`` array.  Both callers
        read it from a contiguous ``d_u x r`` copy of a rule at the ``reps``:
        the average-reward solve's :class:`~klmdp.chain_solvers.BorderedLU`
        holds ``R0[reps].T`` for the length of the solve (1.7 MB at 15x15x5),
        and the spectrum copies its rule for the length of its call.  ``C``
        holds the rows ``P(x, (u, n)) = rule(x, u) Q0(x, n)`` at the ``reps``
        and ``S`` is the ``d x r`` 0/1 group map, so column ``g`` of ``M``
        sums group ``g``'s columns of ``C`` by increasing state: its first
        column is copied and the later ones added.  ``out`` is an ``r x r``
        Fortran-ordered buffer, so LAPACK works on it in place.  ``C`` is
        formed about ``2^16`` entries at a time, from whole columns of the
        rule, with no ``r x d`` array.
        """
        _, reps, layers = self.lumping
        (r,), (d_u, d_n) = reps.shape, (self.space.d_u, self.space.d_n)
        kept = np.empty((r, keep.size), order="F")
        Q0t = np.ascontiguousarray(self.Q0.entries[reps].T)
        step = max(1, 2**16 // (d_n * r))
        block = np.empty((step, d_n, r))
        for u in range(0, d_u, step):
            y0, y1 = u * d_n, min(u + step, d_u) * d_n
            t = rule(slice(u, u + step))
            Ct = np.multiply(t[:, None, :], Q0t, out=block[: len(t)]).reshape(-1, r)  # columns y0 ... y1 of C
            a, b = np.searchsorted(reps, (y0, y1))
            np.take(Ct, reps[a:b] - y0, axis=0, out=out.T[a:b], mode="clip")  # clip: unbuffered, indices in range
            for states, groups in layers:
                a, b = np.searchsorted(states, (y0, y1))
                out.T[groups[a:b]] += Ct[states[a:b] - y0]
            a, b = np.searchsorted(keep, (y0, y1))
            np.take(Ct, keep[a:b] - y0, axis=0, out=kept.T[a:b], mode="clip")
        return kept


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """A 64-bit key of each row of the ``uint64`` array ``bits``: equal rows have equal keys.

    A sum of the row's words times fixed odd weights, modulo ``2^64``.
    """
    weights = np.arange(1, bits.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)
    return bits @ weights


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
