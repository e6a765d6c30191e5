"""Product state space, stochastic matrices, and the factored transition model.

The state splits into a controlled coordinate (index set of size ``d_u``,
chosen through a randomized decision rule ``R``) and an exogenous coordinate
(size ``d_n``, driven by a fixed kernel ``Q0``).  The full transition matrix
is the product ``P(x, (x_u', x_n')) = R(x, x_u') * Q0(x, x_n')``.

States are enumerated row-major over ``(x_u, x_n)``, so the exogenous
coordinate is the fast axis.  The kernel groups states into row classes that
share their ``Q0`` row and the support of their ``R`` row; the tilt forms its
conditional expectation and exponent once per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProductStateSpace:
    """Indexing bijection for the product of two finite coordinate sets."""

    d_u: int
    d_n: int

    def __post_init__(self):
        if self.d_u < 1 or self.d_n < 1:
            raise ValueError(f"coordinate sizes must be >= 1, got ({self.d_u}, {self.d_n})")

    @property
    def d(self) -> int:
        return self.d_u * self.d_n

    def flatten(self, x_u: int, x_n: int) -> int:
        if not (0 <= x_u < self.d_u and 0 <= x_n < self.d_n):
            raise ValueError(f"state ({x_u}, {x_n}) outside {self.d_u} x {self.d_n} space")
        return x_u * self.d_n + x_n

    def unflatten(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.d:
            raise ValueError(f"flat index {i} outside [0, {self.d})")
        return divmod(i, self.d_n)


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

    ``R`` has shape ``(d, d_u)`` and ``Q0`` shape ``(d, d_n)``; both are
    row-indexed by the full flat state.  ``support`` is the read-only mask
    ``R > 0``, computed once: the tilt reweights only those entries.

    A state enters the tilt's conditional expectation only through its
    ``Q0`` row, and its exponent only through its support, so states that
    share both form one row class.  ``row_class`` maps each state to its
    class, numbered in order of first appearance; ``class_Q0`` and
    ``class_support`` hold the ``Q0`` row and support of each class.  All are
    read-only and computed once.  The UAV model has ``2 d_N`` classes, one
    per wind state off the target and one per wind state on it (6 for 192
    states at 8x8x3); a Dirichlet ``Q0`` has one class per state.
    """

    space: ProductStateSpace
    R: StochasticMatrix
    Q0: StochasticMatrix
    support: np.ndarray = field(init=False, repr=False, compare=False)
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
            ("support", support),
            ("row_class", row_class),
            ("class_Q0", self.Q0.entries[reps]),
            ("class_support", support[reps]),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ValueFunction:
    """Real vector over the state space pinned to zero at a basepoint.

    Construction re-normalizes, so ``values[basepoint] == 0`` holds exactly.
    """

    values: np.ndarray
    basepoint: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a vector, got shape {v.shape}")
        if not 0 <= self.basepoint < v.size:
            raise ValueError(f"basepoint {self.basepoint} outside [0, {v.size})")
        v = v - v[self.basepoint]
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.size


def induced_transition(kernel: FactoredKernel) -> StochasticMatrix:
    """Full transition matrix ``P(x, (x_u', x_n')) = R(x, x_u') Q0(x, x_n')``."""
    return StochasticMatrix(induced_transition_values(kernel.R.entries, kernel.Q0.entries))


def induced_transition_values(R: np.ndarray, Q0: np.ndarray) -> np.ndarray:
    """Same outer product on raw arrays, without the row-sum validation."""
    d = R.shape[0]
    return np.einsum("xu,xn->xun", R, Q0).reshape(d, d)
