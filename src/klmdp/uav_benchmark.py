"""UAV-in-wind benchmark scenario.

A vehicle moves on a rectangular grid of locations; a cyclic finite-state
wind process shifts it each step, and the nominal policy is a discrete
Gaussian over next locations centered at the wind-shifted position.  The
target cell is absorbing, the utility is minus the off-target indicator, and
the negative relative value function is the expected accumulated cost until
the target is hit.

Locations are 0-based pairs ``(i, j)`` flattened row-major; the full state
``(location, wind)`` uses the product-space layout with the wind index as the
fast axis.

``controlled_spectrum`` imports ``scipy.linalg`` where it calls it, so
building the scenario and writing its stage policies load no scipy submodule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state_space import FactoredKernel, ProductStateSpace, StochasticMatrix


@dataclass(frozen=True)
class WindField:
    """Lattice displacement per (location, wind state), components in {-1, 0, 1}."""

    table: np.ndarray  # shape (d_L, d_N, 2), integer

    def __post_init__(self):
        t = np.asarray(self.table, dtype=int)
        if t.ndim != 3 or t.shape[2] != 2:
            raise ValueError(f"wind table must have shape (d_L, d_N, 2), got {t.shape}")
        if np.any(np.abs(t) > 1):
            raise ValueError("wind displacements must lie in {-1, 0, 1} per component")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def generate_wind_field(d_a: int, d_o: int, d_N: int, seed: int) -> WindField:
    """Quantize a smooth low-frequency random field to lattice displacements.

    Per wind state and component, two random spatial harmonics are summed on
    the unit square and the grid samples are rounded into {-1, 0, 1}.
    Deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(np.arange(d_a) / max(d_a - 1, 1), np.arange(d_o) / max(d_o - 1, 1), indexing="ij")
    table = np.zeros((d_a * d_o, d_N, 2), dtype=int)
    for n in range(d_N):
        for comp in range(2):
            smooth = np.zeros((d_a, d_o))
            for _ in range(2):
                amp = rng.uniform(0.3, 0.8)
                fi, fj = rng.uniform(0.3, 1.2, size=2)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                smooth += amp * np.sin(2.0 * np.pi * (fi * ii + fj * jj) + phase)
            table[:, n, comp] = np.clip(np.rint(smooth), -1, 1).astype(int).ravel()
    return WindField(table)


@dataclass(frozen=True)
class UavScenario:
    """Grid dimensions, wind model, and nominal-kernel parameters."""

    d_a: int
    d_o: int
    d_N: int
    wind: WindField
    delta_n: float = 0.05
    sigma_u2: float = 0.5
    target: tuple[int, int] | None = None

    def __post_init__(self):
        if self.d_a < 2 or self.d_o < 2:
            raise ValueError("grid dimensions must be >= 2")
        if not 0.0 < self.delta_n < 1.0:
            raise ValueError("delta_n must lie in (0, 1)")
        if self.sigma_u2 <= 0:
            raise ValueError("sigma_u2 must be positive")
        if self.target is None:
            object.__setattr__(self, "target", (self.d_a - 1, self.d_o - 1))
        ti, tj = self.target
        if not (0 <= ti < self.d_a and 0 <= tj < self.d_o):
            raise ValueError(f"target {self.target} outside the {self.d_a} x {self.d_o} grid")
        if self.wind.table.shape[:2] != (self.d_a * self.d_o, self.d_N):
            raise ValueError("wind table dimensions do not match the scenario")

    @property
    def d_L(self) -> int:
        return self.d_a * self.d_o

    @property
    def target_index(self) -> int:
        return self.target[0] * self.d_o + self.target[1]

    @property
    def basepoint(self) -> int:
        # full state (target location, first wind state)
        return self.target_index * self.d_N

    def location_coords(self) -> np.ndarray:
        """(d_L, 2) array of (i, j) coordinates in flat location order."""
        ii, jj = np.meshgrid(np.arange(self.d_a), np.arange(self.d_o), indexing="ij")
        return np.stack([ii.ravel(), jj.ravel()], axis=1)


def build_wind_chain(d_N: int, delta_n: float) -> StochasticMatrix:
    """Symmetric nearest-neighbor walk on {0..d_N-1} with cyclic wraparound."""
    if d_N < 2:
        raise ValueError("need at least 2 wind states")
    if not 0.0 < delta_n < 1.0:
        raise ValueError("delta_n must lie in (0, 1)")
    Q = np.zeros((d_N, d_N))
    for n in range(d_N):
        Q[n, n] += 1.0 - delta_n
        Q[n, (n + 1) % d_N] += delta_n / 2.0
        Q[n, (n - 1) % d_N] += delta_n / 2.0
    return StochasticMatrix(Q)


def build_nominal_rule(scenario: UavScenario) -> StochasticMatrix:
    """Nominal decision rule over next locations, rows indexed by full state.

    Non-target rows are discrete Gaussians centered at the wind-shifted
    position (clamped to the grid), truncated to the grid and renormalized;
    target rows are a point mass at the target (absorbing).
    """
    coords = scenario.location_coords().astype(float)  # small integers: exact until the exp
    centers = np.clip(coords[:, None, :] + scenario.wind.table, 0, [scenario.d_a - 1, scenario.d_o - 1])
    # squared distance of each location to each wind-shifted center, (d_L, d_N, d_L); then in place
    rows = (coords[:, 0] - centers[:, :, 0, None]) ** 2
    rows += (coords[:, 1] - centers[:, :, 1, None]) ** 2
    rows *= -1.0 / (2.0 * scenario.sigma_u2)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=2, keepdims=True)
    R = rows.reshape(-1, scenario.d_L)
    target = slice(scenario.target_index * scenario.d_N, (scenario.target_index + 1) * scenario.d_N)
    R[target] = 0.0
    R[target, scenario.target_index] = 1.0
    return StochasticMatrix(R)


def build_scenario_model(scenario: UavScenario) -> tuple[FactoredKernel, np.ndarray]:
    """Factored kernel and utility (minus the off-target indicator)."""
    space = ProductStateSpace(scenario.d_L, scenario.d_N)
    R = build_nominal_rule(scenario)
    Qw = build_wind_chain(scenario.d_N, scenario.delta_n).entries
    Q0 = np.tile(Qw, (scenario.d_L, 1))
    utility = np.where(np.arange(space.d) // scenario.d_N == scenario.target_index, 0.0, -1.0)
    return FactoredKernel(space, R, StochasticMatrix(Q0)), utility


def velocity_field(rule: StochasticMatrix, scenario: UavScenario) -> np.ndarray:
    """Mean one-step displacement per (location, wind state), shape (d_L, d_N, 2)."""
    coords = scenario.location_coords().astype(float)
    return rule.entries.reshape(scenario.d_L, scenario.d_N, scenario.d_L) @ coords - coords[:, None, :]


def controlled_spectrum(kernel: FactoredKernel, rule: np.ndarray) -> np.ndarray:
    """All eigenvalues of the chain ``P = rule ⊗ Q0`` of a tilt of the kernel's rule, by modulus descending.

    A tilt has equal rows on each of the kernel's ``r`` groups, so ``P = S
    C`` (:meth:`FactoredKernel.lumped`), and Sylvester's identity ``det(lam
    I_d - S C) = lam^(d-r) det(lam I_r - C S)`` makes the spectrum ``eig(C
    S)`` plus ``d - r`` exact zeros.  A rule unequal within a group raises
    ``ValueError``.  LAPACK reduces ``C S`` itself, in the buffer that
    ``lumped`` writes it to: its transpose has the same eigenvalues, but
    LAPACK finds them less accurately on the tilted UAV chain (leading ten
    off by 1.6e-11 against 6e-15 at 8x8x3, zeta 1).  The finiteness check
    is skipped: :class:`StochasticMatrix` rejects non-finite entries.  A
    chain held as a dense ``P`` is the kernel ``R = P``, ``Q0 = ones((d,
    1))``.
    """
    import scipy.linalg

    _, reps, layers = kernel.lumping
    if not all(np.array_equal(rule[states], rule[reps[groups]]) for states, groups in layers):
        raise ValueError("the rule's rows differ within a group of equal nominal rows: not a tilt of the kernel's rule")
    columns, M = np.take(rule.T, reps, axis=1), np.empty((reps.size,) * 2, order="F")  # rule[reps].T, C-ordered
    kernel.lumped(lambda cols: columns[cols], M)
    lumped = scipy.linalg.eigvals(M, overwrite_a=True, check_finite=False)
    eig = np.concatenate([lumped, np.zeros(kernel.space.d - reps.size, dtype=lumped.dtype)])
    return eig[np.lexsort((-eig.imag, -eig.real, -np.abs(eig)))]
