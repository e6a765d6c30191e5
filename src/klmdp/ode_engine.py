"""Continuation in the utility weight: the whole family of optimal solutions
is traced along the scalar weight ``zeta``.

Average reward: the relative value function solves ``dh/dzeta = V(h)``, where
``V(h)`` is the basepoint-normalized Poisson solution for the chain obtained
by tilting the nominal rule with ``h``; ``eta`` rides along with derivative
``pi(U)``.  The bordered matrix behind ``V`` is also the Jacobian of the
optimality equation, and it moves little along the path, so one LU of it is
kept across Newton steps and grid nodes: each node is predicted by
polynomial extrapolation through as many of the last converged nodes as
predicted the previous node best, and corrected by Anderson-accelerated
chord steps on the kept LU, refactored only where the residual stops
contracting (Shamanskii).  Finite horizon: each member of the family is
explicit, so each checkpoint is computed exactly by the backward recursion.

Each route ships with an independent oracle, so every result is checkable:
relative value iteration for average reward, and for finite horizon the block
ODE in ``zeta`` that the stacked value functions solve, integrated by RK4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_solvers import BorderedLU, recurrent_class
from .errors import ConvergenceError, ResidualToleranceError
from .kl_calculus import _normalize_rule, _tilt_values, conditional_expectation_values
from .state_space import (
    FactoredKernel,
    StochasticMatrix,
    ValueFunction,
    induced_transition,
    induced_transition_values,
)

# Newton stops once the optimality-equation residual, the right-hand side of the
# next correction, is at rounding level relative to ``1 + |h| + |zeta U|``; the
# cap bounds the work where it cannot get there, and the node check then fails.
NEWTON_TOL = 1e-14
NEWTON_MAX_ITER = 30
# A chord step on the kept LU must cut the residual by this factor; where it
# does not, the bordered matrix is refactored at the current iterate.
CHORD_RHO = 0.25
# The predictor extrapolates through at most this many converged nodes, and
# the corrector mixes each chord step with at most this many earlier ones.
PREDICTOR_MAX_NODES = 8
ANDERSON_DEPTH = 3


@dataclass(frozen=True)
class OdeConfig:
    """Weight grid and verification tolerance.

    ``step`` spaces the grid nodes at which the average-reward family is
    solved and reported; for finite horizon it only sets the grid to which
    checkpoints snap.  ``residual_tol`` bounds the optimality-equation
    residual of every average-reward node and is not used by finite horizon.
    """

    zeta_max: float
    step: float = 0.01
    checkpoints: tuple[float, ...] | None = None
    residual_tol: float = 1e-6

    def __post_init__(self):
        if self.zeta_max < 0:
            raise ValueError("zeta_max must be >= 0")
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.checkpoints is not None:
            cps = tuple(sorted(float(c) for c in self.checkpoints))
            for c in cps:
                if c < 0 or c > self.zeta_max + 1e-12:
                    raise ValueError(f"checkpoint {c} outside [0, {self.zeta_max}]")
            object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class PathCheckpoint:
    """Full solution snapshot at one value of the weight.

    The dense controlled chain is built from ``tilted_rule`` and ``Q0`` each
    time :attr:`controlled_P` is read, not stored.
    """

    zeta: float
    h: ValueFunction
    eta: float
    tilted_rule: StochasticMatrix
    Q0: StochasticMatrix
    aroe_residual_sup: float

    @property
    def controlled_P(self) -> StochasticMatrix:
        return StochasticMatrix(induced_transition_values(self.tilted_rule.entries, self.Q0.entries))


@dataclass(frozen=True)
class ZetaSolutionPath:
    """Checkpoints plus the average-reward trace over the full weight grid."""

    checkpoints: list[PathCheckpoint]
    grid: np.ndarray
    eta_trace: np.ndarray
    residual_trace: np.ndarray
    newton_steps: np.ndarray  # corrections solved per grid node
    factorizations: np.ndarray  # bordered matrices factored per grid node
    predictor_residual: np.ndarray  # residual of the predicted iterate, before any correction
    predictor_nodes: np.ndarray  # converged nodes the prediction used (1: the last node, constant)
    snapped: list[tuple[float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class FhCheckpoint:
    """Stacked finite-horizon values (rows 0..T) and the stage policies."""

    zeta: float
    W: np.ndarray
    policies: list[StochasticMatrix]


@dataclass(frozen=True)
class FiniteHorizonPath:
    horizon: int
    checkpoints: list[FhCheckpoint]
    snapped: list[tuple[float, float]] = field(default_factory=list)


def _zeta_grid(cfg: OdeConfig) -> np.ndarray:
    n = int(np.floor(cfg.zeta_max / cfg.step + 1e-9))
    nodes = cfg.step * np.arange(n + 1)
    if cfg.zeta_max - nodes[-1] > 1e-12:
        nodes = np.append(nodes, cfg.zeta_max)
    return nodes


def _snap_checkpoints(cfg: OdeConfig, grid: np.ndarray) -> tuple[dict[int, float], list[tuple[float, float]]]:
    requested = cfg.checkpoints if cfg.checkpoints is not None else (float(grid[-1]),)
    by_node: dict[int, float] = {}
    snapped = []
    for c in requested:
        i = int(np.argmin(np.abs(grid - c)))
        if abs(grid[i] - c) > 1e-12:
            snapped.append((c, float(grid[i])))
        by_node[i] = float(grid[i])
    return by_node, snapped


def _extrapolation_weights(nodes: np.ndarray, z: float) -> np.ndarray:
    """Lagrange weights at ``z`` of the trailing nodes, one row per order.

    Row ``n - 1`` holds the weights of the values at the last ``n`` of
    ``nodes`` in their interpolating polynomial at ``z``, and zeros for the
    earlier nodes.  Extending a window by one node multiplies each weight by
    one factor, so all rows come from one cumulative product.
    """
    t = nodes[::-1]  # newest first: the windows are the leading nodes
    gaps = t[:, None] - t[None, :]
    np.fill_diagonal(gaps, 1.0)
    factors = (z - t)[None, :] / gaps
    np.fill_diagonal(factors, 1.0)
    return np.triu(np.cumprod(factors, axis=1)).T[:, ::-1]


def _extrapolate(zetas: np.ndarray, X: np.ndarray, z: float) -> tuple[np.ndarray, int]:
    """Predict the row of ``X`` at ``z`` from its rows at ``zetas``; returns it and the order.

    ``X`` holds converged ``(h, eta)`` rows in the order of ``zetas``.  The
    order, the number of trailing rows extrapolated, is the ``n`` in
    ``2 ... len - 1`` whose extrapolation from the rows before the last best
    predicted the last, by sup-error in ``h``; with two rows it is 2.  All
    candidate orders are evaluated in one product.
    """
    n = zetas.size
    if n > 2:
        candidates = _extrapolation_weights(zetas[:-1], zetas[-1])[1:]  # orders 2 ... len - 1
        errors = np.max(np.abs(candidates @ X[:-1, :-1] - X[-1, :-1]), axis=1)
        n = int(np.argmin(errors)) + 2
    return _extrapolation_weights(zetas, z)[n - 1] @ X, n


def _anderson_step(history: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Next iterate of the fixed-point map ``x -> x + f(x)``, Anderson-mixed.

    ``history`` holds the last ``(x, f)`` pairs of the map and is updated in
    place.  The step ``x + f`` is corrected by the combination of the last
    ``ANDERSON_DEPTH`` differences of the iterates and of the corrections
    that best cancels ``f`` in least squares (Walker & Ni, 2011).  The
    least-squares problem is solved by modified Gram-Schmidt, newest
    difference first, with the differences of ``x + f`` carried through the
    same operations; a difference within rounding of the span of the newer
    ones is skipped.  This needs only vector products: a LAPACK least-squares
    driver would add about 1 MB to peak memory on its first call (numpy's
    bundled OpenBLAS).
    """
    history.append((x, f))
    del history[: -ANDERSON_DEPTH - 1]
    deltas = np.diff(np.array(history[::-1]), axis=0)  # newest first; (pairs - 1, 2, len(x))
    F, G = deltas[:, 1], deltas.sum(axis=1)  # differences of f and of x + f
    floor = (np.finfo(float).eps * f.size) ** 2 * np.einsum("ij,ij->i", F, F)
    step, r = x + f, f
    for j in range(len(F)):
        nn = F[j] @ F[j]
        if nn <= floor[j]:
            continue
        c = (F[j] @ r) / nn
        step, r = step - c * G[j], r - c * F[j]
        s = (F[j + 1 :] @ F[j]) / nn
        F[j + 1 :] -= s[:, None] * F[j]
        G[j + 1 :] -= s[:, None] * G[j]
    return step


def _checked_utility(utility: np.ndarray, model: FactoredKernel) -> np.ndarray:
    U = np.asarray(utility, dtype=float)
    if U.size != model.space.d:
        raise ValueError(f"utility has length {U.size}, expected {model.space.d}")
    if not np.all(np.isfinite(U)):
        raise ValueError("utility has non-finite entries")
    return U


def solve_average_reward(
    model: FactoredKernel,
    utility: np.ndarray,
    cfg: OdeConfig,
    basepoint: int = 0,
) -> ZetaSolutionPath:
    """Trace the average-reward family from the nominal solution at ``zeta = 0``.

    Predictor-corrector continuation on ``x = (h, eta)``.  The predictor
    extrapolates through up to ``PREDICTOR_MAX_NODES`` of the last converged
    nodes, as many as best predicted the node converged last (see
    :func:`_extrapolate`); the first node past ``zeta = 0`` starts from the
    exact solution there, the constant predictor.  The corrector is Newton on
    ``zeta U + Lambda_h - h - eta = 0`` (policy iteration), with the bordered
    matrix ``[I - P_h | 1]`` factored at the first correction and kept as one
    :class:`BorderedLU` across steps and nodes (chord method).  The chord
    correction is the residual of a fixed-point map, and its steps are
    Anderson-mixed with up to ``ANDERSON_DEPTH`` earlier ones on the same LU;
    the mixing history is cleared at each node, refactorization and undo.
    Each iterate is tilted once, on the kernel's row classes, and each
    correction is one triangular solve.  A step needs only the log-normalizer
    ``Lambda_h`` of the tilt, so the rule ``R_h`` is normalized only where it
    is used: for each factorization and each checkpoint.  Where a correction
    does not cut the residual by ``CHORD_RHO``, the matrix is refactored at
    the current iterate, so that step is a full Newton step (Shamanskii);
    where a chord step does not lower the residual at all, it is undone and
    the full Newton step is taken from where it started.  A stale LU changes
    only the iteration path: the residual
    ``sup_x |zeta U + Lambda_h - h - eta|`` comes from the exact tilt, and is
    recorded and enforced at every grid node.
    """
    U = _checked_utility(utility, model)
    d = model.space.d
    if not 0 <= basepoint < d:
        raise ValueError(f"basepoint {basepoint} outside [0, {d})")

    # The tilt never changes the support pattern, so structure is checked once;
    # the nominal d x d chain is not kept past the check.
    members = recurrent_class(induced_transition(model))
    if basepoint not in members:
        raise ValueError(f"basepoint {basepoint} is transient; it must be in the recurrent class")

    grid = _zeta_grid(cfg)
    cp_nodes, snapped = _snap_checkpoints(cfg, grid)

    def factor(rule: np.ndarray, zeta: float) -> BorderedLU:
        # the first solve is certified with P_h y from the factors of P_h
        def matvec(y):
            return (rule * conditional_expectation_values(y, model)).sum(axis=1)

        try:
            return BorderedLU(induced_transition_values(rule, model.Q0.entries), basepoint, matvec)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at zeta={zeta:g}") from exc

    def solve(lu: BorderedLU, rhs: np.ndarray, zeta: float) -> np.ndarray:
        try:
            H, eta = lu.solve(rhs)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at zeta={zeta:g}") from exc
        return np.append(H, eta)

    x = np.zeros(d + 1)  # the iterate (h, eta)
    eta_trace = np.zeros(grid.size)
    residual_trace = np.zeros(grid.size)
    newton_steps = np.zeros(grid.size, dtype=int)
    factorizations = np.zeros(grid.size, dtype=int)
    predictor_residual = np.zeros(grid.size)
    predictor_nodes = np.zeros(grid.size, dtype=int)
    checkpoints: list[PathCheckpoint] = []
    u_max = float(np.max(np.abs(U)))
    # the last nodes' (zeta, x): one more than the predictor uses, to score its top order
    converged: list[tuple[float, np.ndarray]] = []
    lu = None

    for i, zeta in enumerate(grid.tolist()):
        if i > 0:
            x, predictor_nodes[i] = _extrapolate(
                np.array([z for z, _ in converged]), np.array([xj for _, xj in converged]), zeta
            )
        # The start h = 0, eta = 0 is exact, so there no correction runs, and
        # the last iterate allowed is only measured.  ``start`` is the iterate
        # the latest correction started from, with its residual and whether
        # the LU was factored there.
        start, start_res, start_factored = None, np.inf, True
        mixing: list[tuple[np.ndarray, np.ndarray]] = []
        for it in range(NEWTON_MAX_ITER + 1):
            h, eta = x[:d], float(x[d])
            weights, lam = _tilt_values(h, model, normalize=False)
            defect = zeta * U + lam - h - eta
            res = float(np.max(np.abs(defect)))
            if not np.isfinite(res):
                raise ConvergenceError(f"non-finite optimality-equation residual at zeta={zeta:g}")
            if it == 0:
                predictor_residual[i] = res
            if i == 0 or it == NEWTON_MAX_ITER or res <= NEWTON_TOL * (1 + np.max(np.abs(h)) + zeta * u_max):
                break
            refactor = lu is None or res > CHORD_RHO * start_res
            if refactor and res >= start_res and not start_factored:
                (x, weights, defect), res = start, start_res  # undo a chord step that did not help
            if refactor:
                lu = None  # at most one factorization alive
                # in place: an undo never returns to an iterate that was factored
                lu = factor(_normalize_rule(weights, out=weights), zeta)
                factorizations[i] += 1
                mixing.clear()
            start, start_res, start_factored = (x, weights, defect), res, refactor
            x = _anderson_step(mixing, x, solve(lu, defect, zeta))
            newton_steps[i] += 1
        if not res <= cfg.residual_tol:
            raise ResidualToleranceError(
                f"optimality-equation residual {res:.3e} at zeta={zeta:g} exceeds "
                f"{cfg.residual_tol:g}; reduce --step: a closer node gives the predictor a closer start"
            )
        eta_trace[i] = eta
        residual_trace[i] = res
        converged = [*converged[-PREDICTOR_MAX_NODES:], (zeta, x)]
        if i in cp_nodes:
            checkpoints.append(
                PathCheckpoint(
                    zeta=zeta,
                    h=ValueFunction(h, basepoint),
                    eta=eta,
                    # in place: a node's last weights are never factored
                    tilted_rule=StochasticMatrix(_normalize_rule(weights, out=weights)),
                    Q0=model.Q0,
                    aroe_residual_sup=res,
                )
            )

    return ZetaSolutionPath(
        checkpoints=checkpoints,
        grid=grid,
        eta_trace=eta_trace,
        residual_trace=residual_trace,
        newton_steps=newton_steps,
        factorizations=factorizations,
        predictor_residual=predictor_residual,
        predictor_nodes=predictor_nodes,
        snapped=snapped,
    )


def aroe_fixed_point_oracle(
    model: FactoredKernel,
    utility: np.ndarray,
    zeta: float,
    basepoint: int = 0,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
    damping: float = 1.0,
) -> tuple[ValueFunction, float]:
    """Solve the average-reward optimality equation at a fixed weight directly.

    Relative value iteration on ``h <- zeta U + Lambda_h``, re-pinned at the
    basepoint each sweep; independent of the ODE path.  Returns ``(h, eta)``.
    """
    U = np.asarray(utility, dtype=float)
    h = np.zeros(model.space.d)
    eta = 0.0
    for _ in range(max_iter):
        _, lam = _tilt_values(h, model, normalize=False)
        t = zeta * U + lam
        eta = t[basepoint]
        h_new = (1.0 - damping) * h + damping * (t - eta)
        change = np.max(np.abs(h_new - h))
        h = h_new
        if change <= tol:
            return ValueFunction(h, basepoint), float(eta)
    raise ConvergenceError(f"relative value iteration did not converge in {max_iter} sweeps")


def fh_block_ode_oracle(
    model: FactoredKernel,
    utility: np.ndarray,
    T: int,
    zeta: float,
    step: float,
) -> np.ndarray:
    """Finite-horizon values at ``zeta`` from the block ODE, integrated by RK4.

    The stacked values ``W`` solve ``dW/dzeta = V(W)`` from ``W = 0``, where
    ``V_0 = U`` and ``V_k = U + P_{k-1} V_{k-1}`` with ``P_{k-1}`` the chain
    controlled by the tilt of ``W[k-1]``: the derivative of the recursion,
    evaluated with matrix-vector products only.  Independent of the backward
    recursion that :func:`solve_finite_horizon` runs; returns ``(T+1, d)``.
    """
    U = np.asarray(utility, dtype=float)
    space = model.space

    def rhs(W: np.ndarray) -> np.ndarray:
        V = np.zeros_like(W)
        V[0] = U
        for k in range(1, T + 1):
            rule, _ = _tilt_values(W[k - 1], model)
            # (P v)(x) = sum_{x_u'} R(x, x_u') sum_{x_n'} Q0(x, x_n') v(x_u', x_n')
            cond = model.Q0.entries @ V[k - 1].reshape(space.d_u, space.d_n).T
            V[k] = U + (rule * cond).sum(axis=1)
        return V

    grid = _zeta_grid(OdeConfig(zeta_max=zeta, step=step))
    W = np.zeros((T + 1, space.d))
    for dz in np.diff(grid).tolist():
        k1 = rhs(W)
        k2 = rhs(W + 0.5 * dz * k1)
        k3 = rhs(W + 0.5 * dz * k2)
        k4 = rhs(W + dz * k3)
        W = W + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return W


def solve_finite_horizon(
    model: FactoredKernel,
    utility: np.ndarray,
    T: int,
    cfg: OdeConfig,
) -> FiniteHorizonPath:
    """Solve the finite-horizon family at each checkpoint by backward recursion.

    Checkpoints snap to the weight grid; at each, ``W[0] = zeta U`` and
    ``W[k] = zeta U + Lambda(W[k-1])``.  One tilt of ``W[k]`` gives both the
    stage-``k`` policy and ``W[k+1]``, so a checkpoint costs ``T`` tilts
    whatever the grid.  The values are the recursion itself, so recomputing
    its residual would only read rounding error; instead a non-finite
    ``W[k]`` raises :class:`ConvergenceError` at the stage where it appears.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    U = _checked_utility(utility, model)

    grid = _zeta_grid(cfg)
    cp_nodes, snapped = _snap_checkpoints(cfg, grid)
    checkpoints: list[FhCheckpoint] = []
    for zeta in sorted(cp_nodes.values()):
        W = np.zeros((T + 1, model.space.d))
        W[0] = zeta * U
        policies = []
        for k in range(T + 1):
            if not np.all(np.isfinite(W[k])):
                raise ConvergenceError(f"non-finite finite-horizon value W[{k}] at zeta={zeta:g}")
            if k < T:
                rule, lam = _tilt_values(W[k], model)
                policies.append(StochasticMatrix(rule))
                if zeta > 0:  # at zeta = 0, W = 0 exactly; lam is log of R0's row sums
                    W[k + 1] = zeta * U + lam
        checkpoints.append(FhCheckpoint(zeta=zeta, W=W, policies=policies))

    return FiniteHorizonPath(horizon=T, checkpoints=checkpoints, snapped=snapped)
