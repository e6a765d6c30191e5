"""Continuation in the utility weight: the whole family of optimal solutions
is traced along the scalar weight ``zeta``.

Average reward: the relative value function solves ``dh/dzeta = V(h)``, where
``V(h)`` is the basepoint-normalized Poisson solution for the chain obtained
by tilting the nominal rule with ``h``; ``eta`` rides along with derivative
``pi(U)``.  The bordered matrix behind ``V`` is also the Jacobian of the
optimality equation, and it moves little along the path, so one LU of it is
kept across Newton steps and grid nodes: each node is predicted by
polynomial extrapolation and corrected by Anderson-accelerated chord steps
on the kept LU, refactored only where the residual stops contracting
(Shamanskii).  Finite horizon: each member of the family is explicit, so
each checkpoint is computed exactly by the backward recursion.  A checkpoint
of either family keeps only its values; each policy is the tilt of the
nominal rule by them, derived when it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_solvers import BorderedLU, recurrent_class
from .errors import ConvergenceError, ResidualToleranceError
from .kl_calculus import _tilt_values, tilted_rule
from .state_space import ClassRows, FactoredKernel, StochasticMatrix

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
    """Average-reward solution at one value of the weight: ``h``, ``eta`` and the residual.

    ``h`` is a read-only copy of the solved relative values, with
    ``h[basepoint] == 0`` as the bordered solve pins it.  The optimal rule is
    the tilt of the nominal rule by ``h`` (Gibbs form), so ``h`` determines it
    and no rule is stored: :meth:`policy` derives it, and the controlled chain
    is that rule with the kernel's ``Q0``.
    """

    zeta: float
    h: np.ndarray
    eta: float
    aroe_residual_sup: float
    kernel: FactoredKernel

    def policy(self) -> StochasticMatrix:
        """The optimal rule ``R_h``: the nominal rule tilted by ``h``."""
        return tilted_rule(self.h, self.kernel)


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
    """Stacked finite-horizon values (rows ``0..T``, read-only) at one weight.

    The optimal stage-``k`` rule is the tilt of the nominal rule by ``W[k]``
    (Gibbs form), so the values determine every stage policy and no policy is
    stored: :meth:`policy` derives one when it is asked for.
    """

    zeta: float
    W: np.ndarray
    kernel: FactoredKernel

    def policy(self, k: int) -> StochasticMatrix:
        """The stage-``k`` policy, ``0 <= k < T``: the nominal rule tilted by ``W[k]``."""
        if not 0 <= k < self.W.shape[0] - 1:
            raise IndexError(f"stage {k} outside [0, {self.W.shape[0] - 1})")
        return tilted_rule(self.W[k], self.kernel)


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


def checkpoint_weights(cfg: OdeConfig) -> list[float]:
    """The grid nodes the requested checkpoints snap to, ascending: the weights a solve reports."""
    return sorted(_snap_checkpoints(cfg, _zeta_grid(cfg))[0].values())


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


class _Corrector:
    """Newton on ``zeta U + Lambda_h - h - eta = 0`` (policy iteration), owning one solve's workspace.

    The bordered matrix ``[I - P_h | 1]`` is factored at the first correction
    and kept as one :class:`BorderedLU`, lumped on the kernel's groups, across
    steps and calls (chord method).  Chord steps are Anderson-mixed with up to
    ``ANDERSON_DEPTH`` earlier ones on the same LU, a history cleared at each
    call, refactorization and undo.  Each iterate is tilted once, on the
    corrector's :class:`ClassRows` (:func:`_tilt_values`), and its class
    exponent ``e`` and row sums ``s`` are all a factorization needs, so no
    ``(d, d_u)`` array is formed; each correction is one triangular
    solve.  Each LU certifies its first solve; a singular LU, a failed
    certificate or a non-finite residual raises
    :class:`ConvergenceError`.  Where a correction does not cut the residual by
    ``CHORD_RHO``, the matrix is refactored at the current iterate
    (Shamanskii); a chord step that does not lower it at all is undone, and
    the full Newton step is taken from where it started.  A stale LU changes
    only the iteration path: the residual ``sup_x |zeta U + Lambda_h - h -
    eta|`` comes from the exact tilt.
    """

    def __init__(self, model: FactoredKernel, U: np.ndarray, basepoint: int):
        self.U, self.basepoint, self.u_max = U, basepoint, float(np.max(np.abs(U)))
        self.rows = ClassRows(model)
        self.lu: BorderedLU | None = None

    def solve(self, x: np.ndarray, zeta: float, max_iter: int) -> tuple[np.ndarray, float, float, int, int]:
        """Correct ``x = (h, eta)`` at ``zeta``: ``(x, residual, first residual, steps, factorizations)``.

        At most ``max_iter`` corrections, whose last iterate is only measured: ``max_iter = 0`` measures ``x``.
        """
        d = self.U.size
        # the iterate the latest correction started from, with its residual
        # and whether the LU was factored there
        start, start_res, start_factored = None, np.inf, True
        mixing: list[tuple[np.ndarray, np.ndarray]] = []
        steps = factorizations = 0
        for it in range(max_iter + 1):
            h, eta = x[:d], float(x[d])
            e, s, lam = _tilt_values(h, self.rows)
            defect = zeta * self.U + lam - h - eta
            res = float(np.max(np.abs(defect)))
            if not np.isfinite(res):
                raise ConvergenceError("non-finite optimality-equation residual")
            if it == 0:
                first_res = res
            if it == max_iter or res <= NEWTON_TOL * (1 + np.max(np.abs(h)) + zeta * self.u_max):
                break
            refactor = self.lu is None or res > CHORD_RHO * start_res
            if refactor and res >= start_res and not start_factored:
                (x, e, s, defect), res = start, start_res  # undo a chord step that did not help
            if refactor:
                self.lu = None  # at most one factorization alive
                self.lu = BorderedLU(self.rows, e, s, self.basepoint)
                factorizations += 1
                mixing.clear()
            start, start_res, start_factored = (x, e, s, defect), res, refactor
            x = _anderson_step(mixing, x, np.append(*self.lu.solve(defect)))
            steps += 1
        return x, res, first_res, steps, factorizations


def solve_average_reward(
    model: FactoredKernel,
    utility: np.ndarray,
    cfg: OdeConfig,
    basepoint: int = 0,
) -> ZetaSolutionPath:
    """Trace the average-reward family from the nominal solution at ``zeta = 0``.

    Predictor-corrector continuation on ``x = (h, eta)``.  The predictor
    extrapolates through up to ``PREDICTOR_MAX_NODES`` of the last converged
    nodes, as many as best predicted the node converged last
    (:func:`_extrapolate`); the first node past ``zeta = 0`` starts from the
    exact solution there.  One :class:`_Corrector`, its LU kept across nodes,
    corrects them all; a failure in it raises :class:`ConvergenceError`
    naming its grid node, and its residual is recorded and enforced at every
    node.  A checkpoint keeps a read-only copy of ``h`` (:class:`PathCheckpoint`).
    """
    U = _checked_utility(utility, model)
    d = model.space.d
    if not 0 <= basepoint < d:
        raise ValueError(f"basepoint {basepoint} outside [0, {d})")

    # The tilt never changes the support pattern, so structure is checked once,
    # on the support of the nominal factors.
    members = recurrent_class(model)
    if basepoint not in members:
        raise ValueError(f"basepoint {basepoint} is transient; it must be in the recurrent class")

    grid = _zeta_grid(cfg)
    cp_nodes, snapped = _snap_checkpoints(cfg, grid)

    x = np.zeros(d + 1)  # the iterate (h, eta)
    eta_trace, residual_trace, predictor_residual = (np.zeros(grid.size) for _ in range(3))
    newton_steps, factorizations, predictor_nodes = (np.zeros(grid.size, dtype=int) for _ in range(3))
    checkpoints: list[PathCheckpoint] = []
    # the last nodes' (zeta, x): one more than the predictor uses, to score its top order
    converged: list[tuple[float, np.ndarray]] = []
    corrector = _Corrector(model, U, basepoint)

    for i, zeta in enumerate(grid.tolist()):
        if i > 0:
            x, predictor_nodes[i] = _extrapolate(
                np.array([z for z, _ in converged]), np.array([xj for _, xj in converged]), zeta
            )
        try:
            # the start h = 0, eta = 0 is exact, so there no correction runs
            x, res, predictor_residual[i], newton_steps[i], factorizations[i] = corrector.solve(
                x, zeta, NEWTON_MAX_ITER if i else 0
            )
        except ConvergenceError as exc:  # a singular LU, a failed certificate or a non-finite residual
            raise ConvergenceError(f"{exc} at zeta={zeta:g}") from exc
        if not res <= cfg.residual_tol:
            raise ResidualToleranceError(
                f"optimality-equation residual {res:.3e} at zeta={zeta:g} exceeds "
                f"{cfg.residual_tol:g}; reduce --step: a closer node gives the predictor a closer start"
            )
        h, eta = x[:d], float(x[d])
        eta_trace[i] = eta
        residual_trace[i] = res
        converged = [*converged[-PREDICTOR_MAX_NODES:], (zeta, x)]
        if i in cp_nodes:
            h = h.copy()  # x stays in the predictor's history
            h.setflags(write=False)  # the rule comes only from the values solved
            checkpoints.append(PathCheckpoint(zeta, h, eta, res, model))

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


def solve_finite_horizon(
    model: FactoredKernel,
    utility: np.ndarray,
    T: int,
    cfg: OdeConfig,
) -> FiniteHorizonPath:
    """Solve the finite-horizon family at each checkpoint by backward recursion.

    Checkpoints snap to the weight grid; at each, ``W[0] = zeta U`` and
    ``W[k] = zeta U + Lambda(W[k-1])``.  The recursion needs only the
    log-normalizer ``Lambda`` of each tilt, so a checkpoint costs ``T``
    tilts, whatever the grid, each a class exponent and one product per stack
    of the solve's :class:`ClassRows`, with no
    ``(d, d_u)`` array, and none at ``zeta = 0``, where ``W = 0`` exactly.  A
    checkpoint keeps only ``W``, frozen; its stage policies are the
    normalized tilts of the same rows, derived by
    :meth:`FhCheckpoint.policy`.  The values are the recursion itself, so
    recomputing its residual would only read rounding error; instead a
    non-finite ``W[k]`` raises :class:`ConvergenceError` at the stage where
    it appears.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    U = _checked_utility(utility, model)

    grid = _zeta_grid(cfg)
    cp_nodes, snapped = _snap_checkpoints(cfg, grid)
    rows = ClassRows(model)
    checkpoints: list[FhCheckpoint] = []
    for zeta in sorted(cp_nodes.values()):
        W = np.zeros((T + 1, model.space.d))
        W[0] = zeta * U
        for k in range(T + 1):
            if not np.all(np.isfinite(W[k])):
                raise ConvergenceError(f"non-finite finite-horizon value W[{k}] at zeta={zeta:g}")
            # at zeta = 0, W = 0 exactly, where Lambda(0), the log of R0's row sums, reads ±1e-16
            if k < T and zeta > 0:
                W[k + 1] = zeta * U + _tilt_values(W[k], rows)[2]
        W.setflags(write=False)  # a stage policy comes only from the values written
        checkpoints.append(FhCheckpoint(zeta=zeta, W=W, kernel=model))

    return FiniteHorizonPath(horizon=T, checkpoints=checkpoints, snapped=snapped)
