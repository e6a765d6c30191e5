"""Independent oracles: the classical solutions the solvers are checked against.

Relative value iteration, the finite-horizon block ODE in ``zeta``, the
Perron-Frobenius eigenvector of the unconstrained model and a Monte Carlo
rollout of the UAV's cost to the target.  They are independent by import:
nothing of ``kl_calculus`` or ``chain_solvers``, only numpy, the standard
library, the errors, the kernel types, the weight grid and the UAV builders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityError, ConvergenceError
from .ode_engine import OdeConfig, _zeta_grid
from .state_space import FactoredKernel, StochasticMatrix
from .uav_benchmark import UavScenario, build_wind_chain


def kl_step_cost(rule: StochasticMatrix, R0: StochasticMatrix) -> np.ndarray:
    """Row-wise relative entropy ``D(rule(x,.) || R0(x,.))`` as a vector over states.

    Raises :class:`AbsoluteContinuityError` if the rule puts mass where the
    nominal rule has none.  Uses the convention ``0 log 0 = 0``.
    """
    r = rule.entries
    r0 = R0.entries
    if r.shape != r0.shape:
        raise ValueError(f"shape mismatch: {r.shape} vs {r0.shape}")
    bad = (r > 0) & (r0 == 0)
    if np.any(bad):
        x, xu = np.argwhere(bad)[0]
        raise AbsoluteContinuityError(
            f"rule({x}, {xu}) = {r[x, xu]:g} > 0 but nominal rule is zero there"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(r > 0, r * (np.log(np.where(r > 0, r, 1.0)) - np.log(np.where(r0 > 0, r0, 1.0))), 0.0)
    return terms.sum(axis=1)


def perron_frobenius_baseline(
    P0: StochasticMatrix,
    utility: np.ndarray,
    zeta: float,
    x0: int,
    max_iter: int = 100_000,
    tol: float = 1e-12,
) -> tuple[float, np.ndarray, StochasticMatrix]:
    """Principal eigenpair of ``exp(zeta U(x)) P0(x, x')`` and its twisted matrix.

    Power iteration with the eigenvector normalized to 1 at a basepoint in
    ``[0, d)``.  Returns ``(lam, v, twisted)``: the Perron root, the positive
    eigenvector and the twisted matrix ``(1/lam) v(x')/v(x) W(x, x')``, the
    optimally controlled chain of the unconstrained model.
    """
    if not 0 <= x0 < P0.entries.shape[0]:
        raise ValueError(f"basepoint {x0} outside [0, {P0.entries.shape[0]})")
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


class _ClassBlocks:
    """The oracles' own tilt, on the row classes of a kernel, apart from the solvers'.

    The classes are renumbered by size, and the rows of ``R0`` are copied
    once in that class order, so the classes of one size lie in one
    contiguous stack of equal blocks.  A sum of ``R0`` against rows that
    depend on the class only is then one batched product per stack:
    ``d d_u`` multiply-adds per column for any number of classes, and no
    ``(d, d_u)`` array per call.
    """

    def __init__(self, kernel: FactoredKernel):
        self.space = kernel.space
        # sorted in Python: numpy's sort kernels would page in about 0.3 MB of
        # library code that nothing else in a run touches
        size = np.bincount(kernel.row_class).tolist()
        by_size = sorted(range(len(size)), key=size.__getitem__)  # new class label -> kernel's class
        label = np.empty(len(size), dtype=np.intp)
        label[by_size] = np.arange(len(size))
        self.row_class = label[kernel.row_class]
        self.Q0 = kernel.class_Q0[by_size]
        self.support = kernel.class_support[by_size]
        labels = self.row_class.tolist()
        order = np.array(sorted(range(len(labels)), key=labels.__getitem__))
        self.inverse = np.empty_like(order)
        self.inverse[order] = np.arange(order.size)
        rows = kernel.R.entries[order]
        self.stacks: list[tuple[slice, slice, np.ndarray]] = []  # classes, their states, (G, n, d_u) blocks
        c0 = s0 = 0
        for n, group in itertools.groupby(size[c] for c in by_size):
            count = len(list(group))
            c1, s1 = c0 + count, s0 + count * n
            self.stacks.append((slice(c0, c1), slice(s0, s1), rows[s0:s1].reshape(count, n, -1)))
            c0, s0 = c1, s1

    def conditional_expectation(self, values: np.ndarray) -> np.ndarray:
        """``g[i, c, u] = sum_n Q0(c, n) values[i, (u, n)]`` for ``values`` of shape ``(m, d)`` or ``(d,)``."""
        return self.Q0 @ values.reshape(-1, self.space.d_u, self.space.d_n).transpose(0, 2, 1)

    def exponent(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tilt exponent of each row of ``values``, and its maxima.

        ``exp(g - max g)`` on the class support and zero off it, of shape
        ``(m, K, d_u)``, with ``g`` the conditional expectation; the maxima of
        ``g`` over the support have shape ``(m, K)``.
        """
        g = self.conditional_expectation(values)
        top = np.max(g, axis=2, where=self.support, initial=-np.inf, keepdims=True)
        g -= top
        return np.exp(g, out=np.zeros_like(g), where=self.support), top[..., 0]

    def row_sums(self, F: np.ndarray) -> np.ndarray:
        """``out[x, j] = sum_u R0(x, u) F[c(x), u, j]`` for ``F`` of shape ``(K, d_u, m)``."""
        m = F.shape[2]
        out = np.empty((self.inverse.size, m))
        for classes, states, blocks in self.stacks:
            np.matmul(blocks, F[classes], out=out[states].reshape(*blocks.shape[:2], m))
        return out[self.inverse]


def aroe_fixed_point_oracle(
    model: FactoredKernel,
    utility: np.ndarray,
    zeta: float,
    basepoint: int = 0,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
    damping: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Solve the average-reward optimality equation at a fixed weight directly.

    Relative value iteration on ``h <- zeta U + Lambda_h``, re-pinned at the
    basepoint each sweep by subtracting its value there; independent of the
    ODE path.  The log-normalizer ``Lambda_h = log sum_u R0 e + max g`` comes
    from the class exponent of ``h`` and the row sums of ``R0`` against it,
    with no tilt of the solvers.  Returns ``(h, eta)``, with ``h`` read-only
    and ``h[basepoint] == 0``.  A basepoint outside ``[0, d)`` raises
    ``ValueError``.
    """
    if not 0 <= basepoint < model.space.d:
        raise ValueError(f"basepoint {basepoint} outside [0, {model.space.d})")
    U = np.asarray(utility, dtype=float)
    blocks = _ClassBlocks(model)
    h = np.zeros(model.space.d)
    eta = 0.0
    for _ in range(max_iter):
        e, top = blocks.exponent(h)
        lam = np.log(blocks.row_sums(e[0, :, :, None])[:, 0]) + top[0, blocks.row_class]
        t = zeta * U + lam
        eta = t[basepoint]
        h_new = (1.0 - damping) * h + damping * (t - eta)
        change = np.max(np.abs(h_new - h))
        h = h_new
        if change <= tol:
            h.setflags(write=False)
            return h, float(eta)
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
    controlled by the tilt of ``W[k-1]``: the derivative of the recursion.
    The tilt is never normalized: with ``e_k`` the class exponent of
    ``W[k]`` and ``cond`` the class conditional expectation of ``V[k-1]``,
    ``(P_{k-1} V_{k-1})(x) = sum_u R0 e_{k-1} cond / sum_u R0 e_{k-1}``, two
    sums per state from the class blocks of ``R0``.  Each right-hand side
    forms the exponents and the denominators of all ``T`` stages at once,
    and then one numerator per stage: ``O(T d d_u)``, with no ``(d, d_u)``
    array.  Independent of the backward recursion that
    :func:`solve_finite_horizon` runs and of its tilt.  RK4 steps on the
    weight grid of ``step``; returns ``(T+1, d)``.
    """
    U = np.asarray(utility, dtype=float)
    blocks = _ClassBlocks(model)

    def rhs(W: np.ndarray) -> np.ndarray:
        V = np.empty_like(W)
        V[0] = U
        e, _ = blocks.exponent(W[:T])
        den = blocks.row_sums(e.transpose(1, 2, 0))
        for k in range(1, T + 1):
            num = blocks.row_sums((e[k - 1] * blocks.conditional_expectation(V[k - 1])[0])[:, :, None])
            V[k] = U + num[:, 0] / den[:, k - 1]
        return V

    grid = _zeta_grid(OdeConfig(zeta_max=zeta, step=step))
    W = np.zeros((T + 1, model.space.d))
    for dz in np.diff(grid).tolist():
        k1 = rhs(W)
        k2 = rhs(W + 0.5 * dz * k1)
        k3 = rhs(W + 0.5 * dz * k2)
        k4 = rhs(W + dz * k3)
        W = W + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return W


@dataclass(frozen=True)
class RolloutResult:
    mean: float
    half_width_95: float
    censored: int
    trials: int

    @property
    def censored_fraction(self) -> float:
        return self.censored / self.trials


def rollout_oracle(
    model: FactoredKernel,
    tilted_rule: StochasticMatrix,
    scenario: UavScenario,
    zeta: float,
    start: int,
    trials: int,
    horizon_cap: int,
    seed: int,
) -> RolloutResult:
    """Monte Carlo estimate of the accumulated cost to the target.

    Simulates the controlled chain from ``start``, accumulating the weighted
    state cost plus the per-state KL cost of the rule until the location hits
    the target (or the cap, in which case the path is censored).  Each trial
    draws from its own generator keyed by (seed, trial), so results do not
    depend on execution order.
    """
    d_N = scenario.d_N
    target = scenario.target_index
    Qw = build_wind_chain(d_N, scenario.delta_n).entries
    kl = kl_step_cost(tilted_rule, model.R)
    state_cost = zeta * np.where(np.arange(model.space.d) // d_N == target, 0.0, 1.0) + kl
    rule_cdf = np.cumsum(tilted_rule.entries, axis=1)
    wind_cdf = np.cumsum(Qw, axis=1)

    costs = np.zeros(trials)
    censored = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        l, n = divmod(start, d_N)
        total = 0.0
        steps = 0
        while l != target:
            if steps >= horizon_cap:
                censored += 1
                break
            x = l * d_N + n
            total += state_cost[x]
            u = rng.random(2)
            l = min(int(np.searchsorted(rule_cdf[x], u[0], side="right")), scenario.d_L - 1)
            n = min(int(np.searchsorted(wind_cdf[n], u[1], side="right")), d_N - 1)
            steps += 1
        costs[t] = total

    mean = float(costs.mean())
    half_width = float(1.96 * costs.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return RolloutResult(mean=mean, half_width_95=half_width, censored=censored, trials=trials)
