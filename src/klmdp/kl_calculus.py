"""Kullback-Leibler machinery: divergence costs, exponential tilting, and the
closed-form optimal randomized decision rule.

The central object is the tilt of a nominal rule ``R0`` by a value vector
``h``: each row is reweighted by ``exp`` of the conditional expectation of
``h`` over the exogenous coordinate, and renormalized by a per-state
log-normalizer.  That tilted rule is exactly the maximizer of the one-step
reward plus continuation value (Gibbs form), and the log-normalizer is the
achieved maximum up to the utility term.

The exogenous coordinate is not controlled, so a state enters the
conditional expectation only through its ``Q0`` row: it is formed once per
row class of the kernel (see :class:`FactoredKernel`), as are the shift and
the exponential, and gathered to the states for the weighting by ``R0``.
Callers that need only the log-normalizer skip the rule's normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AbsoluteContinuityError
from .state_space import FactoredKernel, StochasticMatrix


@dataclass(frozen=True)
class TiltResult:
    """Tilted decision rule together with its per-state log-normalizer."""

    tilted_rule: StochasticMatrix
    log_normalizer: np.ndarray


def conditional_expectation_values(
    values: np.ndarray, kernel: FactoredKernel, by_class: bool = False
) -> np.ndarray:
    """Average ``values`` over the exogenous next coordinate.

    Returns the ``(d, d_u)`` matrix with entry ``(x, x_u')`` equal to
    ``sum_{x_n'} Q0(x, x_n') values(x_u', x_n')``, or with ``by_class`` its
    ``(K, d_u)`` rows of the ``K`` row classes.  Each class row is computed
    once and gathered to its states, so states of one class get equal rows;
    BLAS would not promise that of one product over all ``d`` rows, whose
    edge tiles round differently.
    """
    space = kernel.space
    if values.size != space.d:
        raise ValueError(f"value vector has length {values.size}, expected {space.d}")
    # out(c, x_u') = sum_n Q0(c, n) * values[(x_u', n)]
    H = values.reshape(space.d_u, space.d_n)
    g = kernel.class_Q0 @ H.T
    return g if by_class else g[kernel.row_class]


def _tilt_values(
    values: np.ndarray, kernel: FactoredKernel, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Tilted rule entries and log-normalizer, on raw arrays (hot path).

    The conditional expectation, its maximum over the support and the
    exponential are formed on the row classes, which share one support, and
    gathered to the states; the weighting by ``R0`` and the row sums are per
    state.  Without ``normalize`` the first array holds the unnormalized
    weights ``R0 exp(g - max g)``, and :func:`_normalize_rule` turns them
    into the rule where it is needed.
    """
    g = conditional_expectation_values(values, kernel, by_class=True)
    support = kernel.class_support
    m = np.max(g, axis=1, where=support, initial=-np.inf)
    g -= m[:, None]
    # off the support the weight is +0.0: R0 is +0.0 there, and so is this
    e = np.exp(g, out=np.zeros_like(g), where=support)
    t = e[kernel.row_class]
    t *= kernel.R.entries
    s = t.sum(axis=1)
    lam = np.log(s) + m[kernel.row_class]
    if normalize:
        t /= s[:, None]
    return t, lam


def _normalize_rule(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The decision rule of unnormalized tilt weights: each row over its sum.

    Written to ``out`` if given (``weights`` itself normalizes in place).
    Bit-identical to the rule :func:`_tilt_values` normalizes itself.
    """
    return np.divide(weights, weights.sum(axis=1)[:, None], out=out)


def tilt(h: np.ndarray, kernel: FactoredKernel) -> TiltResult:
    """Exponentially tilt the nominal rule by the conditional expectation of ``h``.

    ``R_h(x, x_u') = R0(x, x_u') exp(h(x_u'|x) - Lambda_h(x))``.  Rows are
    exact pmfs by construction; zeros of ``R0`` are preserved.
    """
    rule, lam = _tilt_values(np.asarray(h, dtype=float), kernel)
    return TiltResult(StochasticMatrix(rule), lam)


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


def dv_rate(P: StochasticMatrix, P0: StochasticMatrix, pi: np.ndarray) -> float:
    """Relative entropy rate between the stationary chains of ``P`` and ``P0``.

    ``pi`` must be the invariant pmf of ``P`` (verified to 1e-9 residual);
    rows with zero invariant mass are ignored.
    """
    pi = np.asarray(pi, dtype=float)
    A = P.entries
    B = P0.entries
    if np.linalg.norm(pi @ A - pi, 1) > 1e-9:
        raise ValueError("supplied pmf is not invariant for P (residual above 1e-9)")
    mass = pi > 0
    bad = mass[:, None] & (A > 0) & (B == 0)
    if np.any(bad):
        x, xp = np.argwhere(bad)[0]
        raise AbsoluteContinuityError(
            f"P({x}, {xp}) = {A[x, xp]:g} > 0 on a recurrent row where P0 is zero"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(A > 0, A * (np.log(np.where(A > 0, A, 1.0)) - np.log(np.where(B > 0, B, 1.0))), 0.0)
    return float(pi @ terms.sum(axis=1))
