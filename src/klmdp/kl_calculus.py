"""Kullback-Leibler machinery: divergence costs, exponential tilting, and the
closed-form optimal randomized decision rule.

The central object is the tilt of a nominal rule ``R0`` by a value vector
``h``: each row is reweighted by ``exp`` of the conditional expectation of
``h`` over the exogenous coordinate, and renormalized by a per-state
log-normalizer.  That tilted rule is exactly the maximizer of the one-step
reward plus continuation value (Gibbs form), and the log-normalizer is the
achieved maximum up to the utility term.
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


def conditional_expectation_values(values: np.ndarray, kernel: FactoredKernel) -> np.ndarray:
    """Average ``values`` over the exogenous next coordinate.

    Returns the ``(d, d_u)`` matrix with entry ``(x, x_u')`` equal to
    ``sum_{x_n'} Q0(x, x_n') values(x_u', x_n')``.
    """
    space = kernel.space
    if values.size != space.d:
        raise ValueError(f"value vector has length {values.size}, expected {space.d}")
    # out(x, x_u') = sum_n Q0(x, n) * values[(x_u', n)]
    H = values.reshape(space.d_u, space.d_n)
    return kernel.Q0.entries @ H.T


def _tilt_values(values: np.ndarray, kernel: FactoredKernel) -> tuple[np.ndarray, np.ndarray]:
    """Tilted rule entries and log-normalizer, on raw arrays (hot path)."""
    g = conditional_expectation_values(values, kernel)
    support = kernel.support
    m = np.max(g, axis=1, where=support, initial=-np.inf)
    g -= m[:, None]
    np.exp(g, out=g, where=support)
    g *= kernel.R.entries
    # off the support g * 0 may be -0.0; the rule there is +0.0
    np.copyto(g, 0.0, where=~support)
    s = g.sum(axis=1)
    g /= s[:, None]
    return g, np.log(s) + m


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
