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

import numpy as np

from .errors import AbsoluteContinuityError
from .state_space import FactoredKernel, StochasticMatrix


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
    """Exponentially tilt the nominal rule by the value vector ``h = values``.

    Returns the rule ``R_h(x, x_u') = R0(x, x_u') exp(h(x_u'|x) - Lambda_h(x))``,
    where ``h(x_u'|x)`` is the conditional expectation of ``h``, and the
    log-normalizer ``Lambda_h``.  Rows are pmfs; zeros of ``R0`` are kept.

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

