"""Kullback-Leibler machinery: exponential tilting and the closed-form optimal
randomized decision rule.

The central object is the tilt of a nominal rule ``R0`` by a value vector
``h``: each row is reweighted by ``exp`` of the conditional expectation of
``h`` over the exogenous coordinate, and renormalized by a per-state
log-normalizer.  That tilted rule is exactly the maximizer of the one-step
reward plus continuation value (Gibbs form), and the log-normalizer is the
achieved maximum up to the utility term.

The tilt is formed once per row class of the kernel (see
:class:`FactoredKernel`) and returns the unnormalized weights with the
log-normalizer, all that a Newton step or a backward recursion needs;
:func:`tilted_rule` gives the normalized, validated rule of a policy.
"""

from __future__ import annotations

import numpy as np

from .state_space import FactoredKernel, StochasticMatrix


def conditional_expectation_values(values: np.ndarray, kernel: FactoredKernel) -> np.ndarray:
    """Average ``values`` over the exogenous next coordinate, once per row class.

    Returns the ``(K, d_u)`` matrix of the ``K`` row classes with entry
    ``(c, x_u')`` equal to ``sum_{x_n'} Q0(c, x_n') values(x_u', x_n')``;
    row ``row_class[x]`` is state ``x``'s.  Gathering the class rows gives
    states of one class equal rows, which BLAS would not promise of one
    product over all ``d`` rows, whose edge tiles round differently.
    """
    space = kernel.space
    if values.size != space.d:
        raise ValueError(f"value vector has length {values.size}, expected {space.d}")
    # out(c, x_u') = sum_n Q0(c, n) * values[(x_u', n)]
    return kernel.class_Q0 @ values.reshape(space.d_u, space.d_n).T


def _tilt_values(values: np.ndarray, kernel: FactoredKernel) -> tuple[np.ndarray, np.ndarray]:
    """Exponentially tilt the nominal rule by the value vector ``h = values``.

    Returns the unnormalized weights ``R0(x, x_u') exp(g(x, x_u') - max g(x))``,
    where ``g(x, x_u') = h(x_u'|x)`` is the conditional expectation of ``h``
    and ``max g(x)`` its maximum over the support of ``R0(x, .)``, and the
    log-normalizer ``Lambda_h`` of the rule ``R_h = R0 exp(g - Lambda_h)``.
    Zeros of ``R0`` stay ``+0.0``.

    The conditional expectation, its maximum over the support and the
    exponential are formed on the row classes, which share one support, and
    gathered to the states; the weighting by ``R0`` and the row sums are per
    state.  :func:`_normalize_rule` turns the weights into the rule.
    """
    g = conditional_expectation_values(values, kernel)
    support = kernel.class_support
    m = np.max(g, axis=1, where=support, initial=-np.inf)
    g -= m[:, None]
    # off the support the weight is +0.0: R0 is +0.0 there, and so is this
    e = np.exp(g, out=np.zeros_like(g), where=support)
    t = e[kernel.row_class]
    t *= kernel.R.entries
    lam = np.log(t.sum(axis=1)) + m[kernel.row_class]
    return t, lam


def _normalize_rule(weights: np.ndarray) -> np.ndarray:
    """The decision rule of unnormalized tilt weights: each row over its sum, in place."""
    return np.divide(weights, weights.sum(axis=1)[:, None], out=weights)


def tilted_rule(values: np.ndarray, kernel: FactoredKernel) -> StochasticMatrix:
    """The optimal rule for continuation values ``values``: the nominal rule tilted by them (Gibbs form)."""
    return StochasticMatrix(_normalize_rule(_tilt_values(values, kernel)[0]))
