"""Kullback-Leibler machinery: exponential tilting and the closed-form optimal
randomized decision rule.

The central object is the tilt of a nominal rule ``R0`` by a value vector
``h``: each row is reweighted by ``exp`` of the conditional expectation of
``h`` over the exogenous coordinate, and renormalized by a per-state
log-normalizer.  That tilted rule is exactly the maximizer of the one-step
reward plus continuation value (Gibbs form), and the log-normalizer is the
achieved maximum up to the utility term.

The tilt's exponent is formed once per row class of the kernel (see
:class:`FactoredKernel`).  From it, :func:`_tilt_values` gives the row sums
of ``R0`` against it and the log-normalizer, by one product per stack of
classes, all that a Newton step, a factorization or a backward recursion
needs; :func:`tilted_rule` gives the normalized, validated rule of a policy.
"""

from __future__ import annotations

import numpy as np

from .state_space import ClassRows, FactoredKernel, StochasticMatrix


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


def _class_exponent(values: np.ndarray, kernel: FactoredKernel) -> tuple[np.ndarray, np.ndarray]:
    """The tilt's class exponent ``e = exp(g - m)`` by ``h = values``, and ``m``.

    ``g(c, x_u') = h(x_u'|c)`` is the conditional expectation of ``h`` and
    ``m(c)`` its maximum over the support of class ``c``; ``e`` has shape
    ``(K, d_u)`` and is ``+0.0`` off the support.  The tilt of ``R0`` by
    ``h`` is ``R0(x, u) e(c(x), u)``, up to its row sum.
    """
    g = conditional_expectation_values(values, kernel)
    support = kernel.class_support
    m = np.max(g, axis=1, where=support, initial=-np.inf)
    g -= m[:, None]
    # off the support the weight is +0.0: R0 is +0.0 there, and so is this
    return np.exp(g, out=np.zeros_like(g), where=support), m


def _tilt_values(values: np.ndarray, rows: ClassRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tilt the nominal rule of ``rows.kernel`` by ``h = values``: ``(e, s, Lambda_h)``.

    ``e`` is the class exponent (:func:`_class_exponent`), ``s(x) = sum_u
    R0(x, u) e(c(x), u)`` the row sums of the unnormalized tilt, and
    ``Lambda_h = log s + m(c(x))`` the log-normalizer of the rule ``R_h(x, u)
    = R0(x, u) e(c(x), u) / s(x)``.  The row sums are one BLAS product per
    stack of classes of one size (:meth:`ClassRows.products`), so no
    ``(d, d_u)`` array is formed; they match ``tilted_rule``'s row sums to
    rounding, not bit for bit.
    """
    e, m = _class_exponent(values, rows.kernel)
    s = rows.products(e)
    return e, s, np.log(s) + m[rows.kernel.row_class]


def tilted_rule(values: np.ndarray, kernel: FactoredKernel) -> StochasticMatrix:
    """The optimal rule for continuation values ``values``: the nominal rule tilted by them (Gibbs form).

    The class exponent gathered to the states and weighted by ``R0``, each
    row over its own sum.
    """
    t = _class_exponent(values, kernel)[0][kernel.row_class]
    t *= kernel.R.entries
    return StochasticMatrix(np.divide(t, t.sum(axis=1)[:, None], out=t))
