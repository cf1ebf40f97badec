"""Reduction of the semi-Markov kernel to per-triple discount coefficients.

For a holding-time law ``H`` and discount rate ``alpha``, everything the
value recursion needs is two scalars:

* ``d``, the expected discounted duration of one sojourn
  (the integral of ``exp(-alpha t) (1 - H(t))`` over ``t >= 0``), and
* ``lam``, the expected discount accrued over one full sojourn
  (the integral of ``exp(-alpha t)`` against ``H(dt)``).

Integration by parts ties them together: ``d == (1 - lam) / alpha``.  All
supported laws have closed forms, each kept with its law class in
:mod:`smgsolve.model` (``continuation``), so the coefficients are exact and
cheap; numerical quadrature appears only in the test suite as an independent
check.  A model's coefficients are computed once, into its triple table.
"""

from dataclasses import dataclass

import numpy as np

from .model import GameModel, SojournLaw, Triple


@dataclass(frozen=True)
class DiscountedCoefficients:
    """One triple's reward discount weight and continuation factor."""

    d: float
    lam: float


def continuation_weight(law: SojournLaw, alpha: float) -> float:
    """Expected discount accrued over one sojourn, in (0, 1).

    The closed form is the law's own ``continuation``: ``rate/(alpha+rate)``
    for exponential, ``(1-e^-z)/z`` with ``z = alpha*upper`` for uniform,
    ``e^(-alpha*duration)`` for deterministic; direct weights pass through.
    """
    if alpha <= 0.0:
        raise ValueError(f"discount rate must be positive, got {alpha!r}")
    return law.continuation(alpha)


def reward_weight(law: SojournLaw, alpha: float) -> float:
    """Expected discounted duration of one sojourn, ``(1 - lam)/alpha``."""
    return (1.0 - continuation_weight(law, alpha)) / alpha


def coefficients(law: SojournLaw, alpha: float) -> DiscountedCoefficients:
    lam = continuation_weight(law, alpha)
    return DiscountedCoefficients(d=(1.0 - lam) / alpha, lam=lam)


def discounted_kernel_row(
    m: GameModel, triple: Triple
) -> tuple[float, float, np.ndarray]:
    """Coefficients and the continuation-weighted transition row of a triple.

    Returns ``(d, lam, lam * p(.|x,a,b))``; the row's entries are nonnegative
    and sum to ``lam``.  Raises ``KeyError`` for a triple the model does not
    contain.
    """
    t = m.table
    i = t.where.get(triple)
    if i is None:
        raise KeyError(f"unknown triple {triple!r}")
    lo, hi = t.indptr[i], t.indptr[i + 1]
    row = np.zeros(m.n_states)
    row[t.succ[lo:hi]] = t.lam[i] * t.prob[lo:hi]
    return float(t.d[i]), float(t.lam[i]), row
