"""Certification of the solvability conditions on a finite model.

A model is solvable by the value-iteration machinery when four conditions
hold; the certificate records each one with a witness, plus the constants
the stopping analysis consumes:

* ``regularity``: some horizon ``theta > 0`` leaves every sojourn unfinished
  with probability at least ``delta > 0`` (``H(theta) <= 1 - delta`` for all
  triples), ruling out explosion of decision epochs.
* ``discount_floor``: all discount rates are at least some ``alpha0 > 0``.
* ``payoff_bound``: payoff rates are bounded by a multiple of the state
  weights (automatic on finite models; the multiple is the witness).
* ``drift``: weighted transitions expand by at most ``eta`` with
  ``eta * gamma < 1``, which makes the value update a contraction with
  modulus ``eta * gamma`` in the weighted sup-norm.

``gamma = 1 - delta + delta * exp(-alpha0 * theta)`` bounds every
continuation factor, so the certificate also cross-checks
``lambda_max <= gamma`` by enumeration and fails on inconsistency (possible
only for direct-weight triples, whose holding-time law is unavailable).
"""

import math
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .model import ANALYTIC_LAWS, GameModel, SojournLaw

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SPAN_DOUBLINGS = 64  # the horizon search reaches theta_hi / 2**64, 1.5 evaluations a doubling

# Preset a-priori law bounds for the reproduction mode of the certificate
# (CLI flag --paper-params): every exponential rate below 100, every finite
# support above 0.1, delta fixed at 0.1, discount floor 0.25.
RATE_BOUND, SUPPORT_FLOOR, PRESET_DELTA, PRESET_ALPHA0 = 100.0, 0.1, 0.1, 0.25


@dataclass(frozen=True)
class AssumptionCheck:
    passed: bool
    witness: str


@dataclass(frozen=True)
class AssumptionCertificate:
    """Constants and per-condition verdicts for one model.

    ``passed`` is the conjunction of every check; the solver refuses to run
    on a failed certificate.  ``eta_gamma`` is the contraction modulus the
    stopping rule and iteration bound use, and ``lambda_max`` the largest
    continuation factor.  ``modulus``, NaN like ``eta`` when drift is skipped,
    is the model's own: the largest ``lam * sum_y p(y|x,a,b) omega(y) /
    omega(x)`` over triples, rounded up.  The update contracts by it, by
    Shapley's (1953) argument weighted.  It is at most ``eta_min *
    lambda_max`` up to its rounding allowance, and a passed certificate
    allows ``lambda_max`` up to ``gamma + 1e-12``, so there it exceeds
    ``eta_gamma`` by at most ``1e-12 * eta_min`` and that allowance.
    """

    theta: float
    delta: float
    alpha0: float
    gamma: float
    eta: float
    eta_gamma: float
    lambda_max: float
    modulus: float
    checks: dict[str, AssumptionCheck]
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


class DriftResult(NamedTuple):
    eta_min: float
    eta: float
    passed: bool
    modulus: float


def compute_gamma(theta: float, delta: float, alpha0: float) -> float:
    """Continuation-factor bound ``1 - delta + delta * exp(-alpha0 * theta)``.

    ``delta`` may touch 1 (a probe value, not certifiable by the regularity
    search); the result then degenerates to ``exp(-alpha0 * theta)``.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    if not alpha0 > 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0!r}")
    return 1.0 - delta + delta * math.exp(-alpha0 * theta)


def _steepest(m: GameModel) -> list[tuple[int, SojournLaw]]:
    """``(row, law)`` of the triples whose laws reach ``max H(theta)`` at every ``theta``.

    ``H(theta)`` falls as the parameter of a ``bounded`` law (the end of
    its support) grows and rises with any other (a rate), so the first
    triple with the smallest end, or the largest rate, stands for its kind.
    """
    t = m.table
    out = []
    for code, law in enumerate(ANALYTIC_LAWS):
        rows = np.flatnonzero(t.kind == code)
        if rows.size:
            i = int(rows[(np.argmin if law.bounded else np.argmax)(t.param[rows])])
            out.append((i, law(float(t.param[i]))))
    return out


def find_regularity_params(m: GameModel) -> tuple[float, float]:
    """Horizon and escape probability minimizing the continuation bound.

    Maximizes ``1 - gamma = delta(theta) * (1 - exp(-alpha0 theta))``, with
    ``delta = 1 - max_triples H(theta)``, as that product (``gamma`` rounds
    to 1 where it is below 1.1e-16), by one golden-section pass over
    ``log(theta)`` from 64 doublings below ``theta_hi`` to just under it, to
    a bracket 1e-12 wide with ties to the left.  The survival functions
    (``exp(-r theta)``, ``(1 - theta/u)+``, ``1{theta < d}``) and ``1 -
    exp(-alpha0 theta)`` are log-concave, so the product is unimodal in
    ``theta`` and in ``log(theta)`` (Bagnoli and Bergstrom 2005): the result
    minimizes ``gamma`` over the span to 1e-12 relative in ``theta``.
    ``theta_hi`` is the smallest end of a bounded support, else ``10 /
    min_rate`` or the largest float, whichever is smaller (see
    :func:`_steepest`).  Direct-weight triples
    have no holding-time law and are left out; raises ``ValueError`` when
    no triple has one, or when ``delta`` is 0 at the end.
    """
    laws = [law for _, law in _steepest(m)]
    if not laws:
        raise ValueError("no analytic sojourn law to search; model is all direct weights")
    t = m.table
    alpha0 = float(t.alpha.min())
    if alpha0 <= 0.0:
        raise ValueError("discount rates must be positive")
    ends = [law.param for law in laws if law.bounded]
    if ends:
        theta_hi = min(ends)
    else:  # every analytic row is a rate; 10 / a subnormal one overflows
        theta_hi = min(10.0 / float(t.param[t.kind < len(ANALYTIC_LAWS)].min()), sys.float_info.max)

    def escape(u: float) -> float:  # 1 - gamma at theta = exp(u)
        theta = math.exp(u)
        return (1.0 - max(law.cdf(theta) for law in laws)) * -math.expm1(-alpha0 * theta)

    a = math.log(theta_hi) - _SPAN_DOUBLINGS * math.log(2.0)
    b = math.log(theta_hi) + math.log1p(-1e-12)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = escape(c), escape(d)
    while b - a > 1e-12:
        if fc >= fd:  # ties go left, away from where delta rounds to 0
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = escape(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = escape(d)
    theta = math.exp(c if fc >= fd else d)
    delta = 1.0 - max(law.cdf(theta) for law in laws)
    if delta <= 0.0:
        raise ValueError("no horizon with positive escape probability found")
    # deterministic-only models reach delta = 1 exactly; keep the certified
    # escape probability strictly inside (0, 1), which only enlarges gamma
    return theta, min(delta, 1.0 - 1e-12)


def regularity_from_bounds(m: GameModel) -> tuple[float, float, float]:
    """Regularity constants ``(theta, delta, alpha0)`` from the preset law bounds.

    With every exponential rate below ``RATE_BOUND`` and every finite support
    above ``SUPPORT_FLOOR``, the horizon
    ``theta = min((1 - delta) * SUPPORT_FLOOR, ln(1/delta) / RATE_BOUND)``
    leaves every sojourn unfinished with probability at least
    ``delta = PRESET_DELTA``.  The bounds, and ``PRESET_ALPHA0`` as a floor
    on the discount rates, are checked against the model; raises
    ``ValueError`` when they do not hold.
    """
    t = m.table
    low = int(np.argmin(t.alpha))
    if t.alpha[low] < PRESET_ALPHA0:
        raise ValueError(
            f"discount rate {float(t.alpha[low])!r} at {t.labels[low]!r} is below the preset "
            f"floor PRESET_ALPHA0 = {PRESET_ALPHA0!r}"
        )
    for i, law in _steepest(m):  # the steepest law of a kind breaks its bound if any does
        if law.bounded and law.param <= SUPPORT_FLOOR:
            limit = f"below floor {SUPPORT_FLOOR!r}"
        elif not law.bounded and law.param >= RATE_BOUND:
            limit = f"exceeds bound {RATE_BOUND!r}"
        else:
            continue
        raise ValueError(f"{law.kind} {law.label} {law.param!r} at {t.labels[i]!r} {limit}")
    theta = min((1.0 - PRESET_DELTA) * SUPPORT_FLOOR, math.log(1.0 / PRESET_DELTA) / RATE_BOUND)
    return theta, PRESET_DELTA, PRESET_ALPHA0


def check_drift(m: GameModel, gamma: float) -> DriftResult:
    """Weighted-transition expansion factor and the contraction verdict.

    ``eta_min`` is the largest ``sum_y omega(y) p(y|x,a,b) / omega(x)`` over
    triples, the tightest constant the factorized kernel admits.  With unit
    weights that is exactly 1, and the reported ``eta`` is lifted to
    ``(1 + gamma) / (2 gamma)`` so the product ``eta * gamma = (1 + gamma)/2``
    stays strictly below 1; with nonconstant weights ``eta = eta_min``.
    ``modulus`` is the largest ``lam`` times that ratio over triples, rounded
    up by twice the rounding of the row's sum, its quotient and its product.
    """
    t = m.table
    w = t.weight
    # each row added left to right, as a plain sum over the dense row adds it
    ratio = np.bincount(t.row_of, weights=w[t.succ] * t.prob, minlength=t.state.size) / w[t.state]
    eta_min = float(ratio.max())
    unit = bool(np.all(w == 1.0))
    eta = max(eta_min, (1.0 + gamma) / (2.0 * gamma)) if unit else eta_min
    terms = 4 + int((t.indptr[1:] - t.indptr[:-1]).max())  # Higham's gamma_terms, at twice the unit roundoff
    modulus = float((t.lam * ratio).max()) * (1.0 + terms * 2.0**-52)
    return DriftResult(eta_min=eta_min, eta=eta, passed=eta * gamma < 1.0, modulus=modulus)


def check_assumptions(
    m: GameModel, regularity: tuple[float, float, float] | None = None
) -> AssumptionCertificate:
    """Certify the model and compute the solver constants.

    ``regularity`` optionally fixes ``(theta, delta, alpha0)`` instead of
    searching (finite values, still verified against the model).  Drift and
    the coefficient bound are skipped unless regularity passes.  Failures
    are recorded in the certificate rather than raised.
    """
    t = m.table
    checks: dict[str, AssumptionCheck] = {}
    alpha_min = float(t.alpha.min())
    checks["discount_floor"] = AssumptionCheck(
        passed=alpha_min > 0.0, witness=f"min discount rate {alpha_min!r}"
    )
    bound = m.payoff_bound()
    checks["payoff_bound"] = AssumptionCheck(
        passed=True, witness=f"|payoff| <= {bound!r} * weight"
    )
    checks["compactness"] = AssumptionCheck(
        passed=True, witness="finite state and action sets"
    )
    worst = int(np.argmax(t.lam))
    lam_max, lam_arg = float(t.lam[worst]), t.labels[worst]
    if not checks["discount_floor"].passed:
        theta, delta, alpha0 = math.nan, math.nan, alpha_min
        checks["regularity"] = AssumptionCheck(False, "skipped: no positive discount floor")
    elif regularity is not None:
        theta, delta, alpha0 = regularity
        problem = _regularity_violation(m, theta, delta, alpha0)
        checks["regularity"] = AssumptionCheck(
            passed=problem is None,
            witness=problem or f"supplied horizon {theta!r}, escape probability {delta!r}",
        )
    elif _steepest(m):
        alpha0 = alpha_min
        try:
            theta, delta = find_regularity_params(m)
            witness = f"searched horizon {theta!r}, escape probability {delta!r}"
        except ValueError as exc:  # no horizon in the search span
            theta, delta, witness = math.nan, math.nan, str(exc)
        checks["regularity"] = AssumptionCheck(passed=not math.isnan(theta), witness=witness)
    else:
        # All triples carry pre-integrated weights, so no holding-time law is
        # available to search; pick constants consistent with the enumerated
        # continuation factors and certify through the coefficient bound.
        alpha0 = alpha_min
        delta = 0.5
        target = (1.0 + lam_max) / 2.0
        theta = -math.log(1.0 - (1.0 - target) / delta) / alpha0
        checks["regularity"] = AssumptionCheck(
            passed=True,
            witness="no holding-time law available; constants chosen from the coefficient bound",
        )

    if checks["regularity"].passed:
        gamma = compute_gamma(theta, delta, alpha0)
        drift = check_drift(m, gamma)
        eta, modulus = drift.eta, drift.modulus
        eta_gamma = eta * gamma
        checks["drift"] = AssumptionCheck(
            passed=drift.passed,
            witness=f"eta_min {drift.eta_min!r}, eta {eta!r}, eta*gamma {eta_gamma!r}",
        )
        ok = lam_max <= gamma + 1e-12
        checks["coefficient_bound"] = AssumptionCheck(
            passed=ok,
            witness=(
                f"max continuation factor {lam_max!r} at {lam_arg!r}"
                + ("" if ok else f" exceeds gamma {gamma!r}")
            ),
        )
    else:
        gamma = eta = eta_gamma = modulus = math.nan
        skipped = AssumptionCheck(False, "skipped: no continuation bound")
        checks["drift"] = checks["coefficient_bound"] = skipped
    return AssumptionCertificate(
        theta=theta,
        delta=delta,
        alpha0=alpha0,
        gamma=gamma,
        eta=eta,
        eta_gamma=eta_gamma,
        lambda_max=lam_max,
        modulus=modulus,
        checks=checks,
        passed=all(c.passed for c in checks.values()),
    )


def _regularity_violation(m: GameModel, theta: float, delta: float, alpha0: float) -> str | None:
    """First reason the supplied constants fail on this model, or None."""
    if not (0.0 < theta < math.inf and 0.0 < delta < 1.0):
        return f"invalid constants theta={theta!r}, delta={delta!r}"
    if not 0.0 < alpha0 <= m.table.alpha.min():
        return f"alpha0 {alpha0!r} is not a lower bound on the discount rates"
    for i, law in _steepest(m):
        h = law.cdf(theta)
        if h > 1.0 - delta + 1e-12:
            return f"H(theta) = {h!r} > 1 - delta at {m.table.labels[i]!r}"
    return None
