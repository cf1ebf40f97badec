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
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .model import LAWS, Deterministic, Exponential, GameModel, SojournLaw, Uniform

_GRID_POINTS = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Preset a-priori law bounds for the reproduction mode of the certificate
# (CLI flag --paper-params): every exponential rate below 100, every finite
# support above 0.1, delta fixed at 0.1, discount floor 0.25.
RATE_BOUND, SUPPORT_FLOOR, PRESET_DELTA, PRESET_ALPHA0 = 100.0, 0.1, 0.1, 0.25

_EXP, _UNI, _DET = (LAWS.index(law) for law in (Exponential, Uniform, Deterministic))
_BOUNDED = {_EXP: "exponential rate", _UNI: "uniform support", _DET: "deterministic duration"}


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
    continuation factor (a sharper per-step factor when all weights are 1).
    """

    theta: float
    delta: float
    alpha0: float
    gamma: float
    eta: float
    eta_gamma: float
    lambda_max: float
    checks: dict[str, AssumptionCheck]
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


class DriftResult(NamedTuple):
    eta_min: float
    eta: float
    passed: bool


def compute_gamma(theta: float, delta: float, alpha0: float) -> float:
    """Continuation-factor bound ``1 - delta + delta * exp(-alpha0 * theta)``.

    ``delta`` may touch 1 (a probe value, not certifiable by the regularity
    search); the result then degenerates to ``exp(-alpha0 * theta)``.
    """
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    if alpha0 <= 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0!r}")
    return 1.0 - delta + delta * math.exp(-alpha0 * theta)


def _steepest(m: GameModel) -> list[tuple[int, SojournLaw]]:
    """``(row, law)`` of the triples whose laws reach ``max H(theta)`` at every ``theta``.

    ``H(theta)`` rises with an exponential rate and falls with a uniform
    bound or a deterministic duration, so the first triple with the largest
    rate, the smallest bound or the smallest duration stands for its kind.
    """
    t = m.table
    out = []
    for code, pick in ((_EXP, np.argmax), (_UNI, np.argmin), (_DET, np.argmin)):
        rows = np.flatnonzero(t.kind == code)
        if rows.size:
            i = int(rows[pick(t.param[rows])])
            out.append((i, LAWS[code](float(t.param[i]))))
    return out


def find_regularity_params(m: GameModel) -> tuple[float, float]:
    """Horizon and escape probability minimizing the continuation bound.

    Searches ``theta`` over ``(0, theta_hi)`` for the smallest
    ``gamma(theta) = 1 - delta(theta) * (1 - exp(-alpha0 * theta))`` where
    ``delta(theta) = 1 - max_triples H(theta)``; a coarse grid brackets the
    optimum and golden-section refines it.  ``theta_hi`` is the smallest
    finite support (uniform upper bound or deterministic duration) when one
    exists, else ``10 / min_rate``; so four extremes of the model decide the
    search (see :func:`_steepest`).  Direct-weight triples carry no
    holding-time law and are excluded; raises ``ValueError`` when no triple
    has one.
    """
    laws = [law for _, law in _steepest(m)]
    if not laws:
        raise ValueError("no analytic sojourn law to search; model is all direct weights")
    t = m.table
    alpha0 = float(t.alpha.min())
    if alpha0 <= 0.0:
        raise ValueError("discount rates must be positive")

    supports = t.param[(t.kind == _UNI) | (t.kind == _DET)]
    if supports.size:
        theta_hi = float(supports.min())
    else:
        theta_hi = 10.0 / float(t.param[t.kind == _EXP].min())

    def gamma_at(theta: float) -> float:
        delta = 1.0 - max(law.cdf(theta) for law in laws)
        if delta <= 0.0:
            return 1.0
        return 1.0 + delta * math.expm1(-alpha0 * theta)

    # coarse bracket, then golden-section inside it
    grid = [theta_hi * k / _GRID_POINTS for k in range(1, _GRID_POINTS)]
    best = min(range(len(grid)), key=lambda k: gamma_at(grid[k]))
    lo = grid[best - 1] if best > 0 else grid[0] / 2.0
    hi = grid[best + 1] if best + 1 < len(grid) else theta_hi * (1.0 - 1e-12)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = gamma_at(c), gamma_at(d)
    while b - a > 1e-12 * theta_hi:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = gamma_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = gamma_at(d)
    theta = c if fc <= fd else d
    if gamma_at(theta) >= 1.0:  # fall back to the grid point if refinement hit the edge
        theta = grid[best]
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
    fast = (t.kind == _EXP) & (t.param >= RATE_BOUND)
    short = ((t.kind == _UNI) | (t.kind == _DET)) & (t.param <= SUPPORT_FLOOR)
    bad = np.flatnonzero(fast | short)
    if bad.size:
        i = bad[0]
        limit = f"exceeds bound {RATE_BOUND!r}" if fast[i] else f"below floor {SUPPORT_FLOOR!r}"
        raise ValueError(
            f"{_BOUNDED[int(t.kind[i])]} {float(t.param[i])!r} at {t.labels[i]!r} {limit}"
        )
    theta = min((1.0 - PRESET_DELTA) * SUPPORT_FLOOR, math.log(1.0 / PRESET_DELTA) / RATE_BOUND)
    return theta, PRESET_DELTA, PRESET_ALPHA0


def check_drift(m: GameModel, gamma: float) -> DriftResult:
    """Weighted-transition expansion factor and the contraction verdict.

    ``eta_min`` is the largest ``sum_y omega(y) p(y|x,a,b) / omega(x)`` over
    triples, the tightest constant the factorized kernel admits.  With unit
    weights that is exactly 1, and the reported ``eta`` is lifted to
    ``(1 + gamma) / (2 gamma)`` so the product ``eta * gamma = (1 + gamma)/2``
    stays strictly below 1; with nonconstant weights ``eta = eta_min``.
    """
    t = m.table
    w = np.asarray(m.weight_vector())
    moved = t.row_cumsum(w[t.succ] * t.prob)[t.indptr[1:] - 1]
    eta_min = float(np.max(moved / w[t.state]))
    unit = bool(np.all(w == 1.0))
    eta = max(eta_min, (1.0 + gamma) / (2.0 * gamma)) if unit else eta_min
    return DriftResult(eta_min=eta_min, eta=eta, passed=eta * gamma < 1.0)


def check_assumptions(
    m: GameModel, regularity: tuple[float, float, float] | None = None
) -> AssumptionCertificate:
    """Certify the model and compute the solver constants.

    ``regularity`` optionally fixes ``(theta, delta, alpha0)`` instead of
    searching (the values are still verified against the model).  Failures
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
    if alpha_min <= 0.0:
        checks["regularity"] = AssumptionCheck(False, "skipped: no positive discount floor")
        checks["drift"] = AssumptionCheck(False, "skipped: no positive discount floor")
        checks["coefficient_bound"] = AssumptionCheck(False, "skipped")
        nan = float("nan")
        return AssumptionCertificate(nan, nan, nan, nan, nan, nan, nan, checks, False)

    worst = int(np.argmax(t.lam))
    lam_max, lam_arg = float(t.lam[worst]), t.labels[worst]
    if regularity is not None:
        theta, delta, alpha0 = regularity
        problem = _regularity_violation(m, theta, delta, alpha0)
        checks["regularity"] = AssumptionCheck(
            passed=problem is None,
            witness=problem or f"supplied horizon {theta!r}, escape probability {delta!r}",
        )
    elif _steepest(m):
        theta, delta = find_regularity_params(m)
        alpha0 = alpha_min
        checks["regularity"] = AssumptionCheck(
            passed=True, witness=f"searched horizon {theta!r}, escape probability {delta!r}"
        )
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
    gamma = compute_gamma(theta, delta, alpha0) if checks["regularity"].passed else float("nan")

    if math.isnan(gamma):
        checks["drift"] = AssumptionCheck(False, "skipped: no continuation bound")
        checks["coefficient_bound"] = AssumptionCheck(False, "skipped: no continuation bound")
        eta = eta_gamma = float("nan")
    else:
        drift = check_drift(m, gamma)
        eta = drift.eta
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
    return AssumptionCertificate(
        theta=theta,
        delta=delta,
        alpha0=alpha0,
        gamma=gamma,
        eta=eta,
        eta_gamma=eta_gamma,
        lambda_max=lam_max,
        checks=checks,
        passed=all(c.passed for c in checks.values()),
    )


def _regularity_violation(m: GameModel, theta: float, delta: float, alpha0: float) -> str | None:
    """First reason the supplied constants fail on this model, or None."""
    if theta <= 0.0 or not 0.0 < delta < 1.0:
        return f"invalid constants theta={theta!r}, delta={delta!r}"
    if alpha0 <= 0.0 or alpha0 > m.table.alpha.min():
        return f"alpha0 {alpha0!r} is not a lower bound on the discount rates"
    for i, law in _steepest(m):
        h = law.cdf(theta)
        if h > 1.0 - delta + 1e-12:
            return f"H(theta) = {h!r} > 1 - delta at {m.table.labels[i]!r}"
    return None
