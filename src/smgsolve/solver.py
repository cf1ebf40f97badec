"""Value iteration over per-state matrix games, with a stopping certificate.

The loop applies the value-update operator until successive iterates differ
by less than the threshold ``epsilon`` in the weighted sup-norm.  Because the
operator contracts with modulus ``eta_gamma`` from the model's certificate,
stopping at threshold ``epsilon`` leaves the returned pair within
``epsilon / (1 - eta_gamma)`` of the true game value, and the number of
applications needed is bounded a priori (``SolveReport.n_epsilon_bound``).
"""

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import GameModel
from .shapley import StationaryStrategyPair, _evaluate_with, _pair_arrays, _raise_beyond_range, omega_norm
from .verify import AssumptionCertificate, check_assumptions

MAX_ITER_CAP = 10**6
_ZERO_RESIDUAL = 1e-14


class CertificateError(RuntimeError):
    """The model's certificate failed; the contraction argument is void."""


class ConvergenceError(RuntimeError):
    """The iteration limit was reached before the stopping rule fired."""


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of one value-iteration run.

    ``iterations`` is the index ``n`` of the update ``V_{n+1} = T(V_n)`` at
    which the stopping rule fired, so ``n + 1`` operator applications were
    made and ``error_trace`` has ``n + 1`` entries (the weighted sup-norm of
    each successive difference).  ``epsilon_nash`` is the certified distance
    bound ``epsilon / (1 - eta_gamma)``.  ``value_trace`` is an
    ``(applications, states)`` float array: row ``k`` is the iterate after
    application ``k + 1``, the one ``error_trace[k]`` measures.
    ``n_epsilon_bound`` is the a-priori bound on the stopping index: zero
    when the first residual ``delta0`` is below 1e-14, else ``1 +
    floor((log(epsilon) - log(delta0)) / log(eta_gamma))`` clamped at zero.
    """

    epsilon_value: np.ndarray
    equilibrium: StationaryStrategyPair
    iterations: int
    error_trace: tuple[float, ...]
    value_trace: np.ndarray
    epsilon_target: float
    epsilon_nash: float
    certificate: AssumptionCertificate
    n_epsilon_bound: int


class CertificationResult(NamedTuple):
    passed: bool
    worst_violation: float
    per_state: dict[str, float]


def _bound_from(delta0: float, epsilon: float, eta_gamma: float) -> int:
    if delta0 <= _ZERO_RESIDUAL:
        return 0
    # raw formula can go negative when epsilon already exceeds delta0; the logs are
    # taken apart, for epsilon / delta0 can underflow to 0
    return max(0, 1 + math.floor((math.log(epsilon) - math.log(delta0)) / math.log(eta_gamma)))


def _check_iteration(epsilon, max_iter) -> None:
    """Raise ``ValueError`` unless value iteration can stop at ``epsilon`` within ``max_iter``."""
    if not 0.0 < epsilon < math.inf:  # also rejects NaN
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    integral = isinstance(max_iter, (int, np.integer)) and not isinstance(max_iter, bool)
    if max_iter is not None and (not integral or max_iter < 1):  # NaN would lift the cap
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")


def _change(op, updated: np.ndarray, previous: np.ndarray, top: float) -> tuple[float, float]:
    """``||updated - previous||_omega`` and ``max|updated|``, ``top`` being ``max|previous|``.

    ``OverflowError`` names the first state whose change lies beyond the float64 range.
    """
    peak = float(np.abs(updated).max())
    # no entry of the change exceeds this sum, and Python floats add to inf without a warning
    if not peak + top < math.inf:
        with np.errstate(over="ignore"):
            _raise_beyond_range(updated - previous, "the change of value at state", op.states)
    return omega_norm(updated - previous, op.table.weight), peak


def value_iterate(
    m: GameModel,
    epsilon: float,
    v0=None,
    max_iter: int | None = None,
    certificate: AssumptionCertificate | None = None,
) -> SolveReport:
    """Iterate the value-update operator from ``v0`` until it settles.

    ``v0`` defaults to all zeros; any start vector works, and all ones is a
    common choice.  ``max_iter`` caps the number of operator applications and
    defaults to ten times the a-priori bound.
    Raises :class:`CertificateError` when the model's certificate fails,
    :class:`ConvergenceError` when the cap is hit first, and ``OverflowError``
    naming the first state whose change of value from one iterate overflows.
    """
    _check_iteration(epsilon, max_iter)
    cert = certificate if certificate is not None else check_assumptions(m)
    if not cert.passed:
        failed = [name for name, c in cert.checks.items() if not c.passed]
        raise CertificateError(f"model certificate failed: {', '.join(failed)}")
    op = m._operator
    start = np.zeros(op.n) if v0 is None else np.asarray(v0, dtype=float)
    if start.shape != (op.n,):
        raise ValueError(f"v0 must have length {op.n}")
    top = float(np.abs(start).max())
    updated, pair, warm = op._solve(start, top=top)
    delta, top = _change(op, updated, start, top)
    bound = _bound_from(delta, epsilon, cert.eta_gamma)
    if max_iter is None:
        max_iter = min(10 * max(bound, 1), MAX_ITER_CAP)

    trace = [delta]
    values = [updated]
    while trace[-1] >= epsilon:
        if len(trace) >= max_iter:
            raise ConvergenceError(
                f"no convergence within {max_iter} applications "
                f"(last delta {trace[-1]!r}, epsilon {epsilon!r})"
            )
        updated, pair, warm = op._solve(values[-1], warm, top)
        delta, top = _change(op, updated, values[-1], top)
        trace.append(delta)
        values.append(updated)

    return SolveReport(
        epsilon_value=updated,
        equilibrium=op._pair(*pair),
        iterations=len(trace) - 1,
        error_trace=tuple(trace),
        value_trace=np.array(values),
        epsilon_target=epsilon,
        epsilon_nash=epsilon / (1.0 - cert.eta_gamma) if cert.eta_gamma < 1.0 else math.inf,
        certificate=cert,
        n_epsilon_bound=bound,
    )


def certify_solution(m: GameModel, report: SolveReport, tol: float) -> CertificationResult:
    """Check the returned pair for profitable one-shot stationary deviations.

    Evaluates the pair exactly, then at every state compares the best pure
    response of each player against the pair's own value.  A positive
    violation means some deviation gains more than ``tol``.  The evaluation
    starts from ``report.epsilon_value``, which it leaves unchanged; the
    evaluation bound of :func:`~smgsolve.shapley.evaluate_stationary_pair`
    does not depend on the start, only the work to reach it does.
    """
    op, t = m._operator, m.table
    f, g = _pair_arrays(m, report.equilibrium)
    values = _evaluate_with(op, f, g, report.epsilon_value)
    flat = op._payoffs(values)
    # each pure action's payoff against the other player's mixture, by slot
    row_payoff = np.bincount(op.f_slot, weights=flat * g[op.g_slot], minlength=f.size)
    col_payoff = np.bincount(op.g_slot, weights=flat * f[op.f_slot], minlength=g.size)
    gain_row = np.maximum.reduceat(row_payoff, t.f_ptr[:-1]) - values
    gain_col = values - np.minimum.reduceat(col_payoff, t.g_ptr[:-1])
    gains = np.maximum(np.maximum(gain_row, gain_col), 0.0)
    per_state = dict(zip(m.states, gains.tolist()))
    worst = float(gains.max())
    return CertificationResult(passed=worst <= tol, worst_violation=worst, per_state=per_state)


def trace_csv(m: GameModel, report: SolveReport) -> str:
    """Per-iteration trace as CSV: ``iteration,delta,V_<state>,...``.

    The header goes through the ``csv`` module, which quotes a state label
    holding a comma, a quote or a line break, so each label stays one field.
    """
    head = io.StringIO()
    # the writer quotes a field holding a character of its line terminator;
    # under "\n" alone, Python 3.11 leaves a lone "\r" unquoted
    csv.writer(head, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n").writerow(
        ["iteration", "delta", *(f"V_{x}" for x in m.states)]
    )
    lines = [head.getvalue().removesuffix("\r\n")]
    for k, (delta, row) in enumerate(zip(report.error_trace, report.value_trace), start=1):
        lines.append(f"{k},{delta!r}," + ",".join(repr(v) for v in row.tolist()))
    return "\n".join(lines) + "\n"


def _rows(flat: np.ndarray, ptr: np.ndarray) -> list[list[float]]:
    """The segments of ``flat`` that ``ptr`` cuts, as lists of floats, from one ``tolist``."""
    flat, cuts = flat.tolist(), ptr.tolist()
    return [flat[i:j] for i, j in zip(cuts, cuts[1:])]


def strategy_tables(m: GameModel, pair: StationaryStrategyPair) -> dict:
    """JSON-ready ``{state: {"f": {action: prob}, "g": {action: prob}}}``.

    The pair is read by :func:`~smgsolve.shapley._pair_arrays`, so a malformed pair
    raises ``ValueError`` naming its first bad state; :func:`_rows` cuts its rows.
    """
    f, g = _pair_arrays(m, pair)
    return {
        x: {"f": dict(zip(m.actions1[x], p)), "g": dict(zip(m.actions2[x], q))}
        for x, p, q in zip(m.states, _rows(f, m.table.f_ptr), _rows(g, m.table.g_ptr))
    }


def report_as_dict(m: GameModel, report: SolveReport) -> dict:
    """JSON-ready summary of a solve run (trace excluded, exported as CSV)."""
    return {
        "values": {x: float(v) for x, v in zip(m.states, report.epsilon_value)},
        "equilibrium": strategy_tables(m, report.equilibrium),
        "iterations": report.iterations,
        "applications": len(report.error_trace),
        "final_delta": report.error_trace[-1],
        "epsilon_target": report.epsilon_target,
        "epsilon_nash": report.epsilon_nash,
        "n_epsilon_bound": report.n_epsilon_bound,
        "certificate": report.certificate.as_dict(),
    }
