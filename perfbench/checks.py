"""Outcome classes, output checks and digests for benchmark ops.

Every op is ``ok``, ``expected_overload`` or ``failed``.  An op fails on
an exception, an overload signal at offered load rho < 1, a nonzero CLI
exit, or an output that breaks a check: packet conservation, a bound
outside [0, 1] or rising with delay, or an empirical upper envelope
above a bound of at least MIN_BOUND_PROB.  The last group is "wrong
output": the run reports ``correct`` false when any op has one.

The gg1 fitted-model route models the link with fitted moments, so its
``Overloaded`` (exit code 3 from ``mean-delay``, whose only route it is)
is judged by that route's own rho: the op is ``expected_overload``, not
failed, and it is counted under ``gg1.overloaded``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import Op, OpResult

OK, EXPECTED_OVERLOAD, FAILED = "ok", "expected_overload", "failed"

# bound points below this are vacuous for dominance, as in ``linkdelay validate``
MIN_BOUND_PROB = 1e-3


@dataclass
class Verdict:
    outcome: str
    reasons: list[str] = field(default_factory=list)
    wrong: bool = False


def _summary_and_rows(text: str) -> tuple[dict, list[dict]]:
    summary, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            summary[key] = value
        elif line:
            lines.append(line.split(","))
    rows = [dict(zip(lines[0], r)) for r in lines[1:]] if lines else []
    return summary, rows


def parse_cli_output(op: Op, res: OpResult) -> None:
    """Read counts, bounds and envelopes back from a CLI op's CSV output."""
    summary, rows = _summary_and_rows(res.stdout.decode())
    if op.kind == "simulate":
        res.counts = tuple(int(summary[k]) for k in
                           ("n_arrivals", "n_delivered", "n_queue_drops", "n_retry_drops"))
        res.packets = res.counts[0]
    if op.kind in ("delay-bound", "validate"):
        res.grid = np.array([float(r["delay_ms"]) for r in rows])
        res.bound = np.array([float(r["bound_prob"]) for r in rows])
        res.thetas = tuple(float(r["theta"]) if r["theta"] else None for r in rows)
    if op.kind == "validate":
        res.upper = np.array([float(r["empirical_upper"]) for r in rows])
        res.program_violations = int(summary["n_violations"])
        res.sim_mean = float(summary["sim_mean_delay_ms"])
        res.analytic_mean = float(summary["analytic_mean_delay_ms"])


def dominance_violations(res: OpResult) -> int:
    """Grid points where the empirical upper envelope exceeds a non-vacuous bound."""
    if res.bound is None or res.upper is None:
        return 0
    return int(np.sum((res.bound >= MIN_BOUND_PROB) & (res.upper > res.bound)))


def _output_problems(res: OpResult) -> list[str]:
    problems = []
    if res.counts is not None:
        arrivals, delivered, queue_drops, retry_drops = res.counts
        if delivered + queue_drops + retry_drops != arrivals:
            problems.append(f"conservation: {delivered}+{queue_drops}+{retry_drops} != {arrivals}")
        if res.delays is not None and (res.delays.size != delivered
                                       or not np.all(np.isfinite(res.delays))
                                       or np.any(res.delays <= 0.0)):
            problems.append("delivered delays do not match the delivered count or are not positive")
    if res.bound is not None:
        if np.any(res.bound < 0.0) or np.any(res.bound > 1.0) or not np.all(np.isfinite(res.bound)):
            problems.append("bound outside [0, 1]")
        if np.any(np.diff(res.bound) > 0.0):
            problems.append("bound increases with delay")
    violations = dominance_violations(res)
    if violations:
        problems.append(f"empirical envelope above the bound at {violations} points")
    if res.program_violations is not None and res.program_violations != violations:
        problems.append(f"dominance_report found {res.program_violations} violations, "
                        f"the benchmark {violations}")
    for name in ("sim_mean", "analytic_mean", "fitted_mean"):
        value = getattr(res, name)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            problems.append(f"{name} = {value} is not a positive number")
    return problems


def classify(op: Op, res: OpResult) -> Verdict:
    """Outcome of one op; CLI output is parsed first when the call succeeded."""
    reasons = []
    if res.error is not None:
        reasons.append(f"exception {res.error}")
    if res.exit_code == 3 and op.kind == "mean-delay":
        # mean-delay's only route is the fitted one; exit 3 is its rho >= 1 verdict
        res.fitted_overloaded = True
    elif res.exit_code not in (None, 0):
        reasons.append(f"exit code {res.exit_code}")
    if res.stdout and res.error is None:
        # validate prints its full table before exiting 4, so read it either way
        try:
            parse_cli_output(op, res)
        except (KeyError, ValueError, IndexError) as exc:
            if res.exit_code == 0:
                reasons.append(f"unreadable CLI output: {type(exc).__name__}: {exc}")
    if res.overloads and not op.rho >= 1.0:
        reasons.append(f"{'/'.join(res.overloads)} overload at rho = {op.rho:.4g} < 1")
    problems = _output_problems(res)
    if reasons or problems:
        return Verdict(FAILED, reasons + problems, wrong=bool(problems))
    return Verdict(EXPECTED_OVERLOAD if res.overloads or res.fitted_overloaded else OK)


def digest(res: OpResult) -> str:
    """Counts plus rounded delivered delays and bound values; equal for equal outputs."""
    h = hashlib.sha256(repr((res.error, res.overloads, res.fitted_overloaded, res.exit_code,
                             res.counts)).encode())
    if res.delays is not None:
        h.update(np.round(res.delays, 6).tobytes())
    for arr in (res.bound, res.upper):
        if arr is not None:
            h.update(" ".join(f"{v:.9g}" for v in arr).encode())
    for value in (res.sim_mean, res.analytic_mean, res.fitted_mean):
        h.update(b"-" if value is None else f"{value:.9g}".encode())
    h.update(res.stdout)
    return h.hexdigest()[:16]


_VALIDATE_OUT = (
    "# sim_mean_delay_ms=11.8\n# analytic_mean_delay_ms=12.5\n# n_violations=0\n"
    "delay_ms,empirical_fraction,empirical_upper,bound_prob,theta,violation\n"
    "15,0.06,0.066,{b0},0.02,false\n20,0.03,0.036,{b1},0.03,false\n"
)


def self_test() -> list[str]:
    """Feed the checks deliberately wrong results; return the cases they misjudge."""
    stable = Op(index=0, kind="poisson", rho=0.7)
    grid = np.array([15.0, 20.0, 25.0])
    upper = np.array([0.3, 0.1, 0.005])

    def result(**kw) -> OpResult:
        base = dict(counts=(10, 8, 1, 1), delays=np.full(8, 12.0), sim_mean=12.0,
                    analytic_mean=12.5, grid=grid, bound=np.array([0.6, 0.2, 0.01]),
                    upper=upper, program_violations=0)
        base.update(kw)
        return OpResult(**base)

    def cli(sub: str, code: int, text: str) -> tuple[Op, OpResult]:
        return Op(index=0, kind=sub, rho=float("nan"), argv=(sub,)), OpResult(
            exit_code=code, stdout=text.encode())

    cases = {
        "clean result": (stable, result(), OK),
        "conservation off by one": (stable, result(counts=(10, 8, 1, 2)), FAILED),
        "bound scaled below the envelope": (stable, result(bound=upper * 0.5), FAILED),
        "bound above 1": (stable, result(bound=np.array([1.2, 0.2, 0.01])), FAILED),
        "bound rising with delay": (stable, result(bound=np.array([0.6, 0.7, 0.01])), FAILED),
        "dominance_report disagrees": (stable, result(program_violations=2), FAILED),
        "exception": (stable, result(error="OverflowError: math range error"), FAILED),
        "snc overload below rho 1": (stable, result(bound=None, overloads=("snc",)), FAILED),
        "snc overload beyond rho 1": (Op(index=0, kind="poisson", rho=1.1),
                                      result(bound=None, overloads=("gg1", "snc")),
                                      EXPECTED_OVERLOAD),
        "nonzero exit code": (*cli("models", 4, "per\n0.1\n"), FAILED),
        "overload exit from a stable point": (*cli("delay-bound", 3, ""), FAILED),
        "fitted route overloaded": (*cli("mean-delay", 3, ""), EXPECTED_OVERLOAD),
        "CLI bound below the envelope": (*cli("validate", 0, _VALIDATE_OUT.format(b0=0.03, b1=0.5)),
                                         FAILED),
        "clean CLI validate": (*cli("validate", 0, _VALIDATE_OUT.format(b0=0.9, b1=0.5)), OK),
        "CLI conservation off by one": (*cli("simulate", 0, "# n_arrivals=10\n# n_delivered=8\n"
                                             "# n_queue_drops=0\n# n_retry_drops=1\n"), FAILED),
    }
    return [name for name, (op, res, want) in cases.items() if classify(op, res).outcome != want]
