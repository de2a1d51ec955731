"""Command-line front end.

Subcommands evaluate the fitted link models, predict mean delay through
the equivalent queue, compute optimized delay-tail bounds, run the
discrete-event simulator, and cross-validate predictions against
simulation.  Outputs are deterministic for a fixed config and seed.

Exit codes: 0 success, 2 configuration error or unwritable output file,
3 overload (queue unstable or no feasible bound), 4 validation failure.

models and mean-delay need no numpy: the numpy-backed modules are
imported inside the subcommands that use them.  json, likewise, is
imported only where a config file is read or JSON is written.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import gg1
from .config import ConfigError, RunConfig, default_config, dump_config, load_config
from .empirical import (
    equivalent_arrival,
    packet_error_rate,
    plr_mean,
    plr_var,
    service_time_mean,
    service_time_var,
)

__all__ = ["main"]

# Bound points smaller than this are vacuous for dominance checking.
MIN_BOUND_PROB = 1e-3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render_csv(summary: dict, columns: list[str], rows: list[tuple]) -> str:
    lines = [f"# {key}={_fmt(val)}" for key, val in summary.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(summary: dict, columns: list[str], rows: list[tuple]) -> str:
    import json

    doc = {
        "summary": summary,
        "rows": [dict(zip(columns, row)) for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _OutputError(Exception):
    """An output file could not be written."""


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(cfg: RunConfig, summary: dict, columns: list[str], rows: list[tuple]) -> None:
    text = (_render_json if cfg.output_format == "json" else _render_csv)(
        summary, columns, rows
    )
    _write(cfg.output_path, text)


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.format is not None:
        overrides["output_format"] = args.format
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def _require_finite(fitted: dict) -> None:
    """ConfigError naming the first fitted value that overflowed or is not a number."""
    for name, value in fitted.items():
        if not math.isfinite(value):
            raise ConfigError(f"the fitted {name} is {_fmt(value)} at this link and these "
                              "coefficients; it must be finite")


def _service_inputs(cfg: RunConfig):
    """PER, exact service distribution and packet size in bits for cfg."""
    from .service_time import service_distribution

    p_e = packet_error_rate(cfg.link.l_d, cfg.link.snr, cfg.per_coeffs)
    _require_finite({"per": p_e})
    dist = service_distribution(cfg.link, cfg.timing, p_e)
    packet_bits = 8.0 * cfg.link.l_d
    return p_e, dist, packet_bits


def _fitted_moments(cfg: RunConfig) -> dict:
    """The fitted service-time and loss-rate moments, by models' column names."""
    link, coeffs = cfg.link, cfg.moment_coeffs
    return {
        "mean_service_ms": service_time_mean(link, coeffs),
        "var_service_ms": service_time_var(link, coeffs),
        "plr_mean": plr_mean(link.l_d, link.snr, link.q_max, coeffs),
        "plr_var": plr_var(link.l_d, link.snr, coeffs),
    }


def _fitted_inputs(cfg: RunConfig) -> gg1.Gg1Inputs:
    """Equivalent-queue inputs from the fitted models, which need some traffic and some service time."""
    moments = _fitted_moments(cfg)
    if moments["plr_mean"] >= 1.0:
        raise ConfigError("the fitted loss rate plr_mean reaches 1 at this l_d, snr and q_max, "
                          "so the equivalent queue gets no traffic")
    mean_t = moments["mean_service_ms"]
    if not mean_t > 0.0:
        raise ConfigError(f"the fitted mean service time is {mean_t:.6g} ms at this link and "
                          "moment_coeffs; the equivalent queue needs it > 0")
    _require_finite(moments)
    try:
        inputs = gg1.inputs_from_fitted_models(cfg.link, cfg.moment_coeffs)
    except ValueError as exc:  # the moments are valid, so t_pit is at fault
        raise ConfigError(f"link t_pit: {exc}") from exc
    _require_finite({"var_a": inputs.var_a})
    return inputs


def cmd_models(cfg: RunConfig, args: argparse.Namespace) -> int:
    link = cfg.link
    fitted = {"per": packet_error_rate(link.l_d, link.snr, cfg.per_coeffs), **_fitted_moments(cfg)}
    _require_finite(fitted)
    try:
        arrival = equivalent_arrival(link.t_pit, fitted["plr_mean"], fitted["plr_var"])
    except ValueError as exc:
        raise ConfigError(f"link t_pit: {exc}") from exc
    fitted.update(lambda_pkts_per_ms=arrival.lam, var_a=arrival.var_a)
    _require_finite(fitted)
    _emit(cfg, {}, list(fitted), [tuple(fitted.values())])
    return 0


def cmd_mean_delay(cfg: RunConfig, args: argparse.Namespace) -> int:
    inputs = _fitted_inputs(cfg)
    rho = gg1.traffic_intensity(inputs)
    waiting = gg1.waiting_time(inputs)
    columns = ["rho", "waiting_ms", "service_mean_ms", "delay_ms"]
    row = (rho, waiting, inputs.mean_t, waiting + inputs.mean_t)
    _require_finite(dict(zip(columns, row)))
    _emit(cfg, {}, columns, [row])
    return 0


def cmd_delay_bound(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import snc

    _, dist, packet_bits = _service_inputs(cfg)
    if packet_bits <= 0.0:
        raise ConfigError("delay-bound needs l_d >= 1 (packet size in bits must be positive)")
    ccdf = snc.optimize_delay_ccdf(
        cfg.traffic,
        dist,
        packet_bits,
        cfg.delay_grid,
        thetas=cfg.theta_grid.values(),
    )
    columns = ["delay_ms", "bound_prob", "theta"]
    rows = [(p.delay, p.prob, p.theta) for p in ccdf.points]
    _emit(cfg, {}, columns, rows)
    return 0


def _write_trace(path: str, result) -> None:
    tr = result.trace
    lines = ["arrival_ms,start_ms,attempts,outcome,delay_ms"]
    for arrival, start, attempts, outcome, delay in zip(
        tr.arrival, tr.start, tr.attempts, tr.outcome, tr.delay
    ):
        lines.append(
            ",".join(
                (
                    _fmt(float(arrival)),
                    "" if math.isnan(start) else _fmt(float(start)),
                    _fmt(int(attempts)),
                    outcome,
                    "" if math.isnan(delay) else _fmt(float(delay)),
                )
            )
        )
    _write(path, "\n".join(lines) + "\n")


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .simulator import empirical_ccdf, run_simulation

    p_e, _, _ = _service_inputs(cfg)
    result = run_simulation(
        cfg.link,
        cfg.timing,
        cfg.traffic,
        p_e,
        cfg.seed,
        collect_trace=args.trace is not None,
    )
    summary = {
        "n_arrivals": result.n_arrivals,
        "n_delivered": result.n_delivered,
        "n_queue_drops": result.n_queue_drops,
        "n_retry_drops": result.n_retry_drops,
        "mean_delay_ms": result.mean_delay if result.n_delivered else None,
        "loss_fraction": result.loss_fraction,
        "seed": cfg.seed,
    }
    columns = ["delay_ms", "exceed_fraction", "upper_conf"]
    if result.n_delivered:
        emp = empirical_ccdf(result.delivered_delays, cfg.delay_grid)
        rows = [
            (d, float(f), float(u))
            for d, f, u in zip(emp.delays, emp.fractions, emp.upper)
        ]
    else:
        # no delivered packets: no exceedances observed, no evidence either
        rows = [(d, 0.0, 1.0) for d in cfg.delay_grid]
    if args.trace is not None:
        _write_trace(args.trace, result)
    _emit(cfg, summary, columns, rows)
    return 0


def cmd_validate(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import snc
    from .simulator import dominance_report, empirical_ccdf, run_simulation

    p_e, dist, packet_bits = _service_inputs(cfg)
    if packet_bits <= 0.0:
        raise ConfigError("validate needs l_d >= 1 (packet size in bits must be positive)")

    result = run_simulation(cfg.link, cfg.timing, cfg.traffic, p_e, cfg.seed)
    if result.n_delivered == 0:
        print("validate: no packets delivered; cannot compare delays", file=sys.stderr)
        return 4
    sim_mean = result.mean_delay

    try:
        inputs = gg1.inputs_from_distribution(dist, cfg.traffic.mean_interarrival)
    except ValueError as exc:
        raise ConfigError(f"traffic: {exc}") from exc
    analytic = gg1.mean_delay(inputs)
    try:
        fitted = gg1.mean_delay(_fitted_inputs(cfg))
    except (ConfigError, gg1.Overloaded):
        fitted = None

    rel_error = abs(sim_mean - analytic) / analytic
    mean_ok = rel_error <= cfg.mean_delay_tolerance

    ccdf = snc.optimize_delay_ccdf(
        cfg.traffic, dist, packet_bits, cfg.delay_grid, thetas=cfg.theta_grid.values()
    )
    emp = empirical_ccdf(result.delivered_delays, cfg.delay_grid)
    violations = dominance_report(
        emp, ccdf.delays(), ccdf.probs(), min_bound_prob=MIN_BOUND_PROB
    )
    dominance_ok = not violations
    passed = mean_ok and dominance_ok

    violating = {v.delay for v in violations}
    summary = {
        "sim_mean_delay_ms": sim_mean,
        "analytic_mean_delay_ms": analytic,
        "fitted_mean_delay_ms": fitted,
        "rel_error": rel_error,
        "tolerance": cfg.mean_delay_tolerance,
        "mean_ok": mean_ok,
        "n_violations": len(violations),
        "dominance_ok": dominance_ok,
        "passed": passed,
    }
    columns = ["delay_ms", "empirical_fraction", "empirical_upper", "bound_prob", "theta", "violation"]
    rows = [
        (p.delay, float(f), float(u), p.prob, p.theta, p.delay in violating)
        for p, f, u in zip(ccdf.points, emp.fractions, emp.upper)
    ]
    _emit(cfg, summary, columns, rows)
    return 0 if passed else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkdelay",
        description="Delay prediction and validation for a lossy retransmitting link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("models", "evaluate the fitted link models"),
        ("mean-delay", "predict mean delay through the equivalent queue"),
        ("delay-bound", "optimized delay-tail bound over the delay grid"),
        ("simulate", "run the discrete-event link simulator"),
        ("validate", "compare analytic predictions against simulation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override the output format")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective config as JSON and exit")
        if name == "simulate":
            p.add_argument("--trace", default=None, help="write a per-packet trace CSV here")
    return parser


_COMMANDS = {
    "models": cmd_models,
    "mean-delay": cmd_mean_delay,
    "delay-bound": cmd_delay_bound,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = _effective_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.dump_config:
            import json

            _write(cfg.output_path, json.dumps(dump_config(cfg), indent=2, sort_keys=True) + "\n")
            return 0
        return _COMMANDS[args.command](cfg, args)
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except gg1.Overloaded as exc:
        print(f"overloaded: traffic intensity rho={exc.rho:.12g} >= 1", file=sys.stderr)
        return 3
    except gg1.Overload as exc:
        print(f"overload: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
