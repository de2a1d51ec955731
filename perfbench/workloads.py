"""Inputs and operations of the linkdelay benchmark workloads.

Every workload is a deck of blocks.  Every block of a workload has the
same design, a fixed mix of ops, so a run that completes whole blocks
always measures the same composition whatever its length; the workload
seed sets each op's parameters inside that design and its simulation
seed.  The design keeps every op away from linkdelay's known defects, so
no op of a healthy run fails; ``known_defect_ops`` reproduces those
defects on fixed inputs for the run's report.  Inputs reach the program as JSON config files, read
back with ``linkdelay.config.load_config`` or passed to the CLI.

Ops call linkdelay's public entry points only: ``run_simulation`` and
the analysis functions in the order ``cli.cmd_validate`` calls them, and
``python -m linkdelay.cli`` in a fresh process.  The benchmark opens a
span around each call; the package itself is not instrumented.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from linkdelay import cli, config, empirical, gg1, service_time, simulator, snc, traffic

WORKLOADS = ("cli_cold", "sim_long", "overload_drops", "bound_sweep")
SUBCOMMANDS = ("models", "mean-delay", "delay-bound", "simulate", "validate")
KINDS = ("periodic", "poisson", "onoff")

BLOCKS_PER_DECK = 8          # a run that needs more blocks starts the deck again
SIM_PACKETS = 1_000_000      # packets per sim_long op
# packets per overload_drops op: half of sim_long's, so that a run holds
# enough of its four-op blocks for a steady median
OVERLOAD_PACKETS = 500_000
PROBE_PACKETS = 20_000       # packets per probe op (the CLI default horizon)
CLI_TIMEOUT_S = 120.0

# bound_sweep: offered loads; the levels from 0.9 up are not jittered, so
# every block holds the same points near and beyond the stability edge.
# On-off points from rho 0.97 make optimize_delay_ccdf raise Overload
# although rho < 1 (a known defect), so the stable levels stop at 0.9.
RHO_LEVELS = (0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 1.05, 1.1)
# bound_sweep payload cells.  From 89 bytes, theta * packet_bits passes
# exp()'s range on the default theta grid and Poisson points raise
# OverflowError (a known defect), so Poisson's last cell ends at 88.
L_D_CELLS = ((10, 48), (49, 88), (89, 114))
POISSON_L_D_CELLS = ((10, 48), (49, 70), (71, 88))


@dataclass(frozen=True)
class Op:
    """One operation: an in-process pipeline or bound call, or a CLI call."""

    index: int
    kind: str                 # traffic kind, or the subcommand of a CLI op
    rho: float                # offered load E[T] / mean interarrival; nan if not set
    cfg: config.RunConfig | None = None
    argv: tuple[str, ...] = ()


@dataclass
class OpResult:
    """What one op produced; filled in as the op goes, so a failed op keeps its partial output."""

    seconds: float = 0.0                   # CPU time of the op, its child's included
    wall: float = 0.0                      # wall time of the op
    child_cpu: float = 0.0                 # CPU time of the CLI child
    error: str | None = None               # unexpected exception, "Type: message"
    overloads: tuple[str, ...] = ()        # "gg1" / "snc" overload signals raised
    fitted_overloaded: bool = False        # gg1 fitted-model route reported rho >= 1
    exit_code: int | None = None
    rss_kb: int = 0                        # peak RSS of the CLI child
    stdout: bytes = b""
    packets: int = 0                       # offered packets simulated
    counts: tuple[int, int, int, int] | None = None  # arrivals, delivered, queue drops, retry drops
    delays: np.ndarray | None = None       # delivered delays, ms
    sim_mean: float | None = None
    analytic_mean: float | None = None
    fitted_mean: float | None = None
    grid: np.ndarray | None = None         # delay grid of the bound, ms
    bound: np.ndarray | None = None        # bound probabilities on grid
    thetas: tuple | None = None            # chosen exponents, None where vacuous
    theta_grid: np.ndarray | None = None
    upper: np.ndarray | None = None        # empirical 99% upper envelope on grid
    program_violations: int | None = None  # length of linkdelay's dominance_report


# ---------------------------------------------------------------- inputs

def _mean_service(l_d: int, snr: float, n_max_tries: int) -> float:
    link = empirical.LinkConfig(l_d=l_d, snr=snr, n_max_tries=n_max_tries)
    p_e = empirical.packet_error_rate(l_d, snr)
    return service_time.service_distribution(link, service_time.TimingConstants(), p_e).mean()


def _point(kind: str, rho: float, l_d: int, snr: float, n_max_tries: int, *, burst: float,
           q_max: int = 60, horizon: int | None = None, seed: int | None = None,
           grid_points: int = 0, grid_step: float = 0.0) -> dict:
    """JSON config of one operating point at offered load rho.

    On-off sources spend half their time On (mean On and Off periods both
    burst * E[T]) and emit at twice the mean rate while On.  A delay grid,
    when asked for, starts at E[T] and steps by grid_step * E[T].
    """
    mean_t = _mean_service(l_d, snr, n_max_tries)
    t_int = mean_t / rho
    if kind == "periodic":
        spec = {"kind": kind, "t_pit": t_int}
    elif kind == "poisson":
        spec = {"kind": kind, "rate": 1.0 / t_int}
    else:
        switch = 1.0 / (burst * mean_t)
        spec = {"kind": kind, "lam_on_off": switch, "mu_off_on": switch, "rate": 2.0 / t_int}
    if horizon is not None:
        spec["horizon"] = horizon
    raw = {
        "link": {"l_d": l_d, "snr": snr, "n_max_tries": n_max_tries, "q_max": q_max, "t_pit": t_int},
        "traffic": spec,
    }
    if seed is not None:
        raw["seed"] = seed
    if grid_points:
        raw["delay_grid"] = [mean_t * (1.0 + k * grid_step) for k in range(grid_points)]
    return raw


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


# (l_d bytes, snr dB, n_max_tries) of the simulated points, jittered a little per op.
# An op's cost follows its load, losses and traffic kind, so every block of a
# simulation workload holds the same mix of them; seeds differ only inside it.
LINK_PROFILES = ((20, 25.0, 2), (50, 18.0, 3), (80, 12.0, 5))
SIM_LONG_RHO = (0.55, 0.7, 0.85)


def _sim_point(rng, kind, rho, profile, q_max, burst, packets):
    l_d, snr, n_max_tries = profile
    return _point(kind, rho + float(rng.uniform(-0.01, 0.01)), l_d + int(rng.integers(-4, 5)),
                  snr + float(rng.uniform(-1.0, 1.0)), n_max_tries,
                  burst=burst * float(rng.uniform(0.9, 1.1)), q_max=q_max, horizon=packets,
                  seed=_seed(rng), grid_points=16, grid_step=0.5)


def _sim_long_block(rng, block):
    """One op per traffic kind, each at its own stable load and link profile.

    Periodic runs at rho 0.55 on the lightest profile, Poisson at 0.7 and
    on-off at 0.85 on the lossiest; the queue is too long for any packet
    to overflow.
    """
    return [(k, _sim_point(rng, k, SIM_LONG_RHO[i], LINK_PROFILES[i], SIM_PACKETS, burst=6.0,
                           packets=SIM_PACKETS))
            for i, k in enumerate(KINDS)]


def _overload_block(rng, block):
    """Poisson and on-off at rho 0.88 and 1.08, with a short (2-4) or a longer (7-9) queue.

    Each kind gets the short queue at one load and the longer at the other.
    """
    return [(k, _sim_point(rng, k, rho, LINK_PROFILES[i],
                           (3, 8)[(i + r) % 2] + int(rng.integers(-1, 2)), burst=2.0,
                           packets=OVERLOAD_PACKETS))
            for r, rho in enumerate((0.88, 1.08)) for i, k in enumerate(("poisson", "onoff"))]


def _bound_block(rng, block):
    """Every rho level x payload cell x traffic kind once: 72 points."""
    points = []
    for level in RHO_LEVELS:
        for cell in range(len(L_D_CELLS)):
            for k in KINDS:
                lo, hi = (POISSON_L_D_CELLS if k == "poisson" else L_D_CELLS)[cell]
                rho = level + float(rng.uniform(-0.02, 0.02)) if level < 0.9 else level
                points.append((k, _point(k, rho, int(rng.integers(lo, hi + 1)),
                                         float(rng.uniform(5.0, 30.0)), int(rng.integers(1, 8)),
                                         burst=float(rng.uniform(4.0, 12.0)),
                                         grid_points=64, grid_step=0.25)))
    return points


def _cli_block(rng, block):
    """The five subcommands in turn; every other call passes a generated config.

    Which calls carry a config alternates between blocks, so two blocks
    call every subcommand once with and once without.  Config traffic
    kinds rotate through all three, except that validate gets periodic
    traffic only: its analytic mean is off by more than its 25% gate on
    Poisson and on-off traffic (a known defect), so it exits 4 there.
    """
    calls = []
    for i, sub in enumerate(SUBCOMMANDS):
        raw = None
        if (i + block) % 2 == 0:
            kind = "periodic" if sub == "validate" else KINDS[(block // 2 + i // 2) % 3]
            raw = _point(kind, float(rng.uniform(0.3, 0.8)), int(rng.integers(10, 89)),
                         float(rng.uniform(10.0, 30.0)), int(rng.integers(1, 6)),
                         burst=float(rng.uniform(2.0, 8.0)))
        calls.append((sub, raw, _seed(rng)))
    return calls


def _load(path: Path, raw: dict, tracer) -> config.RunConfig:
    path.write_text(json.dumps(raw))
    with tracer.span("config.load_config"):
        return config.load_config(path)


def _offered_rho(cfg: config.RunConfig) -> float:
    link = cfg.link
    return _mean_service(link.l_d, link.snr, link.n_max_tries) / cfg.traffic.mean_interarrival


def _in_process_ops(points, first: int, cfg_dir: Path, tracer) -> list[Op]:
    ops = []
    for j, (kind, raw) in enumerate(points):
        cfg = _load(cfg_dir / f"op{first + j}.json", raw, tracer)
        ops.append(Op(index=first + j, kind=kind, rho=_offered_rho(cfg), cfg=cfg))
    return ops


def _cli_ops(calls, first: int, cfg_dir: Path, tracer) -> list[Op]:
    ops = []
    for j, (sub, raw, seed) in enumerate(calls):
        argv = (sub, "--seed", str(seed))
        rho = float("nan")
        if raw is not None:
            path = cfg_dir / f"op{first + j}.json"
            rho = _offered_rho(_load(path, raw, tracer))
            argv = (sub, "--config", str(path), "--seed", str(seed))
        ops.append(Op(index=first + j, kind=sub, rho=rho, argv=argv))
    return ops


_BLOCKS = {
    "cli_cold": (_cli_block, _cli_ops),
    "sim_long": (_sim_long_block, _in_process_ops),
    "overload_drops": (_overload_block, _in_process_ops),
    "bound_sweep": (_bound_block, _in_process_ops),
}


def build_deck(workload: str, seed: int, cfg_dir: Path, tracer) -> list[list[Op]]:
    """All blocks of a workload's deck; the same seed gives the same deck."""
    make_block, make_ops = _BLOCKS[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cfg_dir.mkdir(parents=True, exist_ok=True)
    deck, first = [], 0
    for b in range(BLOCKS_PER_DECK):
        ops = make_ops(make_block(rng, b), first, cfg_dir, tracer)
        deck.append(ops)
        first += len(ops)
    return deck


def probe_deck(cfg_dir: Path, tracer) -> dict[str, list[Op]]:
    """Small fixed ops that reach every layer, for layers a workload does not call.

    The five subcommands on the default config, and the validate pipeline
    once per traffic kind at the CLI's default horizon.
    """
    cfg_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    cli_ops = [Op(index=i, kind=sub, rho=float("nan"), argv=(sub, "--seed", "1"))
               for i, sub in enumerate(SUBCOMMANDS)]
    points = [(k, _point(k, 0.6, 50, 20.0, 3, burst=6.0, q_max=PROBE_PACKETS, horizon=PROBE_PACKETS,
                         seed=_seed(rng), grid_points=16, grid_step=0.5)) for k in KINDS]
    return {"cli": cli_ops, "pipeline": _in_process_ops(points, len(cli_ops), cfg_dir, tracer)}


def known_defect_ops(cfg_dir: Path, tracer) -> list[tuple[str, str, Op]]:
    """Fixed inputs on which linkdelay's known defects show: (defect, call, op).

    The decks keep clear of these inputs, so that no measured op fails;
    run.py runs them once after the measurement, outside its counts, and
    reports whether each defect still shows.  ``call`` is ``bound`` for
    bound_op and ``cli`` for cli_main_op.
    """
    cfg_dir.mkdir(parents=True, exist_ok=True)
    points = [(k, _point(k, rho, l_d, 20.0, 3, burst=8.0, grid_points=64, grid_step=0.25))
              for k, rho, l_d in (("poisson", 0.6, 100), ("onoff", 0.99, 50))]
    overflow, overload = _in_process_ops(points, 0, cfg_dir, tracer)
    raw = _point("poisson", 0.6, 50, 20.0, 3, burst=8.0)
    path = cfg_dir / "op2.json"
    rho = _offered_rho(_load(path, raw, tracer))
    validate = Op(index=2, kind="validate", rho=rho,
                  argv=("validate", "--config", str(path), "--seed", "1"))
    return [
        ("snc.poisson_arrival_curve overflows exp() from l_d 89 on the default theta grid",
         "bound", overflow),
        ("optimize_delay_ccdf raises Overload on on-off traffic at rho 0.99", "bound", overload),
        ("validate exits 4 on Poisson traffic: the analytic mean misses its 25% gate",
         "cli", validate),
    ]


# ------------------------------------------------------------ operations

def _analysis(cfg: config.RunConfig, dist, res: OpResult, tracer) -> None:
    """Exact-law mean delay and the optimised tail bound, as cmd_validate computes them."""
    with tracer.span("gg1.inputs_from_distribution"):
        inputs = gg1.inputs_from_distribution(dist, cfg.traffic.mean_interarrival)
    try:
        with tracer.span("gg1.mean_delay"):
            res.analytic_mean = gg1.mean_delay(inputs)
    except gg1.Overloaded:
        res.overloads += ("gg1",)
    with tracer.span("snc.optimize_delay_ccdf"):
        try:
            thetas = cfg.theta_grid.values()
            ccdf = snc.optimize_delay_ccdf(cfg.traffic, dist, 8.0 * cfg.link.l_d, cfg.delay_grid,
                                           thetas=thetas)
        except snc.Overload:
            res.overloads += ("snc",)
            return
    res.grid, res.bound = ccdf.delays(), ccdf.probs()
    res.thetas = tuple(p.theta for p in ccdf.points)
    res.theta_grid = thetas


def _service(cfg: config.RunConfig, tracer):
    with tracer.span("empirical.packet_error_rate"):
        p_e = empirical.packet_error_rate(cfg.link.l_d, cfg.link.snr, cfg.per_coeffs)
    with tracer.span("service_time.service_distribution"):
        dist = service_time.service_distribution(cfg.link, cfg.timing, p_e)
    return p_e, dist


def pipeline_op(op: Op, res: OpResult, tracer) -> None:
    """The validate pipeline in-process: simulate, then compare both analytic answers."""
    cfg = op.cfg
    p_e, dist = _service(cfg, tracer)
    with tracer.span("simulator.run_simulation"):
        sim = simulator.run_simulation(cfg.link, cfg.timing, cfg.traffic, p_e, cfg.seed)
    res.packets = cfg.traffic.horizon
    res.counts = (sim.n_arrivals, sim.n_delivered, sim.n_queue_drops, sim.n_retry_drops)
    res.delays = sim.delivered_delays
    emp = None
    if sim.n_delivered:
        res.sim_mean = sim.mean_delay
        with tracer.span("simulator.empirical_ccdf"):
            emp = simulator.empirical_ccdf(sim.delivered_delays, cfg.delay_grid)
        res.upper = emp.upper
    _analysis(cfg, dist, res, tracer)
    if emp is not None and res.bound is not None:
        with tracer.span("simulator.dominance_report"):
            violations = simulator.dominance_report(emp, res.grid, res.bound,
                                                    min_bound_prob=cli.MIN_BOUND_PROB)
        res.program_violations = len(violations)


def bound_op(op: Op, res: OpResult, tracer) -> None:
    """Analysis only: both mean-delay routes and the optimised tail bound."""
    cfg = op.cfg
    _, dist = _service(cfg, tracer)
    with tracer.span("gg1.inputs_from_fitted_models"):
        fitted = gg1.inputs_from_fitted_models(cfg.link, cfg.moment_coeffs)
    try:
        with tracer.span("gg1.mean_delay"):
            res.fitted_mean = gg1.mean_delay(fitted)
    except gg1.Overloaded:
        res.fitted_overloaded = True
    _analysis(cfg, dist, res, tracer)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_child(proc: subprocess.Popen, timeout: float = CLI_TIMEOUT_S) -> tuple[int, float, int]:
    """Wait for a child; return its exit code, CPU seconds and peak RSS in KiB.

    Kills the child after timeout.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def cli_op(op: Op, res: OpResult, tracer, out_dir: Path, env: dict) -> None:
    """One subcommand in a fresh ``python -m linkdelay.cli`` process."""
    out = out_dir / f"op{op.index}.out"
    with open(out, "wb") as fout, open(out_dir / f"op{op.index}.err", "wb") as ferr:
        with tracer.span(f"cli.{op.kind}"):
            proc = subprocess.Popen([sys.executable, "-m", "linkdelay.cli", *op.argv],
                                    stdout=fout, stderr=ferr, env=env)
            res.exit_code, res.child_cpu, res.rss_kb = wait_child(proc)
    res.stdout = out.read_bytes()


def cli_main_op(op: Op, res: OpResult, tracer) -> None:
    """A CLI call through ``cli.main`` in this process, its output kept for the checks."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with tracer.span(f"cli.main.{op.kind}"):
            res.exit_code = cli.main(list(op.argv))
    res.stdout = out.getvalue().encode()


def sim_split(op: Op, tracer) -> None:
    """generate_arrivals and simulate called directly on an op's inputs, one seeded stream."""
    cfg = op.cfg
    p_e = empirical.packet_error_rate(cfg.link.l_d, cfg.link.snr, cfg.per_coeffs)
    rng = np.random.default_rng(cfg.seed)
    with tracer.span(f"traffic.generate_arrivals.{op.kind}"):
        arrivals = traffic.generate_arrivals(cfg.traffic, rng)
    with tracer.span("simulator.simulate"):
        simulator.simulate(arrivals, cfg.link, cfg.timing, p_e, rng)
