"""One benchmark run: set-up timing, the measured ops, and their metrics.

run.py puts ``src/`` on the path before importing this module.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy
import scipy

import checks
import workloads
from linkdelay import config
from spans import NullTracer
from speed import REF_EVERY_S, REF_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"
SETUP_REPEATS = 3     # fresh set-up processes per run; setup_s is their median
IMPORT_REPEATS = 3    # fresh ``-X importtime`` processes per traced run


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value.

    None below 100 samples, where that percentile would lie under p90:
    in a run that short it falls among the ops of one kind or another of
    the block's mix rather than in a tail.
    """
    times = sorted(times)
    n = len(times)
    if n < 100:
        return None
    return 100.0 * (n - 10) / n, times[n - 11]


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


class Bench:
    """One run: the deck's ops, their verdicts, and the spans of traced ops."""

    def __init__(self, workload: str, work: Path, env: dict, tracer):
        self.workload = workload
        self.work = work
        self.env = env
        self.tracer = tracer
        self.null = NullTracer()
        self.records: list[dict] = []
        self.probe_records: list[dict] = []
        self.refs: list[float] = []             # reference kernel CPU times of the run
        self.packets_by_op: dict[str, int] = {}
        self.points_by_op: dict[str, int] = {}
        self.is_cli = workload == "cli_cold"
        self.op_fn = {
            "cli_cold": self._cli_op,
            "sim_long": workloads.pipeline_op,
            "overload_drops": workloads.pipeline_op,
            "bound_sweep": workloads.bound_op,
        }[workload]

    def _cli_op(self, op, res, tracer) -> None:
        workloads.cli_op(op, res, tracer, self.work, self.env)

    def run_op(self, fn, op, tracer):
        """Run one op; its time is the CPU time of this process and of the op's child.

        Every op is single-threaded (BLAS pinned to one thread, at most one
        child), so its CPU time is its wall time on an idle machine, without
        the time a shared host gives to other tenants.
        """
        res = workloads.OpResult()
        with tracer.span("op"):
            t0, c0 = perf_counter(), process_time()
            try:
                fn(op, res, tracer)
            except Exception as exc:  # a failing op is a result to classify, not a benchmark error
                res.error = f"{type(exc).__name__}: {exc}"
            res.seconds = process_time() - c0 + res.child_cpu
            res.wall = perf_counter() - t0
        return res

    def split(self, op, res, tracer) -> None:
        """Out of the op's time: the same call through cli.main, or generate_arrivals + simulate."""
        with tracer.span("split"):
            if op.argv:
                workloads.cli_main_op(op, workloads.OpResult(), tracer)
            elif res.packets:
                workloads.sim_split(op, tracer)

    def record(self, block, op, res, traced, into) -> None:
        verdict = checks.classify(op, res)
        thetas = [t for t in (res.thetas or ()) if t is not None]
        grid = _theta_grid(op, res)
        slack = []
        if res.bound is not None and res.upper is not None:
            keep = (res.bound >= checks.MIN_BOUND_PROB) & (res.upper < 1.0)
            slack = [math.log10(b / u) for b, u in zip(res.bound[keep], res.upper[keep])]
        rel_err = None
        if res.sim_mean is not None and res.analytic_mean is not None:
            rel_err = abs(res.sim_mean - res.analytic_mean) / res.analytic_mean
        rec = {
            "block": block, "index": op.index, "kind": op.kind, "rho": op.rho,
            "seconds": res.seconds, "wall": res.wall, "traced": traced, "outcome": verdict.outcome,
            "reasons": verdict.reasons, "wrong": verdict.wrong, "digest": checks.digest(res),
            "packets": res.packets, "counts": res.counts, "rss_kb": res.rss_kb,
            "points": 0 if res.bound is None else len(res.bound),
            "vacuous": 0 if res.thetas is None else len(res.thetas) - len(thetas),
            "with_theta": len(thetas),
            "edge_theta": sum(1 for t in thetas if t < grid[1] or t > grid[-2]),
            "slack": slack, "rel_err": rel_err,
            "violations": checks.dominance_violations(res),
            "gg1_overloaded": "gg1" in res.overloads or res.fitted_overloaded,
            "snc_overload": "snc" in res.overloads,
        }
        into.append(rec)
        if traced:
            self.packets_by_op[self.tracer.op] = res.packets
            self.points_by_op[self.tracer.op] = rec["points"]

    def _same_as_untraced(self, block, index) -> None:
        """The traced pass repeats the untraced one on the same seeds; outputs must agree."""
        traced = self.records[-1]
        untraced = next(r for r in self.records
                        if r["block"] == block and r["index"] == index and not r["traced"])
        if traced["digest"] != untraced["digest"]:
            traced.update(outcome="failed", wrong=True,
                          reasons=traced["reasons"] + ["output differs from the untraced run"])

    def warm_up(self, probe) -> None:
        """First calls pay lazy set-up (scipy's beta.ppf, numpy dispatch); do them untimed."""
        if self.is_cli:
            return
        op = probe["pipeline"][0]
        self.run_op(self.op_fn, op, self.null)

    def measure(self, deck, seconds: float, trace: bool) -> None:
        """Whole blocks until the next would end after ``seconds``; at least one.

        A traced run runs each block untraced and then traced, so the
        tracing overhead compares the same ops on the same seeds.
        """
        start = perf_counter()
        block_times = []
        b = 0
        since_ref = 0.0
        while True:
            t0 = perf_counter()
            for traced in (False, True) if trace else (False,):
                tracer = self.tracer if traced else self.null
                for op in deck[b % len(deck)]:
                    if traced:
                        tracer.op = f"b{b}.op{op.index}"
                    res = self.run_op(self.op_fn, op, tracer)
                    if traced:
                        self.split(op, res, tracer)
                    self.record(b, op, res, traced, self.records)
                    if traced:
                        self._same_as_untraced(b, op.index)
                    since_ref += res.seconds
                    if since_ref >= REF_EVERY_S:
                        self.refs.append(reference_seconds())
                        since_ref = 0.0
            block_times.append(perf_counter() - t0)
            b += 1
            if perf_counter() - start + statistics.fmean(block_times) > seconds:
                break

    def run_probe(self, probe) -> None:
        groups = [(workloads.pipeline_op, probe["pipeline"])]
        if not self.is_cli:
            groups.append((self._cli_op, probe["cli"]))
        for fn, ops in groups:
            for op in ops:
                self.tracer.op = f"probe.op{op.index}"
                res = self.run_op(fn, op, self.tracer)
                self.split(op, res, self.tracer)
                self.record("probe", op, res, True, self.probe_records)

    def known_defects(self, items) -> list[tuple[str, dict]]:
        """Run each known-defect op untraced; its record is kept apart from the measured ops."""
        calls = {"bound": workloads.bound_op, "cli": workloads.cli_main_op}
        out = []
        for defect, call, op in items:
            recs: list[dict] = []
            self.record("defects", op, self.run_op(calls[call], op, self.null), False, recs)
            out.append((defect, recs[0]))
        return out

    # -------------------------------------------------------------- metrics

    def slowness(self) -> float:
        """The host's slowness over the run: 1.0 where the reference kernel takes REF_S."""
        return statistics.median(self.refs) / REF_S

    def end_to_end(self, setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
        """End-to-end metrics; times are CPU seconds divided by the run's slowness."""
        slow = self.slowness()
        ops = [r for r in self.records if not r["traced"]]
        times = [r["seconds"] / slow for r in ops]
        total = sum(times)
        blocks: dict[int, list[float]] = {}
        for r, t in zip(ops, times):
            blocks.setdefault(r["block"], []).append(t)
        # every block is the same mix of ops, so their mean op times are alike;
        # a median over single ops would fall between the kinds of the mix
        p50 = statistics.median(statistics.fmean(b) for b in blocks.values())
        tail_pct, tail_s = tail(times) or (None, p50)
        if self.is_cli:
            rss_kb = max(r["rss_kb"] for r in ops)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(c for c, _ in setup_times) / slow, "s"),
            "op_s_p50": (p50, "s"),
            "op_s_tail": (tail_s, "s"),
            "bound_points_per_s": (sum(r["points"] for r in ops) / total, "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        notes = {"op_s_tail_percentile": tail_pct, "op_samples": len(times),
                 "blocks": len(blocks),
                 "setup_samples": len(setup_times), "measured_s": total,
                 "op_cpu_s_p50": statistics.median(r["seconds"] for r in ops),
                 "op_wall_s_p50": statistics.median(r["wall"] for r in ops),
                 "setup_cpu_s": statistics.median(c for c, _ in setup_times),
                 "setup_wall_s": statistics.median(w for _, w in setup_times),
                 "ref_s": sorted(self.refs)}
        return metrics, notes

    def quality(self) -> dict:
        """Metrics that only some workloads define (0 where undefined), over untraced ops."""
        recs = [r for r in self.records if not r["traced"]]
        ops_time = sum(r["seconds"] for r in recs)
        failed = sum(r["outcome"] == "failed" for r in recs)
        return {
            "workload.failed_frac": (failed / len(recs), "frac"),
            "workload.pkts_per_s": (sum(r["packets"] for r in recs) / ops_time, "1/s"),
            "workload.mean_delay_rel_err": (_median(r["rel_err"] for r in recs
                                                    if r["rel_err"] is not None), "frac"),
            "workload.bound_slack_log10": (_median(s for r in recs for s in r["slack"]), "log10"),
            "workload.dominance_violations": (sum(r["violations"] for r in recs), "count"),
        }

    def per_layer(self, imports: dict) -> dict:
        spans = self.tracer.spans
        selfs = self.tracer.self_times()
        work = [i for i, s in enumerate(spans) if s[4] and s[4].startswith("b")]
        probe = [i for i, s in enumerate(spans) if s[4] and s[4].startswith("probe")]

        def pick(match):
            """Spans that match, from the workload's ops if it made any, else from the probe."""
            found = [i for i in work if match(spans[i][0])]
            return found or [i for i in probe if match(spans[i][0])]

        def dur(i):
            return spans[i][2] - spans[i][1]

        def median_s(name):
            return _median(dur(i) for i in pick(lambda n: n == name))

        def ns_per_pkt(name):
            found = pick(lambda n: n == name)
            pkts = sum(self.packets_by_op.get(spans[i][4], 0) for i in found)
            return 1e9 * sum(dur(i) for i in found) / pkts if pkts else 0.0

        def busy_per_op(prefix):
            found = pick(lambda n: n.startswith(prefix))
            ops = {spans[i][4] for i in found}
            return sum(selfs[i] for i in found) / len(ops) if ops else 0.0

        startup = []
        for ids in (work, probe):
            by_op: dict[str, dict[str, float]] = {}
            for i in ids:
                by_op.setdefault(spans[i][4], {})[spans[i][0]] = dur(i)
            for names in by_op.values():
                for name, seconds in names.items():
                    inner = names.get(name.replace("cli.", "cli.main.", 1))
                    if name.startswith("cli.") and not name.startswith("cli.main.") and inner:
                        startup.append(seconds - inner)
            if startup:
                break

        snc_spans = pick(lambda n: n == "snc.optimize_delay_ccdf")
        snc_points = sum(self.points_by_op.get(spans[i][4], 0) for i in snc_spans)
        traced = [r for r in self.records if r["traced"]]
        untraced = [r for r in self.records if not r["traced"]]
        first_block = [r for r in self.records if r["block"] == 0 and not r["traced"]]
        counts = [r["counts"] for r in first_block if r["counts"]]
        pkts = sum(c[0] for c in counts)
        delivered = sum(c[1] for c in counts)
        with_theta = sum(r["with_theta"] for r in self.records)
        points = sum(r["vacuous"] + r["with_theta"] for r in self.records)
        op_roots = [i for i in work if spans[i][0] == "op"]
        root_time = sum(dur(i) for i in op_roots)

        m = {
            "import.numpy_s": (imports["numpy"], "s"),
            "import.scipy_stats_s": (imports["scipy"], "s"),
            "import.linkdelay_self_s": (imports["linkdelay_self"], "s"),
            "config.load_s": (_median(dur(i) for i, s in enumerate(spans)
                                      if s[0] == "config.load_config"), "s"),
            "cli.startup_s": (_median(startup), "s"),
        }
        for sub in ("models", "mean-delay", "delay-bound", "simulate", "validate"):
            m[f"cli.{sub}_s"] = (median_s(f"cli.main.{sub}"), "s")
        for kind in ("periodic", "poisson", "onoff"):
            m[f"traffic.{kind}_ns_per_pkt"] = (ns_per_pkt(f"traffic.generate_arrivals.{kind}"), "ns")
        m.update({
            "simulator.simulate_ns_per_pkt": (ns_per_pkt("simulator.simulate"), "ns"),
            "simulator.run_simulation_s": (median_s("simulator.run_simulation"), "s"),
            "simulator.empirical_ccdf_s": (median_s("simulator.empirical_ccdf"), "s"),
            "simulator.dominance_report_s": (median_s("simulator.dominance_report"), "s"),
            "simulator.pkts": (pkts, "count"),
            "simulator.delivered": (delivered, "count"),
            "simulator.queue_drops": (sum(c[2] for c in counts), "count"),
            "simulator.retry_drops": (sum(c[3] for c in counts), "count"),
            "simulator.delivered_ratio": (delivered / pkts if pkts else 0.0, "frac"),
            "service_time.service_distribution_s": (median_s("service_time.service_distribution"), "s"),
            "empirical.busy_s": (busy_per_op("empirical."), "s"),
            "gg1.busy_s": (busy_per_op("gg1."), "s"),
            "gg1.calls": (sum(spans[i][0].startswith("gg1.") for i in work), "count"),
            "gg1.overloaded": (sum(r["gg1_overloaded"] for r in traced), "count"),
            "snc.optimize_s": (median_s("snc.optimize_delay_ccdf"), "s"),
            "snc.s_per_delay_point": (sum(dur(i) for i in snc_spans) / snc_points if snc_points
                                      else 0.0, "s"),
            "snc.calls": (sum(spans[i][0] == "snc.optimize_delay_ccdf" for i in work), "count"),
            "snc.overload": (sum(r["snc_overload"] for r in traced), "count"),
            "snc.vacuous_ratio": ((points - with_theta) / points if points else 0.0, "frac"),
            "snc.edge_theta_ratio": (sum(r["edge_theta"] for r in self.records) / with_theta
                                     if with_theta else 0.0, "frac"),
            "trace.overhead_frac": (statistics.median(r["seconds"] for r in traced)
                                    / statistics.median(r["seconds"] for r in untraced) - 1.0,
                                    "frac"),
            "trace.unaccounted_frac": (sum(selfs[i] for i in op_roots) / root_time, "frac"),
        })
        m.update(self.quality())
        return m


def _theta_grid(op, res):
    """The exponent grid an op searched; CLI calls use their config's, here the default."""
    if res.theta_grid is not None:
        return res.theta_grid
    return (op.cfg or config.default_config()).theta_grid.values()


def measure_setup(workload: str, seed: int, work: Path, env: dict,
                  refs: list[float]) -> list[tuple[float, float]]:
    """CPU and wall time of fresh processes that import linkdelay and build the workload's inputs.

    A reference kernel timed after each process goes into refs.
    """
    times = []
    reference_seconds()  # the first run in a process pays one-off costs
    for k in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_child.py"), workload, str(seed),
                                 str(work / f"setup{k}")], env=env)
        code, cpu, _ = workloads.wait_child(proc)
        times.append((cpu, perf_counter() - t0))
        refs.append(reference_seconds())
        if code != 0:
            raise SetupFailed(f"set-up child exited with {code}")
    return times


class SetupFailed(Exception):
    pass


def _import_tree(stderr: str):
    """Parse ``-X importtime`` output into (name, cumulative s, children) trees.

    A module's line follows the lines of the imports it triggered, one
    indentation level deeper.
    """
    stack: list[tuple[int, str, float, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum_us, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, field.strip(), int(cum_us) / 1e6, children[::-1]))
    return stack


def _library_times(node, roots: tuple[str, ...], totals: dict) -> dict:
    """Cumulative import time of the topmost modules of each root package under node."""
    _, name, cum, children = node
    root = name.split(".")[0]
    if root in roots:
        totals[root] += cum
    else:
        for child in children:
            _library_times(child, roots, totals)
    return totals


def import_split(env: dict) -> dict:
    """Time numpy, scipy and linkdelay's own modules inside ``import linkdelay``."""
    splits = []
    for k in range(IMPORT_REPEATS):
        err = RUN_DIR / f"importtime{k}.txt"
        with open(err, "wb") as ferr:
            proc = subprocess.Popen([sys.executable, "-X", "importtime", "-c", "import linkdelay"],
                                    stderr=ferr, env=env)
            code, _, _ = workloads.wait_child(proc)
        text = err.read_text()
        err.unlink()
        if code != 0:
            raise SetupFailed(f"import linkdelay exited with {code}")
        top = next(n for n in _import_tree(text) if n[1] == "linkdelay")
        libs = _library_times(top, ("numpy", "scipy"), {"numpy": 0.0, "scipy": 0.0})
        libs["linkdelay_self"] = top[2] - libs["numpy"] - libs["scipy"]
        splits.append(libs)
    return {k: statistics.median(s[k] for s in splits) for k in splits[0]}


def machine_record() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        commit = out.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": os.environ["OMP_NUM_THREADS"], "commit": commit}
