"""Run the benchmark over several seeds; report each metric's median and spread.

    python3 perfbench/steady.py --workloads sim_long bound_sweep --seeds 1-10 --out FILE
    python3 perfbench/steady.py ... --compare EARLIER_FILE

Runs are sequential, one ``run.py`` process at a time.  The spread of a
metric is (Q3 - Q1) / median of its values over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``; it is checked against
a third of the metric's bound in BENCHMARK.json (setup_s excepted).  With
``--compare`` the medians are also checked against an earlier set of runs,
and every block that both sets ran on a seed must have the same digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    ops = json.loads((HERE / "_run" / f"digests-{workload}-s{seed}-t{trace}.json").read_text())
    return {"seed": seed, "wall_s": wall, "report": lines[:-1], "result": json.loads(lines[-1]),
            "block_digests": block_digests(ops)}


def block_digests(ops: list) -> dict[str, str]:
    """One digest per block over its ops' digests, in op order."""
    blocks: dict = {}
    for block, _, digest, *_ in ops:
        blocks.setdefault(str(block), hashlib.sha256()).update(digest.encode())
    return {block: h.hexdigest()[:16] for block, h in blocks.items()}


def run_metrics(run: dict) -> dict[str, float]:
    """The result's metrics plus the ``workload.*`` figures of the report lines."""
    values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
    for line in run["report"]:
        if line.startswith("# workload."):
            name, _, rest = line[2:].partition(" = ")
            values[name] = float(rest.split()[0])
    return values


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    metrics = [run_metrics(r) for r in runs]
    for name in metrics[0]:
        values = [m[name] for m in metrics]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / abs(med) if med else None  # no relative spread around 0
        row = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds:
            row["bound"] = bounds[name]["bound"]
            row["steady"] = name == "setup_s" or (spread is not None
                                                  and spread < bounds[name]["bound"] / 3.0)
        out[name] = row
    return out


def compare(now: dict, before: dict, bounds: dict) -> list[str]:
    problems = []
    for workload, summary in now["summary"].items():
        earlier = before["summary"].get(workload)
        if earlier is None:
            continue
        for name, row in summary.items():
            if name not in bounds or name not in earlier:
                continue
            first, second = earlier[name]["median"], row["median"]
            worse = (second - first) / first if bounds[name]["better"] == "lower" else \
                (first - second) / first
            if worse > bounds[name]["bound"]:
                problems.append(f"{workload} {name}: median {second:.6g} vs {first:.6g}")
        seeds = {r["seed"]: r["block_digests"] for r in before["runs"].get(workload, [])}
        for run in now["runs"][workload]:
            old = seeds.get(run["seed"], {})
            differ = [b for b, d in run["block_digests"].items() if b in old and old[b] != d]
            if differ:
                problems.append(f"{workload} seed {run['seed']}: digests differ in blocks {differ}")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSON file for the runs and their summary")
    p.add_argument("--compare", help="an earlier --out file to check medians and digests against")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    doc = {"machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                       "python": platform.python_version()},
           "seconds": spec["run_seconds"], "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s "
                  f"{json.dumps(runs[-1]['result']['metrics'])[:400]}", flush=True)
        doc["runs"][workload] = runs
        doc["summary"][workload] = summarise(runs, bounds)
        for name, row in doc["summary"][workload].items():
            flag = "" if row.get("steady", True) else "  NOT STEADY"
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name}: median {row['median']:.6g} spread {spread}{flag}")
    problems = []
    if args.compare:
        problems = compare(doc, json.loads(Path(args.compare).read_text()), bounds)
        doc["compare"] = {"against": args.compare, "problems": problems}
        for line in problems:
            print(f"COMPARE: {line}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
