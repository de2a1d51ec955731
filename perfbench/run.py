"""linkdelay benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; the package is taken from ``src/`` beside this
directory, not from an installed copy.  The load is closed-loop with one
client: an op starts when the previous one has ended, and there is at
most one child process at a time.  The run measures whole blocks of the
workload's deck (see workloads.py) until the next block would pass
``--seconds``, checks every op, and prints a report, then the result as
the last line of standard output.

With ``--trace 0`` the result holds the end-to-end metrics, timed with
tracing off; their times are CPU seconds divided by the run's slowness,
measured with a reference kernel (speed.py).  The whole run is pinned to
one CPU.  With ``--trace 1`` it holds the per-layer metrics: each
block runs untraced and then traced, the traced ops record spans around
each call into linkdelay, and layers the workload never calls are timed
on a small fixed probe.  Spans and per-op digests are written under
``perfbench/_run/`` when the run ends.

Exit codes: 0 result printed, 2 no linkdelay sources beside the
benchmark, 3 the checks' self-test failed, 4 a set-up child failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

# one BLAS / OpenMP thread, in this process and in every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_cold", "sim_long", "overload_drops", "bound_sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "linkdelay" / "__init__.py").is_file():
        print(f"run.py: no linkdelay sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # users pay bytecode compilation once per install, so it is not timed
    compileall.compile_dir(str(SRC / "linkdelay"), quiet=1)

    import bench
    import checks
    import workloads
    from spans import NullTracer, Tracer
    from speed import REF_S, pin_to_one_cpu

    cpu = pin_to_one_cpu()

    missed = checks.self_test()
    if missed:
        print(f"run.py: the op checks misjudged: {', '.join(missed)}", file=sys.stderr)
        return 3

    bench.RUN_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = bench.RUN_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = workloads.child_env(SRC)
    tracer = Tracer() if args.trace else NullTracer()
    run = bench.Bench(args.workload, work, env, tracer)
    try:
        setup_times = bench.measure_setup(args.workload, args.seed, work, env, run.refs)
        imports = bench.import_split(env) if args.trace else None
        tracer.op = "setup"
        deck = workloads.build_deck(args.workload, args.seed, work / "cfg", tracer)
        probe = workloads.probe_deck(work / "probe", tracer)
        tracer.op = None
        run.warm_up(probe)
        run.measure(deck, args.seconds, bool(args.trace))
        defects = run.known_defects(workloads.known_defect_ops(work / "defects", NullTracer()))
        if args.trace:
            run.run_probe(probe)
    except bench.SetupFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = run.records
    e2e, notes = run.end_to_end(setup_times)
    quality = run.quality()
    failed = [r for r in recs if r["outcome"] == "failed"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(bench.machine_record(), sort_keys=True)}")
    for name, (value, unit) in e2e.items():
        print(f"# {name} = {value:.6g} {unit}")
    tail_note = (f"op_s_tail is p{notes['op_s_tail_percentile']:.1f} of {notes['op_samples']} ops"
                 if notes["op_s_tail_percentile"] is not None else
                 f"op_s_tail is op_s_p50: {notes['op_samples']} ops are too few for a tail")
    print(f"# op_s_p50 is the median over {notes['blocks']} blocks of their mean op time; "
          f"{tail_note}; setup_s is the median of {notes['setup_samples']} fresh processes")
    refs = notes["ref_s"]
    print(f"# times are CPU seconds divided by the host's slowness {run.slowness():.4g}: the "
          f"reference kernel took a median {statistics.median(refs) * 1e3:.1f} ms "
          f"(range {refs[0] * 1e3:.1f}-{refs[-1] * 1e3:.1f} ms over {len(refs)} runs "
          f"on CPU {cpu}), {REF_S * 1e3:.1f} ms on a quiet host")
    print(f"# unscaled op p50: {notes['op_cpu_s_p50']:.6g} s CPU, "
          f"{notes['op_wall_s_p50']:.6g} s wall; unscaled set-up: "
          f"{notes['setup_cpu_s']:.6g} s CPU, {notes['setup_wall_s']:.6g} s wall")
    for name, (value, unit) in quality.items():
        print(f"# {name} = {value:.6g} {unit}")
    counts = [r["counts"] for r in recs if r["counts"]]
    if counts:
        arrivals = sum(c[0] for c in counts)
        print(f"# simulated {arrivals} packets: {sum(c[2] for c in counts) / arrivals:.2%} "
              f"queue-dropped, {sum(c[3] for c in counts) / arrivals:.2%} retry-dropped")
    outcomes = {o: sum(r["outcome"] == o for r in recs) for o in ("ok", "expected_overload", "failed")}
    print(f"# outcomes {json.dumps(outcomes)}")
    reasons: dict[str, int] = {}
    for r in failed:
        key = f"{r['kind']}: {'; '.join(r['reasons'])}"
        reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items()):
        print(f"# failed x{n} {key}")
    for defect, rec in defects:
        if rec["outcome"] == "failed":
            print(f"# known defect shows (not counted): {defect} [{'; '.join(rec['reasons'])}]")
        else:
            print(f"# known defect no longer shows: {defect} [outcome {rec['outcome']}]")
    with open(bench.RUN_DIR / f"digests-{tag}.json", "w") as fh:
        json.dump([[r["block"], r["index"], r["digest"], r["kind"], r["rho"], r["seconds"],
                    r["outcome"]] for r in recs], fh)
    metrics = e2e
    if args.trace:
        metrics = run.per_layer(imports)
        tracer.write(bench.RUN_DIR / f"spans-{tag}.jsonl")
        probe_failed = [r for r in run.probe_records if r["outcome"] == "failed"]
        if probe_failed:
            print(f"# probe ops failed: {[(r['kind'], r['reasons']) for r in probe_failed]}")
    result = {
        "correct": not any(r["wrong"] for r in recs),
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
