"""Benchmark entry point for priverm.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` it runs that workload in this process and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Without ``--workload`` it runs every workload
in a child process of its own, one after another, and prints each metric
by name and unit.  Run it from the root of a checkout; results and traces
go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = (3, 9)  # at least 3; up to 9 while they take under 1 s in all
MIN_PASSES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def script_target() -> str:
    """The ``priverm`` entry of ``[project.scripts]``, e.g. ``priverm.cli:main``."""
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["priverm"]


def run_timed(workload, ctx_factory, seed: int, seconds: float):
    """Set up a few times, then make the workload's pass up to ``passes`` times.

    The number of passes is what fits in ``seconds`` at the first pass's
    speed, at least three: a median of two passes is only their mean.
    """
    ctx = ctx_factory(None)
    setups = ctx.tally.setup_s
    low, high = SETUP_REPEATS
    while len(setups) < low or (len(setups) < high and sum(s for s, _ in setups) < 1.0):
        st, raw, scaled = ctx.speed.timed(workload.setup, ctx, seed)
        setups.append((raw, scaled))
    start = time.perf_counter()
    workload.run_pass(ctx, st, True)
    first = time.perf_counter() - start
    passes = min(workload.passes, max(MIN_PASSES, round(seconds / first)))
    for _ in range(passes - 1):
        workload.run_pass(ctx, st, False)
    workload.finish(ctx, st)
    return ctx.tally, ctx.tally.metrics()


def run_traced(workload, ctx_factory, seed: int, trace_path: Path):
    """Per-layer totals of one setup and one pass, with spans recorded.

    The same work runs untraced, traced and untraced again; the overhead is
    the traced wall time minus the mean of the two untraced ones, which
    cancels a host that speeds up or slows down in between.
    """
    from spans import Tracer, summarize

    def one_pass(tracer):
        ctx = ctx_factory(tracer)
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            st = workload.setup(ctx, seed)
            workload.run_pass(ctx, st, True)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
        workload.finish(ctx, st)
        return ctx.tally, wall

    before, wall_before = one_pass(None)
    tracer = Tracer()
    traced, wall_traced = one_pass(tracer)
    after, wall_after = one_pass(None)
    overhead = wall_traced - (wall_before + wall_after) / 2
    tracer.dump(str(trace_path), {"wall_s": wall_traced, "overhead_s": overhead})
    totals = summarize(tracer.spans, tracer.counts)
    values = {}
    for m in load_spec()["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = overhead
        elif name == "cli.startup_s":
            values[name] = statistics.median(traced.startup_s)
        elif name.startswith("cli."):
            values[name] = totals.get(name[: -len(".s")] + ".total_s", 0.0)
        else:
            values[name] = totals.get(name, 0.0)
    traced.problems += before.problems + after.problems
    return traced, values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[name]
    target = script_target()
    # one CPU for this process and its children, so that the host-speed
    # probe and the timed work run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec()
    for sub in ("results", "traces", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    work = OUT / "work" / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        def ctx_factory(tracer):
            return Context(ROOT, work, target, tracer)

        if trace:
            tally, values = run_traced(
                workload, ctx_factory, seed, OUT / "traces" / f"{name}-seed{seed}.json"
            )
            wanted = spec["per_layer"]
        else:
            tally, values = run_timed(workload, ctx_factory, seed, seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    saved = dict(result)
    if not trace:
        saved["raw_metrics"] = tally.metrics(which=0)  # as timed, before scaling
    path = OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(saved, indent=2) + "\n", encoding="utf-8")
    return result


def run_all(args) -> dict:
    """Every workload in its own child process, one at a time."""
    results = {}
    for w in load_spec()["workloads"]:
        name = w["name"]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<44} {v['value']:>14.6g} {v['unit']}")
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in ("BENCHMARK.json", "pyproject.toml", "src/priverm/__init__.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a priverm checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload is None:
        result = run_all(args)
    else:
        names = [w["name"] for w in load_spec()["workloads"]]
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
            return 2
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
