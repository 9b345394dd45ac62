"""The lios benchmark: one command per workload, seeded inputs, checked outputs.

    python3 bench/run.py --workload lift-large --seed 1 --seconds 15 --trace 0

Set-up generates the workload's inputs from the seed (several times; the
median counts) and, for reload-query, lifts the graph it reloads. Each
measured round then runs in a fresh worker process that receives only those
files. Rounds repeat until `--seconds` have passed; every round is whole.

With `--trace 0` the last line of output holds the end-to-end metrics, with
`--trace 1` the per-layer ones: self time per layer from spans the benchmark
wraps around lios's public functions, counters, store size and the tracing
overhead. `--smoke` shrinks every input so that a run takes seconds;
`--functions N` sets the perf_app size of lift-large and reload-query.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("lift-large", "scan-batch", "reload-query")
# set-up repeats at least this often and until this many seconds are spent
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# a run must end within 180 s; workers are stopped at this mark
RUN_LIMIT_S = 170.0

COUNTS = (
    "disasm.functions", "disasm.instructions", "disasm.use_def_edges",
    "disasm.effects_calls", "disasm.msgsend_sites", "disasm.msgsend_resolved",
    "analyses.taint_calls", "traverse.results",
)


class BenchError(RuntimeError):
    pass


def worker(mode: str, deadline: float, inputs_dir: Path, out_dir: Path | None = None,
           trace: bool = False, check: bool = False) -> dict:
    """Run one worker process to its end, or kill it at `deadline`."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--inputs", str(inputs_dir)]
    if out_dir is not None:
        cmd += ["--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _generate_again(times: list[float], once: bool) -> bool:
    if once:
        return not times
    return len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < 10)


def set_up(workload: str, deadline: float, inputs_dir: Path, seed: int, smoke: bool,
           functions: int | None, trace: bool) -> tuple[float, float]:
    """(setup seconds, median generation seconds).

    Generation repeats at least SETUP_REPEATS times and until SETUP_MIN_S
    have passed. It runs once on reload-query, whose set-up then lifts the
    graph and takes ten times as long, and once in a traced run, which
    reports no `setup_s`.
    """
    import inputs

    generate: list[float] = []
    while _generate_again(generate, trace or workload == "reload-query"):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        start = time.perf_counter()
        inputs.generate(workload, inputs_dir, seed, smoke, functions)
        generate.append(time.perf_counter() - start)
    lift_s = 0.0
    if workload == "reload-query":
        start = time.perf_counter()
        worker("setup-lift", deadline, inputs_dir)
        lift_s = time.perf_counter() - start
    return statistics.median(generate) + lift_s, statistics.median(generate)


def measure(mode: str, deadline: float, inputs_dir: Path, out_dir: Path,
            seconds: float) -> list[dict]:
    """Whole untraced rounds until `seconds` pass, at least one; the first
    one checks its outputs."""
    rounds: list[dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        longest = max(r["elapsed"] for r in rounds) if rounds else 0.0
        if rounds and time.perf_counter() + 2 * longest > deadline:
            break
        t = time.perf_counter()
        rounds.append(worker(mode, deadline, inputs_dir, out_dir, check=not rounds))
        rounds[-1]["elapsed"] = time.perf_counter() - t
    return rounds


def verdict(rounds: list[dict]) -> tuple[bool, list[str]]:
    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) > 1:
        problems.append("rounds over the same inputs gave different outputs")
    return not problems, problems


def layer_metrics(traced: dict, untraced_wall: float, store: dict, generate_s: float) -> dict:
    counts = traced["counts"]
    out = {"fixtures.generate_s": (generate_s, "s")}
    for layer, seconds in sorted(traced["layers"].items()):
        out[f"{layer}_s"] = (seconds, "s")
    out["graph.store_mb"] = (store["store_mb"], "MB")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    functions = counts.get("disasm.functions", 0)
    per_fn = counts.get("disasm.effects_calls", 0) / functions if functions else 0.0
    out["disasm.effects_per_function"] = (per_fn, "ratio")
    out["graph.nodes"] = (traced["nodes"], "count")
    out["graph.edges"] = (traced["edges"], "count")
    out["graph.dump_mb"] = (counts.get("graph.dump_bytes", 0) / 1e6, "MB")
    out["analyses.findings"] = (traced["findings"], "count")
    out["pipeline.rejected"] = (traced.get("rejected", 0), "count")
    out["pipeline.unattributed_s"] = (traced["wall"] - traced["covered"], "s")
    out["trace.overhead_s"] = (traced["wall"] - untraced_wall, "s")
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs_dir, out_dir = work / "inputs", work / "out"
    try:
        setup_s, generate_s = set_up(args.workload, deadline, inputs_dir, args.seed,
                                     args.smoke, args.functions, bool(args.trace))
        # a traced run needs one untraced round, for the tracing overhead
        seconds = 0.0 if args.trace else args.seconds
        rounds = measure(args.workload, deadline, inputs_dir, out_dir, seconds)
        if args.trace:
            untraced_wall = statistics.median(r["wall"] for r in rounds)
            traced = worker(args.workload, deadline, inputs_dir, out_dir, trace=True)
            rounds.append(traced)
            dumps = inputs_dir / "lift" if args.workload == "reload-query" else out_dir
            store = worker("store", deadline, dumps)
            metrics = layer_metrics(traced, untraced_wall, store, generate_s)
        else:
            metrics = {
                "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
                "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
                "setup_s": (setup_s, "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    correct, problems = verdict(rounds)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lios benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: every workload and its checks in seconds")
    parser.add_argument("--functions", type=int, default=None,
                        help="perf_app size for lift-large and reload-query (default 400)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lios" / "__init__.py").is_file():
        print(f"error: no lios sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
