"""One measured round of a workload, in a fresh process.

    python3 bench/worker.py <mode> --inputs DIR --out DIR [--trace] [--check]

The process receives only the generated inputs. It times the workload's
user-facing operations, reads its own peak RSS before any check runs, then
checks the outputs and prints one JSON object as its last line. Modes are
the three workloads, `setup-lift` (the lift reload-query needs before it can
reload) and `store` (tracemalloc size of a reloaded store).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from lios import analyses, graph, traverse  # noqa: E402
from lios.errors import LiosError  # noqa: E402
from lios.pipeline import AnalysisConfig  # noqa: E402
import lios.pipeline  # noqa: E402

USE_DEF_SAMPLE = 4


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def lift(path, out, rules=None):
    # looked up on the module, so a traced run reaches the wrapper
    return lios.pipeline.run_pipeline(AnalysisConfig(input=str(path), out_dir=str(out), rules=rules))


def lift_large(args) -> dict:
    app = args.inputs / "app.bin"
    start = time.perf_counter()
    result = lift(app, args.out)
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    args.stop()
    artifacts = [Path(result.artifacts[k]).read_bytes() for k in ("graph", "findings", "stats")]
    report = {"wall": wall, "rss_mb": rss, "attempted": 1, "failed": 0,
              "digest": digest(*artifacts), "problems": [],
              "nodes": result.graph.node_count(), "edges": result.graph.edge_count(),
              "findings": len(result.findings)}
    del artifacts
    if args.check:
        manifest = inputs.read_json(args.inputs / "manifest.json")
        binary = app.read_bytes()
        names = [n for n in sorted(manifest["functions"]) if n.startswith("perf_fn_")]
        sample = random.Random(manifest["seed"]).sample(names, min(USE_DEF_SAMPLE, len(names)))
        report["problems"] = (
            checks.check_manifest(result.graph, manifest, binary)
            + checks.check_valid(result.graph)
            + checks.check_use_def(result.graph, binary,
                                   [manifest["functions"][n] for n in sample])
        )
    return report


def _fault_site(exc: BaseException) -> tuple[str, str]:
    return type(exc).__name__, traceback.extract_tb(exc.__traceback__)[-1].name


def _check_app(entry: dict, outcome) -> list[str]:
    """Problems with one app's outcome: a PipelineResult or the exception."""
    kind, where = entry["kind"], entry["file"]
    if kind == "mutant":
        if isinstance(outcome, Exception):
            return []  # a LiosError is a correct rejection; crashes count as failed
        return [f"{where}: {p}" for p in checks.check_valid(outcome.graph)]
    if "error" in entry:
        got = type(outcome).__name__ if isinstance(outcome, Exception) else "a graph"
        return [] if got == entry["error"] else [f"{where}: {got}, expected {entry['error']}"]
    if isinstance(outcome, Exception):
        return [f"{where}: raised {type(outcome).__name__}: {outcome}"]
    problems = checks.check_findings(outcome.findings, entry["findings"])
    problems += checks.check_valid(outcome.graph)
    if entry.get("chain"):
        problems += checks.check_bridge_evidence(outcome.graph, outcome.findings, entry["chain"])
    return [f"{where}: {p}" for p in problems]


def scan_batch(args) -> dict:
    batch = inputs.read_json(args.inputs / "batch.json")["apps"]
    wall = 0.0
    failed = rejected = nodes = edges = findings = 0
    problems: list[str] = []
    outcomes = []
    for i, entry in enumerate(batch):
        args.resume()
        start = time.perf_counter()
        try:
            outcome = lift(args.inputs / entry["file"], args.out / f"{i:04d}")
        except Exception as exc:  # a LiosError is a rejection, anything else a crash
            outcome = exc
        wall += time.perf_counter() - start
        args.stop()
        if isinstance(outcome, LiosError):
            rejected += 1
            outcomes.append(type(outcome).__name__)
        elif isinstance(outcome, Exception):
            failed += 1
            site = _fault_site(outcome)
            outcomes.append(list(site))
            if entry["kind"] != "mutant" or site not in inputs.KNOWN_FAULTS:
                problems.append(f"{entry['file']}: unexpected crash {site}: {outcome}")
        else:
            nodes += outcome.graph.node_count()
            edges += outcome.graph.edge_count()
            findings += len(outcome.findings)
            outcomes.append([[f.rule, f.severity] for f in outcome.findings])
        if args.check:
            problems += _check_app(entry, outcome)
    return {"wall": wall, "rss_mb": peak_rss_mb(), "attempted": len(batch), "failed": failed,
            "rejected": rejected, "nodes": nodes, "edges": edges, "findings": findings,
            "digest": digest(outcomes), "problems": problems}


def report(g, rules) -> list:
    """The detectors `lios report` runs, on a reloaded graph."""
    found = []
    found.extend(analyses.detect_webview_bridge(g))
    found.extend(analyses.ats_check(g))
    found.extend(analyses.run_rules(g, rules))
    return analyses.sort_findings(found)


def reload_query(args) -> dict:
    dump = args.inputs / "lift" / "graph.jsonl"
    rules = analyses.load_rules(str(args.inputs / "rules.json"))
    queries = inputs.read_json(args.inputs / "queries.json")
    start = time.perf_counter()
    g = graph.load(dump)
    found = report(g, rules)
    answers = {q: [n.id for n in traverse.run_query(g, q)] for q in queries}
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    args.stop()
    findings_json = analyses.findings_to_json(found) + "\n"
    out = {"wall": wall, "rss_mb": rss, "attempted": 2 + len(queries), "failed": 0,
           "nodes": g.node_count(), "edges": g.edge_count(), "findings": len(found),
           "digest": digest(findings_json, answers), "problems": []}
    if args.check:
        problems = []
        written = (args.inputs / "lift" / "findings.json").read_text(encoding="utf-8")
        if findings_json != written:
            problems.append("reloaded findings differ from the lift's findings.json")
        if g.dumps().encode("utf-8") != dump.read_bytes():
            problems.append("dump of the reloaded graph differs from graph.jsonl")
        del g
        problems += checks.check_queries(answers, checks.DumpIndex(dump))
        out["problems"] = problems
    return out


def setup_lift(args) -> dict:
    """Lift the reload-query input once, with the rule file, into inputs/lift."""
    lift(args.inputs / "app.bin", args.inputs / "lift", rules=str(args.inputs / "rules.json"))
    return {}


def store(args) -> dict:
    """tracemalloc size of the store `graph.load` builds, largest over the dumps."""
    import tracemalloc

    largest = 0
    for dump in sorted(args.inputs.glob("**/graph.jsonl")):
        tracemalloc.start()
        g = graph.load(dump)
        largest = max(largest, tracemalloc.get_traced_memory()[0])
        del g
        tracemalloc.stop()
    return {"store_mb": largest / 1e6}


MODES = {"lift-large": lift_large, "scan-batch": scan_batch, "reload-query": reload_query,
         "setup-lift": setup_lift, "store": store}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    tracer = spans.Tracer()
    # checks call lios too, so a mode stops tracing before it checks
    args.resume = tracer.install if args.trace else lambda: None
    args.stop = tracer.uninstall
    args.resume()
    result = MODES[args.mode](args)
    args.stop()
    if args.trace:
        result["layers"] = tracer.self_times()
        result["covered"] = tracer.covered()
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
