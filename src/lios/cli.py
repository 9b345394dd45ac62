"""Command-line interface: lift, query, report, dump-objc, fixturegen."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import analyses
from .errors import LiosError
from .graph import _format_props, load
from .macho import parse_macho
from .objc import load_model
from .pipeline import AnalysisConfig, ingest, run_pipeline
from .traverse import run_query

log = logging.getLogger("lios")

REPL_HELP = """\
Enter a query per line, e.g.  functions().calling("NSLog").dedup()
  :stats   node/edge counts of the loaded graph
  :help    this text
  :quit    leave the shell
"""


def _setup_logging() -> None:
    level = os.environ.get("LIOS_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _node_json(node) -> str:
    return '{"id": %d, "label": %s, "props": %s}' % (
        node.id, json.dumps(node.label), _format_props(node.properties)
    )


def _print_findings(findings, out) -> None:
    out.write(analyses.findings_to_json(findings) + "\n")


def cmd_lift(args) -> int:
    config = AnalysisConfig(
        input=args.input,
        entitlements=args.entitlements,
        rules=args.rules,
        depth=args.depth,
        out_dir=args.out,
    )
    result = run_pipeline(config)
    counts = result.stats["findings"]
    print(
        f"{result.stats['node_total']} nodes, "
        f"{result.stats['edge_total']} edges; findings: "
        + ", ".join(f"{counts[s]} {s}" for s in analyses.SEVERITIES)
    )
    for kind in ("graph", "findings", "stats"):
        print(f"{kind}: {result.artifacts[kind]}")
    return result.exit_code


def repl(graph, stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    while True:
        if interactive:
            stdout.write("lios> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":quit", ":q", ":exit"):
            return 0
        if line == ":help":
            stdout.write(REPL_HELP)
            continue
        if line == ":stats":
            stdout.write(json.dumps(graph.stats(), sort_keys=True) + "\n")
            continue
        try:
            nodes = run_query(graph, line)
        except LiosError as exc:
            sys.stderr.write(f"error: {exc}\n")
            continue
        for node in nodes:
            stdout.write(_node_json(node) + "\n")


def cmd_query(args) -> int:
    graph = load(args.graph)
    if args.expr is None:
        return repl(graph)
    for node in run_query(graph, args.expr):
        print(_node_json(node))
    return 0


def cmd_report(args) -> int:
    graph = load(args.graph)
    rules = analyses.load_rules(args.rules) if args.rules else []
    findings = analyses.run_detectors(graph, rules)
    _print_findings(findings, sys.stdout)
    return 1 if any(f.severity == "critical" for f in findings) else 0


def cmd_dump_objc(args) -> int:
    ingested = ingest(args.input)
    model = load_model(parse_macho(ingested.binary))
    doc = {
        "classes": [
            {
                "name": cls.name,
                "address": cls.address,
                "metaclass": cls.is_metaclass,
                "external": cls.is_external,
                "superclass": (
                    model.superclass_of(cls).name
                    if model.superclass_of(cls)
                    else cls.superclass_name
                ),
                "methods": [
                    {"selector": m.selector, "impl": m.impl_address}
                    for m in cls.methods
                ],
                "protocols": [p.name for p in model.protocols_of(cls)],
                "ivars": [
                    {"name": n, "type": t, "offset": off}
                    for n, t, off in cls.ivars
                ],
            }
            for cls in sorted(model.classes, key=lambda c: c.address)
        ],
        "protocols": [
            {
                "name": p.name,
                "required": [m.selector for m in p.required_methods],
                "optional": [m.selector for m in p.optional_methods],
            }
            for p in sorted(model.protocols, key=lambda p: p.address)
        ],
    }
    print(json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False))
    return 0


def _build_fixture(spec: dict):
    from .fixtures import corpus

    kind = spec.get("fixture")
    sanitized = bool(spec.get("sanitized", False))
    if kind == "msgsend_suite":
        return corpus.msgsend_suite()
    if kind == "listing_one":
        ats = {
            "arbitrary": corpus.ATS_ARBITRARY,
            "enforced": corpus.ATS_ENFORCED,
            "domains": corpus.ATS_DOMAINS,
            None: None,
        }[spec.get("ats", "arbitrary")]
        if spec.get("ipa", False):
            blob, manifest = corpus.listing_one_ipa(
                sanitized=sanitized,
                ats=ats,
                app_name=spec.get("app_name", "Bridge"),
            )
        else:
            blob, manifest = corpus.listing_one_app(sanitized=sanitized)
        return blob, manifest
    if kind == "benign":
        return corpus.benign_app()
    if kind == "perf":
        return corpus.perf_app(
            seed=int(spec.get("seed", 7)),
            functions=int(spec.get("functions", 100)),
        )
    raise ValueError(f"unknown fixture kind {kind!r}")


def cmd_fixturegen(args) -> int:
    spec = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    blob, manifest = _build_fixture(spec)
    out = Path(spec.get("out", f"{spec.get('fixture', 'fixture')}.bin"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(blob)
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out} ({len(blob)} bytes) and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lios",
        description="Static analysis for iOS Mach-O binaries over a "
        "unified property graph",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="ingest a binary or .ipa and run the pipeline")
    p.add_argument("input")
    p.add_argument("--entitlements", metavar="F", help="entitlements XML override")
    p.add_argument("--rules", metavar="F", help="taint rule file (JSON)")
    p.add_argument("--out", metavar="DIR", default="lios-out")
    p.add_argument("--depth", metavar="N", type=int, default=2)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("query", help="run queries against a dumped graph")
    p.add_argument("graph")
    p.add_argument("-e", "--expr", help="run one query instead of a shell")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("report", help="run analyses against a dumped graph")
    p.add_argument("graph")
    p.add_argument("--rules", metavar="F")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("dump-objc", help="print recovered class metadata")
    p.add_argument("input")
    p.set_defaults(fn=cmd_dump_objc)

    p = sub.add_parser("fixturegen", help="generate a test fixture from a manifest")
    p.add_argument("manifest")
    p.set_defaults(fn=cmd_fixturegen)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LiosError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
