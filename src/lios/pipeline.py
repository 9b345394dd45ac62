"""End-to-end lifting: ingest, decode, assemble, analyze, write artifacts.

Artifacts are deterministic: the graph dump and findings JSON from two
runs over the same input are byte-identical. Timings go to `lift.log`
only, never to `stats.json`.
"""

from __future__ import annotations

import json
import logging
import time
import zipfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from . import analyses
from .disasm import FunctionBody, build_function, word_span
from .errors import (
    EmptyRange,
    EncryptedBinary,
    MalformedPlist,
    MissingExecutable,
    NotAnIpa,
)
from .graph import (
    PropertyGraph,
    build_from_frontends,
    dump,
    link_pass,
    mark_entrypoints,
    paused_gc,
)
from .macho import parse_macho
from .objc import load_model
from .plist import canonical_json, parse_plist

log = logging.getLogger("lios")

MACHO_MAGICS = (b"\xcf\xfa\xed\xfe", b"\xce\xfa\xed\xfe", b"\xca\xfe\xba\xbe")


@dataclass
class AnalysisConfig:
    input: str
    entitlements: str | None = None
    rules: str | None = None
    depth: int = 2
    out_dir: str = "lios-out"

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


@dataclass
class Ingested:
    binary: bytes
    kind: str  # "ipa" | "macho"
    name: str
    info: dict | None = None
    info_error: str | None = None


def _app_members(zf: zipfile.ZipFile) -> tuple[str, list[str]]:
    """(app directory prefix, member names under it) for the payload app."""
    apps = set()
    for name in zf.namelist():
        parts = name.split("/")
        if len(parts) >= 2 and parts[0] == "Payload" and parts[1].endswith(".app"):
            apps.add(f"Payload/{parts[1]}/")
    if not apps:
        raise NotAnIpa("archive has no Payload/*.app directory")
    app = sorted(apps)[0]
    members = [n for n in zf.namelist() if n.startswith(app)]
    return app, members


def ingest(path) -> Ingested:
    """An .ipa archive or a bare Mach-O image, as analysis inputs."""
    path = Path(path)
    if zipfile.is_zipfile(path):
        with zipfile.ZipFile(path) as zf:
            app, members = _app_members(zf)
            app_name = app.split("/")[1][: -len(".app")]
            info = None
            info_error = None
            executable = None
            if app + "Info.plist" in members:
                try:
                    info = parse_plist(zf.read(app + "Info.plist"))
                except MalformedPlist as exc:
                    info_error = str(exc)
                else:
                    # a root or a name of another type counts as no name
                    if isinstance(info, dict) and isinstance(info.get("CFBundleExecutable"), str):
                        executable = info["CFBundleExecutable"]
            if executable is None:
                # fall back to the only other file at the bundle root
                candidates = [
                    m
                    for m in members
                    if "/" not in m[len(app):]
                    and m != app
                    and not m.endswith("Info.plist")
                ]
                if len(candidates) != 1:
                    raise MissingExecutable(
                        f"cannot determine the app executable in {path.name}"
                    )
                executable = candidates[0][len(app):]
            member = app + executable
            if member not in members:
                raise MissingExecutable(
                    f"Info.plist names {executable!r} but the bundle has no such file"
                )
            return Ingested(
                binary=zf.read(member),
                kind="ipa",
                name=executable or app_name,
                info=info,
                info_error=info_error,
            )
    data = path.read_bytes()
    if data[:4] not in MACHO_MAGICS:
        raise NotAnIpa(f"{path.name} is neither an .ipa archive nor a Mach-O image")
    return Ingested(binary=data, kind="macho", name=path.name)


def discover_functions(image, model) -> dict[int, tuple[int, int]]:
    """Function ranges from LC_FUNCTION_STARTS plus method implementations."""
    text = image.section("__TEXT", "__text")
    if text is None:
        return {}
    end_of_text = _end_of_code(image, text)
    starts = set(image.function_starts)
    for cls in model.classes:
        for method in cls.methods:
            if method.impl_address is not None:
                starts.add(method.impl_address)
    starts = sorted(s for s in starts if text.contains_va(s))
    out = {}
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else end_of_text
        out[start] = (start, end)
    return out


def _end_of_code(image, text) -> int:
    """Where the last function of `__text` ends.

    That is the end of `__text`, unless another section starts first or
    the file-backed bytes of its segment end first: a corrupt section size
    would otherwise make the last function decode stubs, strings and zero
    fill as code. When such a bound applies, the image gets one warning.
    """
    end = text.vm_addr + text.size
    bounds = [s.vm_addr for s in image.sections.values() if text.vm_addr < s.vm_addr < end]
    segment = next((s for s in image.segments if s.name == text.segment_name), None)
    if segment is not None:
        bounds.append(segment.vm_addr + segment.file_size)
    bound = min(bounds, default=end)
    if bound >= end:
        return end
    image.warnings.append(
        f"section ({text.segment_name},{text.section_name}) ends at {end:#x}, past "
        f"the next section or the end of its segment's file data; its last "
        f"function ends at {bound:#x}"
    )
    return bound


class FunctionBodies(Mapping):
    """Function bodies by entry address, decoded by `build_function` at each
    lookup and not kept; `seconds` adds up the time spent decoding."""

    def __init__(self, image, model, ranges: dict[int, tuple[int, int]]):
        self._image, self._model, self._ranges = image, model, ranges
        self.seconds = 0.0

    def __getitem__(self, entry: int) -> FunctionBody:
        t = time.perf_counter()
        fn = build_function(self._image, *self._ranges[entry], model=self._model)
        self.seconds += time.perf_counter() - t
        return fn

    def __contains__(self, entry) -> bool:
        return entry in self._ranges

    def __iter__(self):
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)


@dataclass
class PipelineResult:
    graph: PropertyGraph
    findings: list
    stats: dict
    exit_code: int
    artifacts: dict = field(default_factory=dict)


@paused_gc()
def lift(config: AnalysisConfig):
    """(graph, ingested, timings) for the configured input, passes applied.

    Bodies are decoded one at a time and dropped after assembly, so peak
    memory is the store plus one function. The cyclic collector is paused
    throughout: see `paused_gc`.
    """
    timings: dict[str, float] = {}
    t = time.perf_counter()
    ingested = ingest(config.input)
    timings["ingest"] = time.perf_counter() - t

    t = time.perf_counter()
    image = parse_macho(ingested.binary)
    if image.encryption_id:
        raise EncryptedBinary(
            f"{ingested.name} is FairPlay-encrypted (cryptid "
            f"{image.encryption_id}); decrypt it on-device before lifting"
        )
    timings["parse"] = time.perf_counter() - t
    log.info("parsed %s: %d symbols, %d function starts",
             ingested.name, len(image.symbols), len(image.function_starts))

    t = time.perf_counter()
    model = load_model(image)
    timings["objc"] = time.perf_counter() - t
    log.info("objc model: %d classes, %d protocols",
             len(model.classes), len(model.protocols))

    t = time.perf_counter()
    ranges = {}
    skipped = []
    for start, (s, e) in discover_functions(image, model).items():
        try:
            word_span(image, s, e)
        except EmptyRange as exc:
            skipped.append(f"function {start:#x} skipped: {exc}")
        else:
            ranges[start] = (s, e)
    functions = FunctionBodies(image, model, ranges)
    timings["disasm"] = time.perf_counter() - t

    entitlements = None
    if config.entitlements:
        entitlements = Path(config.entitlements).read_text(encoding="utf-8")

    t = time.perf_counter()
    graph = build_from_frontends(
        image,
        model,
        functions,
        program_name=ingested.name,
        info_json=canonical_json(ingested.info) if ingested.info is not None else None,
        entitlements=entitlements,
        depth=config.depth,
    )
    graph.warnings.extend(skipped)
    program = graph.nodes("Program")[0]
    if ingested.info_error:
        graph.set_node_prop(program.id, "info_error", ingested.info_error)
    log.info("link pass: %s", link_pass(graph))
    log.info("entrypoint pass: %s", mark_entrypoints(graph))
    timings["graph"] = time.perf_counter() - t - functions.seconds
    timings["disasm"] += functions.seconds
    log.info("decoded %d functions", len(functions))
    return graph, ingested, timings


def run_pipeline(config: AnalysisConfig) -> PipelineResult:
    total = time.perf_counter()
    graph, ingested, timings = lift(config)

    t = time.perf_counter()
    rules = analyses.load_rules(config.rules) if config.rules else []
    findings = analyses.run_detectors(graph, rules)
    timings["analyses"] = time.perf_counter() - t

    t = time.perf_counter()
    by_severity = {s: 0 for s in analyses.SEVERITIES}
    for f in findings:
        by_severity[f.severity] += 1
    stats = dict(graph.stats())
    stats["findings"] = by_severity
    stats["input_kind"] = ingested.kind
    stats["warnings"] = list(graph.warnings)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "graph": out / "graph.jsonl",
        "findings": out / "findings.json",
        "stats": out / "stats.json",
    }
    dump(graph, artifacts["graph"])
    artifacts["findings"].write_text(
        analyses.findings_to_json(findings) + "\n", encoding="utf-8"
    )
    artifacts["stats"].write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    timings["artifacts"] = time.perf_counter() - t
    timings["total"] = time.perf_counter() - total
    # timings vary run to run; they live in the log, never in the artifacts
    with open(out / "lift.log", "a", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {
                    "input": ingested.name,
                    "kind": ingested.kind,
                    "timings_ms": {
                        k: round(v * 1000, 3) for k, v in timings.items()
                    },
                },
                sort_keys=True,
            )
            + "\n"
        )
    log.info("wrote %s", ", ".join(str(p) for p in artifacts.values()))

    exit_code = 1 if by_severity["critical"] else 0
    return PipelineResult(
        graph=graph,
        findings=findings,
        stats=stats,
        exit_code=exit_code,
        artifacts={k: str(v) for k, v in artifacts.items()},
    )
