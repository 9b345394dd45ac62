"""Pipeline tests: ingest routes, function discovery, artifact determinism."""

import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import zipfile
from collections import Counter
from pathlib import Path

import pytest

import lios
from conftest import segment_fileoff_field
from lios.cli import main
from lios.disasm import build_function, devirtualize, function_name, word_span
from lios.errors import (
    EmptyRange,
    EncryptedBinary,
    MalformedDump,
    MissingExecutable,
    NotAnIpa,
    UnsupportedArch,
)
from lios.fixtures import corpus
from lios.fixtures.builder import ARM64, ARMV7, MachoBuilder, build_fat
from lios.graph import (
    DUMP_HEADER,
    PropertyGraph,
    build_from_frontends,
    load,
    paused_gc,
)
from lios.macho import LC_FUNCTION_STARTS, encode_uleb128, parse_macho
from lios.objc import load_model
from lios.pipeline import (
    AnalysisConfig,
    FunctionBodies,
    discover_functions,
    ingest,
    lift,
    run_pipeline,
)


def write_ipa(tmp_path, name="bridge.ipa", **kwargs):
    blob, manifest = corpus.listing_one_ipa(**kwargs)
    path = tmp_path / name
    path.write_bytes(blob)
    return path, manifest


def custom_ipa(tmp_path, members, name="custom.ipa"):
    path = tmp_path / name
    with zipfile.ZipFile(path, "w") as z:
        for arcname, data in members.items():
            z.writestr(arcname, data)
    return path


class TestConfig:
    def test_defaults(self):
        cfg = AnalysisConfig(input="x")
        assert cfg.depth == 2
        assert cfg.out_dir == "lios-out"

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            AnalysisConfig(input="x", depth=-1)


class TestIngest:
    def test_ipa_route(self, tmp_path):
        path, _ = write_ipa(tmp_path)
        ing = ingest(path)
        assert ing.kind == "ipa"
        assert ing.name == "Bridge"
        assert ing.info["CFBundleExecutable"] == "Bridge"
        assert ing.info["NSAppTransportSecurity"]["NSAllowsArbitraryLoads"] is True
        assert ing.info_error is None
        assert ing.binary[:4] == b"\xcf\xfa\xed\xfe"

    def test_bare_macho_route(self, tmp_path):
        blob, _ = corpus.msgsend_suite()
        path = tmp_path / "suite.bin"
        path.write_bytes(blob)
        ing = ingest(path)
        assert ing.kind == "macho"
        assert ing.name == "suite.bin"
        assert ing.info is None and ing.info_error is None

    def test_rejects_random_bytes(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00\x01\x02\x03 not an image")
        with pytest.raises(NotAnIpa):
            ingest(path)

    def test_rejects_tiny_file(self, tmp_path):
        path = tmp_path / "tiny"
        path.write_bytes(b"\xcf")
        with pytest.raises(NotAnIpa):
            ingest(path)

    def test_rejects_zip_without_payload(self, tmp_path):
        path = custom_ipa(tmp_path, {"readme.txt": b"hello"})
        with pytest.raises(NotAnIpa, match="Payload"):
            ingest(path)

    def test_missing_named_executable(self, tmp_path):
        binary, _ = corpus.listing_one_app()
        blob = corpus.build_ipa(
            binary,
            corpus.info_plist(executable="Ghost"),
            app_name="Bridge",
            executable="Bridge",
        )
        path = tmp_path / "ghost.ipa"
        path.write_bytes(blob)
        with pytest.raises(MissingExecutable, match="Ghost"):
            ingest(path)

    def test_malformed_plist_falls_back_to_sole_file(self, tmp_path):
        binary, _ = corpus.listing_one_app()
        path = custom_ipa(
            tmp_path,
            {
                "Payload/App.app/Info.plist": b"<plist><dict>",
                "Payload/App.app/App": binary,
            },
        )
        ing = ingest(path)
        assert ing.name == "App"
        assert ing.info is None
        assert ing.info_error
        assert ing.binary == binary

    def test_malformed_plist_with_ambiguous_contents(self, tmp_path):
        binary, _ = corpus.listing_one_app()
        path = custom_ipa(
            tmp_path,
            {
                "Payload/App.app/Info.plist": b"<plist><dict>",
                "Payload/App.app/App": binary,
                "Payload/App.app/Helper": binary,
            },
        )
        with pytest.raises(MissingExecutable):
            ingest(path)

    def test_plist_without_executable_key_falls_back(self, tmp_path):
        import plistlib

        binary, _ = corpus.listing_one_app()
        plist = plistlib.dumps({"CFBundleVersion": "1.0"})
        path = custom_ipa(
            tmp_path,
            {
                "Payload/App.app/Info.plist": plist,
                "Payload/App.app/App": binary,
            },
        )
        ing = ingest(path)
        assert ing.name == "App"
        assert ing.info == {"CFBundleVersion": "1.0"}
        assert ing.info_error is None

    @pytest.mark.parametrize(
        "root", [[1, 2], "App", {"CFBundleExecutable": 5}, {"CFBundleExecutable": ["App"]}]
    )
    def test_plist_without_string_executable_falls_back(self, tmp_path, root):
        import plistlib

        binary, _ = corpus.listing_one_app()
        path = custom_ipa(
            tmp_path,
            {
                "Payload/App.app/Info.plist": plistlib.dumps(root),
                "Payload/App.app/App": binary,
            },
        )
        ing = ingest(path)
        assert ing.name == "App"
        assert ing.info == root
        assert ing.binary == binary


class TestDiscoverFunctions:
    def test_matches_suite_manifest(self):
        blob, manifest = corpus.msgsend_suite()
        image = parse_macho(blob)
        ranges = discover_functions(image, load_model(image))
        assert sorted(ranges) == sorted(manifest["function_starts"])

    def test_ranges_tile_the_text_section(self):
        blob, _ = corpus.listing_one_app()
        image = parse_macho(blob)
        ranges = discover_functions(image, load_model(image))
        starts = sorted(ranges)
        text = image.section("__TEXT", "__text")
        for i, start in enumerate(starts):
            s, e = ranges[start]
            assert s == start
            if i + 1 < len(starts):
                assert e == starts[i + 1]
            else:
                assert e == text.vm_addr + text.size

    def test_no_text_section_yields_nothing(self):
        b = MachoBuilder()
        data = b.section("__DATA", "__stuff")
        data.append(b"payload")
        image = parse_macho(b.build())
        assert discover_functions(image, load_model(image)) == {}


class TestLift:
    def test_listing_ipa(self, tmp_path):
        path, manifest = write_ipa(tmp_path)
        graph, ingested, timings = lift(AnalysisConfig(input=str(path)))
        program = graph.nodes("Program")[0]
        assert program.get("name") == "Bridge"
        info = json.loads(program.get("info"))
        assert info["NSAppTransportSecurity"] == {"NSAllowsArbitraryLoads": True}
        assert {"ingest", "parse", "objc", "disasm", "graph"} <= set(timings)
        names = {n.get("name") for n in graph.nodes("Function")}
        assert "main" in names
        # methods are named by owner and selector, not by raw symbol
        entries = {
            n.get("ea") for n in graph.nodes("Function") if n.get("is_ep")
        }
        expected = {
            manifest["function_ranges"][name][0]
            for name in manifest["entry_functions"]
        }
        assert entries == expected

    def test_lift_reads_out_edges_only(self, tmp_path, monkeypatch):
        # the entrypoint pass walks forward, so a lift whose app adopts a
        # delegate protocol never builds the by-destination index
        blob, manifest = corpus.listing_one_app()
        path = tmp_path / "listing_one"
        path.write_bytes(blob)
        built = []
        adjacency = PropertyGraph._adjacency

        def spy(graph, end):
            built.append(end)
            return adjacency(graph, end)

        monkeypatch.setattr(PropertyGraph, "_adjacency", spy)
        graph, _, _ = lift(AnalysisConfig(input=str(path)))
        assert graph._by_dst is None and "dst" not in built
        entries = {n.get("ea") for n in graph.nodes("Function") if n.get("is_ep")}
        # main and the delegate method
        assert entries == {
            manifest["function_ranges"][name][0]
            for name in manifest["entry_functions"]
        }

    def test_entitlements_override(self, tmp_path):
        path, _ = write_ipa(tmp_path)
        ent = tmp_path / "ent.xml"
        ent.write_text("<plist><dict/></plist>")
        graph, _, _ = lift(
            AnalysisConfig(input=str(path), entitlements=str(ent))
        )
        assert graph.nodes("Program")[0].get("entltl") == "<plist><dict/></plist>"

    def test_text_running_past_end_of_file(self, tmp_path):
        # a __text size that runs past the end of the file leaves the last
        # function's final word cut short; only whole words are decoded
        blob = bytearray(corpus.benign_app()[0])
        header = blob.find(b"__text".ljust(16, b"\0") + b"__TEXT".ljust(16, b"\0"))
        struct.pack_into("<Q", blob, header + 40, 0x10000)
        path = tmp_path / "long_text.bin"
        path.write_bytes(blob)
        graph, _, _ = lift(AnalysisConfig(input=str(path)))
        assert "main" in {n.get("name") for n in graph.nodes("Function")}

    def test_function_range_shorter_than_one_word(self, tmp_path):
        # function starts two bytes apart: a range that holds no whole word
        # is skipped, and the rest of the app still lifts
        blob = bytearray(corpus.msgsend_suite()[0])
        image = parse_macho(bytes(blob))
        first = image.function_starts[0]
        offset = 32
        for _ in range(struct.unpack_from("<I", blob, 16)[0]):
            cmd, size = struct.unpack_from("<II", blob, offset)
            if cmd == LC_FUNCTION_STARTS:
                data_off, data_size = struct.unpack_from("<II", blob, offset + 8)
            offset += size
        payload = encode_uleb128(first - image.image_base) + encode_uleb128(2)
        blob[data_off : data_off + data_size] = payload.ljust(data_size, b"\0")
        path = tmp_path / "close_starts.bin"
        path.write_bytes(blob)
        graph, _, _ = lift(AnalysisConfig(input=str(path)))
        decoded = {
            n.get("ea")
            for n in graph.nodes("Function")
            if graph.out_edges(n.id, "has_bb")
        }
        mutated = parse_macho(bytes(blob))
        ranges = discover_functions(mutated, load_model(mutated))
        assert first in ranges and first not in decoded
        assert decoded == {s for s, (_, e) in ranges.items() if e - s >= 4}


class TestRunPipeline:
    def test_vulnerable_ipa(self, tmp_path):
        path, _ = write_ipa(tmp_path)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        assert result.exit_code == 1
        assert [(f.rule, f.severity) for f in result.findings] == [
            ("webview-bridge", "critical"),
            ("ats-disabled", "warning"),
        ]
        for key in ("graph", "findings", "stats"):
            assert Path(result.artifacts[key]).exists()
        stats = json.loads(Path(result.artifacts["stats"]).read_text())
        assert stats["input_kind"] == "ipa"
        assert stats["findings"] == {"critical": 1, "warning": 1, "info": 0}
        assert stats["node_total"] > 0
        written = json.loads(Path(result.artifacts["findings"]).read_text())
        assert [f["rule"] for f in written] == ["webview-bridge", "ats-disabled"]

    def test_graph_artifact_reloads_byte_identically(self, tmp_path):
        path, _ = write_ipa(tmp_path)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        raw = Path(result.artifacts["graph"]).read_text(encoding="utf-8")
        assert load(result.artifacts["graph"]).dumps() == raw

    def test_two_runs_are_byte_identical(self, tmp_path):
        path, _ = write_ipa(tmp_path)
        outs = []
        for name in ("a", "b"):
            run_pipeline(
                AnalysisConfig(input=str(path), out_dir=str(tmp_path / name))
            )
            outs.append(tmp_path / name)
        for artifact in ("graph.jsonl", "findings.json", "stats.json"):
            assert (outs[0] / artifact).read_bytes() == (
                outs[1] / artifact
            ).read_bytes()
        # wall-clock timings go to the log, not the compared artifacts
        entry = json.loads((outs[0] / "lift.log").read_text().splitlines()[0])
        timings = entry["timings_ms"]
        assert set(timings) >= {"ingest", "parse", "disasm", "artifacts", "total"}
        parts = sum(v for k, v in timings.items() if k != "total")
        # no time goes unattributed, decoding inside assembly included
        assert parts <= timings["total"] < parts + 5

    def test_graph_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        # set and dict iteration order over strings follows the process's
        # hash seed, so only separate processes can show an order leak
        path = tmp_path / "suite.bin"
        path.write_bytes(corpus.msgsend_suite()[0])
        env = dict(os.environ, PYTHONPATH=str(Path(lios.__file__).parents[1]))
        graphs = []
        for seed in ("1", "2", "3"):
            out = tmp_path / f"seed{seed}"
            subprocess.run(
                [sys.executable, "-m", "lios.cli", "lift", str(path), "--out", str(out)],
                env=dict(env, PYTHONHASHSEED=seed),
                check=True,
                capture_output=True,
                timeout=120,
            )
            graphs.append((out / "graph.jsonl").read_bytes())
        assert graphs[0] == graphs[1] == graphs[2]

    def test_skipped_functions_reach_stats(self, tmp_path):
        # __TEXT's file data starts inside the file, and the file ends in the
        # middle of __text: the functions it holds decode, and each one that
        # starts past its end is skipped with a warning
        blob = bytearray(corpus.msgsend_suite()[0])
        image = parse_macho(bytes(blob))
        segment = next(s for s in image.segments if s.name == "__TEXT")
        text = image.section("__TEXT", "__text")
        cut = text.vm_addr + text.size // 2
        fileoff = len(blob) - (cut - segment.vm_addr)
        struct.pack_into("<Q", blob, segment_fileoff_field(blob, "__TEXT"), fileoff)
        path = tmp_path / "cut_text.bin"
        path.write_bytes(blob)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        image = parse_macho(bytes(blob))
        ranges = discover_functions(image, load_model(image))
        stats = json.loads(Path(result.artifacts["stats"]).read_text())
        skipped = [w for w in stats["warnings"] if " skipped: " in w]
        past = [start for start in ranges if start >= cut]
        assert past and len(skipped) == len(past) < len(ranges)
        functions = {n.get("ea") for n in result.graph.nodes("Function")}
        assert functions >= set(ranges) - set(past)
        assert len(result.graph.nodes("BasicBlock")) >= len(ranges) - len(past)

    @pytest.mark.parametrize("fileoff", [1 << 40, 1 << 63], ids=["2^40", "2^63"])
    def test_segment_past_end_of_file_is_dropped(self, tmp_path, fileoff):
        # no byte of __TEXT is in the file: its file data and its sections
        # go with one warning, instead of one warning per function
        blob = bytearray(corpus.msgsend_suite()[0])
        struct.pack_into("<Q", blob, segment_fileoff_field(blob, "__TEXT"), fileoff)
        path = tmp_path / "far_text.bin"
        path.write_bytes(blob)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        stats = json.loads(Path(result.artifacts["stats"]).read_text())
        dropped = [w for w in stats["warnings"] if w.startswith("segment ")]
        assert dropped == [
            f"segment __TEXT file offset {fileoff:#x} lies past the end of the file; "
            "its file data and its 5 sections dropped"
        ]
        assert not [w for w in stats["warnings"] if " skipped: " in w]
        assert result.graph.nodes("BasicBlock") == []
        # the segment keeps its vmaddr, so the Program stays at the image base
        whole = parse_macho(corpus.msgsend_suite()[0])
        assert result.graph.nodes("Program")[0].get("ea") == whole.image_base

    def test_text_past_its_segment_is_clamped(self, tmp_path):
        # a __text size far past the __TEXT segment would make the last
        # function decode the rest of the file, __LINKEDIT included
        blob = bytearray(corpus.benign_app()[0])
        header = blob.find(b"__text".ljust(16, b"\0") + b"__TEXT".ljust(16, b"\0"))
        struct.pack_into("<Q", blob, header + 40, 1 << 54)
        path = tmp_path / "huge_text.bin"
        path.write_bytes(blob)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        segment = next(
            s for s in parse_macho(bytes(blob)).segments if s.name == "__TEXT"
        )
        eas = [n.get("ea") for n in result.graph.nodes("Instruction")]
        assert eas and all(segment.contains_va(ea) for ea in eas)
        stats = json.loads(Path(result.artifacts["stats"]).read_text())
        clamped = [w for w in stats["warnings"] if "(__TEXT,__text)" in w]
        assert clamped and "clamped" in clamped[0]

    def test_text_ends_at_the_next_section(self, tmp_path):
        # __text reaching exactly the __TEXT VM end passes the segment
        # clamp, but it overlaps __stubs and __cstring: the last function
        # must still end where __text really ends
        blob = bytearray(corpus.benign_app()[0])
        header = blob.find(b"__text".ljust(16, b"\0") + b"__TEXT".ljust(16, b"\0"))
        image = parse_macho(bytes(blob))
        text = image.section("__TEXT", "__text")
        segment = next(s for s in image.segments if s.name == "__TEXT")
        struct.pack_into(
            "<Q", blob, header + 40, segment.vm_addr + segment.vm_size - text.vm_addr
        )
        path = tmp_path / "long_text.bin"
        path.write_bytes(blob)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        main = result.graph.find_nodes("Function", "name", "main")[0]
        instructions = [
            ins
            for block in result.graph.out_nodes(main.id, "has_bb")
            for ins in result.graph.out_nodes(block.id, "instr")
        ]
        assert len(instructions) == 5
        stats = json.loads(Path(result.artifacts["stats"]).read_text())
        bounded = [w for w in stats["warnings"] if "(__TEXT,__text)" in w]
        assert len(bounded) == 1 and "last function ends at" in bounded[0]

    def test_sanitized_ipa_exits_zero(self, tmp_path):
        path, _ = write_ipa(tmp_path, name="clean.ipa", sanitized=True)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        assert result.exit_code == 0
        assert all(f.severity != "critical" for f in result.findings)
        assert "webview-bridge" not in {f.rule for f in result.findings}

    def test_benign_binary_has_no_findings(self, tmp_path):
        blob, _ = corpus.benign_app()
        path = tmp_path / "benign.bin"
        path.write_bytes(blob)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        assert result.exit_code == 0
        assert result.findings == []
        assert result.stats["input_kind"] == "macho"

    def test_ats_domains_demote_severity(self, tmp_path):
        path, _ = write_ipa(tmp_path, name="dom.ipa", ats=corpus.ATS_DOMAINS)
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        assert result.exit_code == 0
        rules = [(f.rule, f.severity) for f in result.findings]
        assert ("webview-bridge", "warning") in rules
        assert ("ats-exception", "info") in rules

    def test_rule_file_fires(self, tmp_path):
        path, _ = write_ipa(tmp_path, name="r.ipa", ats=corpus.ATS_ENFORCED)
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "rules": [
                        {
                            "id": "custom-bridge",
                            "selectors": ["shouldStartLoadWithRequest"],
                            "sources": [{"kind": "argument", "arg": 3}],
                            "sinks": [{"callee": "NSClassFromString", "arg": 0}],
                            "severity": "critical",
                        }
                    ]
                }
            )
        )
        result = run_pipeline(
            AnalysisConfig(
                input=str(path),
                rules=str(rules),
                out_dir=str(tmp_path / "out"),
            )
        )
        assert result.exit_code == 1
        assert "custom-bridge" in {f.rule for f in result.findings}

    def test_malformed_plist_caveat_reaches_findings(self, tmp_path):
        binary, _ = corpus.listing_one_app(sanitized=True)
        path = custom_ipa(
            tmp_path,
            {
                "Payload/App.app/Info.plist": b"<plist><dict>",
                "Payload/App.app/App": binary,
            },
        )
        result = run_pipeline(
            AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        )
        assert ("info-plist-malformed", "warning") in [
            (f.rule, f.severity) for f in result.findings
        ]

    def test_info_error_is_set_when_the_program_node_is_made(self, tmp_path, monkeypatch):
        written = []
        real = PropertyGraph.set_node_prop

        def recording(graph, node_id, key, value):
            written.append(key)
            real(graph, node_id, key, value)

        monkeypatch.setattr(PropertyGraph, "set_node_prop", recording)
        binary, _ = corpus.listing_one_app(sanitized=True)
        path = custom_ipa(
            tmp_path,
            {
                "Payload/App.app/Info.plist": b"<plist><dict>",
                "Payload/App.app/App": binary,
            },
        )
        graph, ingested, _ = lift(AnalysisConfig(input=str(path), out_dir=str(tmp_path)))
        assert ingested.info_error
        assert graph.nodes("Program")[0].get("info_error") == ingested.info_error
        # after assembly, only the entrypoint pass writes a property
        assert set(written) == {"is_ep"}


class TestFatFile:
    ARMV7_PLACEHOLDER = b"\xce\xfa\xed\xfe" + bytes(60)  # never parsed

    @pytest.mark.parametrize("build", [corpus.msgsend_suite, corpus.listing_one_app])
    def test_lifts_like_its_arm64_slice(self, tmp_path, build):
        thin = build()[0]
        fat = build_fat(
            [(ARMV7, 0, self.ARMV7_PLACEHOLDER), (ARM64, 0, thin)],
            offsets=[0x4000, 0x8000],
        )
        artifacts = []
        for kind, blob in (("thin", thin), ("fat", fat)):
            path = tmp_path / kind / "app.bin"  # the graph names the program by file
            path.parent.mkdir()
            path.write_bytes(blob)
            out = tmp_path / kind / "out"
            run_pipeline(AnalysisConfig(input=str(path), out_dir=str(out)))
            artifacts.append(
                [(out / a).read_bytes() for a in ("graph.jsonl", "findings.json", "stats.json")]
            )
        assert artifacts[0] == artifacts[1]

    def test_without_arm64_slice_exits_two(self, tmp_path, capsys):
        path = tmp_path / "app.bin"
        path.write_bytes(build_fat([(ARMV7, 0, self.ARMV7_PLACEHOLDER)]))
        with pytest.raises(UnsupportedArch):
            run_pipeline(AnalysisConfig(input=str(path), out_dir=str(tmp_path / "o")))
        assert main(["lift", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "no arm64 slice" in capsys.readouterr().err


def front_ends(builder, **kwargs):
    """(image, model, ranges) of a fixture: the functions `lift` decodes."""
    image = parse_macho(builder(**kwargs)[0])
    model = load_model(image)
    ranges = {}
    for start, (s, e) in discover_functions(image, model).items():
        try:
            word_span(image, s, e)
        except EmptyRange:
            continue
        ranges[start] = (s, e)
    return image, model, ranges


class CountingBodies(FunctionBodies):
    """FunctionBodies that counts the lookups of each entry."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = Counter()

    def __getitem__(self, entry):
        self.lookups[entry] += 1
        return super().__getitem__(entry)


class UnIterable(list):
    """A list that indexes but fails any walk over it."""

    def __iter__(self):
        raise AssertionError("iterated")


class TestFunctionBodies:
    @pytest.mark.parametrize(
        "builder, kwargs",
        [
            (corpus.msgsend_suite, {}),
            (corpus.listing_one_app, {}),
            (corpus.listing_one_app, {"sanitized": True}),
            (corpus.benign_app, {}),
            (corpus.perf_app, {"functions": 20}),
        ],
        ids=["msgsend_suite", "listing_one", "sanitized", "benign", "perf_app"],
    )
    def test_names_need_no_decode(self, builder, kwargs):
        image, model, ranges = front_ends(builder, **kwargs)
        assert ranges
        for start, (s, e) in ranges.items():
            fn = build_function(image, s, e, model=model)
            assert function_name(image, model, start) == fn.name, hex(start)

    def test_naming_scans_no_symbols(self):
        image, model, ranges = front_ends(corpus.perf_app, functions=20)
        bodies = {start: build_function(image, s, e, model=model)
                  for start, (s, e) in ranges.items()}

        def names_and_sites():
            return [(function_name(image, model, start),
                     devirtualize(fn, model, functions=bodies))
                    for start, fn in bodies.items()]

        want = names_and_sites()
        assert any(s.kind == "in_image" for _, sites in want for s in sites)
        image.symbols = UnIterable(image.symbols)  # stubs still index it
        assert names_and_sites() == want

    # a traced return value through an in-image callee is the only lookup
    # devirtualization makes; listing_one's traced calls are all sends
    @pytest.mark.parametrize(
        "builder, callee_lookups",
        [(corpus.msgsend_suite, 1), (corpus.listing_one_app, 0)],
        ids=["msgsend_suite", "listing_one"],
    )
    def test_on_demand_bodies_devirtualize_as_a_dict(self, builder, callee_lookups):
        image, model, ranges = front_ends(builder)
        lazy = CountingBodies(image, model, ranges)
        plain = {start: lazy[start] for start in ranges}
        lazy.lookups.clear()
        for fn in plain.values():
            want = devirtualize(fn, model, functions=plain)
            assert devirtualize(fn, model, functions=lazy) == want, fn.name
        assert sum(lazy.lookups.values()) == callee_lookups

    def test_assembly_looks_up_each_body_once(self):
        image, model, ranges = front_ends(corpus.perf_app, functions=20)
        lazy = CountingBodies(image, model, ranges)
        graph = build_from_frontends(image, model, lazy)
        assert lazy.lookups == dict.fromkeys(ranges, 1)
        plain = {start: build_function(image, s, e, model=model)
                 for start, (s, e) in ranges.items()}
        assert graph.dumps() == build_from_frontends(image, model, plain).dumps()


class TestReturnSummaries:
    """What a traced in-image callee returns is computed once per callee and
    depth in a lift, not again at every call site that traces it."""

    @pytest.fixture
    def make_worker_lookups(self, tmp_path, monkeypatch):
        """A function of S: lift `shared_callee_app(S)` and return the number
        of times its `make_worker` body was decoded, and the graph."""
        decoded = Counter()
        real = lios.pipeline.build_function

        def counting(image, start, end, **kwargs):
            decoded[start] += 1
            return real(image, start, end, **kwargs)

        monkeypatch.setattr(lios.pipeline, "build_function", counting)

        def lift_app(sites):
            blob, manifest = corpus.shared_callee_app(sites)
            path = tmp_path / f"shared_{sites}.bin"
            path.write_bytes(blob)
            decoded.clear()
            graph, _, _ = lift(AnalysisConfig(input=str(path), out_dir=str(tmp_path)))
            return decoded[manifest["functions"]["make_worker"]], graph

        return lift_app

    def test_callee_is_decoded_once_per_depth_whatever_the_sites(self, make_worker_lookups):
        depth = AnalysisConfig(input="").depth
        few, _ = make_worker_lookups(2)
        many, _ = make_worker_lookups(8)
        # its own decode for assembly, and at most one per traced depth
        assert few == many <= 1 + depth

    def test_every_site_resolves_through_the_callee(self, make_worker_lookups):
        sites = 8
        _, graph = make_worker_lookups(sites)
        reached = {}
        for fn in graph.nodes("Function"):
            if fn.get("name", "").startswith("site_"):
                reached[fn.get("name")] = {
                    n.get("name") for n in graph.out_nodes(fn.id, "calls")
                }
        assert reached == {
            f"site_{i}": {"make_worker", "-[Worker doWork]"} for i in range(sites)
        }


class TestPausedGc:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        """The collector state a caller had before lift or loads ran."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_lift_and_loads_restore_the_collector(self, tmp_path, gc_state):
        path, _ = write_ipa(tmp_path)
        graph, _, _ = lift(AnalysisConfig(input=str(path)))
        assert gc.isenabled() is gc_state
        PropertyGraph.loads(graph.dumps())
        assert gc.isenabled() is gc_state

    def test_collector_restored_when_lift_or_loads_raises(self, tmp_path, gc_state):
        builder = MachoBuilder()
        builder.set_encryption(1)
        path = tmp_path / "locked.bin"
        path.write_bytes(builder.build())
        with pytest.raises(EncryptedBinary):
            lift(AnalysisConfig(input=str(path)))
        assert gc.isenabled() is gc_state
        with pytest.raises(MalformedDump):
            PropertyGraph.loads(DUMP_HEADER + "\n{not json}\n")
        assert gc.isenabled() is gc_state

    def test_nested_pause_keeps_the_collector_off(self, gc_state):
        with paused_gc():
            with paused_gc():
                pass
            assert not gc.isenabled()
        assert gc.isenabled() is gc_state

    def test_lift_leaves_no_cycles_that_grow_with_the_app(self, tmp_path):
        # the pause is safe only while the store and the frontend records
        # hold no reference cycles: reference counting must free the lift.
        # The collector stays off until the count, so no cycle escapes it.
        garbage = []
        for functions in (2, 20):
            path = tmp_path / f"perf{functions}.bin"
            path.write_bytes(corpus.perf_app(functions=functions)[0])
            gc.collect()
            with paused_gc():
                result = run_pipeline(
                    AnalysisConfig(input=str(path), out_dir=str(tmp_path / path.stem))
                )
                del result
                garbage.append(gc.collect())
        assert garbage[0] == garbage[1]


# sha256 of graph.jsonl for fixed inputs under the fixed file name "app.bin".
# A change that claims byte-identical artifacts must leave these as they are.
PINNED_GRAPHS = {
    "perf_app_4": (
        lambda: corpus.perf_app(seed=1, functions=4),
        "ac0f5931a9c3d84b5475175920e178a7b1e6c9a4f089e45aa5f2c407f30b5fdb",
    ),
    "msgsend_suite": (
        corpus.msgsend_suite,
        "70ff450a9965398880ea64b36a75f4c6db39c0e109f5bb8ed345d4e15ad5cdb9",
    ),
    "listing_one": (
        corpus.listing_one_app,
        "026d316e80379609512c196c3586d5b12a9c7e15b2261bee7b81aefc1f8aae5d",
    ),
}


@pytest.mark.parametrize("fixture", list(PINNED_GRAPHS))
def test_graph_bytes_are_pinned(tmp_path, fixture):
    build, want = PINNED_GRAPHS[fixture]
    path = tmp_path / "app.bin"
    path.write_bytes(build()[0])
    result = run_pipeline(AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out")))
    digest = hashlib.sha256(Path(result.artifacts["graph"]).read_bytes()).hexdigest()
    assert digest == want
