"""Command-line behavior: exit codes, output shapes, the query shell."""

import io
import json
import struct

import pytest

from lios.cli import main, repl
from lios.fixtures import corpus
from lios.fixtures.builder import MachoBuilder
from lios.graph import load
from lios.macho import S_ATTR_PURE_INSTRUCTIONS, S_ATTR_SOME_INSTRUCTIONS
from lios.pipeline import AnalysisConfig, run_pipeline

RET = struct.pack("<I", 0xD65F03C0)
TEXT_FLAGS = S_ATTR_PURE_INSTRUCTIONS | S_ATTR_SOME_INSTRUCTIONS


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Vulnerable ipa plus a lifted artifact directory, shared read-only."""
    tmp = tmp_path_factory.mktemp("cli")
    blob, manifest = corpus.listing_one_ipa()
    ipa = tmp / "bridge.ipa"
    ipa.write_bytes(blob)
    out = tmp / "out"
    run_pipeline(AnalysisConfig(input=str(ipa), out_dir=str(out)))
    return {
        "dir": tmp,
        "ipa": ipa,
        "graph": out / "graph.jsonl",
        "manifest": manifest,
    }


def stdout_lines(capsys):
    return [l for l in capsys.readouterr().out.splitlines() if l]


class TestLift:
    def test_exit_one_on_critical(self, workspace, tmp_path, capsys):
        rc = main(["lift", str(workspace["ipa"]), "--out", str(tmp_path / "o")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "1 critical" in out
        assert (tmp_path / "o" / "graph.jsonl").exists()

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        blob, _ = corpus.benign_app()
        path = tmp_path / "benign.bin"
        path.write_bytes(blob)
        rc = main(["lift", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_missing_input_exits_two(self, tmp_path, capsys):
        rc = main(["lift", str(tmp_path / "absent.bin")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_not_a_binary_exits_two(self, tmp_path, capsys):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"plain text, nothing else")
        rc = main(["lift", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_encrypted_binary_is_reported(self, tmp_path, capsys):
        b = MachoBuilder()
        text = b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS)
        text.append(RET)
        b.set_encryption(1)
        path = tmp_path / "locked.bin"
        path.write_bytes(b.build())
        rc = main(["lift", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "encrypt" in err.lower()

    def test_non_object_rule_exits_two(self, workspace, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text('{"rules": [1]}')
        rc = main(["lift", str(workspace["ipa"]), "--out", str(tmp_path / "o"),
                   "--rules", str(rules)])
        assert rc == 2  # not 1, which reports a critical finding

    def test_bad_flag_value_exits_two(self, workspace, tmp_path, capsys):
        rc = main(
            ["lift", str(workspace["ipa"]), "--depth", "-1",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_log_env_does_not_change_exit_code(
        self, workspace, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("LIOS_LOG", "INFO")
        rc = main(["lift", str(workspace["ipa"]), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestQuery:
    def test_single_expression(self, workspace, capsys):
        rc = main(
            ["query", str(workspace["graph"]), "-e", 'functions().named("main")']
        )
        assert rc == 0
        lines = stdout_lines(capsys)
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["label"] == "Function"
        assert record["props"]["name"] == "main"
        assert record["props"]["is_ep"] is True

    def test_result_per_line(self, workspace, capsys):
        rc = main(["query", str(workspace["graph"]), "-e", "entrypoints()"])
        assert rc == 0
        records = [json.loads(l) for l in stdout_lines(capsys)]
        assert len(records) == 2
        assert all(r["label"] == "Function" for r in records)

    def test_syntax_error_exits_two(self, workspace, capsys):
        rc = main(["query", str(workspace["graph"]), "-e", "functions().calling("])
        assert rc == 2
        assert "at byte 19" in capsys.readouterr().err

    def test_unknown_step_exits_two(self, workspace, capsys):
        rc = main(["query", str(workspace["graph"]), "-e", "functions().bogus()"])
        assert rc == 2

    def test_verb_signature_error_exits_two(self, workspace, capsys):
        rc = main(
            ["query", str(workspace["graph"]), "-e", 'functions().tainted("a")']
        )
        assert rc == 2
        assert "at byte 12" in capsys.readouterr().err

    def test_unknown_label_exits_two(self, workspace, capsys):
        rc = main(
            ["query", str(workspace["graph"]), "-e", 'functions().out("bogus")']
        )
        assert rc == 2

    def test_missing_graph_exits_two(self, tmp_path, capsys):
        rc = main(["query", str(tmp_path / "no.jsonl"), "-e", "functions()"])
        assert rc == 2

    def test_malformed_graph_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not a dump\n")
        rc = main(["query", str(path), "-e", "functions()"])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err


class TestRepl:
    def run_repl(self, workspace, script):
        graph = load(workspace["graph"])
        stdin = io.StringIO(script)
        stdout = io.StringIO()
        rc = repl(graph, stdin=stdin, stdout=stdout)
        return rc, stdout.getvalue()

    def test_results_and_quit(self, workspace):
        rc, out = self.run_repl(
            workspace, 'functions().named("main")\n:quit\nfunctions()\n'
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 1  # nothing after :quit runs
        assert json.loads(lines[0])["props"]["name"] == "main"

    def test_stats_and_help(self, workspace):
        rc, out = self.run_repl(workspace, ":stats\n:help\n")
        assert rc == 0
        stats = json.loads(out.splitlines()[0])
        assert stats["node_total"] > 0
        assert ":quit" in out

    def test_error_continues_the_session(self, workspace, capsys):
        rc, out = self.run_repl(
            workspace, 'nonsense(((\nfunctions().named("main")\n'
        )
        assert rc == 0
        assert "error:" in capsys.readouterr().err
        assert json.loads(out.splitlines()[-1])["props"]["name"] == "main"

    def test_verb_signature_error_continues_the_session(self, workspace, capsys):
        rc, out = self.run_repl(
            workspace, 'functions().tainted("a")\nfunctions().limit(1)\n'
        )
        assert rc == 0
        assert capsys.readouterr().err.count("error:") == 1
        assert len(out.splitlines()) == 1

    def test_undecodable_byte_in_a_string_continues_the_session(self, workspace):
        # a byte that is not UTF-8 reaches the shell as a lone surrogate
        rc, out = self.run_repl(
            workspace, 'functions().named("\udcff")\nfunctions().limit(1)\n'
        )
        assert rc == 0
        assert len(out.splitlines()) == 1

    def test_blank_lines_and_eof(self, workspace):
        rc, out = self.run_repl(workspace, "\n\n")
        assert rc == 0
        assert out == ""

    def test_via_main_with_piped_stdin(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("entrypoints()\n:quit\n"))
        rc = main(["query", str(workspace["graph"])])
        assert rc == 0
        assert len(stdout_lines(capsys)) == 2


class TestReport:
    def test_critical_exits_one(self, workspace, capsys):
        rc = main(["report", str(workspace["graph"])])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["webview-bridge", "ats-disabled"]
        assert findings[0]["severity"] == "critical"

    def test_clean_graph_exits_zero(self, tmp_path, capsys):
        blob, _ = corpus.benign_app()
        path = tmp_path / "benign.bin"
        path.write_bytes(blob)
        run_pipeline(AnalysisConfig(input=str(path), out_dir=str(tmp_path / "o")))
        rc = main(["report", str(tmp_path / "o" / "graph.jsonl")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_rule_file_adds_findings(self, workspace, tmp_path, capsys):
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
                            "severity": "warning",
                        }
                    ]
                }
            )
        )
        rc = main(["report", str(workspace["graph"]), "--rules", str(rules)])
        assert rc == 1
        rules_seen = {f["rule"] for f in json.loads(capsys.readouterr().out)}
        assert "custom-bridge" in rules_seen

    def test_malformed_rules_exit_two(self, workspace, tmp_path, capsys):
        rules = tmp_path / "rules.json"
        rules.write_text('{"rules": [{"id": 42}]}')
        rc = main(["report", str(workspace["graph"]), "--rules", str(rules)])
        assert rc == 2


class TestDumpObjc:
    def test_bare_binary(self, tmp_path, capsys):
        blob, manifest = corpus.listing_one_app()
        path = tmp_path / "app.bin"
        path.write_bytes(blob)
        rc = main(["dump-objc", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        classes = {c["name"]: c for c in doc["classes"] if not c["metaclass"]}
        delegate = classes["BridgeDelegate"]
        assert manifest["delegate_selector"] in {
            m["selector"] for m in delegate["methods"]
        }
        assert "UIWebViewDelegate" in delegate["protocols"]

    def test_ipa_input(self, workspace, capsys):
        rc = main(["dump-objc", str(workspace["ipa"])])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(c["name"] == "BridgeDelegate" for c in doc["classes"])

    def test_protocol_listing(self, tmp_path, capsys):
        blob, _ = corpus.listing_one_app()
        path = tmp_path / "app.bin"
        path.write_bytes(blob)
        main(["dump-objc", str(path)])
        doc = json.loads(capsys.readouterr().out)
        protos = {p["name"] for p in doc["protocols"]}
        assert "UIWebViewDelegate" in protos


class TestFixturegen:
    def gen(self, tmp_path, spec, capsys):
        manifest = tmp_path / "spec.json"
        manifest.write_text(json.dumps(spec))
        rc = main(["fixturegen", str(manifest)])
        capsys.readouterr()
        return rc

    def test_suite(self, tmp_path, capsys):
        out = tmp_path / "suite.bin"
        rc = self.gen(
            tmp_path, {"fixture": "msgsend_suite", "out": str(out)}, capsys
        )
        assert rc == 0
        blob, manifest = corpus.msgsend_suite()
        assert out.read_bytes() == blob
        written = json.loads((tmp_path / "suite.bin.manifest.json").read_text())
        assert written == json.loads(json.dumps(manifest))

    def test_listing_ipa_with_options(self, tmp_path, capsys):
        out = tmp_path / "gen" / "app.ipa"
        rc = self.gen(
            tmp_path,
            {
                "fixture": "listing_one",
                "ipa": True,
                "sanitized": True,
                "ats": "domains",
                "out": str(out),
            },
            capsys,
        )
        assert rc == 0
        expected, _ = corpus.listing_one_ipa(
            sanitized=True, ats=corpus.ATS_DOMAINS
        )
        assert out.read_bytes() == expected

    def test_perf_options(self, tmp_path, capsys):
        out = tmp_path / "perf.bin"
        rc = self.gen(
            tmp_path,
            {"fixture": "perf", "seed": 3, "functions": 5, "out": str(out)},
            capsys,
        )
        assert rc == 0
        expected, _ = corpus.perf_app(seed=3, functions=5)
        assert out.read_bytes() == expected

    def test_unknown_kind_exits_two(self, tmp_path, capsys):
        rc = self.gen(tmp_path, {"fixture": "nope", "out": "x"}, capsys)
        assert rc == 2

    def test_generated_input_lifts(self, tmp_path, capsys):
        out = tmp_path / "benign.bin"
        assert self.gen(tmp_path, {"fixture": "benign", "out": str(out)}, capsys) == 0
        rc = main(["lift", str(out), "--out", str(tmp_path / "o")])
        assert rc == 0
