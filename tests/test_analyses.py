"""Taint engine, detectors, rule files, and the query verb."""

import json
import logging

import pytest

from conftest import graph_bundle, lift_fixture
from lios import analyses
from lios.analyses import (
    ArgSource,
    Finding,
    ReturnSource,
    Sink,
    TaintHit,
    TaintSpec,
    ats_check,
    detect_webview_bridge,
    findings_to_json,
    load_rules,
    run_detectors,
    run_rules,
    sort_findings,
    tainted,
    _invoke_reachable,
)
from lios.errors import MalformedRuleFile, NotAFunction
from lios.fixtures import corpus
from lios.fixtures.scaffold import Scaffold
from lios.graph import PropertyGraph, build_from_frontends
from lios.pipeline import AnalysisConfig, lift
from lios.traverse import run_query


@pytest.fixture(scope="module")
def listing():
    return graph_bundle(corpus.listing_one_app, linked=True)


@pytest.fixture(scope="module")
def sanitized():
    return graph_bundle(corpus.listing_one_app, linked=True, sanitized=True)


@pytest.fixture(scope="module")
def suite():
    return graph_bundle(corpus.msgsend_suite, linked=True)


class FlowBuilder:
    """Hand-wired single-function graphs for taint unit tests."""

    def __init__(self):
        self.g = PropertyGraph()
        self.fn = self.g.add_node(
            "Function", {"ea": 0x1000, "name": "f", "is_ext": False}
        )
        self.bb = self.g.add_node("BasicBlock", {"ea": 0x1000})
        self.g.add_edge(self.fn, self.bb, "has_bb")
        self.externals: dict[str, int] = {}
        self.next_ea = 0x1000

    def instr(self, uses: str = "") -> int:
        props = {"ea": self.next_ea, "asm": "..."}
        if uses:
            props["uses"] = uses
        nid = self.g.add_node("Instruction", props)
        self.next_ea += 4
        self.g.add_edge(self.bb, nid, "instr")
        return nid

    def call(self, callee: str, uses: str = "", **props) -> int:
        nid = self.instr(uses)
        ext = self.externals.get(callee)
        if ext is None:
            ext = self.g.add_node(
                "Function", {"ea": -1, "name": callee, "is_ext": True}
            )
            self.externals[callee] = ext
        self.g.add_edge(nid, ext, "calls", props or None)
        self.g.add_edge(self.fn, ext, "calls")
        return nid

    def define(self, use: int, definer: int, var: str) -> None:
        self.g.add_edge(use, definer, "def", {"var": var})


class TestTainted:
    def test_direct_parameter_reaches_sink(self):
        b = FlowBuilder()
        sink = b.call("NSClassFromString", uses="x0 x30")
        spec = TaintSpec(
            sources=(ArgSource(0),), sinks=(Sink("NSClassFromString", 0),)
        )
        hits = tainted(b.g, b.fn, spec)
        assert len(hits) == 1
        assert hits[0].path == (sink,)
        assert hits[0].sink_instr == sink

    def test_return_source_through_copy_chain(self):
        b = FlowBuilder()
        src = b.call("source_fn", uses="x0 x1")
        copy = b.instr(uses="x0")
        sink = b.call("sink_fn", uses="x5")
        b.define(copy, src, "x0")
        b.define(sink, copy, "x5")
        spec = TaintSpec(
            sources=(ReturnSource("source_fn"),), sinks=(Sink("sink_fn", 5),)
        )
        hits = tainted(b.g, b.fn, spec)
        assert len(hits) == 1
        assert hits[0].path == (src, copy, sink)
        assert hits[0].source == "return value of source_fn"

    def test_sanitizer_on_chain_disqualifies(self):
        b = FlowBuilder()
        src = b.call("source_fn")
        wash = b.call("scrub", uses="x0")
        sink = b.call("sink_fn", uses="x0")
        b.define(wash, src, "x0")
        b.define(sink, wash, "x0")
        spec = TaintSpec(
            sources=(ReturnSource("source_fn"),),
            sinks=(Sink("sink_fn", 0),),
        )
        assert len(tainted(b.g, b.fn, spec)) == 1
        washed = TaintSpec(
            sources=spec.sources,
            sinks=spec.sinks,
            sanitizers=frozenset({"scrub"}),
        )
        assert tainted(b.g, b.fn, washed) == []

    def test_first_hop_pinned_to_sink_argument(self):
        b = FlowBuilder()
        src_a = b.call("source_fn")
        src_b = b.call("source_fn")
        sink = b.call("sink_fn", uses="x0 x1")
        b.define(sink, src_a, "x0")
        b.define(sink, src_b, "x1")
        spec = TaintSpec(
            sources=(ReturnSource("source_fn"),), sinks=(Sink("sink_fn", 0),)
        )
        hits = tainted(b.g, b.fn, spec)
        assert len(hits) == 1
        assert src_b not in hits[0].path
        assert hits[0].path == (src_a, sink)

    def test_untainted_constant_is_clean(self):
        b = FlowBuilder()
        const = b.instr()  # adrp-style: defines, uses nothing
        sink = b.call("sink_fn", uses="x0")
        b.define(sink, const, "x0")
        spec = TaintSpec(
            sources=(ArgSource(0), ReturnSource("source_fn")),
            sinks=(Sink("sink_fn", 0),),
        )
        assert tainted(b.g, b.fn, spec) == []

    def test_arg_source_selector_and_owner_matching(self):
        b = FlowBuilder()
        sink = b.call("sink_fn", uses="x3")
        cls = b.g.add_node("Class", {"name": "C"})
        proto = b.g.add_node("Protocol", {"name": "P"})
        b.g.add_edge(cls, proto, "has_protocol")
        meth = b.g.add_node("Method", {"name": "doIt:", "owner": "C"})
        b.g.add_edge(cls, meth, "has_meth")
        b.g.add_edge(b.fn, meth, "implements")
        sinks = (Sink("sink_fn", 3),)

        def hits(source):
            return tainted(b.g, b.fn, TaintSpec((source,), sinks))

        assert hits(ArgSource(3))
        assert hits(ArgSource(3, owner="C"))
        assert hits(ArgSource(3, owner="P"))
        assert not hits(ArgSource(3, owner="Q"))
        assert hits(ArgSource(3, selector="doIt:"))
        assert hits(ArgSource(3, selector="doIt:", owner="C"))
        assert hits(ArgSource(3, selector="doIt:", owner="P"))
        assert not hits(ArgSource(3, selector="other:"))
        assert not hits(ArgSource(3, selector="doIt:", owner="Q"))

    def test_step_budget_is_per_sink_call_site(self, monkeypatch):
        # sink a's def chain is longer than the budget and reaches no source;
        # sink b's argument is the source's return value, one step away
        b = FlowBuilder()
        src = b.call("source_fn")
        chain = [b.instr(uses="x0") for _ in range(10)]
        for use, definer in zip(chain[1:], chain):
            b.define(use, definer, "x0")
        sink_a = b.call("a", uses="x0")
        b.define(sink_a, chain[-1], "x0")
        sink_b = b.call("b", uses="x0")
        b.define(sink_b, src, "x0")
        monkeypatch.setattr(analyses, "_TAINT_STEP_BUDGET", 5)

        def hits_at_b(*callees):
            spec = TaintSpec(
                (ReturnSource("source_fn"),), tuple(Sink(c, 0) for c in callees)
            )
            return [h for h in tainted(b.g, b.fn, spec) if h.sink.callee == "b"]

        assert hits_at_b("b") == [
            TaintHit(sink_b, Sink("b", 0), "return value of source_fn", (src, sink_b))
        ]
        assert hits_at_b("a", "b") == hits_at_b("b")

    def test_cycle_in_def_edges_terminates(self):
        b = FlowBuilder()
        a = b.instr(uses="x1")
        c = b.instr(uses="x0")
        sink = b.call("sink_fn", uses="x0")
        b.define(a, c, "x1")
        b.define(c, a, "x0")
        b.define(sink, c, "x0")
        spec = TaintSpec(
            sources=(ReturnSource("source_fn"),), sinks=(Sink("sink_fn", 0),)
        )
        assert tainted(b.g, b.fn, spec) == []

    def test_call_site_without_function_level_twin(self):
        b = FlowBuilder()
        b.call("sink_fn", uses="x0")
        assert b.g.validate() == []
        lone = b.instr(uses="x0")
        other = b.g.add_node(
            "Function", {"ea": -1, "name": "other_sink", "is_ext": True}
        )
        edge = b.g.add_edge(lone, other, "calls")
        problem = (
            f"edge {edge}: calls from instruction {lone} "
            f"has no twin from its function {b.fn}"
        )
        assert b.g.validate() == [problem]
        # a second function holds the same block and has both twins; that
        # does not stand in for the first function's twin
        second = b.g.add_node("Function", {"ea": 0x2000, "name": "g", "is_ext": False})
        b.g.add_edge(second, b.bb, "has_bb")
        for callee in (b.externals["sink_fn"], other):
            b.g.add_edge(second, callee, "calls")
        assert b.g.validate() == [problem]
        # the function calls `other_sink` only at the instruction level, so
        # `tainted` skips it without looking at its call sites
        spec = TaintSpec(sources=(ArgSource(0),), sinks=(Sink("other_sink", 0),))
        assert tainted(b.g, b.fn, spec) == []
        b.g.add_edge(b.fn, other, "calls")
        assert b.g.validate() == []
        assert [h.sink_instr for h in tainted(b.g, b.fn, spec)] == [lone]

    @pytest.mark.parametrize("branch", ["bl", "b"])
    def test_lifted_flow_into_tail_called_sink(self, tmp_path, branch):
        # a `b` to the stub is a tail call, and its argument is still a use
        s = Scaffold()
        s.stub("NSClassFromString")
        s.func("f", f"mov x0, x2\n{branch} stub_NSClassFromString")
        path = tmp_path / "app.bin"
        path.write_bytes(s.build()[0])
        g, _ingested, _timings = lift(AnalysisConfig(input=str(path)))
        fn = g.find_nodes("Function", "name", "f")[0]
        spec = TaintSpec(
            sources=(ArgSource(2),), sinks=(Sink("NSClassFromString", 0),)
        )
        hits = tainted(g, fn.id, spec)
        assert len(hits) == 1
        assert [g.node(i).get("asm").split()[0] for i in hits[0].path] == [
            "mov",
            branch,
        ]

    def test_sink_named_by_its_c_name_matches_its_stub(self, tmp_path):
        # the C function `__strcpy_chk` is the symbol `___strcpy_chk`; only
        # the one Mach-O prefix underscore comes off
        s = Scaffold()
        s.stub("__strcpy_chk")
        s.func("f", "mov x0, x2\nbl stub___strcpy_chk")
        path = tmp_path / "app.bin"
        path.write_bytes(s.build()[0])
        g, _ingested, _timings = lift(AnalysisConfig(input=str(path)))
        fn = g.find_nodes("Function", "name", "f")[0]
        assert [n.get("name") for n in g.out_nodes(fn.id, "calls")] == ["__strcpy_chk"]
        spec = TaintSpec(sources=(ArgSource(2),), sinks=(Sink("__strcpy_chk", 0),))
        assert len(tainted(g, fn.id, spec)) == 1

    def test_rejects_non_function(self):
        b = FlowBuilder()
        with pytest.raises(NotAFunction):
            tainted(b.g, b.bb, TaintSpec())
        with pytest.raises(NotAFunction):
            tainted(b.g, 9999, TaintSpec())


class TestWebviewBridge:
    def test_vulnerable_listing_yields_one_finding(self, listing):
        manifest, image, model, functions, g = listing
        findings = detect_webview_bridge(g)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "webview-bridge"
        delegate_ea = manifest["function_ranges"][manifest["delegate_function"]][0]
        assert [g.node(s).get("ea") for s in f.subjects] == [delegate_ea]

    def test_evidence_runs_through_the_api_chain(self, listing):
        manifest, image, model, functions, g = listing
        finding = detect_webview_bridge(g)[0]
        chain = manifest["taint_chain"]
        covering = []
        for path in finding.evidence:
            eas = [g.node(i).get("ea") for i in path]
            if all(ea in eas for ea in chain):
                positions = [eas.index(ea) for ea in chain]
                assert positions == sorted(positions)
                covering.append(path)
        assert covering, "no evidence path visits the full API chain in order"

    def test_sanitized_twin_is_clean(self, sanitized):
        _m, _i, _mo, _f, g = sanitized
        assert detect_webview_bridge(g) == []

    def test_ats_disabled_escalates_to_critical(self, listing):
        manifest, image, model, functions, g = listing
        assert detect_webview_bridge(g)[0].severity == "warning"
        info = json.dumps(
            {"NSAppTransportSecurity": {"NSAllowsArbitraryLoads": True}}
        )
        g2 = build_from_frontends(image, model, functions, info_json=info)
        from lios.graph import link_pass, mark_entrypoints

        link_pass(g2)
        mark_entrypoints(g2)
        findings = detect_webview_bridge(g2)
        assert len(findings) == 1
        assert findings[0].severity == "critical"

    def test_benign_app_is_clean(self):
        _m, _i, _mo, _f, g = graph_bundle(corpus.benign_app, linked=True)
        assert detect_webview_bridge(g) == []

    def test_suite_has_no_bridge_findings(self, suite):
        _m, _i, _mo, _f, g = suite
        assert detect_webview_bridge(g) == []

    def test_a_walk_the_budget_stops_warns_and_names_its_site(
        self, listing, monkeypatch, caplog
    ):
        manifest, image, model, functions, g = listing
        delegate_ea = manifest["function_ranges"][manifest["delegate_function"]][0]
        (fn,) = g.find_nodes("Function", "ea", delegate_ea)
        caplog.set_level(logging.WARNING, logger="lios.analyses")
        hits = tainted(g, fn, analyses._BRIDGE_SPEC)
        assert hits and caplog.records == []
        # each hit's walk took more than one step
        sites = {(h.sink.callee, h.sink.arg, h.sink_instr) for h in hits}
        assert all(len(h.path) > 1 for h in hits)
        monkeypatch.setattr(analyses, "_TAINT_STEP_BUDGET", 1)
        tainted(g, fn, analyses._BRIDGE_SPEC)
        named = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        for callee, arg, instr in sites:
            ea = g.node(instr).get("ea")
            site = f"from {callee} argument x{arg} at instruction {instr} (ea {ea:#x})"
            assert sum(site in m for m in named) == 1, (site, named)
        assert all(m.endswith("stopped after 1 steps with work left") for m in named)


class TestInvokeReachable:
    def chain(self, with_invoke_at: int):
        """fn0 -> fn1 -> fn2; the invoke call sits in fn{with_invoke_at}."""
        g = PropertyGraph()
        fns = []
        for i in range(3):
            f = g.add_node(
                "Function", {"ea": 0x1000 * (i + 1), "name": f"fn{i}", "is_ext": False}
            )
            bb = g.add_node("BasicBlock", {"ea": 0x1000 * (i + 1)})
            g.add_edge(f, bb, "has_bb")
            fns.append((f, bb))
        msg = g.add_node("Function", {"ea": -1, "name": "invoke", "is_ext": True})
        for i in range(2):
            src_f, src_bb = fns[i]
            ins = g.add_node("Instruction", {"ea": 0x1000 * (i + 1) + 4})
            g.add_edge(src_bb, ins, "instr")
            g.add_edge(ins, fns[i + 1][0], "calls")
            g.add_edge(src_f, fns[i + 1][0], "calls")
        f, bb = fns[with_invoke_at]
        ins = g.add_node("Instruction", {"ea": 0x1000 * (with_invoke_at + 1) + 8})
        g.add_edge(bb, ins, "instr")
        g.add_edge(ins, msg, "calls", {"selector": "invoke", "recv": "NSInvocation"})
        g.add_edge(f, msg, "calls")
        return g, [f for f, _bb in fns]

    def test_in_own_body(self):
        g, fns = self.chain(0)
        assert _invoke_reachable(g, fns[0])

    def test_in_direct_callee(self):
        g, fns = self.chain(1)
        assert _invoke_reachable(g, fns[0])

    def test_two_hops_is_too_far(self):
        g, fns = self.chain(2)
        assert not _invoke_reachable(g, fns[0])

    def test_perform_selector_family_counts(self):
        b = FlowBuilder()
        b.call(
            "performSelector:withObject:",
            selector="performSelector:withObject:",
        )
        assert _invoke_reachable(b.g, b.fn)

    def test_invoke_on_other_receiver_does_not_count(self):
        b = FlowBuilder()
        b.call("invoke", selector="invoke", recv="SomethingElse")
        assert not _invoke_reachable(b.g, b.fn)


def ats_graph(ats=None, info=..., info_error=None):
    g = PropertyGraph()
    props = {"name": "t"}
    if info is ...:
        doc = {"CFBundleExecutable": "t"}
        if ats is not None:
            doc["NSAppTransportSecurity"] = ats
        props["info"] = json.dumps(doc, sort_keys=True)
    elif info is not None:
        props["info"] = info
    if info_error:
        props["info_error"] = info_error
    g.add_node("Program", props)
    return g


class TestAtsCheck:
    def test_arbitrary_loads_is_a_warning(self):
        findings = ats_check(ats_graph(ats={"NSAllowsArbitraryLoads": True}))
        assert [(f.rule, f.severity) for f in findings] == [
            ("ats-disabled", "warning")
        ]

    def test_exception_domains_are_info(self):
        findings = ats_check(
            ats_graph(
                ats={
                    "NSExceptionDomains": {
                        "example.com": {"NSExceptionAllowsInsecureHTTPLoads": True},
                        "api.example.com": {},
                    }
                }
            )
        )
        assert [(f.rule, f.severity) for f in findings] == [
            ("ats-exception", "info"),
            ("ats-exception", "info"),
        ]
        assert "api.example.com" in findings[0].message
        assert "example.com" in findings[1].message

    def test_both_arbitrary_and_domains(self):
        findings = ats_check(
            ats_graph(
                ats={
                    "NSAllowsArbitraryLoads": True,
                    "NSExceptionDomains": {"example.com": {}},
                }
            )
        )
        assert [f.rule for f in findings] == ["ats-disabled", "ats-exception"]

    def test_enforced_and_absent_are_silent(self):
        assert ats_check(ats_graph(ats={"NSAllowsArbitraryLoads": False})) == []
        assert ats_check(ats_graph()) == []
        assert ats_check(ats_graph(info=None)) == []

    def test_malformed_info_is_a_warning_not_an_abort(self):
        findings = ats_check(ats_graph(info="{not json"))
        assert [(f.rule, f.severity) for f in findings] == [
            ("info-plist-malformed", "warning")
        ]
        findings = ats_check(ats_graph(info=None, info_error="bad plist"))
        assert [f.rule for f in findings] == ["info-plist-malformed"]

    def test_empty_graph_is_silent(self):
        assert ats_check(PropertyGraph()) == []


BRIDGE_RULE = {
    "rules": [
        {
            "id": "custom-bridge",
            "selectors": ["shouldStartLoadWithRequest"],
            "sources": [{"kind": "argument", "arg": 3}],
            "sinks": [{"callee": "NSClassFromString", "arg": 0}],
            "sanitizers": [],
            "severity": "critical",
        }
    ]
}


class TestRules:
    def test_load_from_dict_text_and_path(self, tmp_path):
        text = json.dumps(BRIDGE_RULE)
        path = tmp_path / "rules.json"
        path.write_text(text)
        for source in (BRIDGE_RULE, text, path):
            rules = load_rules(source)
            assert len(rules) == 1
            assert rules[0].id == "custom-bridge"
            assert rules[0].severity == "critical"
            assert rules[0].spec.sinks == (Sink("NSClassFromString", 0),)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda r: r.pop("id"),
            lambda r: r.update(severity="fatal"),
            lambda r: r.update(sinks=[]),
            lambda r: r.update(sources=[]),
            lambda r: r.update(sources=[{"kind": "mystery"}]),
            lambda r: r.update(sinks=[{"callee": "x"}]),
            lambda r: r.update(sources=[{"kind": "argument", "arg": "three"}]),
        ],
    )
    def test_validation_errors(self, mutation):
        doc = json.loads(json.dumps(BRIDGE_RULE))
        mutation(doc["rules"][0])
        with pytest.raises(MalformedRuleFile):
            load_rules(doc)

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda doc: doc.update(rules=[1]),
            lambda doc: doc["rules"][0].update(sinks=[1]),
            lambda doc: doc["rules"][0].update(sources=["argument"]),
            lambda doc: doc["rules"][0].update(sinks={"callee": "x", "arg": 0}),
            lambda doc: doc["rules"][0].update(sources={"kind": "return"}),
            lambda doc: doc["rules"][0].update(selectors="abc"),
            lambda doc: doc["rules"][0].update(selectors=[1]),
            lambda doc: doc["rules"][0].update(sanitizers=5),
            lambda doc: doc["rules"][0].update(sinks=[{"callee": "x", "arg": True}]),
            lambda doc: doc["rules"][0].update(sinks=[{"callee": "x", "arg": -1}]),
            lambda doc: doc["rules"][0].update(
                sources=[{"kind": "argument", "arg": True}]
            ),
            lambda doc: doc["rules"][0].update(sources=[{"kind": "argument", "arg": -1}]),
            lambda doc: doc["rules"][0].update(
                sources=[{"kind": "argument", "arg": 3, "selector": 5}]
            ),
        ],
        ids=[
            "rule-not-object", "sink-not-object", "source-not-object",
            "sinks-not-list", "sources-not-list", "selectors-string",
            "selector-not-string", "sanitizers-not-list", "sink-arg-bool",
            "sink-arg-negative", "source-arg-bool", "source-arg-negative",
            "source-selector-not-string",
        ],
    )
    def test_every_malformed_shape_is_a_malformed_rule_file(self, mutation):
        doc = json.loads(json.dumps(BRIDGE_RULE))
        mutation(doc)
        with pytest.raises(MalformedRuleFile):
            load_rules(doc)

    def test_not_json_and_wrong_shape(self):
        with pytest.raises(MalformedRuleFile):
            load_rules("{broken")
        with pytest.raises(MalformedRuleFile):
            load_rules({"no_rules": []})

    def test_bridge_rule_fires_on_listing(self, listing):
        _m, _i, _mo, _f, g = listing
        findings = run_rules(g, load_rules(BRIDGE_RULE))
        assert len(findings) == 1
        assert findings[0].rule == "custom-bridge"
        assert findings[0].severity == "critical"

    def test_selector_filter_gates_rule(self, listing):
        _m, _i, _mo, _f, g = listing
        doc = json.loads(json.dumps(BRIDGE_RULE))
        doc["rules"][0]["selectors"] = ["noSuchSelector:"]
        assert run_rules(g, load_rules(doc)) == []

    def test_return_source_rule(self, listing):
        _m, _i, _mo, _f, g = listing
        doc = {
            "rules": [
                {
                    "id": "url-to-class",
                    "selectors": [],
                    "sources": [{"kind": "return", "callee": "URL"}],
                    "sinks": [{"callee": "NSClassFromString", "arg": 0}],
                    "severity": "warning",
                }
            ]
        }
        findings = run_rules(g, load_rules(doc))
        assert len(findings) == 1

    def test_run_detectors_is_the_built_ins_plus_the_rules(self, listing):
        # the bench's report() calls the three detectors separately and
        # concatenates them: the bridge must not also come out of run_rules
        _m, _i, _mo, _f, g = listing
        rules = load_rules(BRIDGE_RULE)
        found = run_detectors(g, rules)
        assert found == sort_findings(
            detect_webview_bridge(g) + ats_check(g) + run_rules(g, rules)
        )
        assert [f.rule for f in found].count("webview-bridge") == 1
        assert [f.rule for f in found].count("custom-bridge") == 1

    def test_sanitizers_never_add_findings(self, listing):
        _m, _i, _mo, _f, g = listing
        base = run_rules(g, load_rules(BRIDGE_RULE))
        doc = json.loads(json.dumps(BRIDGE_RULE))
        doc["rules"][0]["sanitizers"] = ["componentsSeparatedByString:"]
        washed = run_rules(g, load_rules(doc))
        assert len(washed) <= len(base)
        assert washed == []


class TestQueryVerb:
    def test_tainted_verb_finds_delegate(self, listing):
        manifest, _i, _mo, _f, g = listing
        got = run_query(g, 'functions().tainted("URL", "NSClassFromString")')
        delegate_ea = manifest["function_ranges"][manifest["delegate_function"]][0]
        assert [n.get("ea") for n in got] == [delegate_ea]

    def test_verb_matches_raw_engine(self, listing):
        _m, _i, _mo, _f, g = listing
        from lios.analyses import _ARG_REGISTERS

        spec = TaintSpec(
            sources=(ReturnSource("URL"),),
            sinks=tuple(
                Sink("NSClassFromString", i) for i in range(len(_ARG_REGISTERS))
            ),
        )
        raw = [
            fn.id for fn in g.nodes("Function") if tainted(g, fn, spec)
        ]
        dsl = [
            n.id
            for n in run_query(g, 'functions().tainted("URL", "NSClassFromString")')
        ]
        assert dsl == raw

    def test_verb_is_clean_on_sanitized_twin(self, sanitized):
        _m, _i, _mo, _f, g = sanitized
        assert run_query(g, 'functions().tainted("URL", "NSClassFromString")') == []


class TestFindingOrdering:
    def test_sort_is_severity_then_rule(self):
        a = Finding("zeta", "info", (1,), (), "m")
        b = Finding("alpha", "warning", (2,), (), "m")
        c = Finding("beta", "critical", (3,), (), "m")
        d = Finding("alpha", "warning", (1,), (), "m")
        assert sort_findings([a, b, c, d]) == [c, d, b, a]

    def test_json_round_trip_and_stability(self, listing):
        _m, _i, _mo, _f, g = listing
        findings = detect_webview_bridge(g) + ats_check(g)
        text = findings_to_json(findings)
        assert text == findings_to_json(list(reversed(findings)))
        parsed = json.loads(text)
        assert parsed[0]["rule"] == "webview-bridge"
        assert isinstance(parsed[0]["evidence"][0], list)
