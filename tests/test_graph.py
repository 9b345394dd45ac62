"""Graph store invariants, frontend assembly, passes, and persistence."""

import base64
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lios.disasm
import lios.graph
from conftest import graph_bundle, lift_fixture
from lios.disasm import (
    call_effects_from_sites,
    compute_effects,
    compute_use_def,
    devirtualize,
)
from lios.errors import (
    LabelDomainViolation,
    MalformedDump,
    MissingEndpoint,
    UnknownLabel,
)
from lios.fixtures import corpus
from lios.fixtures.scaffold import ClassSpec, ProtocolSpec, Scaffold
from lios.graph import (
    DUMP_HEADER,
    NODE_LABELS,
    Edge,
    PropertyGraph,
    build_from_frontends,
    dump,
    external_call_name,
    link_pass,
    load,
    mark_entrypoints,
)
from lios.macho import parse_macho
from lios.objc import load_model
from lios.pipeline import AnalysisConfig, lift


def build_suite():
    blob, manifest = corpus.msgsend_suite()
    image, model, functions = lift_fixture(blob, manifest)
    g = build_from_frontends(image, model, functions, program_name="suite")
    return manifest, image, model, functions, g


@pytest.fixture(scope="module")
def suite_graph():
    return build_suite()


@pytest.mark.parametrize("builder", [corpus.msgsend_suite, corpus.listing_one_app])
def test_effects_computed_at_most_twice_per_function(builder, monkeypatch):
    """The builder computes a function's own effects once and shares them
    between devirtualization, use-def and assembly. A caller that traces a
    return value through a callee computes the callee's effects again."""
    blob, manifest = builder()
    image, model, functions = lift_fixture(blob, manifest)
    runs, own = Counter(), Counter()
    building = [None]  # the function the builder last handed to a layer

    def counted(fn, *args, **kwargs):
        runs[fn.entry_ea] += 1
        if fn is building[0]:
            own[fn.entry_ea] += 1
        return compute_effects(fn, *args, **kwargs)

    def builder_step(layer):
        def step(fn, *args, **kwargs):
            building[0] = fn
            return layer(fn, *args, **kwargs)

        return step

    monkeypatch.setattr(lios.disasm, "compute_effects", counted)
    monkeypatch.setattr(lios.graph, "compute_effects", builder_step(counted))
    monkeypatch.setattr(lios.graph, "devirtualize", builder_step(devirtualize))
    build_from_frontends(image, model, functions)
    assert own == Counter(set(functions)), own.most_common(3)
    assert max(runs.values()) <= 2, runs.most_common(3)


built_apps = pytest.mark.parametrize(
    "builder, kwargs",
    [
        (corpus.msgsend_suite, {}),
        (corpus.listing_one_app, {}),
        (corpus.perf_app, {"functions": 4}),
    ],
    ids=["msgsend_suite", "listing_one", "perf_app"],
)


@built_apps
def test_builder_emits_each_edge_once(builder, kwargs):
    """The store keeps every edge it is given, so the builder and the passes
    must not repeat one: no two edges share endpoints, label and properties."""
    *_, g = graph_bundle(builder, linked=True, **kwargs)
    keys = Counter(
        (e.src, e.dst, e.label, tuple(sorted(e.properties.items())))
        for e in g.edges()
    )
    assert [key for key, n in keys.items() if n > 1] == []


@built_apps
def test_builder_emits_each_function_once(builder, kwargs):
    """One Function node per in-image address and per imported name, each
    held by the program through exactly one `has_func` edge."""
    *_, g = graph_bundle(builder, linked=True, **kwargs)
    functions = g.nodes("Function")
    in_image = Counter(f.get("ea") for f in functions if not f.get("is_ext"))
    imported = Counter(f.get("name") for f in functions if f.get("is_ext"))
    assert in_image and imported
    assert [ea for ea, n in in_image.items() if n > 1] == []
    assert [name for name, n in imported.items() if n > 1] == []
    assert [f.id for f in functions if len(g.in_edges(f.id, "has_func")) != 1] == []


@pytest.fixture(scope="module")
def linked_listing():
    blob, manifest = corpus.listing_one_app()
    image, model, functions = lift_fixture(blob, manifest)
    g = build_from_frontends(image, model, functions, program_name="listing")
    link_pass(g)
    mark_entrypoints(g)
    return manifest, image, model, functions, g


def call_target_key(g, edge):
    dst = g.node(edge.dst)
    if dst.get("is_ext"):
        return ("ext", dst.get("name"))
    return ("in", dst.get("ea"))


def manifest_target_key(entry):
    if entry["kind"] == "in_image":
        return ("in", entry["target_ea"])
    name = entry["target_name"]
    if name == "objc_msgSend" and entry.get("selector"):
        name = entry["selector"]
    return ("ext", name)


class TestStore:
    def test_unknown_node_label_rejected(self):
        g = PropertyGraph()
        with pytest.raises(UnknownLabel):
            g.add_node("Gadget")

    def test_unknown_edge_label_rejected(self):
        g = PropertyGraph()
        a = g.add_node("Function", {"ea": 1, "name": "a", "is_ext": False})
        b = g.add_node("Function", {"ea": 2, "name": "b", "is_ext": False})
        with pytest.raises(UnknownLabel):
            g.add_edge(a, b, "invokes")

    def test_missing_endpoint_rejected(self):
        g = PropertyGraph()
        a = g.add_node("Function", {"ea": 1, "name": "a", "is_ext": False})
        with pytest.raises(MissingEndpoint):
            g.add_edge(a, 99, "calls")

    def test_domain_violation_rejected(self):
        g = PropertyGraph()
        a = g.add_node("Function", {"ea": 1, "name": "a", "is_ext": False})
        b = g.add_node("Function", {"ea": 2, "name": "b", "is_ext": False})
        with pytest.raises(LabelDomainViolation):
            g.add_edge(a, b, "succ")

    def test_calls_domain_spans_functions_and_instructions(self):
        g = PropertyGraph()
        f = g.add_node("Function", {"ea": 1, "name": "f", "is_ext": False})
        t = g.add_node("Function", {"ea": 2, "name": "t", "is_ext": False})
        i = g.add_node("Instruction", {"ea": 4, "asm": "bl t"})
        c = g.add_node("Class", {"name": "C"})
        g.add_edge(f, t, "calls")
        g.add_edge(i, t, "calls")
        with pytest.raises(LabelDomainViolation):
            g.add_edge(c, t, "calls")

    def test_has_protocol_spans_classes_and_protocols(self):
        g = PropertyGraph()
        c = g.add_node("Class", {"name": "C"})
        p = g.add_node("Protocol", {"name": "P"})
        q = g.add_node("Protocol", {"name": "Q"})
        f = g.add_node("Function", {"ea": 1, "name": "f", "is_ext": False})
        g.add_edge(c, p, "has_protocol")
        g.add_edge(p, q, "has_protocol")
        with pytest.raises(LabelDomainViolation):
            g.add_edge(f, p, "has_protocol")

    def test_isa_self_cycle_allowed(self):
        g = PropertyGraph()
        root_meta = g.add_node("Class", {"name": "NSObject"})
        g.add_edge(root_meta, root_meta, "isa")
        assert g.out_nodes(root_meta, "isa")[0].id == root_meta
        assert g.validate() == []

    def test_known_property_types_enforced(self):
        g = PropertyGraph()
        with pytest.raises(TypeError):
            g.add_node("Function", {"ea": "0x100"})
        with pytest.raises(TypeError):
            g.add_node("Function", {"ea": True})
        with pytest.raises(TypeError):
            g.add_node("Function", {"is_ext": 1})

    def test_unknown_property_keys_pass_through(self):
        g = PropertyGraph()
        n = g.add_node("Function", {"ea": 1, "name": "f", "note": "custom"})
        assert g.node(n).get("note") == "custom"

    def test_non_scalar_property_rejected(self):
        g = PropertyGraph()
        with pytest.raises(TypeError):
            g.add_node("Class", {"name": "C", "tags": ["a"]})
        with pytest.raises(TypeError):
            g.add_node("Class", {"name": "C", 1: "a"})
        assert g.node_count() == 0

    def test_find_nodes_tracks_updates(self):
        g = PropertyGraph()
        n = g.add_node("Function", {"ea": 1, "name": "old", "is_ext": False})
        assert [x.id for x in g.find_nodes("Function", "name", "old")] == [n]
        g.set_node_prop(n, "name", "new")
        assert g.find_nodes("Function", "name", "old") == []
        assert [x.id for x in g.find_nodes("Function", "name", "new")] == [n]

    def test_stats_totals(self):
        g = PropertyGraph()
        f = g.add_node("Function", {"ea": 1, "name": "f", "is_ext": False})
        b = g.add_node("BasicBlock", {"ea": 1})
        g.add_edge(f, b, "has_bb")
        s = g.stats()
        assert s["nodes"] == {"BasicBlock": 1, "Function": 1}
        assert s["edges"] == {"has_bb": 1}
        assert s["node_total"] == 2 and s["edge_total"] == 1


# a dump record, by an encoder independent of the store's
_encode_record = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":")
).encode
_VALUES = {
    str: st.text(max_size=4),
    int: st.integers(-(1 << 70), 1 << 70),
    bool: st.booleans(),
    bytes: st.binary(max_size=4),
}
# a few free keys, so that writes often overwrite
_FREE_KEYS = ["k", "note", "zé"]


@st.composite
def _property(draw, label):
    """A (key, value) that `label` admits: a known key gets its type."""
    known = lios.graph._KNOWN_KEYS[label]
    key = draw(st.sampled_from(sorted(known) + _FREE_KEYS))
    want = known.get(key)
    return key, draw(_VALUES[want] if want else st.one_of(*_VALUES.values()))


@st.composite
def _node_writes(draw):
    """`add_node` and `set_node_prop` calls over every node label."""
    labels, writes = [], []
    for _ in range(draw(st.integers(1, 12))):
        if labels and draw(st.booleans()):
            node = draw(st.integers(0, len(labels) - 1))
            writes.append(("set", node, *draw(_property(labels[node]))))
        else:
            label = draw(st.sampled_from(sorted(NODE_LABELS)))
            labels.append(label)
            writes.append(("add", label, dict(draw(st.lists(_property(label), max_size=5)))))
    return writes


def _typed(props):
    # True == 1, so values are compared with their types
    return {key: (type(value), value) for key, value in props.items()}


class TestLayouts:
    @settings(max_examples=300, deadline=None)
    @given(_node_writes())
    def test_layouts_agree_with_a_dict_per_node(self, writes):
        g, model = PropertyGraph(), []
        for write in writes:
            if write[0] == "add":
                _, label, props = write
                assert g.add_node(label, props) == len(model)
                model.append((label, dict(props)))
            else:
                _, node, key, value = write
                g.set_node_prop(node, key, value)
                model[node][1][key] = value

        keys = {key for label in NODE_LABELS for key in lios.graph._KNOWN_KEYS[label]}
        keys.update(_FREE_KEYS)
        for store in (g, PropertyGraph.loads(g.dumps())):
            layouts = {}
            for node, (label, props) in zip(store.nodes(), model, strict=True):
                assert node.label == label
                assert _typed(node.properties) == _typed(props)
                for key in keys:
                    got = node.get(key, KeyError)
                    assert (type(got), got) == _typed(props).get(key, (type, KeyError))
                with pytest.raises(TypeError):
                    node.properties["k"] = "x"
                # nodes with equal key sets share one layout
                assert layouts.setdefault(frozenset(props), node.layout) is node.layout
            for label, props in model:
                for key, value in props.items():
                    assert [n.id for n in store.find_nodes(label, key, value)] == [
                        i for i, (other, p) in enumerate(model)
                        if other == label and key in p and p[key] == value
                    ]
            assert store.stats()["property_total"] == sum(len(p) for _, p in model)
            expected = [DUMP_HEADER] + [
                _encode_record({"id": i, "l": label, "p": {
                    key: {"b64": base64.b64encode(value).decode("ascii")}
                    if isinstance(value, bytes) else value
                    for key, value in props.items()
                }, "t": "n"})
                for i, (label, props) in enumerate(model)
            ]
            assert store.dumps().split("\n") == expected + [""]

    @pytest.mark.parametrize("reloaded", [False, True], ids=["lifted", "reloaded"])
    def test_equal_instruction_texts_and_words_are_one_object(self, suite_graph, reloaded):
        g = suite_graph[4]
        if reloaded:
            g = PropertyGraph.loads(g.dumps())
        instructions = g.nodes("Instruction")
        for key in ("asm", "bytes"):
            values = [n.get(key) for n in instructions]
            assert len({id(v) for v in values}) == len(set(values)) < len(values)
        layouts = {}
        for node in g.nodes():
            assert layouts.setdefault(frozenset(node.properties), node.layout) is node.layout
        assert len(layouts) < 20


# node labels whose edges cover every direction of the rules between them
_ADJACENCY_LABELS = ("Function", "BasicBlock", "Instruction")


@st.composite
def _adjacency_ops(draw):
    """`add_node`, `add_edge` and reads in any order: ("node", label),
    ("edge", src, dst, label) with a label the rule admits, or ("read",)."""
    labels, ops = [], []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["node", "edge", "edge", "read"]))
        if kind == "node" or not labels:
            labels.append(draw(st.sampled_from(_ADJACENCY_LABELS)))
            ops.append(("node", labels[-1]))
        elif kind == "edge":
            src, dst = (draw(st.integers(0, len(labels) - 1)) for _ in range(2))
            admitted = [
                label for label, (domain, codomain) in lios.graph.EDGE_RULES.items()
                if labels[src] in domain and labels[dst] in codomain
            ]
            if admitted:
                ops.append(("edge", src, dst, draw(st.sampled_from(admitted))))
        else:
            ops.append(("read",))
    return ops


def _check_adjacency(g, edges):
    """Every adjacency read of `g` against `edges`, the (src, dst, label) of
    each edge in id order, one list per node and direction."""
    stored = g.edges()
    assert [(e.src, e.dst, e.label) for e in stored] == edges
    n = g.node_count()
    for node in range(-2, n + 2):
        for end, read, neighbours in ((0, g.out_edges, g.out_nodes), (1, g.in_edges, g.in_nodes)):
            for label in (None, *sorted(lios.graph.EDGE_RULES)):
                want = [
                    i for i, edge in enumerate(edges)
                    if edge[end] == node and label in (None, edge[2])
                ]
                assert [id(e) for e in read(node, label)] == [id(stored[i]) for i in want]
                if label is not None:
                    assert [m.id for m in neighbours(node, label)] == [
                        edges[i][1 - end] for i in want
                    ]


class TestAdjacency:
    @settings(max_examples=300, deadline=None)
    @given(_adjacency_ops())
    def test_reads_between_writes_agree_with_a_list_per_node(self, ops):
        g, edges = PropertyGraph(), []
        for op in ops:
            if op[0] == "node":
                g.add_node(op[1])
            elif op[0] == "edge":
                assert g.add_edge(*op[1:]) == len(edges)
                edges.append(op[1:])
            else:
                _check_adjacency(g, edges)
        _check_adjacency(g, edges)
        _check_adjacency(PropertyGraph.loads(g.dumps()), edges)


# one malformed edge per case, (src, dst, label, properties), in a store of
# a Class node 0 and a Protocol node 1, and the error `add_edge` raises
MALFORMED_EDGES = {
    "unknown-label": ((0, 0, "invokes", {}), UnknownLabel),
    "dangling-endpoint": ((0, 5, "isa", {}), MissingEndpoint),
    "bool-endpoint": ((True, 0, "isa", {}), MissingEndpoint),
    "domain-violation": ((1, 0, "isa", {}), LabelDomainViolation),
    "non-scalar-property": ((0, 0, "isa", {"k": [1]}), TypeError),
}


def class_and_protocol():
    g = PropertyGraph()
    g.add_node("Class", {"name": "A"})
    g.add_node("Protocol", {"name": "P"})
    return g


@pytest.mark.parametrize("case", MALFORMED_EDGES)
class TestEdgeRule:
    """`add_edge`, `loads` and `validate` reject each malformed edge alike."""

    def test_add_edge_raises(self, case):
        (src, dst, label, props), error = MALFORMED_EDGES[case]
        g = class_and_protocol()
        with pytest.raises(error):
            g.add_edge(src, dst, label, props)
        assert g.edge_count() == 0

    def test_loads_reports_line(self, case):
        (src, dst, label, props), _error = MALFORMED_EDGES[case]
        record = json.dumps({"t": "e", "s": src, "d": dst, "l": label, "p": props})
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(class_and_protocol().dumps() + record + "\n")
        assert exc.value.line_no == 4

    def test_validate_reports_edge_id(self, case):
        (src, dst, label, props), _error = MALFORMED_EDGES[case]
        g = class_and_protocol()
        g.add_edge(0, 0, "isa")
        assert g.validate() == []
        # an edge written past the store's writer
        g._edges.append(Edge(src, dst, label, props))
        problems = g.validate()
        assert len(problems) == 1 and problems[0].startswith("edge 1: "), problems

    def test_validate_beside_a_call_reports_edge_id(self, case):
        (src, dst, label, props), _error = MALFORMED_EDGES[case]
        # a recursive call, so that the store holds 5 nodes and node 5 dangles
        g = class_and_protocol()
        fn = g.add_node("Function", {"name": "f"})
        block = g.add_node("BasicBlock", {"ea": 0})
        call = g.add_node("Instruction", {"ea": 0})
        g.add_edge(fn, block, "has_bb")
        g.add_edge(block, call, "instr")
        g.add_edge(call, fn, "calls")
        g.add_edge(fn, fn, "calls")
        # written past the store's writer before any read, so that the twin
        # walk's in-edge reads index the store with this edge in it
        g._edges.append(Edge(src, dst, label, props))
        problems = g.validate()
        assert len(problems) == 1 and problems[0].startswith("edge 4: "), problems


def test_assembly_writes_ivars_protocol_inheritance_and_fused_xrefs(tmp_path):
    s = Scaffold()
    s.func("helper", "ret")
    s.func("main", "adrp x8, helper@page\nadd x8, x8, helper@pageoff\nret")
    s.add_protocol(ProtocolSpec("Base"))
    s.add_protocol(ProtocolSpec("Derived", inherits=["Base"]))
    s.add_class(ClassSpec(name="Thing", ivars=[("_count", "q")]))
    path = tmp_path / "app.bin"
    path.write_bytes(s.build()[0])
    g, _ingested, _timings = lift(AnalysisConfig(input=str(path)))
    assert [(n.get("ea"), n.get("name"), n.get("owner")) for n in g.nodes("Ivar")] == [
        (8, "_count", "Thing")
    ]
    inherits = {
        p.get("name"): [q.get("name") for q in g.out_nodes(p.id, "has_protocol")]
        for p in g.nodes("Protocol")
    }
    assert inherits == {"Base": [], "Derived": ["Base"]}
    xrefs = [
        (i.get("asm").split()[0], f.get("name"))
        for i in g.nodes("Instruction")
        for f in g.out_nodes(i.id, "xref")
    ]
    assert xrefs == [("add", "helper")]
    assert g.validate() == []


class TestBuildSuite:
    def test_single_program_node_at_image_base(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        programs = g.nodes("Program")
        assert len(programs) == 1
        assert programs[0].get("ea") == image.image_base
        assert programs[0].get("name") == "suite"

    def test_every_function_owned_by_program(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        program = g.nodes("Program")[0]
        owned = {n.id for n in g.out_nodes(program.id, "has_func")}
        assert owned == {n.id for n in g.nodes("Function")}

    def test_in_image_functions_present(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        for name, (start, _end) in manifest["function_ranges"].items():
            hits = g.find_nodes("Function", "ea", start)
            assert len(hits) == 1, name
            assert hits[0].get("is_ext") is False

    def test_external_function_set(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        want = set(manifest["reachable_externals"]) | set(
            manifest["dead_externals"]
        )
        got = {n.get("name") for n in g.nodes("Function") if n.get("is_ext")}
        assert got == want
        for n in g.nodes("Function"):
            if n.get("is_ext"):
                assert n.get("ea") == -1

    def test_function_call_projection(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        for name, entries in manifest["expected_calls"].items():
            start, _end = manifest["function_ranges"][name]
            fn = g.find_nodes("Function", "ea", start)[0]
            got = {
                call_target_key(g, e)
                for e in g.out_edges(fn.id, "calls")
            }
            want = {manifest_target_key(e) for e in entries}
            assert got == want, name

    def test_instruction_call_edges_carry_site_detail(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        got = set()
        for e in g.edges("calls"):
            src = g.node(e.src)
            if src.label != "Instruction":
                continue
            got.add(
                (
                    src.get("ea"),
                    call_target_key(g, e),
                    e.get("selector"),
                    e.get("recv"),
                )
            )
        want = set()
        for entries in manifest["expected_calls"].values():
            for entry in entries:
                want.add(
                    (
                        entry["caller_ea"],
                        manifest_target_key(entry),
                        entry.get("selector"),
                        entry.get("receiver"),
                    )
                )
        assert got == want

    def test_block_and_instruction_shape(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        for start, fn in functions.items():
            fnode = g.find_nodes("Function", "ea", start)[0]
            blocks = g.out_nodes(fnode.id, "has_bb")
            assert {b.get("ea") for b in blocks} == {b.ea for b in fn.blocks}
            for block in fn.blocks:
                bnode = next(b for b in blocks if b.get("ea") == block.ea)
                instrs = g.out_nodes(bnode.id, "instr")
                assert [i.get("ea") for i in sorted(instrs, key=lambda n: n.get("ea"))] == [
                    i.ea for i in block.instructions
                ]

    def test_succ_edges_mirror_cfg(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        for start, fn in functions.items():
            for block in fn.blocks:
                bnode = g.find_nodes("BasicBlock", "ea", block.ea)[0]
                succ = {n.get("ea") for n in g.out_nodes(bnode.id, "succ")}
                assert succ == set(block.successors), hex(block.ea)

    def test_def_edges_mirror_use_def_relation(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        for start, fn in functions.items():
            fnode = g.find_nodes("Function", "ea", start)[0]
            got = set()
            for bb in g.out_nodes(fnode.id, "has_bb"):
                for ins in g.out_nodes(bb.id, "instr"):
                    for e in g.out_edges(ins.id, "def"):
                        got.add(
                            (ins.get("ea"), g.node(e.dst).get("ea"), e.get("var"))
                        )
            sites = devirtualize(fn, model, functions=functions)
            use_def = compute_use_def(
                fn, compute_effects(fn, call_effects_from_sites(sites))
            )
            want = {(u, d, str(loc)) for (u, d, loc) in use_def}
            assert got == want, fn.name

    def test_direct_call_gets_xref_edge(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        entry = manifest["expected_calls"]["site_interproc"][0]
        assert entry["kind"] == "in_image"
        caller = g.find_nodes("Instruction", "ea", entry["caller_ea"])[0]
        targets = {n.get("ea") for n in g.out_nodes(caller.id, "xref")}
        assert entry["target_ea"] in targets

    def test_class_nodes_cover_model(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        assert len(g.nodes("Class")) == len(model.classes)
        names = {n.get("name") for n in g.nodes("Class")}
        assert {"Worker", "Base", "Sub"} <= names

    def test_worker_method_edges(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        worker = next(
            n
            for n in g.find_nodes("Class", "name", "Worker")
            if not n.get("is_meta")
        )
        selectors = {m.get("name") for m in g.out_nodes(worker.id, "has_meth")}
        assert selectors == {"doWork", "reset", "otherThing", "redispatch"}

    def test_subclass_edge(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        sub = next(
            n
            for n in g.find_nodes("Class", "name", "Sub")
            if not n.get("is_meta")
        )
        supers = {n.get("name") for n in g.out_nodes(sub.id, "has_superclass")}
        assert "Base" in supers

    def test_isa_edges_reach_metaclasses(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        worker = next(
            n
            for n in g.find_nodes("Class", "name", "Worker")
            if not n.get("is_meta")
        )
        isa = g.out_nodes(worker.id, "isa")
        assert len(isa) == 1 and isa[0].get("is_meta") is True

    def test_method_impl_addresses_cover_model(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        want = {
            m.impl_address
            for cls in model.classes
            for m in cls.methods
            if m.impl_address is not None
        }
        got = {
            m.get("impl_ea")
            for m in g.nodes("Method")
            if m.get("impl_ea") is not None
        }
        assert got == want

    def test_graph_validates_clean(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        assert g.validate() == []

    def test_empty_build_is_program_only(self):
        g = build_from_frontends()
        assert [n.label for n in g.nodes()] == ["Program"]
        assert g.edge_count() == 0

    def test_model_only_build(self):
        blob, _manifest = corpus.msgsend_suite()
        model = load_model(parse_macho(blob))
        g = build_from_frontends(model=model)
        assert len(g.nodes("Class")) == len(model.classes)
        assert g.nodes("Program")[0].get("ea") is None

    def test_external_call_name_prefers_selector(self):
        from lios.disasm import CallSite

        opaque = CallSite(0, "external", None, "objc_msgSend")
        known = CallSite(0, "external", None, "objc_msgSend", selector="length")
        plain = CallSite(0, "external", None, "malloc")
        assert external_call_name(opaque) == "objc_msgSend"
        assert external_call_name(known) == "length"
        assert external_call_name(plain) == "malloc"


class TestLinkPass:
    def hand_graph(self, impl_ea=0x1000):
        g = PropertyGraph()
        f = g.add_node(
            "Function", {"ea": 0x1000, "name": "sub_1000", "is_ext": False}
        )
        c = g.add_node("Class", {"name": "C"})
        m = g.add_node(
            "Method",
            {"name": "work", "owner": "C", "impl_ea": impl_ea,
             "is_class_method": False},
        )
        g.add_edge(c, m, "has_meth")
        return g, f, m

    def test_implements_edge_and_name_upgrade(self):
        g, f, m = self.hand_graph()
        report = link_pass(g)
        assert report == {"implements_added": 1, "unmatched_methods": 0}
        assert [e.dst for e in g.out_edges(f, "implements")] == [m]
        # names come from `function_name` at assembly; the pass renames nothing
        assert g.node(f).get("name") == "sub_1000"

    def test_unmatched_method_warns(self):
        g, _f, _m = self.hand_graph(impl_ea=0x9999)
        report = link_pass(g)
        assert report["implements_added"] == 0
        assert report["unmatched_methods"] == 1
        assert any("matches no function" in w for w in g.warnings)

    def test_suite_linked_counts(self):
        manifest, image, model, functions, g = build_suite()
        report = link_pass(g)
        want = sum(
            1
            for cls in model.classes
            for m in cls.methods
            if m.impl_address is not None
        )
        assert report["implements_added"] == want
        assert len(g.edges("implements")) == want


class TestEntrypoints:
    def test_suite_entrypoints_are_main_only(self):
        manifest, image, model, functions, g = build_suite()
        link_pass(g)
        mark_entrypoints(g)
        want = {
            manifest["function_ranges"][name][0]
            for name in manifest["entry_functions"]
        }
        got = {n.get("ea") for n in g.find_nodes("Function", "is_ep", True)}
        assert got == want

    def test_listing_marks_delegate_method(self, linked_listing):
        manifest, image, model, functions, g = linked_listing
        want = {
            manifest["function_ranges"][name][0]
            for name in manifest["entry_functions"]
        }
        got = {n.get("ea") for n in g.find_nodes("Function", "is_ep", True)}
        assert got == want

    def test_delegate_protocol_adoption_visible(self, linked_listing):
        manifest, image, model, functions, g = linked_listing
        proto = g.find_nodes("Protocol", "name", "UIWebViewDelegate")[0]
        adopters = {
            g.node(e.src).get("name")
            for e in g.in_edges(proto.id, "has_protocol")
        }
        assert "BridgeDelegate" in adopters

    def test_delegate_function_implements_protocol_method(self, linked_listing):
        manifest, image, model, functions, g = linked_listing
        delegate_ea = manifest["function_ranges"][
            manifest["delegate_function"]
        ][0]
        fn = g.find_nodes("Function", "ea", delegate_ea)[0]
        selectors = {
            g.node(e.dst).get("name")
            for e in g.out_edges(fn.id, "implements")
        }
        assert manifest["delegate_selector"] in selectors

    def test_custom_protocol_set_respected(self):
        manifest, image, model, functions, g = build_suite()
        link_pass(g)
        mark_entrypoints(g, delegate_protocols=frozenset({"NoSuchProtocol"}))
        got = {n.get("name") for n in g.find_nodes("Function", "is_ep", True)}
        assert got == {"main"}


class TestDump:
    def test_round_trip_byte_identical(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        text = g.dumps()
        clone = PropertyGraph.loads(text)
        assert clone.dumps() == text
        assert clone.stats() == g.stats()

    def test_header_and_record_order(self, suite_graph):
        manifest, image, model, functions, g = suite_graph
        lines = g.dumps().splitlines()
        assert lines[0] == DUMP_HEADER
        records = [json.loads(line) for line in lines[1:]]
        kinds = [r["t"] for r in records]
        first_edge = kinds.index("e")
        assert set(kinds[:first_edge]) == {"n"}
        assert set(kinds[first_edge:]) == {"e"}
        node_ids = [r["id"] for r in records if r["t"] == "n"]
        assert node_ids == sorted(node_ids)

    @pytest.mark.parametrize("reloaded", [False, True], ids=["built", "reloaded"])
    def test_ids_outside_the_store(self, suite_graph, reloaded):
        g = suite_graph[4]
        if reloaded:
            g = PropertyGraph.loads(g.dumps())
        n = g.node_count()
        assert g.has_node(0) and g.has_node(n - 1)
        assert not g.has_node(-1)
        assert not g.has_node(n)
        for bad in (-1, n):
            with pytest.raises(KeyError):
                g.node(bad)
            assert g.out_edges(bad) == []
            assert g.in_edges(bad) == []

    def test_reload_holds_repeated_values_once(self, suite_graph):
        g = suite_graph[4]
        clone = PropertyGraph.loads(g.dumps())
        members = {label: label for label in NODE_LABELS}
        assert all(n.label is members[n.label] for n in clone.nodes())
        ea_keys = {
            id(next(k for k in n.properties if k == "ea"))
            for n in clone.nodes("Instruction")
        }
        assert len(ea_keys) == 1
        variables = [e.get("var") for e in clone.edges("def")]
        assert len({id(v) for v in variables}) == len(set(variables))
        assert all(
            e.src is clone.node(e.src).id and e.dst is clone.node(e.dst).id
            for e in clone.edges()
        )
        for store in (g, clone):
            # an edge's id is its index; the edge does not hold it
            assert not any(hasattr(e, "id") for e in store.edges())
            bare = [e.properties for e in store.edges() if not e.properties]
            assert bare and all(p is bare[0] for p in bare)
            with pytest.raises(TypeError):
                bare[0]["var"] = "x0"
            # one read-only mapping per `def` variable and one `uses` text
            # per distinct set, in the lifted and in the reloaded store
            by_var = {}
            for e in store.edges("def"):
                assert by_var.setdefault(e.get("var"), e.properties) is e.properties
            assert len(by_var) > 1
            with pytest.raises(TypeError):
                by_var["x0"]["var"] = "x1"
            uses = [n.get("uses") for n in store.nodes("Instruction") if n.get("uses")]
            assert len({id(u) for u in uses}) == len(set(uses)) < len(uses)
            # and one per equal `selector` and `recv` of a call site
            sites = [e.properties for e in store.edges("calls") if e.properties]
            by_site = {}
            for p in sites:
                assert by_site.setdefault(tuple(sorted(p.items())), p) is p
            assert len(by_site) < len(sites)
        before = [dict(n.properties) for n in clone.nodes()]
        target = clone.nodes("Instruction")[0]
        clone.set_node_prop(target.id, "note", "changed")
        before[target.id]["note"] = "changed"
        assert [n.properties for n in clone.nodes()] == before

    def test_file_round_trip(self, tmp_path, suite_graph):
        manifest, image, model, functions, g = suite_graph
        path = tmp_path / "graph.jsonl"
        dump(g, path)
        clone = load(path)
        assert clone.stats() == g.stats()

    def test_build_is_deterministic(self):
        first = build_suite()[4].dumps()
        second = build_suite()[4].dumps()
        assert first == second

    def test_bytes_survive_round_trip(self):
        g = PropertyGraph()
        g.add_node("Instruction", {"ea": 4, "bytes": b"\x1f\x20\x03\xd5"})
        clone = PropertyGraph.loads(g.dumps())
        assert clone.node(0).get("bytes") == b"\x1f\x20\x03\xd5"

    @pytest.mark.parametrize(
        "values",
        [
            # equal and alike in hash, but each reloads as its own type
            [{"n": True}, {"n": 1}, {"n": "1"}, {"n": 1}, {"n": True}, {"n": "1"}],
            [{"raw": b"\x00\xff"}, {"raw": b"\x00\xff", "n": "b"}, {"raw": b"\x00\xff"}],
        ],
        ids=["bool-int-text", "bytes"],
    )
    def test_edge_properties_reload_as_written(self, values):
        g = PropertyGraph()
        a = g.add_node("Class", {"name": "A"})
        b = g.add_node("Class", {"name": "B"})
        for props in values:
            g.add_edge(a, b, "has_superclass", props)
        text = g.dumps()
        clone = PropertyGraph.loads(text)
        assert clone.dumps() == text
        assert PropertyGraph.loads(clone.dumps()).dumps() == text
        assert [
            {key: type(value) for key, value in e.properties.items()}
            for e in clone.edges()
        ] == [{key: type(value) for key, value in p.items()} for p in values]

    def test_line_separators_in_text_survive_round_trip(self):
        g = PropertyGraph()
        g.add_node("Class", {"name": "A\u2028B\u2029C\x85D"})
        text = g.dumps()
        assert PropertyGraph.loads(text).dumps() == text

    def test_missing_header(self):
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads('{"t":"n","id":0,"l":"Class","p":{}}\n')
        assert exc.value.line_no == 1

    def test_bad_json_reports_line(self):
        text = (
            DUMP_HEADER
            + "\n"
            + '{"t":"n","id":0,"l":"Class","p":{"name":"C"}}\n'
            + "{not json}\n"
        )
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(text)
        assert exc.value.line_no == 3

    def test_unknown_record_type(self):
        text = DUMP_HEADER + "\n" + '{"t":"x"}\n'
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(text)
        assert exc.value.line_no == 2

    def test_duplicate_node_id(self):
        text = (
            DUMP_HEADER
            + "\n"
            + '{"t":"n","id":0,"l":"Class","p":{"name":"A"}}\n'
            + '{"t":"n","id":0,"l":"Class","p":{"name":"B"}}\n'
        )
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(text)
        assert exc.value.line_no == 3

    def test_edge_to_missing_node(self):
        text = (
            DUMP_HEADER
            + "\n"
            + '{"t":"n","id":0,"l":"Class","p":{"name":"A"}}\n'
            + '{"t":"e","s":0,"d":5,"l":"isa","p":{}}\n'
        )
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(text)
        assert exc.value.line_no == 3

    def test_unknown_label_in_dump(self):
        text = DUMP_HEADER + "\n" + '{"t":"n","id":0,"l":"Gadget","p":{}}\n'
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(text)
        assert exc.value.line_no == 2

    def test_domain_violation_in_dump(self):
        text = (
            DUMP_HEADER
            + "\n"
            + '{"t":"n","id":0,"l":"Class","p":{"name":"A"}}\n'
            + '{"t":"n","id":1,"l":"Protocol","p":{"name":"P"}}\n'
            + '{"t":"e","s":1,"d":0,"l":"isa","p":{}}\n'
        )
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(text)
        assert exc.value.line_no == 4

    def test_missing_field(self):
        text = DUMP_HEADER + "\n" + '{"t":"n","id":0}\n'
        with pytest.raises(MalformedDump) as exc:
            PropertyGraph.loads(text)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "record, read",
        [
            pytest.param(record, read, id=name + suffix)
            for suffix, read in [("", "loads"), ("-from-path", "load")]
            for name, record in [
                ("props-not-object", '{"t":"n","id":1,"l":"Class","p":[1]}'),
                ("edge-props-not-object", '{"t":"e","s":0,"d":0,"l":"isa","p":[]}'),
                ("id-not-int", '{"t":"n","id":"a","l":"Class","p":{}}'),
                ("label-unhashable", '{"t":"n","id":1,"l":["Class"],"p":{}}'),
                ("endpoint-unhashable", '{"t":"e","s":[0],"d":0,"l":"isa","p":{}}'),
                (
                    "bad-base64",
                    '{"t":"n","id":1,"l":"Instruction","p":{"bytes":{"b64":"a"}}}',
                ),
                ("edge-prop-not-scalar", '{"t":"e","s":0,"d":0,"l":"isa","p":{"k":[1]}}'),
                ("known-key-wrong-type", '{"t":"n","id":1,"l":"Function","p":{"ea":"x"}}'),
                ("known-key-not-scalar", '{"t":"n","id":1,"l":"Class","p":{"name":[1]}}'),
                # only "\n" ends a record, in a file as in a string
                (
                    "stray-carriage-return",
                    '{"t":"n","id":1,"l":"Class","p":{}}\r{"t":"x"}',
                ),
                # node ids run 0..n-1 in dump order
                ("node-id-skips", '{"t":"n","id":2,"l":"Class","p":{}}'),
                (
                    "node-id-goes-back",
                    '{"t":"n","id":1,"l":"Class","p":{}}\n'
                    '{"t":"n","id":0,"l":"Class","p":{}}',
                ),
                # 1.0 == 1, yet the second edge is no reuse of the first's
                (
                    "float-after-equal-int",
                    '{"t":"e","s":0,"d":0,"l":"isa","p":{"n":1}}\n'
                    '{"t":"e","s":0,"d":0,"l":"isa","p":{"n":1.0}}',
                ),
            ]
        ],
    )
    def test_malformed_record_reports_line(self, tmp_path, record, read):
        text = (
            DUMP_HEADER
            + "\n"
            + '{"t":"n","id":0,"l":"Class","p":{"name":"A"}}\n'
            + record
            + "\n"
        )
        with pytest.raises(MalformedDump) as exc:
            if read == "loads":
                PropertyGraph.loads(text)
            else:
                path = tmp_path / "graph.jsonl"
                path.write_text(text, encoding="utf-8", newline="\n")
                load(path)
        # the malformed record is the last line of `record`
        assert exc.value.line_no == 3 + record.count("\n")

    def test_records_match_an_independent_encoder(self):
        oracle = _encode_record
        texts = ["", "caf\u00e9 \u65e5\u672c", "\x85", "\u2028\u2029", '"', "\\",
                 "\x00\x01\x1f\t\n\r\x7f"]
        ints = [0, -1, -(1 << 40), (1 << 63) + 1, 1 << 100]
        props = {f"s{i}": text for i, text in enumerate(texts)}
        props.update({f"i{i}": value for i, value in enumerate(ints)})
        props.update({"yes": True, "no": False, "none": b"", "raw": b"\x00\xff\x1f+/"})
        props['k"\u00e9\\\u2028'] = "key needing quotes"
        g = PropertyGraph()
        a = g.add_node("Class", dict(props, name="A"))
        b = g.add_node("Class")
        g.add_node("Instruction", {"ea": 4, "bytes": b"\x1f\x20\x03\xd5", "asm": "nop"})
        g.add_edge(a, b, "has_superclass", props)
        g.add_edge(b, a, "isa")

        def encoded(properties):
            return {
                key: {"b64": base64.b64encode(value).decode("ascii")}
                if isinstance(value, bytes)
                else value
                for key, value in properties.items()
            }

        expected = [DUMP_HEADER]
        for node in g.nodes():
            expected.append(oracle(
                {"t": "n", "id": node.id, "l": node.label, "p": encoded(node.properties)}
            ))
        for edge in g.edges():
            expected.append(oracle({
                "t": "e", "s": edge.src, "d": edge.dst, "l": edge.label,
                "p": encoded(edge.properties),
            }))
        assert g.dumps().split("\n") == expected + [""]

    @pytest.mark.parametrize("value", [1.5, None, [1]], ids=["float", "none", "list"])
    def test_unwritable_property_raises(self, value):
        # set_node_prop refuses these, and a direct write is refused at the
        # write: node properties are read-only, as edge properties are
        g = PropertyGraph()
        g.add_node("Class", {"name": "A"})
        text = g.dumps()
        with pytest.raises(TypeError):
            g.node(0).properties["extra"] = value
        with pytest.raises(TypeError):
            g.set_node_prop(0, "extra", value)
        assert g.dumps() == text
        assert g.node(0).properties == {"name": "A"}

    def test_dump_writes_the_dumps_bytes(self, tmp_path, suite_graph):
        g = suite_graph[4]
        path = tmp_path / "graph.jsonl"
        dump(g, path)
        assert path.read_bytes() == g.dumps().encode("utf-8")
        buffer = io.StringIO()
        dump(g, buffer)
        assert buffer.getvalue() == g.dumps()

    def test_load_from_path_and_file_keeps_line_separators(self, tmp_path):
        g = PropertyGraph()
        g.add_node("Class", {"name": "A\u2028B\u2029C\x85D"})
        g.add_node("Class", {"name": "E\x85"})
        g.add_edge(1, 0, "has_superclass", {"note": "\u2028"})
        text = g.dumps()
        path = tmp_path / "graph.jsonl"
        dump(g, path)
        assert load(path).dumps() == text
        with open(path, encoding="utf-8", newline="\n") as fp:
            assert load(fp).dumps() == text
