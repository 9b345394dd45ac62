"""Traversal combinators, core walks, and the query language."""

import random

import pytest

import lios.analyses  # noqa: F401  registers the `tainted` verb
from conftest import graph_bundle
from lios.errors import (
    LiosError,
    NotABasicBlock,
    NotAFunction,
    NotAnInstruction,
    QuerySyntaxError,
    UnknownLabel,
    UnknownStep,
)
from lios.fixtures import corpus
from lios.graph import PropertyGraph
from lios.traverse import (
    Query,
    Step,
    Traversal,
    _STEP_REGISTRY,
    callees,
    data_flow,
    entrypoints,
    eval_query,
    exe_paths,
    parse_query,
    reachables,
    register_step,
    run_query,
    step_dedup,
    step_filter,
    step_in,
    step_limit,
    step_out,
    successors,
)
from oracles import exe_paths_oracle, reachable_oracle


def call_graph(n: int, edges):
    g = PropertyGraph()
    for i in range(n):
        g.add_node("Function", {"ea": i, "name": f"f{i}", "is_ext": False})
    for s, d in edges:
        g.add_edge(s, d, "calls")
    return g


def random_call_graph(rng, max_nodes=40):
    n = rng.randint(1, max_nodes)
    m = rng.randint(0, 3 * n)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return call_graph(n, edges), n, edges


def traversal_pool(rng):
    return rng.choice(
        [
            step_out("calls"),
            step_in("calls"),
            Traversal.identity(),
            step_dedup(),
            step_filter(lambda node: node.get("ea", 0) % 2 == 0),
            step_limit(rng.randint(0, 6)),
        ]
    )


@pytest.fixture(scope="module")
def linked_suite():
    return graph_bundle(corpus.msgsend_suite, linked=True)


class TestMonoid:
    def test_composition_is_associative(self):
        rng = random.Random(11)
        for _ in range(60):
            g, n, _edges = random_call_graph(rng)
            a, b, c = (traversal_pool(rng) for _ in range(3))
            xs = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
            left = a.then(b).then(c)(g, xs)
            right = a.then(b.then(c))(g, xs)
            assert left == right

    def test_identity_is_neutral(self):
        rng = random.Random(12)
        ident = Traversal.identity()
        for _ in range(40):
            g, n, _edges = random_call_graph(rng)
            t = traversal_pool(rng)
            xs = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
            want = t(g, xs)
            assert ident.then(t)(g, xs) == want
            assert t.then(ident)(g, xs) == want

    def test_times_expands_to_repeated_composition(self):
        rng = random.Random(13)
        g, n, _edges = random_call_graph(rng)
        t = step_out("calls")
        xs = [rng.randrange(n) for _ in range(4)]
        assert t.times(0)(g, xs) == xs
        assert t.times(1)(g, xs) == t(g, xs)
        assert t.times(3)(g, xs) == t.then(t).then(t)(g, xs)
        with pytest.raises(ValueError):
            t.times(-1)

    def test_star_is_reflexive_and_saturated(self):
        rng = random.Random(14)
        t = step_out("calls")
        for _ in range(25):
            g, n, _edges = random_call_graph(rng)
            xs = sorted({rng.randrange(n) for _ in range(rng.randint(1, 4))})
            closed = t.star()(g, xs)
            assert len(set(closed)) == len(closed)
            assert set(xs) <= set(closed)
            assert set(t(g, closed)) <= set(closed)

    def test_star_terminates_on_cycles(self):
        g = call_graph(2, [(0, 1), (1, 0)])
        assert set(step_out("calls").star()(g, [0])) == {0, 1}

    def test_star_matches_bfs_oracle(self):
        rng = random.Random(15)
        t = step_out("calls")
        for _ in range(20):
            g, n, edges = random_call_graph(rng, max_nodes=60)
            start = rng.randrange(n)
            assert set(t.star()(g, [start])) == reachable_oracle(n, edges, start)


class TestCore:
    def test_entrypoints_reads_both_spellings(self):
        g = PropertyGraph()
        a = g.add_node("Function", {"ea": 1, "name": "a", "is_ep": True})
        b = g.add_node("Function", {"ea": 2, "name": "b", "is_entrypoint": True})
        g.add_node("Function", {"ea": 3, "name": "c", "is_ext": False})
        assert [n.id for n in entrypoints(g)] == [a, b]

    def test_callees_deduped_in_id_order(self):
        g = call_graph(4, [(0, 3), (0, 1), (0, 3)])
        assert [n.id for n in callees(g, 0)] == [1, 3]

    def test_callees_rejects_non_functions(self):
        g = PropertyGraph()
        bb = g.add_node("BasicBlock", {"ea": 4})
        with pytest.raises(NotAFunction):
            callees(g, bb)
        with pytest.raises(NotAFunction):
            callees(g, 999)

    def test_reachables_includes_start_and_handles_cycles(self):
        g = call_graph(3, [(0, 1), (1, 0)])
        assert {n.id for n in reachables(g, 0)} == {0, 1}
        assert {n.id for n in reachables(g, 2)} == {2}

    def test_reachables_matches_bfs_oracle(self):
        rng = random.Random(21)
        for _ in range(20):
            g, n, edges = random_call_graph(rng, max_nodes=60)
            start = rng.randrange(n)
            got = {x.id for x in reachables(g, start)}
            assert got == reachable_oracle(n, edges, start)

    def test_successors_ea_order_and_type_check(self):
        g = PropertyGraph()
        a = g.add_node("BasicBlock", {"ea": 0x100})
        hi = g.add_node("BasicBlock", {"ea": 0x300})
        lo = g.add_node("BasicBlock", {"ea": 0x200})
        g.add_edge(a, hi, "succ")
        g.add_edge(a, lo, "succ")
        assert [n.id for n in successors(g, a)] == [lo, hi]
        f = g.add_node("Function", {"ea": 1, "name": "f"})
        with pytest.raises(NotABasicBlock):
            successors(g, f)


def block_graph(succ: dict[int, list[int]], count: int) -> PropertyGraph:
    g = PropertyGraph()
    for i in range(count):
        g.add_node("BasicBlock", {"ea": 0x1000 + 4 * i})
    for src, dsts in succ.items():
        for d in dsts:
            g.add_edge(src, d, "succ")
    return g


class TestExePaths:
    def test_linear_chain(self):
        g = block_graph({0: [1], 1: [2]}, 3)
        assert exe_paths(g, 0) == [(0, 1, 2)]

    def test_diamond_orders_by_block_address(self):
        g = block_graph({0: [2, 1], 1: [3], 2: [3]}, 4)
        assert exe_paths(g, 0) == [(0, 1, 3), (0, 2, 3)]

    def test_loops_unroll_to_the_bound(self):
        g = block_graph({0: [0]}, 1)
        assert exe_paths(g, 0, l_max=5) == [(0, 0, 0, 0, 0)]

    def test_bound_of_one_keeps_entry_only(self):
        g = block_graph({0: [1]}, 2)
        assert exe_paths(g, 0, l_max=1) == [(0,)]

    def test_invalid_inputs(self):
        g = block_graph({}, 1)
        with pytest.raises(ValueError):
            exe_paths(g, 0, l_max=0)
        f = g.add_node("Function", {"ea": 1, "name": "f"})
        with pytest.raises(NotABasicBlock):
            exe_paths(g, f)

    def test_matches_dfs_oracle_on_random_dags(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(1, 12)
            succ = {
                i: sorted(
                    {j for j in range(i + 1, n) if rng.random() < 0.4}
                )
                for i in range(n)
            }
            g = block_graph(succ, n)
            l_max = rng.choice([1, 2, 3, 6, 64])
            got = exe_paths(g, 0, l_max=l_max)
            want = exe_paths_oracle(succ, 0, l_max)
            assert got == want


class TestDataFlow:
    def flow_graph(self):
        g = PropertyGraph()
        ids = [g.add_node("Instruction", {"ea": 4 * i}) for i in range(5)]
        i0, i1, i2, i3, i4 = ids
        g.add_edge(i4, i2, "def", {"var": "x0"})
        g.add_edge(i4, i3, "def", {"var": "x1"})
        g.add_edge(i2, i1, "def", {"var": "x2"})
        g.add_edge(i1, i0, "def", {"var": "x3"})
        g.add_edge(i3, i0, "def", {"var": "x4"})
        return g, ids

    def test_first_hop_filters_by_variable(self):
        g, (i0, i1, i2, i3, i4) = self.flow_graph()
        assert [n.id for n in data_flow(g, i4, "x0")] == [i2, i1, i0]
        assert [n.id for n in data_flow(g, i4, "x1")] == [i3, i0]
        assert data_flow(g, i4, "x9") == []

    def test_visited_guard_stops_cycles(self):
        g, (i0, _i1, i2, _i3, i4) = self.flow_graph()
        g.add_edge(i0, i2, "def", {"var": "x5"})
        got = [n.id for n in data_flow(g, i4, "x0")]
        assert got == [i2, _i1, i0]

    def test_rejects_non_instructions(self):
        g, _ids = self.flow_graph()
        f = g.add_node("Function", {"ea": 1, "name": "f"})
        with pytest.raises(NotAnInstruction):
            data_flow(g, f, "x0")


class TestSuiteWalks:
    def test_entrypoints_are_main_only(self, linked_suite):
        manifest, image, model, functions, g = linked_suite
        got = {n.get("ea") for n in entrypoints(g)}
        assert got == {
            manifest["function_ranges"][n][0]
            for n in manifest["entry_functions"]
        }

    def test_reachable_externals_match_manifest(self, linked_suite):
        manifest, image, model, functions, g = linked_suite
        main = g.find_nodes("Function", "ea", manifest["function_ranges"]["main"][0])[0]
        names = {
            n.get("name") for n in reachables(g, main) if n.get("is_ext")
        }
        assert names == set(manifest["reachable_externals"])

    def test_dead_code_not_reachable(self, linked_suite):
        manifest, image, model, functions, g = linked_suite
        main = g.find_nodes("Function", "ea", manifest["function_ranges"]["main"][0])[0]
        reach = {n.get("ea") for n in reachables(g, main)}
        dead_ea = manifest["function_ranges"]["dead_code"][0]
        assert main.get("ea") in reach
        assert dead_ea not in reach


class TestParse:
    def test_shape(self):
        q = parse_query('functions().named("main").limit(3)')
        assert q == Query(
            "functions",
            (Step("named", ("main",), 12), Step("limit", (3,), 26)),
        )

    def test_unfinished_call_points_at_open_paren(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("functions().calling(")
        assert exc.value.position == 19

    def test_unknown_source(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("widgets()")
        assert exc.value.position == 0
        assert "functions" in exc.value.expected

    def test_unclosed_source_call(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("functions(")
        assert exc.value.position == 9

    def test_trailing_input(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("functions()x")
        assert exc.value.position == 11

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query('functions().named("x')
        assert exc.value.position == 18

    def test_string_escapes(self):
        q = parse_query('functions().named("a\\"b\\\\c\\n")')
        assert q.steps[0].args == ('a"b\\c\n',)

    def test_positions_are_byte_offsets(self):
        text = 'functions().named("é")x'
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query(text)
        assert exc.value.position == len(text[:-1].encode("utf-8"))

    def test_arity_errors(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("functions().named()")
        with pytest.raises(QuerySyntaxError):
            parse_query('functions().named("a", "b")')
        with pytest.raises(QuerySyntaxError):
            parse_query('functions().limit("a")')
        with pytest.raises(QuerySyntaxError):
            parse_query("functions().limit(-1)")
        with pytest.raises(QuerySyntaxError):
            parse_query("functions().limit(true)")
        # a hand-built query is checked when it runs, registered verbs too
        for step in (Step("tainted", ("a",), 12), Step("limit", (-1,), 12)):
            with pytest.raises(QuerySyntaxError):
                eval_query(PropertyGraph(), Query("functions", (step,)))

    @pytest.mark.parametrize(
        "text, position",
        [
            ('functions().tainted("a")', 12),
            ("functions().tainted(1, 2)", 12),
            ("functions().limit(²)", 18),
            ("functions().limit(99999999999999999999)", 12),
            ('functions().has("ea", ' + "1" * 5000 + ")", 22),
        ],
    )
    def test_former_crashes_are_syntax_errors(self, text, position):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query(text)
        assert exc.value.position == position

    def test_unicode_decimal_digits_are_an_int(self):
        q = parse_query("functions().limit(٣)")
        assert q.steps == (Step("limit", (3,), 12),)

    def test_bare_identifier_arguments(self):
        q = parse_query("functions().has(is_ep, true).out(calls)")
        assert q.steps[0].args == ("is_ep", True)
        assert q.steps[1].args == ("calls",)

    def test_negative_integers_allowed_in_has(self):
        q = parse_query('functions().has("ea", -1)')
        assert q.steps[0].args == ("ea", -1)


class TestEval:
    def test_named_finds_main(self, linked_suite):
        manifest, image, model, functions, g = linked_suite
        got = run_query(g, 'functions().named("main")')
        assert [n.get("ea") for n in got] == [
            manifest["function_ranges"]["main"][0]
        ]

    def test_entrypoints_source_matches_helper(self, linked_suite):
        manifest, image, model, functions, g = linked_suite
        assert [n.id for n in run_query(g, "entrypoints()")] == [
            n.id for n in entrypoints(g)
        ]

    def test_unknown_step_raises(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        with pytest.raises(UnknownStep):
            run_query(g, "functions().frobnicate()")

    def test_unknown_edge_label_raises(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        with pytest.raises(UnknownLabel):
            run_query(g, 'functions().out("zap")')

    def test_calling_matches_manifest(self, linked_suite):
        manifest, image, model, functions, g = linked_suite
        got = {n.get("ea") for n in run_query(g, 'functions().calling("malloc")')}
        want = set()
        for name, entries in manifest["expected_calls"].items():
            if any(e["target_name"] == "malloc" for e in entries):
                want.add(manifest["function_ranges"][name][0])
        assert got == want

    def test_calling_uses_post_devirtualization_names(self, linked_suite):
        manifest, image, model, functions, g = linked_suite
        got = {n.get("ea") for n in run_query(g, 'functions().calling("doWork")')}
        assert got == {manifest["function_ranges"]["site_unknown_recv"][0]}

    def test_repeat_runs_identical(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        text = 'functions().out("has_bb").out("instr").limit(40)'
        first = [n.id for n in run_query(g, text)]
        second = [n.id for n in run_query(g, text)]
        assert first == second

    def test_register_step_round_trip(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite

        def take_externals(graph, stream):
            for x in stream:
                if graph.node(x).get("is_ext"):
                    yield x

        register_step("externals_only", take_externals)
        try:
            got = run_query(g, "functions().externals_only().dedup()")
            assert got and all(n.get("is_ext") for n in got)
        finally:
            _STEP_REGISTRY.pop("externals_only")

    def test_register_step_cannot_shadow_builtins(self):
        with pytest.raises(ValueError):
            register_step("dedup", lambda graph, stream: stream)


_FUZZ_STEPS = ("calling", "named", "implementing", "has", "out", "in", "dedup",
               "limit", "tainted", "frob")
_FUZZ_ARGS = ('"main"', '"calls"', '"a\\"b"', "calls", "has_bb", "0", "-3", "٣",
              "²", "99999999999999999999", "true", "x")
_FUZZ_NOISE = ("(", ")", ".", ",", '"', "\\", "-", "é", " ")


def random_query(rng) -> str:
    """A source and up to four steps, some of them with one character of noise."""
    parts = [rng.choice(("functions", "classes", "entrypoints")), "()"]
    for _ in range(rng.randint(0, 4)):
        args = ", ".join(rng.choice(_FUZZ_ARGS) for _ in range(rng.randint(0, 2)))
        parts.append(f".{rng.choice(_FUZZ_STEPS)}({args})")
    text = "".join(parts)
    if rng.random() < 0.3:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(_FUZZ_NOISE) + text[i + rng.randint(0, 1):]
    return text


def test_random_queries_raise_only_lios_errors(linked_suite):
    _m, _i, _mo, _f, g = linked_suite
    rng = random.Random(10)
    for _ in range(3000):
        text = random_query(rng)
        try:
            run_query(g, text)
        except LiosError:
            pass


class TestShortcutExpansions:
    """Every DSL shortcut equals its hand-written traversal expansion."""

    def test_calling(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        dsl = [n.id for n in run_query(g, 'functions().calling("malloc")')]
        raw = []
        for fn in g.nodes("Function"):
            hit = False
            for bb in g.out_nodes(fn.id, "has_bb"):
                for ins in g.out_nodes(bb.id, "instr"):
                    for e in g.out_edges(ins.id, "calls"):
                        if g.node(e.dst).get("name") == "malloc":
                            hit = True
            if hit:
                raw.append(fn.id)
        assert dsl == raw

    def test_named(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        dsl = [n.id for n in run_query(g, 'functions().named("main")')]
        raw = [n.id for n in g.nodes("Function") if n.get("name") == "main"]
        assert dsl == raw

    def test_entrypoints_source(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        dsl = [n.id for n in run_query(g, "entrypoints()")]
        alias = [n.id for n in run_query(g, "functions().has(is_entrypoint, true)")]
        raw = [
            n.id
            for n in g.nodes("Function")
            if n.get("is_ep") or n.get("is_entrypoint")
        ]
        assert dsl == raw == alias

    def test_implementing(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        dsl = [n.id for n in run_query(g, 'functions().implementing("doWork")')]
        raw = [
            fn.id
            for fn in g.nodes("Function")
            if any(
                m.get("name") == "doWork"
                for m in g.out_nodes(fn.id, "implements")
            )
        ]
        assert dsl == raw and dsl

    def test_out_and_in(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        dsl = [n.id for n in run_query(g, 'classes().out("has_meth")')]
        raw = []
        for cls in g.nodes("Class"):
            raw.extend(
                n.id
                for n in sorted(
                    g.out_nodes(cls.id, "has_meth"), key=lambda n: n.id
                )
            )
        assert dsl == raw
        dsl_in = [n.id for n in run_query(g, 'functions().in("has_func")')]
        raw_in = []
        for fn in g.nodes("Function"):
            raw_in.extend(
                n.id
                for n in sorted(
                    g.in_nodes(fn.id, "has_func"), key=lambda n: n.id
                )
            )
        assert dsl_in == raw_in

    def test_has(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        dsl = [n.id for n in run_query(g, 'functions().has("is_ext", true)')]
        raw = [n.id for n in g.nodes("Function") if n.get("is_ext") is True]
        assert dsl == raw and dsl

    def test_dedup_and_limit(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        base = 'functions().out("calls")'
        full = [n.id for n in run_query(g, base)]
        deduped = [n.id for n in run_query(g, base + ".dedup()")]
        seen, raw = set(), []
        for i in full:
            if i not in seen:
                seen.add(i)
                raw.append(i)
        assert deduped == raw
        limited = [n.id for n in run_query(g, base + ".limit(5)")]
        assert limited == full[:5]

    def test_eval_query_matches_run_query(self, linked_suite):
        _m, _i, _mo, _f, g = linked_suite
        text = 'classes().out("has_meth").limit(7)'
        assert [n.id for n in eval_query(g, parse_query(text))] == [
            n.id for n in run_query(g, text)
        ]
