"""Output checks: each compares against a computation made apart from lios,
or against a property the method must have. Every check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json

from lios.disasm import build_function, call_effects_from_sites, compute_effects, devirtualize
from lios.errors import EmptyRange
from lios.macho import parse_macho
from lios.objc import load_model
from lios.pipeline import discover_functions

ZERO_WORD = b"\x00\x00\x00\x00"


def _in_image_functions(graph) -> dict[int, object]:
    return {n.get("ea"): n for n in graph.nodes("Function") if not n.get("is_ext")}


def _instruction_count(graph, fn_id: int) -> int:
    return sum(len(graph.out_edges(bb.id, "instr")) for bb in graph.out_nodes(fn_id, "has_bb"))


def check_manifest(graph, manifest: dict, binary: bytes) -> list[str]:
    """Functions, instruction counts, classes and implements edges of a
    lifted perf_app against the generator manifest."""
    problems = []
    impl_names = {}
    for cls in manifest["classes"]:
        for sel, va in cls["impls"].items():
            marker = "+" if sel in cls["class_methods"] else "-"
            impl_names[va] = f"{marker}[{cls['name']} {sel}]"
    expected = {va: impl_names.get(va, name) for name, va in manifest["functions"].items()}
    nodes = _in_image_functions(graph)
    got = {ea: n.get("name") for ea, n in nodes.items()}
    if got != expected:
        missing = sorted(set(expected.items()) - set(got.items()))[:3]
        extra = sorted(set(got.items()) - set(expected.items()))[:3]
        problems.append(f"functions differ: missing {missing}, extra {extra}")

    base = manifest["base"]
    for name, (start, end) in manifest["function_ranges"].items():
        words = [binary[o:o + 4] for o in range(start - base, end - base, 4)]
        while len(words) > 1 and words[-1] == ZERO_WORD:
            words.pop()
        node = nodes.get(start)
        if node is not None and _instruction_count(graph, node.id) != len(words):
            problems.append(
                f"{name}: {_instruction_count(graph, node.id)} Instruction nodes, "
                f"{len(words)} instruction words"
            )

    want_classes = set()
    want_implements = set()
    for cls in manifest["classes"]:
        want_classes.add((cls["name"], cls["address"], False))
        want_classes.add((cls["name"], cls["meta_address"], True))
        for sel, va in cls["impls"].items():
            want_implements.add((va, sel, cls["name"]))
    got_classes = {
        (n.get("name"), n.get("ea"), n.get("is_meta"))
        for n in graph.nodes("Class")
        if not n.get("external")
    }
    if got_classes != want_classes:
        problems.append(f"Class nodes differ: {sorted(got_classes ^ want_classes)[:3]}")
    got_implements = {
        (graph.node(e.src).get("ea"), graph.node(e.dst).get("name"), graph.node(e.dst).get("owner"))
        for e in graph.edges("implements")
    }
    if got_implements != want_implements:
        problems.append(
            f"implements edges differ: {sorted(got_implements ^ want_implements)[:3]}"
        )
    return problems


def check_valid(graph) -> list[str]:
    return [f"validate(): {p}" for p in graph.validate()[:3]]


# ---------------------------------------------------------------------------
# use-def against a brute-force reaching-definitions search


class _LazyFunctions:
    """Function bodies by entry address, decoded on first use, so that
    devirtualizing a few functions does not decode the whole image.
    `devirtualize` only tests membership and indexes."""

    def __init__(self, image, model):
        self._image, self._model = image, model
        self._ranges = discover_functions(image, model)
        self._built: dict[int, object] = {}

    def _get(self, ea):
        if ea not in self._built:
            body = None
            if ea in self._ranges:
                start, end = self._ranges[ea]
                try:
                    body = build_function(self._image, start, end, model=self._model)
                except EmptyRange:
                    pass
            self._built[ea] = body
        return self._built[ea]

    def __getitem__(self, ea):
        body = self._get(ea)
        if body is None:
            raise KeyError(ea)
        return body

    def __contains__(self, ea) -> bool:
        return self._get(ea) is not None


def reaching_defs(fn, eff) -> set[tuple[int, int, str]]:
    """(use ea, def ea, location) for every definition that reaches a use.

    For each use it walks the instruction-level CFG backwards from the
    instruction's predecessors and stops on each path at the first
    instruction that defines the location. No dataflow fixpoint is involved.
    """
    preds: dict[int, list[int]] = {}
    for block in fn.blocks:
        eas = [ins.ea for ins in block.instructions]
        preds.setdefault(eas[0], [])
        for a, b in zip(eas, eas[1:]):
            preds[b] = [a]
    for block in fn.blocks:
        last = block.instructions[-1].ea
        for succ in block.successors:
            preds[succ].append(last)

    defs = {ea: {str(loc) for loc in locs} for ea, locs in eff.eff_defs.items()}
    edges = set()
    for ins in fn.instructions():
        for loc in {str(loc) for loc in eff.eff_uses[ins.ea]}:
            seen: set[int] = set()
            stack = list(preds[ins.ea])
            while stack:
                ea = stack.pop()
                if ea in seen:
                    continue
                seen.add(ea)
                if loc in defs.get(ea, ()):
                    edges.add((ins.ea, ea, loc))
                else:
                    stack.extend(preds[ea])
    return edges


def check_use_def(graph, binary: bytes, entries: list[int], depth: int = 2) -> list[str]:
    """`def` edges of the sampled functions against `reaching_defs`, with
    each instruction's defs and uses from `compute_effects` under the call
    effects the lift derives from devirtualization."""
    image = parse_macho(binary)
    model = load_model(image)
    functions = _LazyFunctions(image, model)
    nodes = _in_image_functions(graph)
    problems = []
    for entry in entries:
        fn = functions[entry]
        sites = devirtualize(fn, model, functions=functions, depth=depth)
        eff = compute_effects(fn, call_effects_from_sites(sites))
        want = reaching_defs(fn, eff)
        got = set()
        for bb in graph.out_nodes(nodes[entry].id, "has_bb"):
            for ins in graph.out_nodes(bb.id, "instr"):
                for e in graph.out_edges(ins.id, "def"):
                    got.add((ins.get("ea"), graph.node(e.dst).get("ea"), e.get("var")))
        if got != want:
            problems.append(
                f"{fn.name}: def edges differ from the search on "
                f"{len(got ^ want)} of {len(want)} edges"
            )
    return problems


# ---------------------------------------------------------------------------
# findings


def check_findings(findings, expected: list) -> list[str]:
    got = sorted([f.rule, f.severity] for f in findings)
    if got != expected:
        return [f"findings {got}, expected {expected}"]
    return []


def _is_subsequence(needle: list, haystack: list) -> bool:
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def check_bridge_evidence(graph, findings, chain: list[str]) -> list[str]:
    """Some evidence path of the bridge finding passes the calls the
    generator put on the taint chain, in order."""
    for f in findings:
        if f.rule != "webview-bridge":
            continue
        for path in f.evidence:
            called = [
                graph.node(e.dst).get("name")
                for nid in path
                for e in graph.out_edges(nid, "calls")
            ]
            if _is_subsequence(chain, called):
                return []
    return [f"no bridge evidence path passes {chain}"]


# ---------------------------------------------------------------------------
# queries, answered from the JSON lines of graph.jsonl


class DumpIndex:
    """The parts of a dumped graph the query oracle needs, read with `json`."""

    def __init__(self, path):
        self.label: dict[int, str] = {}
        self.props: dict[int, dict] = {}
        self.out: dict[int, dict[str, list[tuple[int, dict]]]] = {}
        with open(path, encoding="utf-8") as fp:
            next(fp)  # header
            for line in fp:
                rec = json.loads(line)
                if rec["t"] == "n":
                    self.label[rec["id"]] = rec["l"]
                    self.props[rec["id"]] = {
                        k: v for k, v in rec["p"].items() if k in ("name", "is_ext", "is_ep")
                    }
                else:
                    by_label = self.out.setdefault(rec["s"], {})
                    by_label.setdefault(rec["l"], []).append((rec["d"], rec["p"]))

    def ids(self, label: str) -> list[int]:
        return sorted(i for i, l in self.label.items() if l == label)

    def name(self, nid: int):
        return self.props[nid].get("name")

    def succ(self, nid: int, label: str) -> list[int]:
        return sorted(d for d, _p in self.out.get(nid, {}).get(label, ()))

    def edges(self, nid: int, label: str) -> list[tuple[int, dict]]:
        return self.out.get(nid, {}).get(label, [])

    def instructions(self, fid: int) -> list[int]:
        return [i for bb in self.succ(fid, "has_bb") for i in self.succ(bb, "instr")]

    def callees_of(self, iid: int) -> set:
        return {self.name(d) for d in self.succ(iid, "calls")}

    def tainted(self, fid: int, source: str, sink: str) -> bool:
        """A def chain links the return value of a call to `source` to an
        argument register (x0-x7) of a call to `sink`."""
        for sink_ins in self.instructions(fid):
            if sink not in self.callees_of(sink_ins):
                continue
            start = [d for d, p in self.edges(sink_ins, "def")
                     if p.get("var") in {f"x{i}" for i in range(8)}]
            seen: set[int] = set()
            while start:
                cur = start.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                if source in self.callees_of(cur):
                    return True
                start.extend(d for d, _p in self.edges(cur, "def"))
        return False


def _dedup(ids: list[int]) -> list[int]:
    return list(dict.fromkeys(ids))


def query_oracle(index: DumpIndex) -> dict[str, list[int]]:
    """Answers to `inputs.QUERIES`, as node ids in stream order."""
    functions = index.ids("Function")
    named = [f for f in functions if index.name(f) == "main"]
    main_callees = [c for f in named for c in index.succ(f, "calls")]
    return {
        'functions().calling("NSLog")': [
            f for f in functions
            if any("NSLog" in index.callees_of(i) for i in index.instructions(f))
        ],
        'functions().implementing("perform3")': [
            f for f in functions
            if any(index.name(m) == "perform3" for m in index.succ(f, "implements"))
        ],
        'entrypoints().out("calls").dedup()': _dedup(
            [c for f in functions if index.props[f].get("is_ep") for c in index.succ(f, "calls")]
        ),
        'classes().out("has_meth")': [
            m for c in index.ids("Class") for m in index.succ(c, "has_meth")
        ],
        "functions().has(is_ext, true)": [
            f for f in functions if index.props[f].get("is_ext") is True
        ],
        'functions().named("main").out("calls").out("calls").dedup()': _dedup(
            [d for c in main_callees for d in index.succ(c, "calls")]
        ),
        'functions().tainted("perf_fn_0", "perf_fn_9")': [
            f for f in functions if index.tainted(f, "perf_fn_0", "perf_fn_9")
        ],
        'functions().tainted("perf_fn_2", "NSLog")': [
            f for f in functions if index.tainted(f, "perf_fn_2", "NSLog")
        ],
        'functions().tainted("perf_fn_1", "-[Perf2 perform2]")': [
            f for f in functions if index.tainted(f, "perf_fn_1", "-[Perf2 perform2]")
        ],
    }


def check_queries(answers: dict[str, list[int]], index: DumpIndex) -> list[str]:
    oracle = query_oracle(index)
    problems = []
    for query, got in answers.items():
        if query not in oracle:
            problems.append(f"no oracle for {query}")
        elif got != oracle[query]:
            problems.append(f"{query}: {len(got)} results, oracle {len(oracle[query])}")
    return problems
