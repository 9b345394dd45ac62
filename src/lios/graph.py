"""Labeled property multi-graph: storage, frontend assembly, passes, persistence.

The graph unifies three frontends (loader, class hierarchy, disassembly)
behind one store. Nodes and edges carry free-form properties. The node
labels, the edge alphabet, its endpoint domains and the property types are
checked by one writer per record kind, `_append_node` and `_append_edge`:
`add_node` and `add_edge` call them, and so does `loads`, which rebuilds
the store in one pass and reports the dump line of a malformed record.
`validate` re-checks each edge through the same rule.

The store keeps each fact once. Ids are dense: node ids run from 0 in
insertion order, and an edge's id is its index in the edge list, which is
what `add_edge` returns and what the dump's order implies; an edge does not
hold it. The nodes and the edges are lists indexed by id, and the two
writers are the only code that writes them. Adjacency is not kept per node:
the first read of a direction after a write sorts the edges by source or by
destination, stably so that each node's stay in id order, and keeps that
list with an array of where each node's edges start in it (compressed
sparse row); every write drops both. Edges with equal label and equal text
properties share one read-only mapping, whether they were added or
reloaded; every edge without properties shares one empty mapping, and edges
with other property values get one each. Edge properties are never mutated.
A node holds only a tuple of values and a layout, one per key set, that the
store shares among all nodes with those keys (the maps of SELF, or
CPython's key-sharing dicts): it gives each key's position and its quoted
dump text, in sorted order. `Node.properties` is a read-only copy;
`set_node_prop` writes a new tuple and moves the node to the layout of its
new key set. `build_from_frontends` gives all instructions with equal uses
one `uses` text, and equal `asm` texts and instruction words one object
each, through one memo per lift; a reload maps each label to the canonical
label object and sends `asm` and `uses` texts and bytes through one memo
per load, so that each repeated value is held once. The disassembly's
location sets are shared frozensets too (`disasm._locs`).

A dump (format v1) is one header line, then one JSON object per line: the
nodes in id order, then the edges in id order. The nodes' ids are 0..n-1
in order; `loads` rejects any other node id. Each record is written
straight from a format string per record kind, with the keys in sorted
order (a node's from its layout), and streamed to the file line by line;
`dumps` joins the same lines. `load` and `loads` share one reader that
takes the lines one at a time, so a file is never held in memory whole.
Only a line feed ends a record: text properties may hold U+0085 and
U+2028/9 raw.
"""

from __future__ import annotations

import binascii
import gc
import json
import sys
from array import array
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import attrgetter, itemgetter
from types import MappingProxyType

from .disasm import (
    CallSite,
    call_effects_from_sites,
    compute_effects,
    compute_use_def,
    devirtualize,
    function_name,
    resolve_constant,
)
from .errors import (
    GraphError,
    LabelDomainViolation,
    MalformedDump,
    MissingEndpoint,
    UnknownLabel,
)

DUMP_HEADER = "lios-graph v1"

NODE_LABELS = frozenset(
    {
        "Program",
        "Function",
        "Method",
        "Class",
        "Protocol",
        "BasicBlock",
        "Instruction",
        "Ivar",
    }
)

# edge label -> (allowed source labels, allowed destination labels)
EDGE_RULES: dict[str, tuple[frozenset, frozenset]] = {
    "implements": (frozenset({"Function"}), frozenset({"Method"})),
    "succ": (frozenset({"BasicBlock"}), frozenset({"BasicBlock"})),
    "def": (frozenset({"Instruction"}), frozenset({"Instruction"})),
    # call sites contribute instruction-level call edges; the function-level
    # projection is kept alongside for whole-graph reachability
    "calls": (frozenset({"Function", "Instruction"}), frozenset({"Function"})),
    "has_superclass": (frozenset({"Class"}), frozenset({"Class"})),
    # protocols may inherit protocols, so both appear in the domain
    "has_protocol": (frozenset({"Class", "Protocol"}), frozenset({"Protocol"})),
    "isa": (frozenset({"Class"}), frozenset({"Class"})),
    "has_meth": (frozenset({"Class", "Protocol"}), frozenset({"Method"})),
    "has_bb": (frozenset({"Function"}), frozenset({"BasicBlock"})),
    "instr": (frozenset({"BasicBlock"}), frozenset({"Instruction"})),
    "xref": (
        frozenset({"Instruction"}),
        frozenset({"Function", "Instruction", "Ivar", "BasicBlock", "Class"}),
    ),
    "has_func": (frozenset({"Program"}), frozenset({"Function"})),
}

_SCALARS = (str, bool, int, bytes)

# keys with a fixed type when present on a given label; other keys are
# admitted unchecked for extensibility
_KNOWN_KEYS: dict[str, dict[str, type | tuple]] = {
    "Program": {"ea": int, "name": str, "entltl": str, "info": str},
    "Function": {"ea": int, "name": str, "is_ext": bool, "is_ep": bool},
    "Method": {"name": str},
    "Class": {"name": str},
    "Protocol": {"name": str},
    "BasicBlock": {"ea": int},
    "Instruction": {"ea": int, "bytes": bytes, "asm": str},
    "Ivar": {"ea": int},
}

DEFAULT_DELEGATE_PROTOCOLS = frozenset(
    {"UIApplicationDelegate", "UIWebViewDelegate", "WKNavigationDelegate"}
)

# one dump record per line, keys in sorted order; the label is quoted once
# per label, and a shared decoder skips the whitespace passes of json.loads
_quote = json.encoder.encode_basestring
_NODE_RECORD = {
    label: '{"id":%%d,"l":%s,"p":%%s,"t":"n"}\n' % _quote(label)
    for label in NODE_LABELS
}
_EDGE_RECORD = {
    label: '{"d":%%d,"l":%s,"p":%%s,"s":%%d,"t":"e"}\n' % _quote(label)
    for label in EDGE_RULES
}
_SCAN = json.JSONDecoder().scan_once

# the canonical label objects, looked up by a label read from a dump
_NODE_LABEL = {label: label for label in NODE_LABELS}
_EDGE_LABEL = {label: label for label in EDGE_RULES}

# the properties of every edge that has none; read-only, as it is shared
_NO_PROPERTIES: Mapping = MappingProxyType({})


@contextmanager
def paused_gc():
    """Keep CPython's cyclic garbage collector off inside the block.

    Building or reloading a graph allocates hundreds of thousands of
    objects, and each full collection the allocations trigger walks all of
    them. Nodes, edges and the frontend records hold no reference cycles,
    so those collections free nothing; reference counting frees the rest.
    The caller's collector state is restored on return and on error, and
    nested use keeps the collector off. Mercurial's `util.nogc` is the same
    technique.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Layout(dict):
    """One key set of nodes: key -> the position of its value. `fields` holds
    the keys in sorted order, the dump's, and `dump_keys` each one quoted as
    JSON with its colon."""

    __slots__ = ("fields", "dump_keys")

    def __init__(self, fields: tuple):
        super().__init__(zip(fields, range(len(fields))))
        self.fields = fields
        self.dump_keys = tuple(_quote(key) + ":" for key in fields)


@dataclass(slots=True)
class Node:
    """A node: its properties are `values`, keyed by its shared `layout`."""

    id: int
    label: str
    layout: _Layout
    values: tuple

    @property
    def properties(self) -> Mapping:
        """A read-only copy of the node's properties, in sorted key order."""
        return MappingProxyType(dict(zip(self.layout.fields, self.values)))

    def get(self, key, default=None):
        i = self.layout.get(key)
        return default if i is None else self.values[i]


@dataclass(slots=True)
class Edge:
    """A labeled edge; its id is its index in the store's edge list."""

    src: int
    dst: int
    label: str
    properties: Mapping

    def get(self, key, default=None):
        return self.properties.get(key, default)


def _check_properties(label: str, items) -> None:
    """Raise `TypeError` unless each (key, value) of `items` is admitted."""
    known = _KNOWN_KEYS.get(label, {})
    for key, value in items:
        want = known.get(key)
        if type(value) is want:
            continue
        if not isinstance(value, _SCALARS):
            raise TypeError(
                f"{label}.{key}: property values are text/int/bool/bytes, "
                f"not {type(value).__name__}"
            )
        if want is None:
            continue
        if want is int and isinstance(value, bool):
            raise TypeError(f"{label}.{key}: expected int, got bool")
        if not isinstance(value, want):
            raise TypeError(
                f"{label}.{key}: expected {want.__name__}, "
                f"got {type(value).__name__}"
            )


def _fields(_label: str, properties: Mapping) -> tuple[tuple, tuple]:
    """The keys and the values of the properties a caller hands the store."""
    if type(properties) is not dict:
        properties = dict(properties)
    return tuple(properties), tuple(properties.values())


class PropertyGraph:
    def __init__(self):
        self._nodes: list[Node] = []
        self._edges: list[Edge] = []
        self._by_label: dict[str, list[int]] = {}
        # adjacency by source and by destination, made at the first read
        # after a write (`_adjacency`); each writer drops both
        self._by_src = self._by_dst = None
        # (label, *properties.items()) -> the read-only mapping of every edge
        # with that label and those text properties
        self._shared: dict[tuple, Mapping] = {}
        # a record's keys in its order -> (their layout, the getter of its
        # values in the layout's order or None, the checked (label, *types))
        self._layouts: dict[tuple, tuple[_Layout, itemgetter | None, set]] = {}
        self.warnings: list[str] = []

    # ---- mutation ----

    def _layout(self, fields: tuple) -> tuple[_Layout, itemgetter | None, set]:
        """The `_layouts` entry of the keys `fields`, made when missing."""
        found = self._layouts.get(fields)
        if found is None:
            if not all(type(key) is str for key in fields):
                raise TypeError(f"property keys are text, not {fields!r}")
            canonical = tuple(sorted(map(sys.intern, fields)))
            layout = self._layouts.setdefault(canonical, (_Layout(canonical), None, set()))[0]
            # two keys at least when the orders differ, so the getter
            # returns a tuple
            order = None if canonical == fields else itemgetter(*map(fields.index, canonical))
            found = self._layouts.setdefault(fields, (layout, order, set()))
        return found

    def _append_node(self, name, props, fields_of) -> int:
        """Store a node under the next id; the one node writer.
        `fields_of(label, props)` returns the record's keys and values. The
        type check depends on the label and the value types only, so it runs
        once per label, key order and value types."""
        try:
            label = _NODE_LABEL[name]
        except (KeyError, TypeError):
            raise UnknownLabel(f"unknown node label {name!r}") from None
        fields, values = fields_of(label, props)
        layout, order, admitted = self._layouts.get(fields) or self._layout(fields)
        kinds = (label, *map(type, values))
        if kinds not in admitted:
            _check_properties(label, zip(fields, values))
            admitted.add(kinds)
        if order is not None:
            values = order(values)
        node_id = len(self._nodes)
        self._nodes.append(Node(node_id, label, layout, values))
        self._by_label.setdefault(label, []).append(node_id)
        self._by_src = self._by_dst = None
        return node_id

    def _edge_label(self, src, dst, name) -> str:
        """The canonical label of an edge `name` from `src` to `dst`; the
        edge rule. Raises the `GraphError` of the first check it fails."""
        try:
            label = _EDGE_LABEL[name]
        except (KeyError, TypeError):
            raise UnknownLabel(f"unknown edge label {name!r}") from None
        nodes = self._nodes
        n = len(nodes)
        if not (type(src) is type(dst) is int and 0 <= src < n and 0 <= dst < n):
            raise MissingEndpoint(f"edge {label} endpoints {src!r}->{dst!r} are not node ids")
        domain, codomain = EDGE_RULES[label]
        src_label, dst_label = nodes[src].label, nodes[dst].label
        if src_label not in domain or dst_label not in codomain:
            raise LabelDomainViolation(f"{label}: {src_label} -> {dst_label} not allowed")
        return label

    def _append_edge(self, src, dst, name, props, fields_of) -> int:
        """Store an edge under the next id; the one edge writer.

        Edges without properties share one empty mapping, and edges with
        equal label and equal text properties one read-only mapping; any
        other gets the checked keys and values `fields_of(label, props)`
        returns.
        """
        label = self._edge_label(src, dst, name)
        if not props and (props is _NO_PROPERTIES or type(props) is dict):
            shared = _NO_PROPERTIES
        else:
            try:
                key = (label, *props.items())
                shared = self._shared.get(key)
            except (AttributeError, TypeError):  # not a mapping, or unhashable
                key = shared = None
            if shared is None:
                fields, values = fields_of(label, props)
                _check_properties(label, zip(fields, values))
                shared = MappingProxyType(dict(zip(fields, values)))
                # only text: True == 1 == 1.0 hash alike, but no text equals
                # any of them, so a hit is never mistyped
                if key is not None and all(type(v) is str for v in values):
                    self._shared[(label, *shared.items())] = shared
        # the nodes' own id ints: a reload then holds no copy of them
        nodes = self._nodes
        edge = Edge(nodes[src].id, nodes[dst].id, label, shared)
        self._edges.append(edge)
        self._by_src = self._by_dst = None
        return len(self._edges) - 1

    def add_node(self, label: str, properties: dict | None = None) -> int:
        return self._append_node(label, properties or {}, _fields)

    def set_node_prop(self, node_id: int, key: str, value) -> None:
        """Set one property; a new key moves the node to the layout of its
        new key set."""
        node = self.node(node_id)
        _check_properties(node.label, ((key, value),))
        layout, values = node.layout, node.values
        i = layout.get(key)
        if i is None:
            layout = node.layout = self._layout((*layout.fields, key))[0]
            i = layout[key]
            node.values = (*values[:i], value, *values[i:])
        else:
            node.values = (*values[:i], value, *values[i + 1 :])

    def add_edge(
        self, src: int, dst: int, label: str, properties: dict | None = None
    ) -> int:
        return self._append_edge(
            src, dst, label, properties or _NO_PROPERTIES, _fields
        )

    # ---- access ----

    def node(self, node_id: int) -> Node:
        nodes = self._nodes
        if 0 <= node_id < len(nodes):
            return nodes[node_id]
        raise KeyError(node_id)

    def has_node(self, node_id: int) -> bool:
        return isinstance(node_id, int) and 0 <= node_id < len(self._nodes)

    def nodes(self, label: str | None = None):
        if label is None:
            return list(self._nodes)
        nodes = self._nodes
        return [nodes[i] for i in self._by_label.get(label, [])]

    def edges(self, label: str | None = None):
        if label is None:
            return list(self._edges)
        return [e for e in self._edges if e.label == label]

    def _adjacency(self, end: str) -> tuple[array, list[Edge]]:
        """(starts, grouped), stored as `_by_<end>`: the edges grouped by
        their `end` node, "src" or "dst", each group in edge-id order, so that
        node v's are grouped[starts[v]:starts[v + 1]]. An edge whose
        endpoints are not both node ids, which only a write past
        `_append_edge` can leave, is left out."""
        edges, n = self._edges, len(self._nodes)
        for ends in (list(map(attrgetter(e), edges)) for e in ("src", "dst")):
            if ends and not (set(map(type, ends)) == {int} and 0 <= min(ends) <= max(ends) < n):
                edges = [e for e in edges if type(e.src) is type(e.dst) is int
                         and 0 <= e.src < n and 0 <= e.dst < n]
                break
        key, counts = attrgetter(end), [0] * (n + 1)
        for k in map(key, edges):
            counts[k + 1] += 1
        # a stable sort keeps each group in edge-id order
        index = array("q", accumulate(counts)), sorted(edges, key=key)
        setattr(self, "_by_" + end, index)
        return index

    def _adjacent(self, index: tuple[array, list[Edge]], node_id: int, label: str | None):
        """Node `node_id`'s edges in one direction's `index`."""
        starts, grouped = index
        if not 0 <= node_id < len(starts) - 1:
            return []
        found = grouped[starts[node_id] : starts[node_id + 1]]
        return found if label is None else [e for e in found if e.label == label]

    def out_edges(self, node_id: int, label: str | None = None):
        return self._adjacent(self._by_src or self._adjacency("src"), node_id, label)

    def in_edges(self, node_id: int, label: str | None = None):
        return self._adjacent(self._by_dst or self._adjacency("dst"), node_id, label)

    def out_nodes(self, node_id: int, label: str):
        return [self._nodes[e.dst] for e in self.out_edges(node_id, label)]

    def in_nodes(self, node_id: int, label: str):
        return [self._nodes[e.src] for e in self.in_edges(node_id, label)]

    def find_nodes(self, label: str, key: str, value):
        return [n for n in self.nodes(label) if n.get(key) == value]

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edges)

    def validate(self) -> list[str]:
        """Whole-graph re-check; empty list when well-formed.

        Each edge is re-checked by the rule its writer applies, and its
        property types as well. Beyond that, every instruction-level `calls`
        edge must have a function-level twin: a `calls` edge to the same
        target from each function that holds the instruction, found through
        the instruction's in-edges (`instr` from its blocks, then `has_bb`
        from theirs). `analyses.tainted` relies on it. Problems come in
        edge-id order.
        """
        problems = []
        rule, checked, into = self._edge_label, set(), self.in_edges
        calls = {(e.src, e.dst) for e in self._edges if e.label == "calls"}
        for i, e in enumerate(self._edges):
            try:
                rule(e.src, e.dst, e.label)
                # a shared mapping needs its check once
                if (e.label, id(e.properties)) not in checked:
                    _check_properties(e.label, e.properties.items())
                    checked.add((e.label, id(e.properties)))
            except (GraphError, TypeError) as exc:
                problems.append(f"edge {i}: {exc}")
                continue
            if e.label != "calls":
                continue
            for instr in into(e.src, "instr"):
                for has_bb in into(instr.src, "has_bb"):
                    fn = has_bb.src
                    if (fn, e.dst) not in calls:
                        problems.append(
                            f"edge {i}: calls from instruction {e.src} "
                            f"has no twin from its function {fn}"
                        )
        return problems

    def stats(self) -> dict:
        by_label = self._by_label
        edges = Counter(e.label for e in self._edges)
        return {
            "nodes": {label: len(by_label[label]) for label in sorted(by_label)},
            "edges": dict(sorted(edges.items())),
            "node_total": len(self._nodes),
            "edge_total": len(self._edges),
            "property_total": sum(len(n.values) for n in self._nodes)
            + sum(len(e.properties) for e in self._edges),
        }

    # ---- persistence ----

    def _dump_lines(self):
        """The dump's lines in order, each ending in a line feed."""
        yield DUMP_HEADER + "\n"
        for node in self._nodes:
            yield _NODE_RECORD[node.label] % (
                node.id, _format_fields(node.layout.dump_keys, node.values)
            )
        # the text of each property mapping, which edges share
        texts: dict[int, str] = {}
        for edge in self._edges:
            props = edge.properties
            text = texts.get(id(props))
            if text is None:
                text = texts[id(props)] = _format_props(props)
            yield _EDGE_RECORD[edge.label] % (edge.dst, text, edge.src)

    def dumps(self) -> str:
        return "".join(self._dump_lines())

    @classmethod
    def loads(cls, text: str) -> "PropertyGraph":
        """Rebuild a store from `dumps` output in one pass.

        Each record goes through the writer `add_node` or `add_edge` uses;
        any malformed record raises `MalformedDump` with its line.
        """
        # not splitlines(): text properties may hold U+0085 and U+2028/9 raw
        return cls._load_lines(text.split("\n"))

    @classmethod
    @paused_gc()
    def _load_lines(cls, lines) -> "PropertyGraph":
        """The store that an iterable of dump lines describes; see `loads`."""
        g = cls()
        nodes = g._nodes
        append_node, append_edge = g._append_node, g._append_edge
        # for this load only: one object per distinct `asm` and `uses` text
        # and per distinct bytes
        decode = partial(_decode_props, {}.setdefault)
        lines = iter(lines)
        if next(lines, "").strip() != DUMP_HEADER:
            raise MalformedDump(f"missing `{DUMP_HEADER}` header", 1)
        for number, line in enumerate(lines, 2):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _SCAN(line, 0)
            except StopIteration:
                raise MalformedDump("expecting a JSON value", number) from None
            except json.JSONDecodeError as exc:
                raise MalformedDump(str(exc), number) from exc
            if end != len(line):
                raise MalformedDump(f"extra data at column {end + 1}", number)
            if type(rec) is not dict or "t" not in rec:
                raise MalformedDump("record is not an object with 't'", number)
            try:
                kind = rec["t"]
                if kind == "n":
                    node_id = rec["id"]
                    if type(node_id) is not int or node_id != len(nodes):
                        raise GraphError(f"node id {node_id!r}, expected {len(nodes)}")
                    append_node(rec["l"], rec.get("p", {}), decode)
                elif kind == "e":
                    append_edge(rec["s"], rec["d"], rec["l"], rec.get("p", {}), decode)
                else:
                    raise GraphError(f"unknown record type {kind!r}")
            except KeyError as exc:
                raise MalformedDump(f"missing field {exc}", number) from exc
            except (GraphError, TypeError) as exc:
                raise MalformedDump(str(exc), number) from exc
        return g


def _format_props(props: Mapping) -> str:
    """A property mapping as the compact JSON object the dump holds, with
    its keys in sorted order."""
    if not props:
        return "{}"
    keys = sorted(props)
    return _format_fields([_quote(key) + ":" for key in keys], map(props.__getitem__, keys))


def _format_fields(keys, values) -> str:
    """Each quoted key with its colon, followed by its value, as a compact
    JSON object.

    Text is quoted as `json` quotes it with `ensure_ascii=False`; bool is
    checked before int, since bool is an int; bytes become `{"b64": ...}`.
    Any other value raises `TypeError`.
    """
    parts = []
    for key, value in zip(keys, values):
        if isinstance(value, str):
            text = _quote(value)
        elif value is True:
            text = "true"
        elif value is False:
            text = "false"
        elif isinstance(value, int):
            text = int.__repr__(value)
        elif isinstance(value, bytes):
            text = '{"b64":"%s"}' % binascii.b2a_base64(value, newline=False).decode("ascii")
        else:
            raise TypeError(
                f"property {key[:-1]}: {type(value).__name__} is not text/int/bool/bytes"
            )
        parts.append(key + text)
    return "{" + ",".join(parts) + "}"


def _decode_props(intern, label: str, props) -> tuple[tuple, tuple]:
    """A dump record's keys and decoded values, with interned `asm` and
    `uses` texts and bytes; raises `GraphError` when they are not an object
    or hold bad base64."""
    if type(props) is not dict:
        raise GraphError("properties are not an object")
    values = []
    for key, value in props.items():
        if type(value) is dict and len(value) == 1 and "b64" in value:
            try:
                value = binascii.a2b_base64(value["b64"])
            except (TypeError, ValueError) as exc:
                raise GraphError(f"{label}.{key}: bad base64: {exc}") from exc
            value = intern(value, value)
        elif key in ("asm", "uses") and type(value) is str:
            value = intern(value, value)
        values.append(value)
    return tuple(props), tuple(values)


def dump(graph: PropertyGraph, destination) -> None:
    """Stream `graph`'s dump to a path or to a text file object."""
    if hasattr(destination, "write"):
        destination.writelines(graph._dump_lines())
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fp:
            fp.writelines(graph._dump_lines())


def load(source) -> PropertyGraph:
    """Read a dump line by line from a path or from a text file object."""
    if hasattr(source, "read"):
        return PropertyGraph._load_lines(source)
    # newline="\n": only "\n" ends a record, as in `loads`
    with open(source, "r", encoding="utf-8", newline="\n") as fp:
        return PropertyGraph._load_lines(fp)


# ---------------------------------------------------------------------------
# frontend assembly


def external_call_name(site: CallSite) -> str:
    """Graph-level name for an external call target.

    Dispatches that stayed unresolved but have a known selector surface
    under the selector itself (the URL/absoluteString/... nodes of a
    devirtualized graph); fully opaque dispatches keep objc_msgSend.
    """
    if site.target_name == "objc_msgSend" and site.selector:
        return site.selector
    return site.target_name


def build_from_frontends(
    image=None,
    model=None,
    functions=None,
    *,
    program_name: str = "program",
    info_json: str | None = None,
    entitlements: str | None = None,
    depth: int = 2,
) -> PropertyGraph:
    """Assemble the unified graph; tolerates any frontend being absent.

    `functions` holds bodies decoded from `image`, named by `function_name`.
    Each is looked up once and let go after its dataflow and assembly, so
    bodies decoded at lookup cost the store plus one function.
    """
    g = PropertyGraph()
    functions = functions or {}

    program_props: dict = {"name": program_name}
    if image is not None:
        program_props["ea"] = image.image_base
        if entitlements is None:
            entitlements = image.entitlements
    if entitlements:
        program_props["entltl"] = entitlements
    if info_json is not None:
        program_props["info"] = info_json
    program = g.add_node("Program", program_props)

    symbols = image.symbols if image is not None else ()
    exported = {sym.address for sym in symbols if sym.is_exported}

    # in-image functions by entry address, imported ones by name
    fn_nodes: dict[int | str, int] = {}

    def function_node(key: int | str, props: dict) -> int:
        nid = fn_nodes.get(key)
        if nid is None:
            nid = fn_nodes[key] = g.add_node("Function", props)
            g.add_edge(program, nid, "has_func")
        return nid

    for entry in sorted(functions):
        name = function_name(image, model, entry)
        props = {"ea": entry, "name": name, "is_ext": False}
        if entry in exported:
            props["exported"] = True
        function_node(entry, props)

    # one `uses` text per distinct location set, and one object per
    # distinct `asm` text and instruction word, shared by every record that
    # has it
    uses_text: dict[frozenset, str] = {}
    intern = {}.setdefault
    for entry in sorted(functions):
        fn = functions[entry]
        fid = fn_nodes[entry]
        effects = compute_effects(fn)
        sites = devirtualize(
            fn, model, functions=functions, depth=depth, effects=effects
        )
        effects.add_call_uses(call_effects_from_sites(sites))
        use_def = compute_use_def(fn, effects)

        bb_nodes: dict[int, int] = {}
        instr_nodes: dict[int, int] = {}
        for block in fn.blocks:
            bid = g.add_node("BasicBlock", {"ea": block.ea})
            bb_nodes[block.ea] = bid
            g.add_edge(fid, bid, "has_bb")
            for ins in block.instructions:
                word, text = intern(ins.bytes, ins.bytes), intern(ins.asm, ins.asm)
                props = {"ea": ins.ea, "bytes": word, "asm": text}
                uses = effects.eff_uses.get(ins.ea)
                if uses:
                    # free uses (no def edge) mark values entering as arguments
                    text = uses_text.get(uses)
                    if text is None:
                        text = uses_text[uses] = " ".join(sorted(map(str, uses)))
                    props["uses"] = text
                if ins.xref is not None:
                    props["xref"] = ins.xref
                    const = resolve_constant(model, ins.xref)
                    if const is not None:
                        props["const"] = const
                iid = g.add_node("Instruction", props)
                instr_nodes[ins.ea] = iid
                g.add_edge(bid, iid, "instr")
        for block in fn.blocks:
            for nxt in block.successors:
                g.add_edge(bb_nodes[block.ea], bb_nodes[nxt], "succ")
        for use_ea, def_ea, var in sorted(
            (use_ea, def_ea, str(loc)) for use_ea, def_ea, loc in use_def
        ):
            g.add_edge(instr_nodes[use_ea], instr_nodes[def_ea], "def", {"var": var})
        # a name key never equals an address, and None is no key
        for ins in fn.instructions():
            for target in (ins.xref, ins.branch_target):
                if target in fn_nodes:
                    g.add_edge(instr_nodes[ins.ea], fn_nodes[target], "xref")

        callees: set[int] = set()
        for site in sites:
            if site.kind == "in_image":
                ea, name = site.target_ea, site.target_name
                target = function_node(ea, {"ea": ea, "name": name, "is_ext": False})
            else:
                name = external_call_name(site)
                target = function_node(name, {"ea": -1, "name": name, "is_ext": True})
            props = {}
            if site.selector:
                props["selector"] = site.selector
            if site.receiver:
                props["recv"] = site.receiver
            g.add_edge(instr_nodes[site.caller_ea], target, "calls", props)
            if target not in callees:
                callees.add(target)
                g.add_edge(fid, target, "calls")

    if model is not None:
        _build_objc(g, model)
        g.warnings.extend(model.warnings)
    if image is not None:
        g.warnings.extend(image.warnings)
    return g


def _build_objc(g: PropertyGraph, model) -> None:
    cls_nodes: dict[int, int] = {}
    for cls in model.classes:
        props = {
            "name": cls.name,
            "ea": cls.address,
            "is_meta": cls.is_metaclass,
            "external": cls.is_external,
        }
        cls_nodes[cls.address] = g.add_node("Class", props)

    proto_nodes: dict[int, int] = {}
    for proto in model.protocols:
        proto_nodes[proto.address] = g.add_node(
            "Protocol", {"name": proto.name, "ea": proto.address}
        )

    for cls in model.classes:
        nid = cls_nodes[cls.address]
        sup = model.superclass_of(cls)
        if sup is not None and sup.address in cls_nodes:
            g.add_edge(nid, cls_nodes[sup.address], "has_superclass")
        if cls.metaclass_ref is not None and cls.metaclass_ref in cls_nodes:
            g.add_edge(nid, cls_nodes[cls.metaclass_ref], "isa")
        for ref in cls.protocol_refs:
            if ref in proto_nodes:
                g.add_edge(nid, proto_nodes[ref], "has_protocol")
        for method in cls.methods:
            props = {
                "name": method.selector,
                "owner": cls.name,
                "is_class_method": cls.is_metaclass,
            }
            if method.impl_address is not None:
                props["impl_ea"] = method.impl_address
            mid = g.add_node("Method", props)
            g.add_edge(nid, mid, "has_meth")
        for ivname, _ivtype, offset in cls.ivars:
            g.add_node("Ivar", {"ea": offset, "name": ivname, "owner": cls.name})

    for proto in model.protocols:
        nid = proto_nodes[proto.address]
        for ref in proto.inherited_protocol_refs:
            if ref in proto_nodes:
                g.add_edge(nid, proto_nodes[ref], "has_protocol")
        for method, required in [(m, True) for m in proto.required_methods] + [
            (m, False) for m in proto.optional_methods
        ]:
            mid = g.add_node(
                "Method",
                {"name": method.selector, "owner": proto.name, "required": required},
            )
            g.add_edge(nid, mid, "has_meth")


# ---------------------------------------------------------------------------
# passes


def link_pass(graph: PropertyGraph) -> dict:
    """Add `implements` edges from Functions to the Methods they implement,
    and count unmatched methods; Function names stay `function_name`'s."""
    by_ea = {fn.get("ea"): fn for fn in graph.nodes("Function") if fn.get("ea", -1) >= 0}
    added = unmatched = 0
    for method in graph.nodes("Method"):
        impl = method.get("impl_ea")
        if impl is None:
            continue
        fn = by_ea.get(impl)
        if fn is None:
            unmatched += 1
            graph.warnings.append(
                f"method {method.get('owner')}/{method.get('name')} "
                f"implementation {impl:#x} matches no function"
            )
            continue
        graph.add_edge(fn.id, method.id, "implements")
        added += 1
    return {"implements_added": added, "unmatched_methods": unmatched}


def mark_entrypoints(
    graph: PropertyGraph, delegate_protocols: frozenset = DEFAULT_DELEGATE_PROTOCOLS
) -> dict:
    """Set is_ep on main, exported functions, and delegate-method impls,
    walking out-edges only, so that a lift builds no by-destination index."""
    delegates = {
        p.id for p in graph.nodes("Protocol") if p.get("name") in delegate_protocols
    }
    methods: set[int] = set()
    for cls in graph.nodes("Class") if delegates else ():
        if any(e.dst in delegates for e in graph.out_edges(cls.id, "has_protocol")):
            methods.update(e.dst for e in graph.out_edges(cls.id, "has_meth"))
    marked = [
        fn.id
        for fn in graph.nodes("Function")
        if fn.get("name") == "main"
        or fn.get("exported")
        or (methods and any(e.dst in methods for e in graph.out_edges(fn.id, "implements")))
    ]
    for fid in marked:
        graph.set_node_prop(fid, "is_ep", True)
    return {"marked": len(marked)}
