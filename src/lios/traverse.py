"""Traversal algebra over the property graph, plus the query language.

Traversals are stream transformers over node ids. Composition is
associative with `identity` as the unit, so pipelines can be regrouped,
repeated (`times`), or saturated to a fixpoint (`star`) without changing
meaning. Everything downstream (the query DSL, the analyses) is built
from these combinators.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import islice

from .errors import (
    NotABasicBlock,
    NotAFunction,
    NotAnInstruction,
    QuerySyntaxError,
    UnknownLabel,
    UnknownStep,
)
from .graph import EDGE_RULES


def _node_id(x) -> int:
    return x.id if hasattr(x, "id") else x


class Traversal:
    """A composable hop: function from an id stream to an id stream."""

    __slots__ = ("_run",)

    def __init__(self, run=None):
        self._run = run if run is not None else (lambda graph, stream: iter(stream))

    def run(self, graph, stream):
        return self._run(graph, stream)

    def __call__(self, graph, nodes) -> list[int]:
        return list(self._run(graph, (_node_id(x) for x in nodes)))

    @classmethod
    def identity(cls) -> "Traversal":
        return cls()

    def then(self, other: "Traversal") -> "Traversal":
        mine, theirs = self._run, other._run

        def run(graph, stream):
            return theirs(graph, mine(graph, stream))

        return Traversal(run)

    def times(self, n: int) -> "Traversal":
        if n < 0:
            raise ValueError("repetition count must be >= 0")
        out = Traversal.identity()
        for _ in range(n):
            out = out.then(self)
        return out

    def star(self) -> "Traversal":
        """Reflexive-transitive closure: everything reachable in 0+ hops."""
        step = self._run

        def run(graph, stream):
            seen: set[int] = set()
            order: list[int] = []
            frontier: list[int] = []
            for x in stream:
                if x not in seen:
                    seen.add(x)
                    order.append(x)
                    frontier.append(x)
            while frontier:
                nxt: list[int] = []
                for x in frontier:
                    for y in step(graph, [x]):
                        if y not in seen:
                            seen.add(y)
                            order.append(y)
                            nxt.append(y)
                frontier = nxt
            return iter(order)

        return Traversal(run)


def _hop(label: str, neighbours: str) -> Traversal:
    """One hop along `label` edges, each node's neighbours in id order;
    `neighbours` names the graph's lookup, `out_nodes` or `in_nodes`."""
    if label not in EDGE_RULES:
        raise UnknownLabel(f"unknown edge label {label!r}")

    def run(graph, stream):
        lookup = getattr(graph, neighbours)
        for x in stream:
            for n in sorted(lookup(x, label), key=lambda n: n.id):
                yield n.id

    return Traversal(run)


def step_out(label: str) -> Traversal:
    return _hop(label, "out_nodes")


def step_in(label: str) -> Traversal:
    return _hop(label, "in_nodes")


def step_filter(pred) -> Traversal:
    def run(graph, stream):
        for x in stream:
            if pred(graph.node(x)):
                yield x

    return Traversal(run)


def step_dedup() -> Traversal:
    def run(graph, stream):
        seen: set[int] = set()
        for x in stream:
            if x not in seen:
                seen.add(x)
                yield x

    return Traversal(run)


def step_limit(n: int) -> Traversal:
    if n < 0:
        raise ValueError("limit must be >= 0")
    return Traversal(lambda graph, stream: islice(stream, n))


# ---------------------------------------------------------------------------
# core traversals

_CALLS = step_out("calls")
_DEF_CLOSURE = step_out("def").star()


def _require(graph, node, label: str, err) -> int:
    nid = _node_id(node)
    if not graph.has_node(nid):
        raise err(f"node {nid} is not in the graph")
    got = graph.node(nid).label
    if got != label:
        raise err(f"node {nid} is a {got}, not a {label}")
    return nid


def is_entry(node) -> bool:
    return bool(node.get("is_ep") or node.get("is_entrypoint"))


def entrypoints(graph) -> list:
    return [n for n in graph.nodes("Function") if is_entry(n)]


def callees(graph, fn) -> list:
    nid = _require(graph, fn, "Function", NotAFunction)
    return [graph.node(i) for i in _CALLS.then(step_dedup()).run(graph, [nid])]


def reachables(graph, fn) -> list:
    """Functions reachable by 0 or more calls edges; includes the start."""
    nid = _require(graph, fn, "Function", NotAFunction)
    return [graph.node(i) for i in _CALLS.star().run(graph, [nid])]


def successors(graph, block) -> list:
    nid = _require(graph, block, "BasicBlock", NotABasicBlock)
    return sorted(
        graph.out_nodes(nid, "succ"), key=lambda n: (n.get("ea", 0), n.id)
    )


def exe_paths(graph, block, l_max: int = 64) -> list[tuple[int, ...]]:
    """All block paths from `block`, each at most l_max nodes long.

    A path ends at a block without successors or at the length bound, so
    loops unroll up to the bound. Successors are explored in ascending
    block-address order, making the enumeration deterministic.
    """
    entry = _require(graph, block, "BasicBlock", NotABasicBlock)
    if l_max < 1:
        raise ValueError("l_max must be >= 1")

    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [(entry,)]
    while stack:
        path = stack.pop()
        succs = successors(graph, path[-1])
        if not succs or len(path) >= l_max:
            out.append(path)
            continue
        for s in reversed(succs):
            stack.append(path + (s.id,))
    return out


def _defs_of(graph, nid: int, var: str) -> list[int]:
    """The instructions whose definition of `var` reaches `nid`, in id order."""
    return sorted({e.dst for e in graph.out_edges(nid, "def") if e.get("var") == var})


def data_flow(graph, instr, var: str) -> list:
    """Definitions feeding `var` at `instr`, then everything they depend on.

    Only the first hop is filtered by the variable; past it the slice
    follows every def edge, so the result is the full backward dependency
    cone of that one operand.
    """
    nid = _require(graph, instr, "Instruction", NotAnInstruction)
    return [graph.node(i) for i in _DEF_CLOSURE.run(graph, _defs_of(graph, nid, var))]


# ---------------------------------------------------------------------------
# query language

_SOURCES = ("classes", "entrypoints", "functions")

_PROP_ALIASES = {"is_entrypoint": "is_ep"}


@dataclass(frozen=True)
class Step:
    name: str
    args: tuple
    pos: int


@dataclass(frozen=True)
class Query:
    source: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | string | int | . | ( | ) | , | eof
    text: str
    pos: int  # byte offset into the utf-8 encoding
    value: object = None


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "0": "\0"}

# One alternative per token class, tried in order. `\d` is the decimal digits
# that `int()` reads; `\w` is `str.isalnum()` or `_`. A word that does not
# start with a letter or `_`, and a lone `"`, are errors.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<punct>[.(),])"
    r'|"(?P<string>(?:[^"\\]|\\.)*)"'
    r"|(?P<int>-?\d+)"
    r"|(?P<word>\w+)"
    r"|(?P<other>.)",
    re.S,
)
_ESCAPE = re.compile(r"\\(.)", re.S)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "punct":
            tokens.append(_Token(lexeme, lexeme, pos))
        elif kind == "string":
            value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), m["string"])
            tokens.append(_Token("string", value, pos, value))
        elif kind == "int":
            try:
                value = int(lexeme)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise QuerySyntaxError("integer literal too long", pos) from None
            tokens.append(_Token("int", lexeme, pos, value))
        elif kind == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(_Token("ident", lexeme, pos))
        elif lexeme == '"':
            raise QuerySyntaxError("unterminated string", pos, expected=('"',))
        elif kind != "space":
            raise QuerySyntaxError(f"unexpected character {lexeme[0]!r}", pos)
        pos += len(lexeme.encode("utf-8", "surrogatepass"))
    tokens.append(_Token("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.last: _Token | None = None

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        self.last = tok
        return tok

    def fail(self, message: str, expected: tuple = ()) -> None:
        tok = self.peek()
        if tok.kind == "eof":
            # an unfinished query points at the last thing actually written
            pos = self.last.pos if self.last is not None else tok.pos
            raise QuerySyntaxError(
                "unexpected end of query", pos, expected=expected
            )
        raise QuerySyntaxError(message, tok.pos, expected=expected)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(
                f"expected {what or kind}, got {tok.text!r}",
                expected=(what or kind,),
            )
        return self.advance()

    def parse(self) -> Query:
        src = self.expect("ident", "source")
        if src.text not in _SOURCES:
            raise QuerySyntaxError(
                f"unknown source {src.text!r}", src.pos, expected=_SOURCES
            )
        self.expect("(")
        self.expect(")")
        steps: list[Step] = []
        while self.peek().kind == ".":
            self.advance()
            name = self.expect("ident", "step name")
            self.expect("(")
            args: list = []
            if self.peek().kind != ")":
                args.append(self.argument())
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.argument())
            self.expect(")")
            step = Step(name.text, tuple(args), name.pos)
            _check_step(step)
            steps.append(step)
        if self.peek().kind != "eof":
            self.fail("trailing input after query")
        return Query(src.text, tuple(steps))

    def argument(self):
        tok = self.peek()
        if tok.kind in ("string", "int"):
            return self.advance().value
        if tok.kind == "ident":
            self.advance()
            if tok.text == "true":
                return True
            if tok.text == "false":
                return False
            return tok.text
        self.fail("expected an argument", expected=("argument",))


def _check_step(step: Step) -> None:
    """Arity and argument types of a step the table knows; an unknown name
    is left for `eval_query`, since a verb may be registered later."""
    entry = _STEP_REGISTRY.get(step.name)
    if entry is None:
        return
    shape = entry[0]
    if len(step.args) != len(shape):
        raise QuerySyntaxError(
            f"{step.name}() takes {len(shape)} argument(s), got {len(step.args)}",
            step.pos,
        )
    for arg, allowed in zip(step.args, shape):
        if isinstance(arg, bool) and bool not in allowed:
            raise QuerySyntaxError(
                f"{step.name}() does not take a boolean here", step.pos
            )
        if not isinstance(arg, allowed):
            raise QuerySyntaxError(
                f"{step.name}() argument {arg!r} has the wrong type", step.pos
            )
    if step.name == "limit" and not 0 <= step.args[0] <= sys.maxsize:
        raise QuerySyntaxError(f"limit must lie in 0..{sys.maxsize}", step.pos)


def parse_query(text: str) -> Query:
    return _Parser(text).parse()


def _source_ids(graph, source: str):
    if source == "functions":
        return (n.id for n in graph.nodes("Function"))
    if source == "classes":
        return (n.id for n in graph.nodes("Class"))
    return (n.id for n in entrypoints(graph))


def _calls_by_name(graph, fid: int, name: str) -> bool:
    # every instruction-level `calls` edge has a function-level twin
    # (`PropertyGraph.validate` checks it), so the projection suffices
    return any(f.get("name") == name for f in graph.out_nodes(fid, "calls"))


def _step_calling(graph, stream, name: str):
    for x in stream:
        if graph.node(x).label != "Function":
            continue
        if _calls_by_name(graph, x, name):
            yield x


def _step_implementing(graph, stream, name: str):
    for x in stream:
        if graph.node(x).label != "Function":
            continue
        for m in graph.out_nodes(x, "implements"):
            if m.get("name") == name:
                yield x
                break


def _step_has(graph, stream, key: str, value):
    key = _PROP_ALIASES.get(key, key)
    return step_filter(lambda n: n.get(key) == value).run(graph, stream)


_ONE_STR = ((str,),)

# every step, built-in or registered: name -> (allowed types per positional
# argument, fn(graph, id_stream, *args) -> id iterator)
_STEP_REGISTRY: dict[str, tuple[tuple[tuple[type, ...], ...], object]] = {
    "calling": (_ONE_STR, _step_calling),
    "named": (_ONE_STR, lambda g, s, name: _step_has(g, s, "name", name)),
    "implementing": (_ONE_STR, _step_implementing),
    "has": (((str,), (str, int, bool)), _step_has),
    "out": (_ONE_STR, lambda g, s, label: step_out(label).run(g, s)),
    "in": (_ONE_STR, lambda g, s, label: step_in(label).run(g, s)),
    "dedup": ((), lambda g, s: step_dedup().run(g, s)),
    "limit": (((int,),), lambda g, s, n: step_limit(n).run(g, s)),
}
_BUILTIN_STEPS = frozenset(_STEP_REGISTRY) | frozenset(_SOURCES)


def register_step(name: str, fn, *arg_types) -> None:
    """Add the verb `name`: `fn(graph, id_stream, *args)`, with one type, or
    tuple of types, allowed per positional argument."""
    if name in _BUILTIN_STEPS:
        raise ValueError(f"{name!r} is a built-in step")
    shape = tuple(t if isinstance(t, tuple) else (t,) for t in arg_types)
    _STEP_REGISTRY[name] = (shape, fn)


def eval_query(graph, query: Query) -> list:
    """Run `query` on `graph`; each step's signature is checked first, as
    `parse_query` does, since a `Query` may be built by hand or before its
    verb was registered."""
    stream = _source_ids(graph, query.source)
    for step in query.steps:
        _check_step(step)
        entry = _STEP_REGISTRY.get(step.name)
        if entry is None:
            raise UnknownStep(f"unknown step {step.name!r}")
        stream = entry[1](graph, stream, *step.args)
    return [graph.node(i) for i in stream]


def run_query(graph, text: str) -> list:
    return eval_query(graph, parse_query(text))
