"""Vulnerability analyses over the supergraph.

The taint engine tracks flows backward along def edges from a sink call's
argument register. A flow qualifies when the chain bottoms out in a value
that entered the function as a matching argument, or in the return value
of a named callee, without passing through a sanitizer call. Detectors
and the rule-file loader are thin layers over this one primitive.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .errors import MalformedRuleFile, NotAFunction
from .traverse import _defs_of, _require, callees, register_step

SEVERITIES = ("critical", "warning", "info")
_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}

# registers examined when a query verb asks for "any argument" of a sink
_ARG_REGISTERS = tuple(f"x{i}" for i in range(8))

_TAINT_STEP_BUDGET = 100_000
log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ArgSource:
    """Taint enters as an argument register of a matching implementation.

    `arg` is the AAPCS register index: for method implementations x0 is
    self and x1 is _cmd, so the first explicit argument is 2.
    """

    arg: int
    selector: str | None = None  # exact method name; None matches any
    owner: str | None = None  # class or adopted protocol; None matches any

    def describe(self) -> str:
        where = self.selector or "any method"
        return f"argument x{self.arg} of {where}"


@dataclass(frozen=True)
class ReturnSource:
    callee: str

    def describe(self) -> str:
        return f"return value of {self.callee}"


@dataclass(frozen=True)
class Sink:
    callee: str
    arg: int


@dataclass(frozen=True)
class TaintSpec:
    sources: tuple = ()
    sinks: tuple = ()
    sanitizers: frozenset = frozenset()


@dataclass(frozen=True)
class TaintHit:
    sink_instr: int  # Instruction node id of the sink call
    sink: Sink
    source: str  # human description of where taint entered
    path: tuple[int, ...]  # instruction node ids, source first, sink last


@dataclass(frozen=True)
class Finding:
    rule: str
    severity: str
    subjects: tuple
    evidence: tuple
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subjects": list(self.subjects),
            "evidence": [list(path) for path in self.evidence],
            "message": self.message,
        }


def sort_findings(findings) -> list[Finding]:
    return sorted(
        findings,
        key=lambda f: (_SEVERITY_RANK[f.severity], f.rule, f.subjects, f.message),
    )


def findings_to_json(findings) -> str:
    return json.dumps(
        [f.to_dict() for f in sort_findings(findings)],
        indent=2,
        sort_keys=True,
        ensure_ascii=False,
    )


# ---------------------------------------------------------------------------
# graph access helpers


def _instructions_of(graph, fn_id: int):
    for bb in graph.out_nodes(fn_id, "has_bb"):
        yield from graph.out_nodes(bb.id, "instr")


def _uses_of(node) -> tuple[str, ...]:
    return tuple((node.get("uses") or "").split())


def _free_uses(graph, node) -> set[str]:
    """Used locations with no reaching definition: values entering from
    outside the function, i.e. arguments."""
    defined = {e.get("var") for e in graph.out_edges(node.id, "def")}
    return {u for u in _uses_of(node) if u not in defined}


def _owner_matches(graph, method_node, owner: str) -> bool:
    name = method_node.get("owner")
    if name == owner:
        return True
    for cls in graph.find_nodes("Class", "name", name):
        for proto in graph.out_nodes(cls.id, "has_protocol"):
            if proto.get("name") == owner:
                return True
    return False


def _arg_registers_for(graph, fn_id: int, sources) -> dict[str, str]:
    """Map of argument register -> source description for this function."""
    out: dict[str, str] = {}
    methods = graph.out_nodes(fn_id, "implements")
    for src in sources:
        # applies unfiltered, or when one method matches every filter set
        if isinstance(src, ArgSource) and (
            src.selector is None and src.owner is None
            or any(
                src.selector in (None, m.get("name"))
                and (src.owner is None or _owner_matches(graph, m, src.owner))
                for m in methods
            )
        ):
            out.setdefault(f"x{src.arg}", src.describe())
    return out


# ---------------------------------------------------------------------------
# the taint engine


def tainted(graph, fn, spec: TaintSpec) -> list[TaintHit]:
    """Qualifying source-to-sink flows within one function.

    Walks def edges backward from each sink argument; the first hop is
    pinned to the argument's register, later hops follow any variable.
    A branch is abandoned when it runs through a sanitizer call. A walk cut
    at `_TAINT_STEP_BUDGET` steps logs a warning that names its call site.
    """
    fn_id = _require(graph, fn, "Function", NotAFunction)
    # every instruction-level call has a function-level twin (`validate`
    # checks it), so a function that calls no sink has no sink call site
    called = {n.get("name") for n in graph.out_nodes(fn_id, "calls")}
    if not any(sink.callee in called for sink in spec.sinks):
        return []
    arg_regs = _arg_registers_for(graph, fn_id, spec.sources)
    return_callees = {
        s.callee: s.describe() for s in spec.sources if isinstance(s, ReturnSource)
    }

    calls_at: dict[int, list[str]] = {}
    for node in _instructions_of(graph, fn_id):
        names = [
            graph.node(e.dst).get("name") for e in graph.out_edges(node.id, "calls")
        ]
        if names:
            calls_at[node.id] = names

    def sanitizer_call(nid: int) -> bool:
        return any(n in spec.sanitizers for n in calls_at.get(nid, ()))

    def source_at(nid: int) -> str | None:
        for name in calls_at.get(nid, ()):
            if name in return_callees:
                return return_callees[name]
        node = graph.node(nid)
        free = _free_uses(graph, node)
        for reg, desc in arg_regs.items():
            if reg in free:
                return desc
        return None

    hits: list[TaintHit] = []
    for sink in spec.sinks:
        reg = f"x{sink.arg}"
        # calls_at holds the call instructions in instruction order
        for nid, names in calls_at.items():
            if sink.callee not in names:
                continue
            # one budget per call site, so one sink cannot starve another
            budget = _TAINT_STEP_BUDGET
            node = graph.node(nid)
            found: dict[str, tuple[int, ...]] = {}
            first = _defs_of(graph, node.id, reg)
            if reg in _free_uses(graph, node) and reg in arg_regs:
                found.setdefault(arg_regs[reg], (node.id,))
            stack = [(node.id, nid) for nid in reversed(first)]
            trail: dict[int, int] = {}
            visited: set[int] = set()
            while stack and budget > 0:
                budget -= 1
                parent, cur = stack.pop()
                if cur in visited:
                    continue
                visited.add(cur)
                trail[cur] = parent
                if sanitizer_call(cur):
                    continue
                desc = source_at(cur)
                if desc is not None and desc not in found:
                    path = [cur]
                    while path[-1] != node.id:
                        path.append(trail[path[-1]])
                    found[desc] = tuple(path)
                for e in sorted(
                    graph.out_edges(cur, "def"), key=lambda e: e.dst
                ):
                    if e.dst not in visited:
                        stack.append((cur, e.dst))
            if any(cur not in visited for _parent, cur in stack):
                log.warning("taint walk from %s argument %s at instruction %d (ea %#x) "
                            "stopped after %d steps with work left", sink.callee, reg,
                            node.id, node.get("ea", -1), _TAINT_STEP_BUDGET)
            for desc in sorted(found):
                hits.append(TaintHit(node.id, sink, desc, found[desc]))
    hits.sort(key=lambda h: (h.sink_instr, h.sink.callee, h.sink.arg, h.source))
    return hits


def _rule_hits(graph, selectors, spec: TaintSpec):
    """(function, matched methods, hits) for each in-image function that
    implements a method whose name contains one of `selectors` (any
    function when there are none) and has a `tainted` hit."""
    for fn in graph.nodes("Function"):
        if fn.get("is_ext"):
            continue
        matched = [
            m
            for m in graph.out_nodes(fn.id, "implements")
            if any(s in (m.get("name") or "") for s in selectors)
        ]
        if selectors and not matched:
            continue
        hits = tainted(graph, fn, spec)
        if hits:
            yield fn, matched, hits


# ---------------------------------------------------------------------------
# detectors


_BRIDGE_SELECTORS = (
    "shouldStartLoadWithRequest",
    "decidePolicyForNavigationAction",
)
# x0 self, x1 _cmd, x2 webView, x3 the request / navigation action
_BRIDGE_REQUEST_ARG = 3
# `_rule_hits` matches the selectors, so the source needs no selector of its own
_BRIDGE_SPEC = TaintSpec(
    sources=(ArgSource(_BRIDGE_REQUEST_ARG),),
    sinks=(Sink("NSClassFromString", 0), Sink("NSSelectorFromString", 0)),
)


def _ats_state(graph) -> tuple[object, dict, bool]:
    """(Program node or None, its parsed NSAppTransportSecurity dict or {},
    had_parse_error)."""
    programs = graph.nodes("Program")
    if not programs:
        return None, {}, False
    prog = programs[0]
    if prog.get("info_error"):
        return prog, {}, True
    text = prog.get("info")
    if text is None:
        return prog, {}, False
    try:
        data = json.loads(text)
    except ValueError:
        return prog, {}, True
    ats = data.get("NSAppTransportSecurity") if isinstance(data, dict) else None
    return prog, (ats if isinstance(ats, dict) else {}), False


def _invoke_reachable(graph, fn_id: int) -> bool:
    """Does this function or a direct in-image callee fire a built invocation?"""
    inner = [n.id for n in callees(graph, fn_id) if not n.get("is_ext")]
    for fid in dict.fromkeys([fn_id, *inner]):
        for node in _instructions_of(graph, fid):
            for e in graph.out_edges(node.id, "calls"):
                selector = e.get("selector") or graph.node(e.dst).get("name") or ""
                if selector.startswith("performSelector") or (
                    selector == "invoke" and e.get("recv") == "NSInvocation"
                ):
                    return True
    return False


def detect_webview_bridge(graph) -> list[Finding]:
    """WebView delegates that build classes/selectors out of request data
    and then fire them through NSInvocation or performSelector."""
    _prog, ats, _err = _ats_state(graph)
    arbitrary = ats.get("NSAllowsArbitraryLoads") is True
    severity = "critical" if arbitrary else "warning"
    findings = []
    for fn, matched, hits in _rule_hits(graph, _BRIDGE_SELECTORS, _BRIDGE_SPEC):
        if not _invoke_reachable(graph, fn.id):
            continue
        owner = matched[0].get("owner")
        sinks = sorted({h.sink.callee for h in hits})
        findings.append(
            Finding(
                rule="webview-bridge",
                severity=severity,
                subjects=(fn.id,),
                evidence=tuple(h.path for h in hits),
                message=(
                    f"{owner} routes request data from "
                    f"{matched[0].get('name')} into {', '.join(sinks)} and "
                    f"invokes the result"
                    + ("; ATS allows arbitrary loads" if arbitrary else "")
                ),
            )
        )
    return sort_findings(findings)


def ats_check(graph) -> list[Finding]:
    """App Transport Security posture from the bundled Info.plist."""
    prog, ats, err = _ats_state(graph)
    raised = []  # (rule, severity, message)
    if err:
        raised.append(
            (
                "info-plist-malformed",
                "warning",
                "Info.plist could not be parsed; ATS posture unknown",
            )
        )
    if ats.get("NSAllowsArbitraryLoads") is True:
        raised.append(
            (
                "ats-disabled",
                "warning",
                "NSAllowsArbitraryLoads is set: ATS is disabled globally",
            )
        )
    domains = ats.get("NSExceptionDomains")
    if isinstance(domains, dict):
        raised += [
            ("ats-exception", "info", f"ATS exception configured for {domain}")
            for domain in sorted(domains)
        ]
    return sort_findings(
        Finding(rule, severity, (prog.id,), (), message)
        for rule, severity, message in raised
    )


# ---------------------------------------------------------------------------
# rule files


@dataclass(frozen=True)
class TaintRule:
    id: str
    selectors: tuple
    spec: TaintSpec
    severity: str


def _is_arg(value) -> bool:
    """A register index of x0-x30: an int, and not a bool."""
    return type(value) is int and 0 <= value <= 30


def _list_of(raw: dict, key: str, kind: type, rule_id: str) -> list:
    """A rule's list of `kind` items under `key`; empty where absent."""
    value = raw.get(key, [])
    if isinstance(value, list) and all(isinstance(v, kind) for v in value):
        return value
    raise MalformedRuleFile(f"rule {rule_id}: '{key}' is not a list of {kind.__name__}")


def _parse_source(raw: dict, rule_id: str):
    kind = raw.get("kind")
    if kind == "argument":
        names = (raw.get("selector"), raw.get("owner"))
        if _is_arg(raw.get("arg")) and {type(n) for n in names} <= {str, type(None)}:
            return ArgSource(raw["arg"], *names)
        raise MalformedRuleFile(f"rule {rule_id}: bad argument source {raw!r}")
    if kind == "return":
        if not isinstance(raw.get("callee"), str):
            raise MalformedRuleFile(f"rule {rule_id}: return source needs a 'callee'")
        return ReturnSource(raw["callee"])
    raise MalformedRuleFile(f"rule {rule_id}: unknown source kind {kind!r}")


def load_rules(source) -> list[TaintRule]:
    """Rule definitions from a JSON document (text, mapping, or path)."""
    if isinstance(source, dict):
        data = source
    else:
        if hasattr(source, "read"):
            text = source.read()
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            with open(source, "r", encoding="utf-8") as fp:
                text = fp.read()
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise MalformedRuleFile(f"rule file is not valid JSON: {exc}") from exc
    raw_rules = data.get("rules") if isinstance(data, dict) else None
    if not isinstance(raw_rules, list):
        raise MalformedRuleFile("rule file must contain a 'rules' array")
    out = []
    for raw in raw_rules:
        rule_id = raw.get("id") if isinstance(raw, dict) else None
        if not isinstance(rule_id, str) or not rule_id:
            raise MalformedRuleFile("every rule must be an object with a string 'id'")
        severity = raw.get("severity", "warning")
        if severity not in SEVERITIES:
            raise MalformedRuleFile(f"rule {rule_id}: unknown severity {severity!r}")
        sinks = tuple(
            Sink(s.get("callee"), s.get("arg"))
            for s in _list_of(raw, "sinks", dict, rule_id)
        )
        if not sinks or not all(
            isinstance(s.callee, str) and _is_arg(s.arg) for s in sinks
        ):
            raise MalformedRuleFile(
                f"rule {rule_id}: needs sinks, each a 'callee' and an 'arg' of 0-30"
            )
        sources = tuple(
            _parse_source(s, rule_id) for s in _list_of(raw, "sources", dict, rule_id)
        )
        if not sources:
            raise MalformedRuleFile(f"rule {rule_id}: at least one source required")
        out.append(
            TaintRule(
                id=rule_id,
                selectors=tuple(_list_of(raw, "selectors", str, rule_id)),
                spec=TaintSpec(
                    sources=sources,
                    sinks=sinks,
                    sanitizers=frozenset(_list_of(raw, "sanitizers", str, rule_id)),
                ),
                severity=severity,
            )
        )
    return out


def run_detectors(graph, rules) -> list[Finding]:
    """The built-in detectors plus the taint `rules`, as sorted findings."""
    return sort_findings(
        detect_webview_bridge(graph) + ats_check(graph) + run_rules(graph, rules)
    )


def run_rules(graph, rules) -> list[Finding]:
    findings = []
    for rule in rules:
        for fn, _matched, hits in _rule_hits(graph, rule.selectors, rule.spec):
            sinks = sorted({h.sink.callee for h in hits})
            sources = sorted({h.source for h in hits})
            findings.append(
                Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    subjects=(fn.id,),
                    evidence=tuple(h.path for h in hits),
                    message=(
                        f"{fn.get('name')}: {', '.join(sources)} reaches "
                        f"{', '.join(sinks)}"
                    ),
                )
            )
    return sort_findings(findings)


# ---------------------------------------------------------------------------
# query-language verb


def _tainted_verb(graph, stream, source: str, sink: str):
    spec = TaintSpec(
        sources=(ReturnSource(source),),
        sinks=tuple(Sink(sink, i) for i in range(len(_ARG_REGISTERS))),
    )
    for fid in stream:
        if graph.node(fid).label != "Function":
            continue
        if tainted(graph, fid, spec):
            yield fid


register_step("tainted", _tainted_verb, str, str)
