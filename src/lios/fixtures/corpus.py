"""Prebuilt analysis fixtures with ground-truth manifests.

Each builder returns `(binary, manifest)` where the manifest extends the
scaffold's layout facts with the behavior the fixture was constructed to
exhibit: the exact devirtualized call set, reachable external APIs, or the
taint path a detector must report. Expectations are computed from the
construction itself (label addresses, instruction positions), never from
running the analyses.
"""

from __future__ import annotations

import io
import plistlib
import random
import zipfile

from .scaffold import ClassSpec, MethodSpec, ProtocolSpec, Scaffold


def _instruction_lines(source: str) -> list[str]:
    out = []
    for line in source.splitlines():
        text = line.strip()
        if not text or text.endswith(":") or text.startswith(";"):
            continue
        out.append(text)
    return out


def _call_positions(source: str) -> list[tuple[int, str]]:
    """(instruction index, text) of every bl/b line, in order."""
    hits = []
    for idx, text in enumerate(_instruction_lines(source)):
        if text.startswith("bl ") or text.startswith("b "):
            hits.append((idx, text))
    return hits


class _SuiteBuilder:
    """Accumulates functions plus the call outcomes they were built to have."""

    def __init__(self):
        self.scaffold = Scaffold()
        self._sources: dict[str, str] = {}
        self._raw_sizes: dict[str, int] = {}
        self._plans: dict[str, list[dict]] = {}

    def func(self, name: str, source: str, calls: list[dict] | None = None,
             exported: bool = False) -> None:
        self.scaffold.func(name, source, exported=exported)
        self._sources[name] = source
        if calls is not None:
            self._plans[name] = calls

    def raw(self, name: str, code: bytes) -> None:
        self.scaffold.raw_func(name, code)
        self._raw_sizes[name] = len(code)
        self._plans[name] = []

    def finish(self) -> tuple[bytes, dict]:
        blob, manifest = self.scaffold.build()
        ranges = {}
        for name, source in self._sources.items():
            va = manifest["functions"][name]
            ranges[name] = [va, va + 4 * len(_instruction_lines(source))]
        for name, size in self._raw_sizes.items():
            va = manifest["functions"][name]
            ranges[name] = [va, va + size]
        manifest["function_ranges"] = ranges

        expected = {}
        for name, plans in self._plans.items():
            source = self._sources.get(name)
            positions = _call_positions(source) if source else []
            if len(positions) != len(plans):
                raise AssertionError(
                    f"{name}: {len(positions)} call lines, {len(plans)} plans"
                )
            base = manifest["functions"][name]
            sites = []
            for (idx, _), plan in zip(positions, plans):
                for outcome in plan["out"]:
                    record = {"caller_ea": base + 4 * idx}
                    record.update(outcome)
                    if "target" in record:
                        record["target_ea"] = manifest["functions"][
                            record.pop("target")
                        ]
                    sites.append(record)
            expected[name] = sites
        manifest["expected_calls"] = expected
        return blob, manifest


def _site(*outcomes: dict) -> dict:
    return {"out": list(outcomes)}


def _in_image(target: str, name: str, selector: str | None = None) -> dict:
    rec = {"kind": "in_image", "target": target, "target_name": name}
    if selector is not None:
        rec["selector"] = selector
    return rec


def _external(name: str, selector: str | None = None,
              receiver: str | None = None) -> dict:
    rec = {"kind": "external", "target_ea": None, "target_name": name}
    if selector is not None:
        rec["selector"] = selector
    if receiver is not None:
        rec["receiver"] = receiver
    return rec


RET_WORD = b"\xc0\x03\x5f\xd6"


def msgsend_suite() -> tuple[bytes, dict]:
    """Devirtualization suite: 14 dispatch sites across 13 caller shapes.

    Covers constant receiver+selector, superclass lookup, self dispatch,
    diamond multi-value, register move chains, stack spills, interprocedural
    return values, constructor chains, self-redispatch, external receivers,
    unknown receivers/selectors, and a tail-called dispatch.
    """
    b = _SuiteBuilder()
    s = b.scaffold
    for stub in ("objc_msgSend", "malloc", "NSLog", "CCCrypt"):
        s.stub(stub)
    for sel in ("doWork", "reset", "baseOnly", "length", "alloc", "init"):
        s.selref(sel)

    b.raw("impl_work", RET_WORD)
    b.raw("impl_reset", RET_WORD)
    b.raw("impl_base", RET_WORD)

    b.func(
        "make_worker",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        ret
        """,
        calls=[],
    )

    b.func(
        "site_const",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_in_image("impl_work", "-[Worker doWork]", "doWork"))],
    )

    b.func(
        "site_super",
        """
        adrp x0, classref_Sub@page
        ldr x0, [x0, classref_Sub@pageoff]
        adrp x1, sel_baseOnly@page
        ldr x1, [x1, sel_baseOnly@pageoff]
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_in_image("impl_base", "-[Base baseOnly]", "baseOnly"))],
    )

    # registered below as -[Worker otherThing]; x0 is the untouched self
    b.func(
        "site_self",
        """
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_in_image("impl_work", "-[Worker doWork]", "doWork"))],
    )

    b.func(
        "site_diamond",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        cbz x5, other
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        b send
        other:
        adrp x1, sel_reset@page
        ldr x1, [x1, sel_reset@pageoff]
        send:
        bl stub_objc_msgSend
        ret
        """,
        calls=[
            _site(),  # b send: jump within the function, not a call
            _site(
                _in_image("impl_work", "-[Worker doWork]", "doWork"),
                _in_image("impl_reset", "-[Worker reset]", "reset"),
            ),
        ],
    )

    b.func(
        "site_movchain",
        """
        adrp x8, classref_Worker@page
        ldr x8, [x8, classref_Worker@pageoff]
        adrp x9, sel_doWork@page
        ldr x9, [x9, sel_doWork@pageoff]
        mov x0, x8
        mov x1, x9
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_in_image("impl_work", "-[Worker doWork]", "doWork"))],
    )

    b.func(
        "site_spill",
        """
        sub sp, sp, #32
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        str x1, [sp, #8]
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        mov x1, #0
        ldr x1, [sp, #8]
        bl stub_objc_msgSend
        add sp, sp, #32
        ret
        """,
        calls=[_site(_in_image("impl_work", "-[Worker doWork]", "doWork"))],
    )

    b.func(
        "site_interproc",
        """
        bl make_worker
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
        calls=[
            _site(_in_image("make_worker", "make_worker")),
            _site(_in_image("impl_work", "-[Worker doWork]", "doWork")),
        ],
    )

    b.func(
        "site_chain",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        adrp x1, sel_alloc@page
        ldr x1, [x1, sel_alloc@pageoff]
        bl stub_objc_msgSend
        adrp x1, sel_init@page
        ldr x1, [x1, sel_init@pageoff]
        bl stub_objc_msgSend
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
        calls=[
            _site(_external("objc_msgSend", "alloc", "Worker")),
            _site(_external("objc_msgSend", "init", "Worker")),
            _site(_in_image("impl_work", "-[Worker doWork]", "doWork")),
        ],
    )

    # registered below as -[Worker redispatch]; resolves to itself
    b.func(
        "site_own_sel",
        """
        nop
        bl stub_objc_msgSend
        ret
        """,
        calls=[
            _site(_in_image("site_own_sel", "-[Worker redispatch]", "redispatch"))
        ],
    )

    b.func(
        "site_ext_recv",
        """
        adrp x0, classref_NSString@page
        ldr x0, [x0, classref_NSString@pageoff]
        adrp x1, sel_length@page
        ldr x1, [x1, sel_length@pageoff]
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_external("objc_msgSend", "length", "NSString"))],
    )

    b.func(
        "site_unknown_recv",
        """
        mov x0, x5
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_external("objc_msgSend", "doWork"))],
    )

    b.func(
        "site_opaque",
        """
        mov x0, x5
        mov x1, x4
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_external("objc_msgSend"))],
    )

    b.func(
        "site_tail",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        b stub_objc_msgSend
        """,
        calls=[_site(_in_image("impl_work", "-[Worker doWork]", "doWork"))],
    )

    b.func(
        "direct_calls",
        """
        bl make_worker
        bl stub_malloc
        ret
        """,
        calls=[
            _site(_in_image("make_worker", "make_worker")),
            _site(_external("malloc")),
        ],
    )

    classes = [
        ClassSpec(name="Base", methods=[MethodSpec("baseOnly", "impl_base")]),
        ClassSpec(name="Sub", superclass="Base"),
        ClassSpec(
            name="Worker",
            methods=[
                MethodSpec("doWork", "impl_work"),
                MethodSpec("reset", "impl_reset"),
                MethodSpec("otherThing", "site_self"),
                MethodSpec("redispatch", "site_own_sel"),
            ],
        ),
    ]
    # a function that implements a method is named after it, wherever called
    method_of = {
        m.impl: f"-[{c.name} {m.selector}]" for c in classes for m in c.methods
    }
    caller_names = [
        "site_const", "site_super", "site_self", "site_diamond",
        "site_movchain", "site_spill", "site_interproc", "site_chain",
        "site_own_sel", "site_ext_recv", "site_unknown_recv", "site_opaque",
        "site_tail", "direct_calls",
    ]
    main_lines = [f"bl {name}" for name in caller_names] + ["bl stub_NSLog", "ret"]
    b.func(
        "main",
        "\n".join(main_lines),
        calls=[
            _site(_in_image(name, method_of.get(name, name))) for name in caller_names
        ]
        + [_site(_external("NSLog"))],
        exported=True,
    )

    b.func(
        "dead_code",
        """
        bl stub_CCCrypt
        ret
        """,
        calls=[_site(_external("CCCrypt"))],
    )

    s.classref("Worker")
    s.classref("Sub")
    s.classref("NSString")
    for spec in classes:
        s.add_class(spec)

    blob, manifest = b.finish()
    manifest["entry_functions"] = ["main"]
    # external APIs on calls edges reachable from main; unresolved dispatches
    # surface under their selector, fully opaque ones stay objc_msgSend
    manifest["reachable_externals"] = sorted(
        ["malloc", "NSLog", "alloc", "init", "length", "doWork", "objc_msgSend"]
    )
    manifest["dead_externals"] = ["CCCrypt"]
    manifest["msgsend_site_count"] = 14
    return blob, manifest


def spill_suite() -> tuple[bytes, dict]:
    """Two message sends, in two methods of `Worker`, whose registers pass
    through memory.

    `reload_pair` spills self and its selector with `stp`, clobbers both and
    reloads them with `ldp`, so its send is [self helper] and resolves to
    itself.  `writeback_send` loads through x8 with post-index writeback and
    sends the written-back base, the address 8 bytes past the selref, as
    x1: it has no selector, and the send stays `objc_msgSend` on `Worker`.
    """
    worker = ClassSpec(
        name="Worker",
        methods=[
            MethodSpec("helper", "reload_pair"),
            MethodSpec("stepPast", "writeback_send"),
        ],
    )
    # a function that implements a method is named after it, wherever called
    method_of = {m.impl: f"-[{worker.name} {m.selector}]" for m in worker.methods}
    helper, step_past = worker.methods
    b = _SuiteBuilder()
    s = b.scaffold
    s.stub("objc_msgSend")
    s.selref(helper.selector)
    b.func(
        helper.impl,
        """
        stp x0, x1, [sp, #-16]!
        mov x0, #0
        mov x1, #0
        ldp x0, x1, [sp], #16
        bl stub_objc_msgSend
        ret
        """,
        calls=[
            _site(_in_image(helper.impl, method_of[helper.impl], helper.selector))
        ],
    )
    b.func(
        step_past.impl,
        f"""
        adrp x8, sel_{helper.selector}@page
        add x8, x8, sel_{helper.selector}@pageoff
        ldr x2, [x8], #8
        mov x1, x8
        bl stub_objc_msgSend
        ret
        """,
        calls=[_site(_external("objc_msgSend", receiver=worker.name))],
    )
    b.func(
        "main",
        "\n".join([*(f"bl {impl}" for impl in method_of), "ret"]),
        calls=[_site(_in_image(impl, name)) for impl, name in method_of.items()],
        exported=True,
    )
    s.add_class(worker)
    blob, manifest = b.finish()
    manifest["entry_functions"] = ["main"]
    return blob, manifest


def shared_callee_app(sites: int) -> tuple[bytes, dict]:
    """One factory, `make_worker`, whose return value `sites` functions each
    send a message to.

    `make_worker` runs 1,000 ADDs, then loads the `Worker` class and
    returns it.  Each `site_<i>` calls it, loads a selector into x1 and
    calls objc_msgSend, so its send resolves only through what `make_worker`
    returns.  A lift that traces that afresh at every site costs `sites`
    times the factory's size.
    """
    worker = ClassSpec(name="Worker", methods=[MethodSpec("doWork", "impl_work")])
    (work,) = worker.methods
    # a function that implements a method is named after it, wherever called
    method_name = f"-[{worker.name} {work.selector}]"
    b = _SuiteBuilder()
    s = b.scaffold
    s.stub("objc_msgSend")
    s.selref(work.selector)
    s.classref(worker.name)
    b.raw(work.impl, RET_WORD)
    b.func(
        "make_worker",
        "\n".join([
            *["add x2, x2, #1"] * 1000,
            f"adrp x0, classref_{worker.name}@page",
            f"ldr x0, [x0, classref_{worker.name}@pageoff]",
            "ret",
        ]),
        calls=[],
    )
    names = [f"site_{i}" for i in range(sites)]
    for name in names:
        b.func(
            name,
            f"""
            bl make_worker
            adrp x1, sel_{work.selector}@page
            ldr x1, [x1, sel_{work.selector}@pageoff]
            bl stub_objc_msgSend
            ret
            """,
            calls=[
                _site(_in_image("make_worker", "make_worker")),
                _site(_in_image(work.impl, method_name, work.selector)),
            ],
        )
    b.func(
        "main",
        "\n".join([*(f"bl {name}" for name in names), "ret"]),
        calls=[_site(_in_image(name, name)) for name in names],
        exported=True,
    )
    s.add_class(worker)
    blob, manifest = b.finish()
    manifest["entry_functions"] = ["main"]
    return blob, manifest


# ---------------------------------------------------------------------------
# WebView bridge pair


DELEGATE_SELECTOR = "webView:shouldStartLoadWithRequest:navigationType:"

_SELREFS = (
    "URL",
    "absoluteString",
    "hasPrefix:",
    "componentsSeparatedByString:",
    "objectAtIndex:",
    "stringByReplacingPercentEscapesUsingEncoding:",
    "methodSignatureForSelector:",
    "invocationWithMethodSignature:",
    "setSelector:",
    "setTarget:",
    "invoke",
    "isEqualToString:",
)

# request (x3) -> URL -> absoluteString -> componentsSeparatedByString:
# -> objectAtIndex: -> x22; prefix check splits the flow into two blocks
_COMMON_HEAD = """
    mov x19, x3
    mov x0, x19
    adrp x1, sel_URL@page
    ldr x1, [x1, sel_URL@pageoff]
    bl stub_objc_msgSend
    adrp x1, sel_absoluteString@page
    ldr x1, [x1, sel_absoluteString@pageoff]
    bl stub_objc_msgSend
    mov x20, x0
    adrp x1, sel_hasPrefix_@page
    ldr x1, [x1, sel_hasPrefix_@pageoff]
    adrp x2, cstr_prefix@page
    add x2, x2, cstr_prefix@pageoff
    bl stub_objc_msgSend
    cbz x0, bail
    mov x0, x20
    adrp x1, sel_componentsSeparatedByString_@page
    ldr x1, [x1, sel_componentsSeparatedByString_@pageoff]
    adrp x2, cstr_colon@page
    add x2, x2, cstr_colon@pageoff
    bl stub_objc_msgSend
    mov x21, x0
    adrp x1, sel_objectAtIndex_@page
    ldr x1, [x1, sel_objectAtIndex_@pageoff]
    mov x2, #1
    bl stub_objc_msgSend
    mov x22, x0
    mov x0, x21
    adrp x1, sel_objectAtIndex_@page
    ldr x1, [x1, sel_objectAtIndex_@pageoff]
    mov x2, #2
    bl stub_objc_msgSend
    adrp x1, sel_stringByReplacingPercentEscapesUsingEncoding_@page
    ldr x1, [x1, sel_stringByReplacingPercentEscapesUsingEncoding_@pageoff]
    mov x2, #4
    bl stub_objc_msgSend
"""

# SEL from the tainted `method`, Class from the tainted `obj`
_VULNERABLE_MIDDLE = """
    bl stub_NSSelectorFromString
    mov x23, x0
    mov x0, x22
    bl stub_NSClassFromString
    mov x24, x0
"""

# whitelist both strings, then look up constants only
_SANITIZED_MIDDLE = """
    mov x0, x22
    adrp x1, sel_isEqualToString_@page
    ldr x1, [x1, sel_isEqualToString_@pageoff]
    adrp x2, cstr_safeclass@page
    add x2, x2, cstr_safeclass@pageoff
    bl stub_objc_msgSend
    cbz x0, bail
    adrp x0, cstr_safeaction@page
    add x0, x0, cstr_safeaction@pageoff
    bl stub_NSSelectorFromString
    mov x23, x0
    adrp x0, cstr_safeclass@page
    add x0, x0, cstr_safeclass@pageoff
    bl stub_NSClassFromString
    mov x24, x0
"""

_COMMON_TAIL = """
    adrp x1, sel_methodSignatureForSelector_@page
    ldr x1, [x1, sel_methodSignatureForSelector_@pageoff]
    mov x2, x23
    bl stub_objc_msgSend
    mov x2, x0
    adrp x0, classref_NSInvocation@page
    ldr x0, [x0, classref_NSInvocation@pageoff]
    adrp x1, sel_invocationWithMethodSignature_@page
    ldr x1, [x1, sel_invocationWithMethodSignature_@pageoff]
    bl stub_objc_msgSend
    mov x25, x0
    adrp x1, sel_setSelector_@page
    ldr x1, [x1, sel_setSelector_@pageoff]
    mov x2, x23
    bl stub_objc_msgSend
    mov x0, x25
    adrp x1, sel_setTarget_@page
    ldr x1, [x1, sel_setTarget_@pageoff]
    mov x2, x24
    bl stub_objc_msgSend
    mov x0, x25
    adrp x1, sel_invoke@page
    ldr x1, [x1, sel_invoke@pageoff]
    bl stub_objc_msgSend
    mov x0, #0
    ret
    bail:
    mov x0, #1
    ret
"""


def listing_one_app(sanitized: bool = False) -> tuple[bytes, dict]:
    """A WebView delegate that maps URL parts onto an NSInvocation.

    The vulnerable variant feeds the URL-derived class and selector strings
    straight into NSClassFromString/NSSelectorFromString; the sanitized twin
    whitelists both against constants first.
    """
    b = _SuiteBuilder()
    s = b.scaffold
    for stub in ("objc_msgSend", "NSClassFromString", "NSSelectorFromString",
                 "NSLog"):
        s.stub(stub)
    for sel in _SELREFS:
        s.selref(sel)
    s.cstring("prefix", "my-prefix:")
    s.cstring("colon", ":")
    s.cstring("safeclass", "SafeAPI")
    s.cstring("safeaction", "safeAction")
    s.classref("NSInvocation")

    middle = _SANITIZED_MIDDLE if sanitized else _VULNERABLE_MIDDLE
    source = _COMMON_HEAD + middle + _COMMON_TAIL

    ext = lambda sel: _site(_external("objc_msgSend", sel))
    head_calls = [
        ext("URL"),
        ext("absoluteString"),
        ext("hasPrefix:"),
        ext("componentsSeparatedByString:"),
        ext("objectAtIndex:"),
        ext("objectAtIndex:"),
        ext("stringByReplacingPercentEscapesUsingEncoding:"),
    ]
    if sanitized:
        middle_calls = [
            ext("isEqualToString:"),
            _site(_external("NSSelectorFromString")),
            _site(_external("NSClassFromString")),
        ]
    else:
        middle_calls = [
            _site(_external("NSSelectorFromString")),
            _site(_external("NSClassFromString")),
        ]
    tail_calls = [
        ext("methodSignatureForSelector:"),
        _site(_external("objc_msgSend", "invocationWithMethodSignature:",
                        "NSInvocation")),
        _site(_external("objc_msgSend", "setSelector:", "NSInvocation")),
        _site(_external("objc_msgSend", "setTarget:", "NSInvocation")),
        _site(_external("objc_msgSend", "invoke", "NSInvocation")),
    ]
    b.func("delegate_body", source,
           calls=head_calls + middle_calls + tail_calls)
    b.func(
        "main",
        """
        bl stub_NSLog
        mov x0, #0
        ret
        """,
        calls=[_site(_external("NSLog"))],
        exported=True,
    )

    s.add_protocol(
        ProtocolSpec(name="UIWebViewDelegate",
                     required=[MethodSpec(DELEGATE_SELECTOR)])
    )
    s.add_class(
        ClassSpec(
            name="BridgeDelegate",
            protocols=["UIWebViewDelegate"],
            methods=[MethodSpec(DELEGATE_SELECTOR, "delegate_body")],
        )
    )

    blob, manifest = b.finish()
    base = manifest["functions"]["delegate_body"]
    positions = _call_positions(source)
    calls = head_calls + middle_calls + tail_calls

    def ea_of(line_match: str, nth: int = 0) -> int:
        found = [idx for idx, text in positions if line_match in text]
        return base + 4 * found[nth]

    manifest["delegate_function"] = "delegate_body"
    manifest["delegate_selector"] = DELEGATE_SELECTOR
    manifest["sink_ea"] = ea_of("stub_NSClassFromString")
    manifest["selector_sink_ea"] = ea_of("stub_NSSelectorFromString")
    manifest["invoke_ea"] = base + 4 * positions[-2][0]
    # the four dispatches the unsanitized flow passes through, source-first
    manifest["taint_chain"] = (
        []
        if sanitized
        else [
            ea_of("stub_objc_msgSend", 0),  # URL
            ea_of("stub_objc_msgSend", 1),  # absoluteString
            ea_of("stub_objc_msgSend", 3),  # componentsSeparatedByString:
            ea_of("stub_objc_msgSend", 4),  # objectAtIndex:
        ]
    )
    manifest["taint_chain_names"] = (
        []
        if sanitized
        else ["URL", "absoluteString", "componentsSeparatedByString:",
              "objectAtIndex:"]
    )
    manifest["entry_functions"] = ["main", "delegate_body"]
    return blob, manifest


def benign_app() -> tuple[bytes, dict]:
    """Smallest useful app: main logging one string, no metadata."""
    b = _SuiteBuilder()
    s = b.scaffold
    s.stub("NSLog")
    s.cstring("greeting", "hello")
    b.func(
        "main",
        """
        adrp x0, cstr_greeting@page
        add x0, x0, cstr_greeting@pageoff
        bl stub_NSLog
        mov x0, #0
        ret
        """,
        calls=[_site(_external("NSLog"))],
        exported=True,
    )
    blob, manifest = b.finish()
    manifest["entry_functions"] = ["main"]
    manifest["reachable_externals"] = ["NSLog"]
    return blob, manifest


# ---------------------------------------------------------------------------
# Info.plist / .ipa assembly


ATS_ARBITRARY = {"NSAllowsArbitraryLoads": True}
ATS_ENFORCED = {"NSAllowsArbitraryLoads": False}
ATS_DOMAINS = {
    "NSExceptionDomains": {
        "example.com": {"NSExceptionAllowsInsecureHTTPLoads": True}
    }
}


def info_plist(executable: str = "Fixture", ats: dict | None = None,
               extra: dict | None = None) -> bytes:
    root: dict = {
        "CFBundleExecutable": executable,
        "CFBundleIdentifier": f"test.fixture.{executable}",
        "CFBundleVersion": "1.0",
    }
    if ats is not None:
        root["NSAppTransportSecurity"] = ats
    if extra:
        root.update(extra)
    return plistlib.dumps(root, fmt=plistlib.FMT_XML, sort_keys=True)


def build_ipa(binary: bytes, plist: bytes, app_name: str = "Fixture",
              executable: str | None = None) -> bytes:
    """Zip up Payload/<app>.app/{Info.plist, <executable>}."""
    if executable is None:
        executable = app_name
    buf = io.BytesIO()
    stamp = (2026, 1, 1, 0, 0, 0)
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        for arcname, data in (
            (f"Payload/{app_name}.app/Info.plist", plist),
            (f"Payload/{app_name}.app/{executable}", binary),
        ):
            entry = zipfile.ZipInfo(arcname, date_time=stamp)
            z.writestr(entry, data)
    return buf.getvalue()


def listing_one_ipa(sanitized: bool = False, ats: dict | None = ATS_ARBITRARY,
                    app_name: str = "Bridge") -> tuple[bytes, dict]:
    binary, manifest = listing_one_app(sanitized=sanitized)
    plist = info_plist(executable=app_name, ats=ats)
    return build_ipa(binary, plist, app_name=app_name), manifest


# ---------------------------------------------------------------------------
# bulk fixture for throughput checks


def perf_app(seed: int = 7, functions: int = 100,
             data_bytes: int = 128 * 1024) -> tuple[bytes, dict]:
    """~100 mid-size functions plus string ballast, totalling ~300 KB."""
    rng = random.Random(seed)
    b = _SuiteBuilder()
    s = b.scaffold
    s.stub("objc_msgSend")
    s.stub("NSLog")
    s.stub("malloc")

    n_classes = 6
    sels = [f"perform{i}" for i in range(n_classes)]
    for sel in sels:
        s.selref(sel)
    for i in range(n_classes):
        s.classref(f"Perf{i}")
    for i in range(n_classes):
        b.raw(f"perf_impl_{i}", RET_WORD)

    names = [f"perf_fn_{i}" for i in range(functions)]
    for i, name in enumerate(names):
        lines = ["sub sp, sp, #64"]
        blocks = rng.randint(3, 6)
        for blk in range(blocks):
            for _ in range(rng.randint(50, 130)):
                kind = rng.random()
                rd = rng.randint(2, 15)
                rn = rng.randint(2, 15)
                if kind < 0.35:
                    lines.append(f"mov x{rd}, #{rng.randint(0, 4000)}")
                elif kind < 0.6:
                    lines.append(f"add x{rd}, x{rn}, #{rng.randint(0, 400)}")
                elif kind < 0.75:
                    lines.append(f"mov x{rd}, x{rn}")
                elif kind < 0.85:
                    slot = 8 * rng.randint(1, 6)
                    lines.append(f"str x{rd}, [sp, #{slot}]")
                else:
                    slot = 8 * rng.randint(1, 6)
                    lines.append(f"ldr x{rd}, [sp, #{slot}]")
            if blk < blocks - 1:
                lines.append(f"cbz x{rng.randint(2, 15)}, perf_l{blk}")
                lines.append(f"mov x{rng.randint(2, 15)}, #{rng.randint(0, 99)}")
                lines.append(f"mov x{rng.randint(2, 15)}, #{rng.randint(0, 99)}")
                lines.append(f"perf_l{blk}:")
        if i > 0 and rng.random() < 0.8:
            lines.append(f"bl perf_fn_{rng.randrange(i)}")
        if rng.random() < 0.5:
            k = rng.randrange(n_classes)
            lines += [
                f"adrp x0, classref_Perf{k}@page",
                f"ldr x0, [x0, classref_Perf{k}@pageoff]",
                f"adrp x1, sel_perform{k}@page",
                f"ldr x1, [x1, sel_perform{k}@pageoff]",
                "bl stub_objc_msgSend",
            ]
        lines += ["add sp, sp, #64", "ret"]
        b.func(name, "\n".join(lines))

    main_lines = [f"bl {n}" for n in names] + ["bl stub_NSLog", "ret"]
    b.func("main", "\n".join(main_lines), exported=True)

    ballast = []
    for i in range(data_bytes // 64):
        ballast.append("".join(rng.choice("abcdefghij") for _ in range(63)))
    for i, text in enumerate(ballast):
        s.cstring(f"blob{i}", text)

    for i in range(n_classes):
        s.add_class(
            ClassSpec(
                name=f"Perf{i}",
                methods=[MethodSpec(f"perform{i}", f"perf_impl_{i}")],
            )
        )

    blob, manifest = b.finish()
    manifest["entry_functions"] = ["main"]
    return blob, manifest
