"""High-level fixture scaffolding on top of the raw Mach-O builder.

A `Scaffold` collects assembly functions, import stubs, C strings, and
declarative Objective-C class/protocol/category specs, then emits a complete
binary plus a manifest of every address it chose.  The manifest is the
ground truth tests compare parser and analysis output against; it is derived
purely from the builder's layout, never from the code under test.

Label conventions usable from assembly source:
    fn name          -> the function's entry
    stub_<name>      -> import stub for C function <name>
    cstr_<label>     -> a C string in __cstring
    meth_<selector>  -> selector text in __objc_methname  (':' becomes '_')
    sel_<selector>   -> selector-reference slot in __objc_selrefs
    classref_<name>  -> class-reference slot in __objc_classrefs
    got_<name>       -> bound pointer slot in __got
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..macho import (
    S_ATTR_PURE_INSTRUCTIONS,
    S_ATTR_SOME_INSTRUCTIONS,
    S_CSTRING_LITERALS,
    S_SYMBOL_STUBS,
)
from .asm import assemble
from .builder import MachoBuilder, Ref

TEXT_FLAGS = S_ATTR_PURE_INSTRUCTIONS | S_ATTR_SOME_INSTRUCTIONS
RO_META = 0x1
METHOD_LIST_RELATIVE = 0x80000000
METHOD_LIST_DIRECT = 0x40000000

NOP_WORD = b"\x1f\x20\x03\xd5"
RET_WORD = b"\xc0\x03\x5f\xd6"


def sanitize(name: str) -> str:
    return re.sub(r"[^\w]", "_", name)


@dataclass
class MethodSpec:
    selector: str
    impl: str | None = None  # function label; None for protocol declarations
    types: str = "v16@0:8"


@dataclass
class ClassSpec:
    name: str
    superclass: str | None = "NSObject"  # in-image spec name or external name
    methods: list[MethodSpec] = field(default_factory=list)
    class_methods: list[MethodSpec] = field(default_factory=list)
    protocols: list[str] = field(default_factory=list)
    ivars: list[tuple[str, str]] = field(default_factory=list)  # (name, type enc)
    properties: list[tuple[str, str]] = field(default_factory=list)
    relative_methods: bool = False
    relative_direct: bool = False


@dataclass
class ProtocolSpec:
    name: str
    required: list[MethodSpec] = field(default_factory=list)
    optional: list[MethodSpec] = field(default_factory=list)
    inherits: list[str] = field(default_factory=list)


@dataclass
class CategorySpec:
    name: str
    target: str  # in-image spec name or external class name
    methods: list[MethodSpec] = field(default_factory=list)
    class_methods: list[MethodSpec] = field(default_factory=list)


class Scaffold:
    def __init__(self, base: int = 0x100000000):
        self.b = MachoBuilder(base)
        self.text = self.b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS)
        self._cstr = None
        self._stub_section = None
        self._stub_names: list[str] = []
        self._got = None
        self._got_slots: dict[str, int] = {}
        self._functions: list[tuple[str, int]] = []  # (label, text offset)
        self._fn_exported: dict[str, bool] = {}
        self._methname = None
        self._sel_offsets: dict[str, int] = {}
        self._selref = None
        self._selref_slots: dict[str, list[int]] = {}
        self._classname = None
        self._methtype = None
        self._type_offsets: dict[str, int] = {}
        self._class_specs: list[ClassSpec] = []
        self._protocol_specs: list[ProtocolSpec] = []
        self._category_specs: list[CategorySpec] = []
        self._classrefs_wanted: list[str] = []
        self._entitlements: str | None = None
        self._built: bytes | None = None
        self._manifest: dict | None = None

    # ---- code ----

    def func(self, name: str, source: str, exported: bool = False) -> None:
        """Assemble a function; `name` becomes a label and a `_name` symbol."""
        result = assemble(source)
        offset = self.text.append(result.code, result.relocs)
        self.b.label(name, self.text.ref(offset))
        for label, loff in result.labels.items():
            self.b.label(label, self.text.ref(offset + loff))
        self._functions.append((name, offset))
        self._fn_exported[name] = exported or name == "main"

    def raw_func(self, name: str, code: bytes, exported: bool = False) -> None:
        offset = self.text.append(code)
        self.b.label(name, self.text.ref(offset))
        self._functions.append((name, offset))
        self._fn_exported[name] = exported or name == "main"

    def stub(self, c_name: str) -> None:
        """An import stub callable as `bl stub_<c_name>`."""
        if c_name in self._stub_names:
            return
        if self._stub_section is None:
            self._stub_section = self.b.section(
                "__TEXT",
                "__stubs",
                align=4,
                flags=S_SYMBOL_STUBS | TEXT_FLAGS,
                reserved1=0,
                reserved2=4,
            )
        offset = self._stub_section.append(NOP_WORD)
        self.b.label(f"stub_{c_name}", self._stub_section.ref(offset))
        self._stub_names.append(c_name)

    def cstring(self, label: str, text: str) -> None:
        if self._cstr is None:
            self._cstr = self.b.section(
                "__TEXT", "__cstring", align=1, flags=S_CSTRING_LITERALS
            )
        offset = self._cstr.append_cstring(text)
        self.b.label(f"cstr_{label}", self._cstr.ref(offset))

    def got(self, c_name: str) -> None:
        """A non-lazily bound pointer slot named got_<c_name>."""
        if c_name in self._got_slots:
            return
        if self._got is None:
            self._got = self.b.section("__DATA_CONST", "__got")
        offset = self._got.append_u64(0)
        self._got_slots[c_name] = offset
        self.b.label(f"got_{c_name}", self._got.ref(offset))
        self.b.add_bind(self._got.ref(offset), f"_{c_name}")

    # ---- objc declarations ----

    def sel(self, selector: str) -> None:
        """Selector text in __objc_methname (idempotent)."""
        if selector in self._sel_offsets:
            return
        if self._methname is None:
            self._methname = self.b.section(
                "__TEXT", "__objc_methname", align=1, flags=S_CSTRING_LITERALS
            )
        offset = self._methname.append_cstring(selector)
        self._sel_offsets[selector] = offset
        self.b.label(f"meth_{sanitize(selector)}", self._methname.ref(offset))

    def selref(self, selector: str) -> None:
        """An __objc_selrefs slot pointing at the selector text."""
        self.sel(selector)
        if self._selref is None:
            self._selref = self.b.section("__DATA", "__objc_selrefs")
        offset = self._selref.append_u64(
            self._methname.ref(self._sel_offsets[selector])
        )
        slots = self._selref_slots.setdefault(selector, [])
        if not slots:
            self.b.label(f"sel_{sanitize(selector)}", self._selref.ref(offset))
        slots.append(offset)

    def classref(self, class_name: str) -> None:
        if class_name not in self._classrefs_wanted:
            self._classrefs_wanted.append(class_name)

    def add_class(self, spec: ClassSpec) -> None:
        self._class_specs.append(spec)

    def add_protocol(self, spec: ProtocolSpec) -> None:
        self._protocol_specs.append(spec)

    def add_category(self, spec: CategorySpec) -> None:
        self._category_specs.append(spec)

    def set_entitlements(self, xml: str) -> None:
        self._entitlements = xml

    # ---- emission ----

    @staticmethod
    def _align8(section) -> None:
        # class_ro pointers are masked with ~0x7, so records must be 8-aligned
        gap = -len(section.content) % 8
        if gap:
            section.append(b"\x00" * gap)

    def _type_ref(self, encoding: str) -> Ref:
        if self._methtype is None:
            self._methtype = self.b.section(
                "__TEXT", "__objc_methtype", align=1, flags=S_CSTRING_LITERALS
            )
        if encoding not in self._type_offsets:
            self._type_offsets[encoding] = self._methtype.append_cstring(encoding)
        return self._methtype.ref(self._type_offsets[encoding])

    def _classname_ref(self, name: str) -> Ref:
        if self._classname is None:
            self._classname = self.b.section(
                "__TEXT", "__objc_classname", align=1, flags=S_CSTRING_LITERALS
            )
        return self._classname.ref(self._classname.append_cstring(name))

    def _method_list(self, const, methods: list[MethodSpec], spec: ClassSpec | None):
        """Emit a method list; returns its Ref or 0."""
        if not methods:
            return 0
        self._align8(const)
        relative = spec is not None and spec.relative_methods
        if relative:
            flags = METHOD_LIST_RELATIVE | (
                METHOD_LIST_DIRECT if spec.relative_direct else 0
            )
            head = const.append_u32(12 | flags)
            const.append_u32(len(methods))
            for m in methods:
                self.sel(m.selector)
                if spec.relative_direct:
                    name_target = self._methname.ref(self._sel_offsets[m.selector])
                else:
                    if m.selector not in self._selref_slots:
                        self.selref(m.selector)
                    slot = self._selref_slots[m.selector][0]
                    name_target = self._selref.ref(slot)
                const.append_i32_delta(name_target)
                const.append_i32_delta(self._type_ref(m.types))
                if m.impl is None:
                    const.append_i32_delta(0)
                else:
                    const.append_i32_delta(Ref(self.text, self._fn_offset(m.impl)))
            return const.ref(head)
        head = const.append_u32(24)
        const.append_u32(len(methods))
        for m in methods:
            self.sel(m.selector)
            const.append_u64(self._methname.ref(self._sel_offsets[m.selector]))
            const.append_u64(self._type_ref(m.types))
            if m.impl is None:
                const.append_u64(0)
            else:
                const.append_u64(Ref(self.text, self._fn_offset(m.impl)))
        return const.ref(head)

    def _fn_offset(self, label: str) -> int:
        for name, offset in self._functions:
            if name == label:
                return offset
        raise KeyError(f"method implementation {label!r} is not a declared function")

    def _emit_objc(self) -> dict:
        b = self.b
        const = b.section("__DATA_CONST", "__objc_const")
        data = b.section("__DATA", "__objc_data")
        manifest: dict = {"classes": [], "protocols": [], "categories": []}

        proto_refs: dict[str, Ref] = {}
        for p in self._protocol_specs:
            req = self._method_list(const, p.required, None)
            opt = self._method_list(const, p.optional, None)
            inherit = 0
            if p.inherits:
                self._align8(const)
                head = const.append_u64(len(p.inherits))
                for name in p.inherits:
                    const.append_u64(proto_refs[name])
                inherit = const.ref(head)
            self._align8(const)
            off = const.append_u64(0)  # isa
            const.append_u64(self._classname_ref(p.name))
            const.append_u64(inherit if inherit else 0)
            const.append_u64(req if req else 0)
            const.append_u64(0)  # class methods
            const.append_u64(opt if opt else 0)
            const.append_u64(0)  # optional class methods
            const.append_u64(0)  # instance properties
            const.append_u32(80)
            const.append_u32(0)
            proto_refs[p.name] = const.ref(off)
            manifest["protocols"].append(
                {
                    "name": p.name,
                    "offset": off,
                    "required": [m.selector for m in p.required],
                    "optional": [m.selector for m in p.optional],
                    "inherits": list(p.inherits),
                }
            )
        if self._protocol_specs:
            protolist = b.section("__DATA_CONST", "__objc_protolist")
            for p in self._protocol_specs:
                protolist.append_u64(proto_refs[p.name])

        # reserve class_t pairs so forward superclass references work
        placement: dict[str, tuple[int, int]] = {}
        for spec in self._class_specs:
            cls_off = data.append(b"\x00" * 40)
            meta_off = data.append(b"\x00" * 40)
            placement[spec.name] = (cls_off, meta_off)
            b.label(f"class_{sanitize(spec.name)}", data.ref(cls_off))

        def chain_root(spec: ClassSpec) -> ClassSpec | None:
            """The in-image root of spec's superclass chain, None if external."""
            seen = set()
            cur = spec
            while cur.superclass is not None:
                if cur.superclass in seen:
                    return cur  # cycle; treat the last one as root-ish
                seen.add(cur.superclass)
                nxt = next(
                    (s for s in self._class_specs if s.name == cur.superclass), None
                )
                if nxt is None:
                    return None
                cur = nxt
            return cur

        for spec in self._class_specs:
            cls_off, meta_off = placement[spec.name]

            def emit_ro(methods, is_meta: bool):
                mlist = self._method_list(const, methods, spec)
                plist = 0
                if spec.protocols and not is_meta:
                    self._align8(const)
                    head = const.append_u64(len(spec.protocols))
                    for name in spec.protocols:
                        const.append_u64(proto_refs[name])
                    plist = const.ref(head)
                ivlist = 0
                if spec.ivars and not is_meta:
                    ivar_offsets = b.section("__DATA", "__objc_ivar")
                    self._align8(const)
                    head = const.append_u32(32)
                    const.append_u32(len(spec.ivars))
                    for idx, (ivname, ivtype) in enumerate(spec.ivars):
                        slot = ivar_offsets.append_u32(8 + 8 * idx)
                        const.append_u64(ivar_offsets.ref(slot))
                        const.append_u64(self._classname_ref(ivname))
                        const.append_u64(self._type_ref(ivtype))
                        const.append_u32(3)
                        const.append_u32(8)
                    ivlist = const.ref(head)
                prlist = 0
                if spec.properties and not is_meta:
                    self._align8(const)
                    head = const.append_u32(16)
                    const.append_u32(len(spec.properties))
                    for pname, pattrs in spec.properties:
                        const.append_u64(self._classname_ref(pname))
                        const.append_u64(self._type_ref(pattrs))
                    prlist = const.ref(head)
                self._align8(const)
                ro = const.append_u32(RO_META if is_meta else 0)
                const.append_u32(0)
                const.append_u32(8)
                const.append_u32(0)
                const.append_u64(0)  # ivarLayout
                const.append_u64(self._classname_ref(spec.name))
                const.append_u64(mlist if mlist else 0)
                const.append_u64(plist if plist else 0)
                const.append_u64(ivlist if ivlist else 0)
                const.append_u64(0)  # weakIvarLayout
                const.append_u64(prlist if prlist else 0)
                return const.ref(ro)

            ro = emit_ro(spec.methods, False)
            meta_ro = emit_ro(spec.class_methods, True)
            root = chain_root(spec)

            # concrete class_t: isa, superclass, cache, vtable, data
            data.patch_u64(cls_off, data.ref(meta_off))
            if spec.superclass is None:
                pass  # root: superclass stays 0, no bind
            elif spec.superclass in placement:
                data.patch_u64(cls_off + 8, data.ref(placement[spec.superclass][0]))
            else:
                b.add_bind(data.ref(cls_off + 8), f"_OBJC_CLASS_$_{spec.superclass}")
            data.patch_u64(cls_off + 32, ro)

            # meta class_t
            if root is not None:
                data.patch_u64(meta_off, data.ref(placement[root.name][1]))
            else:
                b.add_bind(data.ref(meta_off), "_OBJC_METACLASS_$_NSObject")
            if spec.superclass is None:
                data.patch_u64(meta_off + 8, data.ref(cls_off))  # root meta -> class
            elif spec.superclass in placement:
                data.patch_u64(meta_off + 8, data.ref(placement[spec.superclass][1]))
            else:
                b.add_bind(
                    data.ref(meta_off + 8), f"_OBJC_METACLASS_$_{spec.superclass}"
                )
            data.patch_u64(meta_off + 32, meta_ro)

            manifest["classes"].append(
                {
                    "name": spec.name,
                    "offset": cls_off,
                    "meta_offset": meta_off,
                    "superclass": spec.superclass,
                    "methods": [(m.selector, m.impl) for m in spec.methods],
                    "class_methods": [
                        (m.selector, m.impl) for m in spec.class_methods
                    ],
                    "protocols": list(spec.protocols),
                    "ivars": list(spec.ivars),
                    "properties": list(spec.properties),
                }
            )

        if self._class_specs:
            classlist = b.section("__DATA_CONST", "__objc_classlist")
            for spec in self._class_specs:
                classlist.append_u64(data.ref(placement[spec.name][0]))

        if self._classrefs_wanted:
            classrefs = b.section("__DATA", "__objc_classrefs")
            for name in self._classrefs_wanted:
                if name in placement:
                    off = classrefs.append_u64(data.ref(placement[name][0]))
                else:
                    off = classrefs.append_u64(0)
                    b.add_bind(classrefs.ref(off), f"_OBJC_CLASS_$_{name}")
                b.label(f"classref_{sanitize(name)}", classrefs.ref(off))

        for cat in self._category_specs:
            catlist = b.section("__DATA_CONST", "__objc_catlist")
            # the method lists before the record
            mlist = self._method_list(const, cat.methods, None)
            cmlist = self._method_list(const, cat.class_methods, None)
            self._align8(const)
            rec = const.append_u64(self._classname_ref(cat.name))
            if cat.target in placement:
                const.append_u64(data.ref(placement[cat.target][0]))
            else:
                slot = const.append_u64(0)
                b.add_bind(const.ref(slot), f"_OBJC_CLASS_$_{cat.target}")
            const.append_u64(mlist if mlist else 0)
            const.append_u64(cmlist if cmlist else 0)
            const.append_u64(0)  # protocols
            const.append_u64(0)  # properties
            catlist.append_u64(const.ref(rec))
            manifest["categories"].append(
                {
                    "name": cat.name,
                    "target": cat.target,
                    "methods": [(m.selector, m.impl) for m in cat.methods],
                    "class_methods": [(m.selector, m.impl) for m in cat.class_methods],
                }
            )
        self._placement = placement
        return manifest

    def build(self) -> tuple[bytes, dict]:
        if self._built is not None:
            return self._built, self._manifest
        objc_part = (
            self._emit_objc()
            if (self._class_specs or self._protocol_specs or self._category_specs
                or self._classrefs_wanted)
            else {"classes": [], "protocols": [], "categories": []}
        )
        for name in self._stub_names:
            self.b.add_undefined(f"_{name}")
        if self._stub_names:
            base_index = len(self.b._symbols) - len(self._stub_names)
            self.b.set_indirect_symbols(
                list(range(base_index, base_index + len(self._stub_names)))
            )
        for name, offset in self._functions:
            self.b.add_symbol(
                f"_{name}", self.text.ref(offset), external=self._fn_exported[name]
            )
        self.b.set_function_starts(
            [self.text.ref(offset) for _, offset in self._functions]
        )
        if self._entitlements is not None:
            self.b.set_entitlements(self._entitlements)
        blob = self.b.build()

        functions = {
            name: self.text.va + offset for name, offset in self._functions
        }
        manifest = {
            "base": self.b.base,
            "functions": functions,
            "labels": {
                name: ref.resolve() for name, ref in self.b._labels.items()
            },
            "function_starts": sorted(functions.values()),
            "stubs": {
                name: self._stub_section.va + 4 * i
                for i, name in enumerate(self._stub_names)
            }
            if self._stub_names
            else {},
            "selrefs": {
                sel: [self._selref.va + off for off in offs]
                for sel, offs in self._selref_slots.items()
            },
            "classes": [],
            "protocols": [],
            "categories": objc_part["categories"],
        }
        const = self.b._sections.get(("__DATA_CONST", "__objc_const"))
        for entry in objc_part["protocols"]:
            manifest["protocols"].append(
                {**entry, "address": const.va + entry.pop("offset")}
            )
        data = self.b._sections.get(("__DATA", "__objc_data"))
        for entry in objc_part["classes"]:
            impls = {
                sel: functions[impl]
                for sel, impl in entry["methods"] + entry["class_methods"]
                if impl is not None
            }
            manifest["classes"].append(
                {
                    "name": entry["name"],
                    "address": data.va + entry["offset"],
                    "meta_address": data.va + entry["meta_offset"],
                    "superclass": entry["superclass"],
                    "methods": [sel for sel, _ in entry["methods"]],
                    "class_methods": [sel for sel, _ in entry["class_methods"]],
                    "impls": impls,
                    "protocols": entry["protocols"],
                    "ivars": entry["ivars"],
                    "properties": entry["properties"],
                }
            )
        self._built, self._manifest = blob, manifest
        return blob, manifest
