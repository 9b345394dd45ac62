"""Objective-C runtime metadata: classes, meta-classes, protocols, selectors.

Reads the `__objc_*` sections of a parsed image.  Class records follow the
modern 64-bit ABI: class_t is five 8-byte words (isa, superclass, cache,
vtable, data) with the read-only class_ro record hanging off the low-bit
masked `data` word.  Malformed entries degrade to per-entry warnings; parsing
never aborts on bad metadata.
"""

from __future__ import annotations

import logging
import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .errors import CyclicSuperclassChain, DanglingReference
from .macho import (
    MachoImage,
    c_name,
    read_cstring,
    read_struct,
    section_bytes,
    strip_pac,
    va_to_offset,
)

log = logging.getLogger(__name__)

RO_META = 0x1

# method_list_t entsize flags
METHOD_LIST_RELATIVE = 0x80000000
METHOD_LIST_DIRECT_SELECTORS = 0x40000000

_DATA_SEGMENTS = ("__DATA", "__DATA_CONST", "__DATA_DIRTY")


@dataclass
class ObjcMethod:
    selector: str
    impl_address: int | None


@dataclass
class ObjcClass:
    name: str
    address: int
    superclass_ref: int | None
    metaclass_ref: int | None
    methods: list[ObjcMethod] = field(default_factory=list)
    ivars: list[tuple[str, str, int]] = field(default_factory=list)
    protocol_refs: list[int] = field(default_factory=list)
    is_metaclass: bool = False
    is_external: bool = False
    malformed: bool = False
    superclass_name: str | None = None  # for import-bound superclasses


@dataclass
class ObjcProtocol:
    name: str
    address: int
    required_methods: list[ObjcMethod] = field(default_factory=list)
    optional_methods: list[ObjcMethod] = field(default_factory=list)
    inherited_protocol_refs: list[int] = field(default_factory=list)


@dataclass
class ObjcModel:
    classes: list[ObjcClass]
    protocols: list[ObjcProtocol]
    by_address: dict[int, ObjcClass]
    by_name: dict[str, ObjcClass]
    protocol_by_address: dict[int, ObjcProtocol]
    method_index: dict[int, tuple[ObjcClass, ObjcMethod]]
    selmap: dict[int, str] | None = None  # selref slot -> selector
    image: MachoImage | None = None
    warnings: list[str] = field(default_factory=list)

    def superclass_of(self, cls: ObjcClass) -> ObjcClass | None:
        if cls.superclass_ref is not None:
            return self.by_address.get(cls.superclass_ref)
        if cls.superclass_name is not None:
            return self.by_name.get(cls.superclass_name)
        return None

    def lookup(self, class_name: str, selector: str) -> tuple[ObjcClass, ObjcMethod] | None:
        """Walk the hierarchy upward from class_name for a selector match.

        The walk starts at the class `by_name` holds, the concrete class
        when there is one, so it reads instance methods whatever the
        receiver: a send to a class object (a classref) looks up an instance
        method too, not a class method. `msgsend_suite`'s `site_const`
        relies on this: it sends `doWork` to `classref_Worker`, and its
        manifest expects `-[Worker doWork]`."""
        cls = self.by_name.get(class_name)
        seen = set()
        while cls is not None and cls.address not in seen:
            seen.add(cls.address)
            for m in cls.methods:
                if m.selector == selector:
                    return cls, m
            cls = self.superclass_of(cls)
        return None

    def protocols_of(self, cls: ObjcClass) -> list[ObjcProtocol]:
        return [
            self.protocol_by_address[ref]
            for ref in cls.protocol_refs
            if ref in self.protocol_by_address
        ]

    def class_of_impl(self, ea: int) -> tuple[ObjcClass, ObjcMethod] | None:
        return self.method_index.get(ea)


def _pointer_slots(image: MachoImage, section_name: str) -> list[tuple[int, int]]:
    """(slot address, PAC-masked value) pairs of an 8-byte-pointer section,
    read from the first data segment whose section has file bytes."""
    for seg in _DATA_SEGMENTS:
        data = section_bytes(image, seg, section_name)
        if data is not None:
            base = image.section(seg, section_name).vm_addr
            return [
                (base + i, strip_pac(struct.unpack_from("<Q", data, i)[0]))
                for i in range(0, len(data) - len(data) % 8, 8)
            ]
    return []


def parse_selrefs(image: MachoImage) -> dict[int, str]:
    """Dereference each `__objc_selrefs` slot into `__objc_methname`."""
    selmap: dict[int, str] = {}
    methname = image.section("__TEXT", "__objc_methname")
    slots = _pointer_slots(image, "__objc_selrefs") or _pointer_slots(
        image, "__objc_selref"
    )
    for slot, target in slots:
        if methname is None or not methname.contains_va(target):
            image.warnings.append(f"selref slot {slot:#x} points outside __objc_methname")
            continue
        text = read_cstring(image, target)
        if text is None:
            continue
        selmap[slot] = text
    return selmap


def _pointers(image: MachoImage, va: int, n: int, what: str) -> list[int]:
    """The n PAC-masked 8-byte words of a record at `va`; a record that is
    unmapped or runs past the end of the file raises DanglingReference."""
    off = va_to_offset(image, va)
    if off is None:
        raise DanglingReference(f"{what} at {va:#x} unmapped")
    return [strip_pac(w) for w in read_struct(image, f"<{n}Q", off)]


def _entries(
    image: MachoImage,
    va: int,
    header_fmt: str,
    what: str,
    entry_fmt: str | Callable[[int], str],
) -> tuple[tuple, Iterable[tuple]]:
    """(header, entries) of the count-prefixed list at `va`; a null list is empty.

    The count is the header's last field.  `entry_fmt` is one entry's format,
    or a function of the header's first field that gives it.  All entries
    must lie inside the file before any is read, so a bad count fails at once
    with the error its first missing entry would raise.  The fields of
    8-byte-word entries come PAC-masked."""
    if va == 0:
        return struct.unpack(header_fmt, bytes(struct.calcsize(header_fmt))), ()
    off = va_to_offset(image, va)
    if off is None:
        raise DanglingReference(f"{what} at {va:#x} unmapped")
    header = read_struct(image, header_fmt, off)
    if callable(entry_fmt):
        entry_fmt = entry_fmt(header[0])
    start, size = off + struct.calcsize(header_fmt), struct.calcsize(entry_fmt)
    fit = (len(image.data) - start) // size
    if header[-1] > fit:
        raise DanglingReference(
            f"{size} bytes at {start + fit * size:#x} lie past the end of the file"
        )
    entries = struct.iter_unpack(entry_fmt, image.data[start : start + header[-1] * size])
    if "Q" in entry_fmt:
        entries = (tuple(map(strip_pac, e)) for e in entries)
    return header, entries


def _read_method_list(image: MachoImage, va: int, in_image: bool) -> list[ObjcMethod]:
    (flags, _), entries = _entries(
        image,
        va,
        "<II",
        "method list",
        lambda flags: "<iii" if flags & METHOD_LIST_RELATIVE else "<QQQ",
    )
    if not flags & METHOD_LIST_RELATIVE:
        return [
            ObjcMethod(read_cstring(image, name) or "", imp if in_image and imp else None)
            for name, _types, imp in entries
        ]
    if flags & 0xFFFF != 12:
        raise DanglingReference(f"relative method list entsize {flags & 0xFFFF}")
    methods = []
    for i, (name_off, _types_off, imp_off) in enumerate(entries):
        base = va + 8 + i * 12
        name_target = base + name_off
        if not flags & METHOD_LIST_DIRECT_SELECTORS:
            (name_target,) = _pointers(image, name_target, 1, "relative selector slot")
        selector = read_cstring(image, name_target) or ""
        methods.append(ObjcMethod(selector, base + 8 + imp_off if in_image else None))
    return methods


def _read_protocol_refs(image: MachoImage, va: int) -> list[int]:
    _, entries = _entries(image, va, "<Q", "protocol list", "<Q")
    return [ref for (ref,) in entries]


def _read_ivars(image: MachoImage, va: int) -> list[tuple[str, str, int]]:
    _, entries = _entries(image, va, "<II", "ivar list", "<QQQII")
    out = []
    for offset_ptr, name_ptr, type_ptr, _align, _size in entries:
        slot = va_to_offset(image, offset_ptr) if offset_ptr else None
        ivar_offset = 0 if slot is None else read_struct(image, "<I", slot)[0]
        type_enc = read_cstring(image, type_ptr) or ""
        out.append((read_cstring(image, name_ptr) or "", type_enc, ivar_offset))
    return out


def _parse_class_t(
    image: MachoImage, address: int, is_meta: bool, warnings: list[str]
) -> ObjcClass:
    isa, superclass, _cache, _vtable, data = _pointers(image, address, 5, "class_t")
    # class_ro: flags and three more 4-byte scalars, then ivarLayout, name,
    # baseMethodList, baseProtocols, ivars, weakIvarLayout, baseProperties
    flags, _, _, name_ptr, methods_ptr, protocols_ptr, ivars_ptr, _, props_ptr = (
        _pointers(image, data & ~0x7, 9, "class_ro")
    )
    name = read_cstring(image, name_ptr) or f"class@{address:#x}"

    superclass_name = None
    if superclass == 0:
        bound = image.bind_map.get(address + 8)
        if bound is not None:
            superclass_name = strip_class_prefix(bound)
    cls = ObjcClass(
        name=name,
        address=address,
        superclass_ref=superclass or None,
        metaclass_ref=isa or None,
        is_metaclass=is_meta or bool(flags & RO_META),
        superclass_name=superclass_name,
    )
    try:
        cls.methods = _read_method_list(image, methods_ptr, True)
        cls.protocol_refs = _read_protocol_refs(image, protocols_ptr)
        cls.ivars = _read_ivars(image, ivars_ptr)
        # nothing reads the properties, but a list that does not lie wholly
        # inside the file marks its class malformed
        _entries(image, props_ptr, "<II", "property list", "<QQ")
    except DanglingReference as exc:
        cls.malformed = True
        warnings.append(f"class {name}: {exc}")
    return cls


def strip_class_prefix(symbol: str) -> str:
    """The class name in an `_OBJC_CLASS_$_`/`_OBJC_METACLASS_$_` symbol."""
    for prefix in ("_OBJC_CLASS_$_", "_OBJC_METACLASS_$_"):
        if symbol.startswith(prefix):
            return symbol[len(prefix) :]
    return c_name(symbol)


def method_name(is_class_method: bool, owner: str, selector: str) -> str:
    """A method's display name: `+[Owner sel]` or `-[Owner sel]`."""
    return f"{'+' if is_class_method else '-'}[{owner} {selector}]"


def parse_classlist(image: MachoImage) -> list[ObjcClass]:
    """Concrete classes from `__objc_classlist` plus their meta-classes and
    placeholder entries for import-bound external superclasses."""
    warnings = image.warnings
    out: list[ObjcClass] = []
    seen: dict[int, ObjcClass] = {}
    for slot, target in _pointer_slots(image, "__objc_classlist"):
        if target == 0:
            bound = image.bind_map.get(slot)
            if bound:
                warnings.append(f"classlist slot {slot:#x} binds external {bound}")
            continue
        try:
            cls = _parse_class_t(image, target, False, warnings)
        except DanglingReference as exc:
            warnings.append(f"classlist slot {slot:#x}: {exc}")
            out.append(
                ObjcClass(
                    name=f"malformed@{target:#x}",
                    address=target,
                    superclass_ref=None,
                    metaclass_ref=None,
                    malformed=True,
                )
            )
            continue
        seen[cls.address] = cls
        out.append(cls)
        if cls.metaclass_ref and cls.metaclass_ref not in seen:
            if va_to_offset(image, cls.metaclass_ref) is None:
                bound = image.bind_map.get(target)  # isa is word 0 of class_t
                name = strip_class_prefix(bound) if bound else f"external@{cls.metaclass_ref:#x}"
                meta = ObjcClass(
                    name=name,
                    address=cls.metaclass_ref,
                    superclass_ref=None,
                    metaclass_ref=None,
                    is_metaclass=True,
                    is_external=True,
                )
            else:
                try:
                    meta = _parse_class_t(image, cls.metaclass_ref, True, warnings)
                except DanglingReference as exc:
                    warnings.append(f"meta-class of {cls.name}: {exc}")
                    continue
            seen[meta.address] = meta
            out.append(meta)

    # one placeholder per external superclass that a bind symbol names
    names = {c.name for c in out}
    for cls in list(out):
        if cls.superclass_name and cls.superclass_name not in names:
            names.add(cls.superclass_name)
            slot_addr = cls.address + 8
            out.append(
                ObjcClass(
                    name=cls.superclass_name,
                    address=slot_addr,
                    superclass_ref=None,
                    metaclass_ref=None,
                    is_metaclass=cls.is_metaclass,
                    is_external=True,
                )
            )
    out.sort(key=lambda c: c.address)
    return out


def _parse_protocol_t(image: MachoImage, address: int) -> ObjcProtocol:
    _isa, name_ptr, protos, inst, cls, opt_inst, opt_cls = _pointers(
        image, address, 7, "protocol_t"
    )
    return ObjcProtocol(
        name=read_cstring(image, name_ptr) or f"protocol@{address:#x}",
        address=address,
        required_methods=_read_method_list(image, inst, False)
        + _read_method_list(image, cls, False),
        optional_methods=_read_method_list(image, opt_inst, False)
        + _read_method_list(image, opt_cls, False),
        inherited_protocol_refs=_read_protocol_refs(image, protos),
    )


def parse_protocols(image: MachoImage) -> list[ObjcProtocol]:
    out = []
    for slot, target in _pointer_slots(image, "__objc_protolist"):
        if target == 0:
            continue
        try:
            out.append(_parse_protocol_t(image, target))
        except DanglingReference as exc:
            image.warnings.append(f"protolist slot {slot:#x}: {exc}")
    out.sort(key=lambda p: p.address)
    return out


@dataclass
class ObjcCategory:
    name: str
    class_ref: int | None
    class_name: str | None
    methods: list[ObjcMethod]
    class_methods: list[ObjcMethod]


def parse_categories(image: MachoImage) -> list[ObjcCategory]:
    out = []
    for slot, target in _pointer_slots(image, "__objc_catlist"):
        if target == 0:
            continue
        try:
            name_ptr, cls_ref, inst, class_meth = _pointers(image, target, 4, "category_t")
        except DanglingReference as exc:
            image.warnings.append(f"catlist slot {slot:#x}: {exc}")
            continue
        name = read_cstring(image, name_ptr) or f"category@{target:#x}"
        class_name = None
        if not cls_ref:
            bound = image.bind_map.get(target + 8)
            class_name = strip_class_prefix(bound) if bound else None
        methods, class_methods = [], []
        try:
            methods = _read_method_list(image, inst, True)
            class_methods = _read_method_list(image, class_meth, True)
        except DanglingReference as exc:
            image.warnings.append(f"category {name}: {exc}")
        out.append(ObjcCategory(name, cls_ref or None, class_name, methods, class_methods))
    return out


def build_hierarchy(
    classes: list[ObjcClass],
    protocols: list[ObjcProtocol],
    categories: list[ObjcCategory] = (),
    selmap: dict[int, str] | None = None,
    image: MachoImage | None = None,
) -> ObjcModel:
    warnings: list[str] = []
    by_address = {c.address: c for c in classes}
    by_name: dict[str, ObjcClass] = {}
    for c in sorted(classes, key=lambda c: c.address):
        existing = by_name.get(c.name)
        # concrete class wins the name slot over its meta-class
        if existing is None or (existing.is_metaclass and not c.is_metaclass):
            by_name[c.name] = c

    model = ObjcModel(
        classes=sorted(classes, key=lambda c: c.address),
        protocols=sorted(protocols, key=lambda p: p.address),
        by_address=by_address,
        by_name=by_name,
        protocol_by_address={p.address: p for p in protocols},
        method_index={},
        selmap=selmap,
        image=image,
        warnings=warnings,
    )

    # merge category methods into their target classes
    for cat in categories:
        target = None
        if cat.class_ref is not None:
            target = by_address.get(cat.class_ref)
        elif cat.class_name is not None:
            target = by_name.get(cat.class_name)
        if target is None:
            warnings.append(f"category {cat.name} targets an unknown class")
            continue
        # class methods go to the meta-class; a class's own method wins
        meta = by_address.get(target.metaclass_ref)
        for owner, methods in ((target, cat.methods), (meta, cat.class_methods)):
            if owner is not None:
                known = {m.selector for m in owner.methods}
                owner.methods.extend(m for m in methods if m.selector not in known)

    # break concrete superclass cycles
    for cls in model.classes:
        if cls.is_metaclass:
            continue
        seen = {cls.address}
        cur = cls
        while True:
            nxt = model.superclass_of(cur)
            if nxt is None:
                break
            if nxt.address in seen:
                warnings.append(
                    f"{CyclicSuperclassChain.__name__}: {cur.name} -> {nxt.name}; edge dropped"
                )
                cur.superclass_ref = None
                cur.superclass_name = None
                break
            seen.add(nxt.address)
            cur = nxt

    # validate the root meta-class self-cycle when the root is in-image
    for cls in model.classes:
        if cls.is_metaclass or cls.is_external or cls.malformed:
            continue
        if cls.superclass_ref is None and cls.superclass_name is None:
            meta = by_address.get(cls.metaclass_ref) if cls.metaclass_ref else None
            if meta is None or meta.is_external:
                continue
            if (meta.metaclass_ref, meta.superclass_ref) != (meta.address, cls.address):
                warnings.append(
                    f"root {cls.name}: meta-class isa/superclass cycle malformed"
                )

    for cls in model.classes:
        for m in cls.methods:
            if m.impl_address is None:
                continue
            if m.impl_address in model.method_index:
                warnings.append(
                    f"impl {m.impl_address:#x} claimed by two methods; keeping first"
                )
                continue
            model.method_index[m.impl_address] = (cls, m)
    return model


def load_model(image: MachoImage) -> ObjcModel:
    """One-call frontend: parse every objc section and build the model."""
    classes = parse_classlist(image)
    protocols = parse_protocols(image)
    categories = parse_categories(image)
    selmap = parse_selrefs(image)
    return build_hierarchy(classes, protocols, categories, selmap, image)
