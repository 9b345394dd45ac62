"""Class, protocol, category, and selector parsing against built fixtures.

Every expectation comes from the fixture manifest, which the scaffold derives
from its own layout decisions, never from the parser under test.
"""

import struct

import pytest

from conftest import segment_fileoff_field
from lios.disasm import function_name
from lios.fixtures.builder import MachoBuilder
from lios.fixtures.scaffold import (
    CategorySpec,
    ClassSpec,
    MethodSpec,
    ProtocolSpec,
    Scaffold,
)
from lios.macho import parse_macho, read_u64, va_to_offset
from lios.objc import (
    build_hierarchy,
    load_model,
    parse_categories,
    parse_classlist,
    parse_protocols,
    parse_selrefs,
    _pointer_slots,
)

RET = b"\xc0\x03\x5f\xd6"


def two_class_scaffold() -> Scaffold:
    s = Scaffold()
    for fn in ("a_hello", "a_shared", "b_hello", "b_extra"):
        s.raw_func(fn, RET)
    s.add_class(
        ClassSpec(
            name="Alpha",
            superclass="NSObject",
            methods=[MethodSpec("hello", "a_hello")],
            class_methods=[MethodSpec("sharedInstance", "a_shared")],
            ivars=[("_count", "q")],
            properties=[("count", "Tq,N,V_count")],
        )
    )
    s.add_class(
        ClassSpec(
            name="Beta",
            superclass="Alpha",
            methods=[
                MethodSpec("hello", "b_hello"),
                MethodSpec("extra:", "b_extra"),
            ],
        )
    )
    s.selref("hello")
    s.selref("extra:")
    s.selref("hello")  # a second slot for the same selector
    return s


@pytest.fixture(scope="module")
def two_class():
    s = two_class_scaffold()
    blob, manifest = s.build()
    return parse_macho(blob), manifest


class TestClasslist:
    def test_names_and_addresses(self, two_class):
        image, manifest = two_class
        classes = parse_classlist(image)
        concrete = {c.name: c for c in classes if not c.is_metaclass}
        for entry in manifest["classes"]:
            assert concrete[entry["name"]].address == entry["address"]

    def test_metaclasses_present(self, two_class):
        image, manifest = two_class
        classes = parse_classlist(image)
        metas = {c.address: c for c in classes if c.is_metaclass and not c.is_external}
        for entry in manifest["classes"]:
            assert entry["meta_address"] in metas
            assert metas[entry["meta_address"]].name == entry["name"]

    def test_sorted_by_address(self, two_class):
        image, _ = two_class
        classes = parse_classlist(image)
        assert [c.address for c in classes] == sorted(c.address for c in classes)

    def test_external_superclass_placeholder(self, two_class):
        image, _ = two_class
        classes = parse_classlist(image)
        externals = [c for c in classes if c.is_external]
        assert any(c.name == "NSObject" for c in externals)

    def test_one_placeholder_per_external_superclass(self):
        s = Scaffold()
        for name, superclass in (("A", "NSObject"), ("B", "NSObject"), ("V", "UIView")):
            s.add_class(ClassSpec(name=name, superclass=superclass))
        classes = parse_classlist(parse_macho(s.build()[0]))
        by_name = {c.name: c for c in classes if not c.is_metaclass}
        externals = [(c.name, c.address) for c in classes if c.is_external]
        # each placeholder sits at the superclass slot of its first subclass
        assert externals == [
            ("NSObject", by_name["A"].address + 8),
            ("UIView", by_name["V"].address + 8),
        ]

    def test_method_impls_match_manifest(self, two_class):
        image, manifest = two_class
        classes = parse_classlist(image)
        by_addr = {c.address: c for c in classes}
        for entry in manifest["classes"]:
            cls = by_addr[entry["address"]]
            got = {m.selector: m.impl_address for m in cls.methods}
            meta = by_addr[entry["meta_address"]]
            got.update({m.selector: m.impl_address for m in meta.methods})
            want = entry["impls"]
            for sel, ea in want.items():
                assert got[sel] == ea, f"{entry['name']} -{sel}"

    def test_ivars_and_properties(self, two_class):
        image, manifest = two_class
        classes = parse_classlist(image)
        alpha = next(c for c in classes if c.name == "Alpha" and not c.is_metaclass)
        assert [(n, t) for n, t, _off in alpha.ivars] == [("_count", "q")]
        assert alpha.ivars[0][2] == 8  # first ivar sits after the isa word
        assert not alpha.malformed  # its property list lies inside the file

    def test_slots_come_from_the_section_with_bytes(self):
        # a zero-fill `__DATA,__objc_classlist` comes first in the segment
        # search; slot addresses and values both come from the section in
        # `__DATA_CONST` that holds the bytes
        s = two_class_scaffold()
        s.b.zerofill("__DATA", "__objc_classlist", 64)
        blob, manifest = s.build()
        image = parse_macho(blob)
        sect = image.section("__DATA_CONST", "__objc_classlist")
        slots = _pointer_slots(image, "__objc_classlist")
        assert [slot for slot, _ in slots] == [
            sect.vm_addr + 8 * i for i in range(len(manifest["classes"]))
        ]
        assert sorted(value for _, value in slots) == sorted(
            entry["address"] for entry in manifest["classes"]
        )


class TestSelrefs:
    def test_slots_match_manifest(self, two_class):
        image, manifest = two_class
        selmap = parse_selrefs(image)
        for sel, slots in manifest["selrefs"].items():
            assert {slot for slot, name in selmap.items() if name == sel} == set(slots)
            for slot in slots:
                assert selmap[slot] == sel

    def test_dangling_slot_is_skipped(self):
        s = Scaffold()
        s.raw_func("f", RET)
        s.selref("real")
        blob, _ = s.build()
        # point the second half of a valid slot into nowhere
        image = parse_macho(blob)
        sect = image.section("__DATA", "__objc_selrefs")
        mutated = bytearray(blob)
        struct.pack_into("<Q", mutated, sect.file_offset, 0xDEAD0000)
        image = parse_macho(bytes(mutated))
        selmap = parse_selrefs(image)
        assert selmap == {}
        assert any("selref" in w for w in image.warnings)


class TestHierarchy:
    def test_lookup_walks_superclass_chain(self, two_class):
        image, _ = two_class
        model = load_model(image)
        cls, method = model.lookup("Beta", "hello")
        assert cls.name == "Beta"  # override shadows Alpha's copy
        beta = model.by_name["Beta"]
        alpha = model.by_name["Alpha"]
        assert model.superclass_of(beta) is alpha
        # a selector only Alpha defines resolves through the chain
        model.by_name["Beta"].methods = [
            m for m in beta.methods if m.selector != "hello"
        ]
        cls, _ = model.lookup("Beta", "hello")
        assert cls.name == "Alpha"

    def test_method_index_round_trip(self, two_class):
        image, manifest = two_class
        model = load_model(image)
        for entry in manifest["classes"]:
            for sel, ea in entry["impls"].items():
                cls, method = model.class_of_impl(ea)
                assert cls.name == entry["name"]
                assert method.selector == sel

    def test_in_image_root_self_cycle(self):
        s = Scaffold()
        s.raw_func("r", RET)
        s.add_class(
            ClassSpec(name="Root", superclass=None, methods=[MethodSpec("go", "r")])
        )
        s.add_class(ClassSpec(name="Kid", superclass="Root"))
        blob, _ = s.build()
        model = load_model(parse_macho(blob))
        assert not any("cycle malformed" in w for w in model.warnings)
        root = model.by_name["Root"]
        meta = model.by_address[root.metaclass_ref]
        assert meta.metaclass_ref == meta.address
        assert meta.superclass_ref == root.address
        kid_meta = model.by_address[model.by_name["Kid"].metaclass_ref]
        assert kid_meta.metaclass_ref == meta.address

    def test_external_root_has_no_cycle_verdict(self, two_class):
        image, _ = two_class
        model = load_model(image)
        assert not any("cycle malformed" in w for w in model.warnings)

    @pytest.mark.parametrize("word", [0, 1], ids=["isa", "superclass"])
    def test_broken_root_meta_class_cycle_is_reported(self, word):
        s = Scaffold()
        s.add_class(ClassSpec(name="Root", superclass=None))
        blob, manifest = s.build()
        meta_ea = manifest["classes"][0]["meta_address"]
        blob = bytearray(blob)
        offset = va_to_offset(parse_macho(bytes(blob)), meta_ea) + 8 * word
        struct.pack_into("<Q", blob, offset, 0)
        model = load_model(parse_macho(bytes(blob)))
        assert model.warnings.count(
            "root Root: meta-class isa/superclass cycle malformed"
        ) == 1

    def test_superclass_cycle_broken(self):
        s = Scaffold()
        s.add_class(ClassSpec(name="Ouro", superclass="Boros"))
        s.add_class(ClassSpec(name="Boros", superclass="Ouro"))
        blob, _ = s.build()
        model = load_model(parse_macho(blob))
        assert any("CyclicSuperclassChain" in w for w in model.warnings)
        seen = set()
        cls = model.by_name["Ouro"]
        while cls is not None:
            assert cls.address not in seen
            seen.add(cls.address)
            cls = model.superclass_of(cls)


class TestProtocols:
    def test_required_optional_split(self):
        s = Scaffold()
        s.add_protocol(
            ProtocolSpec(
                name="Greeter",
                required=[MethodSpec("greet:")],
                optional=[MethodSpec("wave")],
            )
        )
        s.add_protocol(ProtocolSpec(name="Super", inherits=["Greeter"]))
        s.add_class(ClassSpec(name="Impl", protocols=["Greeter"]))
        blob, manifest = s.build()
        image = parse_macho(blob)
        protocols = parse_protocols(image)
        by_name = {p.name: p for p in protocols}
        greeter = by_name["Greeter"]
        assert [m.selector for m in greeter.required_methods] == ["greet:"]
        assert [m.selector for m in greeter.optional_methods] == ["wave"]
        assert greeter.address == next(
            p["address"] for p in manifest["protocols"] if p["name"] == "Greeter"
        )
        assert by_name["Super"].inherited_protocol_refs == [greeter.address]
        model = load_model(image)
        impl = model.by_name["Impl"]
        assert [p.name for p in model.protocols_of(impl)] == ["Greeter"]

    def test_protocol_methods_have_no_impl(self):
        s = Scaffold()
        s.add_protocol(ProtocolSpec(name="P", required=[MethodSpec("x")]))
        blob, _ = s.build()
        protocols = parse_protocols(parse_macho(blob))
        assert protocols[0].required_methods[0].impl_address is None


class TestCategories:
    def test_category_merges_without_clobbering(self):
        s = Scaffold()
        s.raw_func("base_f", RET)
        s.raw_func("cat_f", RET)
        s.raw_func("cat_g", RET)
        s.add_class(
            ClassSpec(name="Host", methods=[MethodSpec("f", "base_f")])
        )
        s.add_category(
            CategorySpec(
                name="Extras",
                target="Host",
                methods=[MethodSpec("f", "cat_f"), MethodSpec("g", "cat_g")],
            )
        )
        blob, manifest = s.build()
        image = parse_macho(blob)
        cats = parse_categories(image)
        assert [c.name for c in cats] == ["Extras"]
        model = load_model(image)
        host = model.by_name["Host"]
        impls = {m.selector: m.impl_address for m in host.methods}
        # the class's own f wins; the category contributes only g
        assert impls["f"] == manifest["functions"]["base_f"]
        assert impls["g"] == manifest["functions"]["cat_g"]

    def test_category_class_methods_join_the_meta_class(self):
        s = Scaffold()
        for label in ("own_m", "cat_m", "cat_cm", "own_both", "cat_both", "cat_plus_m"):
            s.raw_func(label, RET)
        s.add_class(
            ClassSpec(
                name="Sub",
                methods=[MethodSpec("m", "own_m")],
                class_methods=[MethodSpec("both", "own_both")],
            )
        )
        s.add_category(
            CategorySpec(
                name="Extra",
                target="Sub",
                methods=[MethodSpec("m", "cat_m")],
                class_methods=[
                    MethodSpec("cm", "cat_cm"),
                    MethodSpec("both", "cat_both"),
                    MethodSpec("m", "cat_plus_m"),
                ],
            )
        )
        blob, manifest = s.build()
        image = parse_macho(blob)
        (cat,) = parse_categories(image)
        assert [m.selector for m in cat.methods] == ["m"]
        assert [m.selector for m in cat.class_methods] == ["cm", "both", "m"]
        model = load_model(image)
        names = {
            label: function_name(image, model, ea)
            for label, ea in manifest["functions"].items()
        }
        # a class's own method wins over a category's of its kind, and a
        # class method may share its selector with an instance method
        assert names == {
            "own_m": "-[Sub m]",
            "cat_m": "cat_m",
            "cat_cm": "+[Sub cm]",
            "own_both": "+[Sub both]",
            "cat_both": "cat_both",
            "cat_plus_m": "+[Sub m]",
        }
        meta = model.by_address[model.by_name["Sub"].metaclass_ref]
        assert [m.selector for m in meta.methods] == ["both", "cm", "m"]
        assert [m.selector for m in model.by_name["Sub"].methods] == ["m"]

    def test_category_on_external_class_warns(self):
        s = Scaffold()
        s.raw_func("h", RET)
        s.add_category(
            CategorySpec(name="Ext", target="NSString", methods=[MethodSpec("z", "h")])
        )
        blob, _ = s.build()
        image = parse_macho(blob)
        cats = parse_categories(image)
        assert cats[0].class_name == "NSString"
        model = build_hierarchy([], [], cats)
        assert any("unknown class" in w for w in model.warnings)


class TestRelativeMethodLists:
    @pytest.mark.parametrize("direct", [False, True])
    def test_parses_like_plain_format(self, direct):
        def build(relative: bool):
            s = Scaffold()
            s.raw_func("m1", RET)
            s.raw_func("m2", RET)
            s.add_class(
                ClassSpec(
                    name="C",
                    methods=[MethodSpec("one", "m1"), MethodSpec("two:", "m2")],
                    relative_methods=relative,
                    relative_direct=direct,
                )
            )
            blob, manifest = s.build()
            return parse_macho(blob), manifest

        plain_image, plain_manifest = build(False)
        rel_image, rel_manifest = build(True)
        plain = next(
            c for c in parse_classlist(plain_image) if c.name == "C" and not c.is_metaclass
        )
        rel = next(
            c for c in parse_classlist(rel_image) if c.name == "C" and not c.is_metaclass
        )
        assert [m.selector for m in rel.methods] == [m.selector for m in plain.methods]
        assert {m.selector: m.impl_address for m in rel.methods} == {
            sel: rel_manifest["classes"][0]["impls"][sel] for sel in ("one", "two:")
        }
        assert {m.selector: m.impl_address for m in plain.methods} == {
            sel: plain_manifest["classes"][0]["impls"][sel] for sel in ("one", "two:")
        }


class TestMalformedMetadata:
    def test_dangling_class_ro_degrades_to_placeholder(self):
        b = MachoBuilder()
        text = b.section("__TEXT", "__text", align=4)
        text.append(RET)
        data = b.section("__DATA", "__objc_data")
        cls = data.append(b"\x00" * 40)
        data.patch_u64(cls + 32, 0xDEAD0000)  # class_ro points nowhere
        classlist = b.section("__DATA_CONST", "__objc_classlist")
        classlist.append_u64(data.ref(cls))
        image = parse_macho(b.build())
        classes = parse_classlist(image)
        assert len(classes) == 1
        assert classes[0].malformed
        assert classes[0].name.startswith("malformed@")
        assert image.warnings

    def test_bad_method_list_marks_class_malformed(self):
        b = MachoBuilder()
        text = b.section("__TEXT", "__text", align=4)
        text.append(RET)
        const = b.section("__DATA_CONST", "__objc_const")
        ro = const.append_u32(0)  # ro record first: data & ~0x7 must hit it exactly
        const.append_u32(0)
        const.append_u32(8)
        const.append_u32(0)
        const.append_u64(0)
        name_field = const.append_u64(0)
        const.append_u64(0xDEAD0000)  # method list pointer lands nowhere
        const.append_u64(0)
        const.append_u64(0)
        const.append_u64(0)
        const.append_u64(0)
        name_off = const.append(b"Broken\x00")
        const.patch_u64(name_field, const.ref(name_off))
        data = b.section("__DATA", "__objc_data")
        cls = data.append(b"\x00" * 40)
        data.patch_u64(cls + 32, const.ref(ro))
        classlist = b.section("__DATA_CONST", "__objc_classlist")
        classlist.append_u64(data.ref(cls))
        image = parse_macho(b.build())
        classes = parse_classlist(image)
        broken = next(c for c in classes if c.name == "Broken")
        assert broken.malformed
        assert any("Broken" in w for w in image.warnings)

    def test_method_list_running_past_end_of_file(self, two_class):
        # a method count far beyond the file: the entries run out of bytes
        image, _ = two_class
        alpha = next(c for c in parse_classlist(image) if c.name == "Alpha")
        blob = bytearray(image.data)
        ro = va_to_offset(image, read_u64(image, alpha.address + 32) & ~0x7)
        methods = va_to_offset(image, struct.unpack_from("<Q", blob, ro + 32)[0])
        struct.pack_into("<I", blob, methods + 4, 0x7FFFFFFF)
        mutated = parse_macho(bytes(blob))
        broken = next(c for c in parse_classlist(mutated) if c.name == "Alpha")
        assert broken.malformed
        assert any(w.startswith("class Alpha: ") for w in mutated.warnings)

    def test_property_list_running_past_end_of_file(self, two_class):
        # nothing reads the properties, but a dangling list still marks
        # its class malformed
        image, _ = two_class
        alpha = next(c for c in parse_classlist(image) if c.name == "Alpha")
        blob = bytearray(image.data)
        ro = va_to_offset(image, read_u64(image, alpha.address + 32) & ~0x7)
        props = va_to_offset(image, struct.unpack_from("<Q", blob, ro + 64)[0])
        struct.pack_into("<I", blob, props + 4, 0x7FFFFFFF)
        mutated = parse_macho(bytes(blob))
        broken = next(c for c in parse_classlist(mutated) if c.name == "Alpha")
        assert broken.malformed
        assert any(
            w.startswith("class Alpha: 16 bytes at ")
            and w.endswith(" lie past the end of the file")
            for w in mutated.warnings
        )

    @pytest.mark.parametrize(
        "fileoff",
        [1 << 40, 1 << 63, -16],
        ids=["past_end", "past_ssize_t", "runs_past_end"],
    )
    def test_class_ro_past_end_of_file(self, fileoff):
        # the segment holding class_ro claims a file offset far past the end
        # of the file, past what a C offset can hold, or 16 bytes before it
        blob = bytearray(two_class_scaffold().build()[0])
        field = segment_fileoff_field(blob, "__DATA_CONST")
        struct.pack_into("<Q", blob, field, fileoff if fileoff > 0 else len(blob) + fileoff)
        image = parse_macho(bytes(blob))
        in_image = [c for c in parse_classlist(image) if not c.is_external]
        if fileoff > 0:
            # no byte of it is in the file: its sections go, the class list
            # among them
            assert in_image == []
            assert image.warnings == [
                f"segment __DATA_CONST file offset {fileoff:#x} lies past the end "
                "of the file; its file data and its 2 sections dropped"
            ]
        else:
            # it starts inside the file, so it stays, and each class_ro read
            # runs past the end
            assert in_image and all(c.name.startswith("malformed@") for c in in_image)
            assert any("past the end of the file" in w for w in image.warnings)

    def test_no_objc_sections_is_empty_model(self):
        b = MachoBuilder()
        b.section("__TEXT", "__text", align=4).append(RET)
        model = load_model(parse_macho(b.build()))
        assert model.classes == []
        assert model.protocols == []
