"""Loader tests: ULEB128, fat containers, load commands, linkedit payloads."""

import random
import struct
import time

import pytest

from lios.errors import (
    BadMagic,
    MalformedLoadCommand,
    OverlongUleb,
    TruncatedFile,
    UnsupportedArch,
)
from lios.fixtures.builder import ARM64, ARMV7, MachoBuilder, build_fat
from lios.macho import (
    S_ATTR_PURE_INSTRUCTIONS,
    S_ATTR_SOME_INSTRUCTIONS,
    MachoImage,
    Segment,
    _parse_bind_stream,
    decode_function_starts,
    decode_uleb128,
    encode_uleb128,
    parse_fat,
    parse_macho,
    section_bytes,
    va_to_offset,
)
from lios.pipeline import AnalysisConfig, run_pipeline

from conftest import segment_fileoff_field
from lios.fixtures import corpus
from oracles import uleb_decode_oracle, uleb_encode_oracle

TEXT_FLAGS = S_ATTR_PURE_INSTRUCTIONS | S_ATTR_SOME_INSTRUCTIONS
NOP = struct.pack("<I", 0xD503201F)
RET = struct.pack("<I", 0xD65F03C0)


def simple_image(nfuncs=3, entitlements=None, encryption=None):
    b = MachoBuilder()
    text = b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS)
    starts = []
    for i in range(nfuncs):
        starts.append(text.ref(text.append(NOP * (i + 1) + RET)))
    data = b.section("__DATA", "__payload")
    data.append(b"hello\x00")
    b.set_function_starts(starts)
    b.add_symbol("_main", text.ref(0), external=True)
    if entitlements is not None:
        b.set_entitlements(entitlements)
    if encryption is not None:
        b.set_encryption(encryption)
    blob = b.build()
    return b, blob


class TestUleb:
    def test_spec_vectors(self):
        assert decode_uleb128(bytes([0x00]), 0) == (0, 1)
        assert decode_uleb128(bytes([0x7F]), 0) == (127, 1)
        assert decode_uleb128(bytes([0xE5, 0x8E, 0x26]), 0) == (624485, 3)
        # hand expansion of the three-byte vector
        assert 0x65 + 0x0E * 2**7 + 0x26 * 2**14 == 624485

    def test_encoder_matches_oracle(self):
        rng = random.Random(7)
        values = [0, 1, 127, 128, 624485, 2**64 - 1]
        values += [rng.getrandbits(rng.randrange(1, 65)) for _ in range(500)]
        for v in values:
            assert encode_uleb128(v) == uleb_encode_oracle(v), hex(v)

    def test_roundtrip_against_oracle_decoder(self):
        rng = random.Random(11)
        for _ in range(500):
            v = rng.getrandbits(rng.randrange(1, 65))
            enc = encode_uleb128(v)
            assert decode_uleb128(enc, 0) == uleb_decode_oracle(enc) == (v, len(enc))

    def test_offset_decoding(self):
        data = b"\xff" + bytes([0xE5, 0x8E, 0x26]) + b"\x00"
        assert decode_uleb128(data, 1) == (624485, 4)

    def test_truncated(self):
        with pytest.raises(TruncatedFile):
            decode_uleb128(bytes([0x80]), 0)
        with pytest.raises(TruncatedFile):
            decode_uleb128(b"", 0)

    def test_overlong(self):
        with pytest.raises(OverlongUleb):
            decode_uleb128(bytes([0x80] * 10 + [0x01]), 0)
        # exactly ten bytes is the legal maximum for a u64
        ten = bytes([0x80] * 9 + [0x01])
        assert decode_uleb128(ten, 0) == (1 << 63, 10)


class TestFunctionStarts:
    BASE = 0x100000000

    def test_immediate_terminator(self):
        assert decode_function_starts(bytes([0x00]), self.BASE) == []

    def test_two_deltas(self):
        got = decode_function_starts(bytes([0x10, 0x20, 0x00]), self.BASE)
        assert got == [0x100000010, 0x100000030]

    def test_multibyte_delta(self):
        got = decode_function_starts(bytes([0x80, 0x01, 0x04, 0x00]), self.BASE)
        assert got == [0x100000080, 0x100000084]

    def test_strictly_increasing(self):
        rng = random.Random(3)
        deltas = [rng.randrange(1, 1 << 20) for _ in range(64)]
        payload = b"".join(encode_uleb128(d) for d in deltas) + b"\x00"
        got = decode_function_starts(payload, self.BASE)
        assert got == sorted(got) and len(set(got)) == len(got)


class TestFat:
    def test_thin_passthrough(self):
        _, blob = simple_image()
        assert parse_fat(blob) == [("arm64", range(0, len(blob)))]

    def test_two_slice_fat(self):
        _, arm = simple_image()
        armv7 = b"\x00" * 64  # placeholder slice; never parsed
        fat = build_fat(
            [(ARM64, 0, arm), (ARMV7, 0, armv7)], offsets=[0x4000, 0x24000]
        )
        slices = dict(parse_fat(fat))
        assert slices["arm64"] == range(0x4000, 0x4000 + len(arm))
        assert slices["armv7"] == range(0x24000, 0x24000 + 64)
        image = parse_macho(fat[slices["arm64"].start : slices["arm64"].stop])
        assert image.function_starts == parse_macho(arm).function_starts
        assert section_bytes(image, "__TEXT", "__text") == section_bytes(
            parse_macho(arm), "__TEXT", "__text"
        )

    def test_slice_past_end(self):
        _, arm = simple_image()
        fat = bytearray(build_fat([(ARM64, 0, arm)]))
        struct.pack_into(">I", fat, 8 + 12, 1 << 30)  # blow up the slice size
        with pytest.raises(TruncatedFile):
            parse_fat(bytes(fat))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_fat(b"\x7fELF" + b"\x00" * 60)
        with pytest.raises(TruncatedFile):
            parse_fat(b"\xca")


class TestParseMacho:
    def test_function_starts_match_manifest(self):
        b, blob = simple_image(nfuncs=3)
        image = parse_macho(blob)
        text = b.section("__TEXT", "__text")
        want = sorted(text.va + off for off in (0, 8, 20))
        assert image.function_starts == want
        assert len(image.function_starts) == 3

    def test_empty_function_starts(self):
        b = MachoBuilder()
        text = b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS)
        text.append(RET)
        b.set_function_starts([])
        image = parse_macho(b.build())
        assert image.function_starts == []

    def test_unknown_command_preserved(self):
        # an unknown command is skipped; the image around it parses intact
        b = MachoBuilder()
        b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS).append(RET)
        b.add_raw_command(0x5A, b"opaque")
        image = parse_macho(b.build())
        assert section_bytes(image, "__TEXT", "__text") == RET

    def test_cmdsize_overrun(self):
        b, blob = simple_image()
        blob = bytearray(blob)
        # first load command is LC_SEGMENT_64 at offset 32; wreck its cmdsize
        struct.pack_into("<I", blob, 36, 1 << 24)
        with pytest.raises(MalformedLoadCommand):
            parse_macho(bytes(blob))
        struct.pack_into("<I", blob, 36, 4)  # smaller than the 8-byte header
        with pytest.raises(MalformedLoadCommand):
            parse_macho(bytes(blob))

    def test_non_arm64_rejected(self):
        _, blob = simple_image()
        blob = bytearray(blob)
        struct.pack_into("<i", blob, 4, 0x01000007)  # x86_64
        with pytest.raises(UnsupportedArch):
            parse_macho(bytes(blob))

    def test_thirty_two_bit_rejected(self):
        with pytest.raises(UnsupportedArch):
            parse_macho(struct.pack("<I", 0xFEEDFACE) + b"\x00" * 60)

    def test_garbage_rejected(self):
        with pytest.raises(BadMagic):
            parse_macho(b"MZ\x90\x00" + b"\x00" * 60)

    def test_encryption_id_recorded(self):
        _, blob = simple_image(encryption=1)
        assert parse_macho(blob).encryption_id == 1
        _, blob = simple_image()
        assert parse_macho(blob).encryption_id == 0

    def test_symbols(self):
        b, blob = simple_image()
        image = parse_macho(blob)
        main = [s for s in image.symbols if s.name == "_main"]
        assert len(main) == 1
        assert main[0].address == b.section("__TEXT", "__text").va
        assert not main[0].is_external and main[0].is_exported

    def test_symbol_names_keep_the_first_defined_named_symbol(self):
        b = MachoBuilder()
        text = b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS)
        text.append(RET * 2)
        b.add_symbol("_stab", text.ref(0), debug=True)  # debug: not a name
        b.add_symbol("", text.ref(0))  # no name
        b.add_symbol("__first", text.ref(0))  # one `_` stripped
        b.add_symbol("_second", text.ref(0))  # not the first at its address
        b.add_symbol("plain", text.ref(4))
        b.add_undefined("_objc_msgSend")  # no address
        image = parse_macho(b.build())
        va = b.section("__TEXT", "__text").va
        assert image.symbol_names == {va: "_first", va + 4: "plain"}

    def test_undefined_symbol_has_no_address(self):
        b = MachoBuilder()
        b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS).append(RET)
        b.add_undefined("_objc_msgSend")
        image = parse_macho(b.build())
        sym = next(s for s in image.symbols if s.name == "_objc_msgSend")
        assert sym.is_external and sym.address is None


def pagezero_and_text(text_fileoff):
    """A header, a __PAGEZERO and a __TEXT with no sections, and 64 bytes."""
    commands = b"".join(
        struct.pack("<II16sQQQQiiII", 0x19, 72, name, vmaddr, vmsize, fileoff, filesize,
                    0, 0, 0, 0)
        for name, vmaddr, vmsize, fileoff, filesize in [
            (b"__PAGEZERO", 0, 1 << 32, 0, 0),
            (b"__TEXT", 1 << 32, 0x4000, text_fileoff, 0x4000),
        ]
    )
    header = struct.pack("<IiiIIIII", 0xFEEDFACF, 0x0100000C, 0, 2, 2, len(commands), 0, 0)
    return header + commands + bytes(64)


class TestSegmentPastEndOfFile:
    """A segment whose file data starts past the end of the file keeps its
    slot and its vmaddr, with no file bytes and no sections."""

    def test_binds_of_later_segments_keep_their_addresses(self):
        # bind opcodes name a segment by its load-command ordinal; __TEXT is
        # ordinal 0 and every bind of the suite lies in a later segment
        blob = bytearray(corpus.msgsend_suite()[0])
        whole = parse_macho(bytes(blob))
        struct.pack_into("<Q", blob, segment_fileoff_field(blob, "__TEXT"), 1 << 40)
        image = parse_macho(bytes(blob))
        assert whole.bind_map and image.bind_map == whole.bind_map
        assert image.image_base == whole.image_base
        assert [s.name for s in image.segments] == [s.name for s in whole.segments]
        assert image.section("__TEXT", "__text") is None
        assert va_to_offset(image, whole.image_base) is None
        assert len(image.warnings) == 1

    def test_pagezero_and_far_text(self, tmp_path):
        # __TEXT is the only segment with file data, and it has none here
        assert parse_macho(pagezero_and_text(0x100)).image_base == 1 << 32
        image = parse_macho(pagezero_and_text(1 << 40))
        assert image.image_base == 1 << 32
        assert image.warnings == [
            "segment __TEXT file offset 0x10000000000 lies past the end of the "
            "file; its file data and its 0 sections dropped"
        ]
        path = tmp_path / "far_text.bin"
        path.write_bytes(pagezero_and_text(1 << 40))
        config = AnalysisConfig(input=str(path), out_dir=str(tmp_path / "out"))
        graph = run_pipeline(config).graph
        assert graph.nodes("Program")[0].get("ea") == 1 << 32


def one_segment(section_names):
    """A header and one __DATA segment that holds an empty section per name."""
    sections = b"".join(
        struct.pack("<16s16sQQIIIIIIII", name.encode(), b"__DATA", 0x4000, 0,
                    0, 0, 0, 0, 0, 0, 0, 0)
        for name in section_names
    )
    cmdsize = 72 + len(sections)
    command = struct.pack("<II16sQQQQiiII", 0x19, cmdsize, b"__DATA", 0x4000, 0x1000,
                          0, 0, 0, 0, len(section_names), 0)
    header = struct.pack("<IiiIIIII", 0xFEEDFACF, 0x0100000C, 0, 2, 1, cmdsize, 0, 0)
    return header + command + sections


class TestManySections:
    def test_sections_are_indexed_as_parsed(self):
        # parsing is linear in the section count; a scan of the earlier
        # sections per new one made this count take many seconds
        names = [f"s{i}" for i in range(20_000)]
        start = time.perf_counter()
        image = parse_macho(one_segment(names))
        assert time.perf_counter() - start < 2
        assert [s.section_name for s in image.sections.values()] == names
        assert list(image.sections) == [("__DATA", name) for name in names]
        assert image.section("__DATA", "s19999").section_name == "s19999"
        assert image.warnings == []

    def test_a_repeated_section_is_skipped(self):
        image = parse_macho(one_segment(["a", "b", "a"]))
        assert list(image.sections) == [("__DATA", "a"), ("__DATA", "b")]
        assert image.warnings == ["duplicate section (__DATA,a) skipped"]


class TestAddressing:
    def test_section_bytes_present(self):
        _, blob = simple_image()
        image = parse_macho(blob)
        assert section_bytes(image, "__TEXT", "__text")
        assert section_bytes(image, "__DATA", "__payload") == b"hello\x00"

    def test_section_bytes_absent(self):
        _, blob = simple_image()
        assert section_bytes(parse_macho(blob), "__DATA", "__nope") is None

    def test_va_to_offset_base(self):
        _, blob = simple_image()
        image = parse_macho(blob)
        assert va_to_offset(image, image.image_base) == 0

    def test_va_below_everything(self):
        _, blob = simple_image()
        assert va_to_offset(parse_macho(blob), 0x1000) is None

    def test_zerofill_tail_unmapped(self):
        b = MachoBuilder()
        b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS).append(RET)
        b.section("__DATA", "__payload").append(b"x" * 8)
        bss = b.zerofill("__DATA", "__bss", 0x100)
        blob = b.build()
        image = parse_macho(blob)
        assert va_to_offset(image, bss.va) is None
        assert section_bytes(image, "__DATA", "__bss") is None

    def test_offset_va_identity_on_section_starts(self):
        _, blob = simple_image()
        image = parse_macho(blob)
        for sect in image.sections.values():
            if sect.is_zerofill:
                continue
            assert va_to_offset(image, sect.vm_addr) == sect.file_offset


class TestEntitlements:
    PLIST = '<plist version="1.0"><dict><key>get-task-allow</key><true/></dict></plist>'

    def test_unsigned(self):
        _, blob = simple_image()
        assert parse_macho(blob).entitlements is None

    def test_present(self):
        _, blob = simple_image(entitlements=self.PLIST)
        assert parse_macho(blob).entitlements == self.PLIST

    def test_slot_length_past_end(self):
        _, blob = simple_image(entitlements=self.PLIST)
        blob = bytearray(blob)
        marker = struct.pack(">I", 0xFADE7171)
        at = bytes(blob).find(marker)
        assert at > 0
        struct.pack_into(">I", blob, at + 4, 1 << 24)  # inner blob length
        image = parse_macho(bytes(blob))
        assert image.entitlements is None
        assert image.warnings


class TestBinds:
    def test_bind_map(self):
        b = MachoBuilder()
        b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS).append(RET)
        got = b.section("__DATA_CONST", "__got")
        slot0 = got.append_u64(0)
        slot1 = got.append_u64(0)
        b.add_bind(got.ref(slot0), "_objc_msgSend")
        b.add_bind(got.ref(slot1), "_NSClassFromString")
        image = parse_macho(b.build())
        assert image.bind_map == {
            got.va + slot0: "_objc_msgSend",
            got.va + slot1: "_NSClassFromString",
        }

    def test_bind_times_count_is_bounded_by_its_segment(self):
        # SET_SEGMENT_AND_OFFSET_ULEB segment 0, offset 0; then
        # DO_BIND_ULEB_TIMES_SKIPPING_ULEB with a count of 2**40, skip 0
        stream = bytes([0x70]) + encode_uleb128(0)
        stream += bytes([0xC0]) + encode_uleb128(2**40) + encode_uleb128(0)
        image = MachoImage(
            data=stream, segments=[Segment("__DATA", 0x4000, 0x100, 0, 0x100)]
        )
        binds = _parse_bind_stream(image, 0, len(stream))
        assert len(binds) <= 0x100 // 8
        assert [w for w in image.warnings if w.startswith("bind stream malformed: ")]
        assert len(image.warnings) == 1

    def test_bind_times_inside_its_segment(self):
        stream = bytes([0x71]) + encode_uleb128(0x10)
        stream += bytes([0xC0]) + encode_uleb128(3) + encode_uleb128(8)
        segments = [
            Segment("__TEXT", 0x0, 0x4000, 0, 0x4000),
            Segment("__DATA", 0x4000, 0x40, 0, 0x40),
        ]
        image = MachoImage(data=stream, segments=segments)
        assert _parse_bind_stream(image, 0, len(stream)) == {
            0x4010: "", 0x4020: "", 0x4030: ""
        }
        assert image.warnings == []
        # one more bind would cover 0x4040..0x4048, past the segment's end
        stream = stream[:-2] + encode_uleb128(4) + encode_uleb128(8)
        image = MachoImage(data=stream, segments=segments)
        assert _parse_bind_stream(image, 0, len(stream)) == {}
        assert len(image.warnings) == 1

    def test_bind_times_with_no_segment_chosen(self):
        stream = bytes([0xC0]) + encode_uleb128(1) + encode_uleb128(0)
        image = MachoImage(
            data=stream, segments=[Segment("__DATA", 0x4000, 0x100, 0, 0x100)]
        )
        assert _parse_bind_stream(image, 0, len(stream)) == {}
        assert image.warnings[0].startswith("bind stream malformed: ")

    @pytest.mark.parametrize(
        "tail, binds, warnings",
        [
            # SET_ADDEND_SLEB is skipped, and DO_BIND_ADD_ADDR_IMM_SCALED
            # with immediate 1 steps 8 + 1 * 8 bytes
            (b"\x40_a\x00\x60\x78\xb1\x90\x00", {0x4000: "_a", 0x4010: "_a"}, []),
            (b"\x90\xd0\x90", {0x4000: ""}, ["unknown bind opcode 0xd0"]),
            (b"\x40_a", {}, ["bind stream malformed: unterminated bind symbol name"]),
        ],
    )
    def test_addend_scaled_unknown_and_unterminated(self, tail, binds, warnings):
        # SET_SEGMENT_AND_OFFSET_ULEB segment 0, offset 0, then the tail
        stream = bytes([0x70]) + encode_uleb128(0) + tail
        image = MachoImage(
            data=stream, segments=[Segment("__DATA", 0x4000, 0x100, 0, 0x100)]
        )
        assert _parse_bind_stream(image, 0, len(stream)) == binds
        assert image.warnings == warnings

    def test_indirect_symbols(self):
        b = MachoBuilder()
        b.section("__TEXT", "__text", align=4, flags=TEXT_FLAGS).append(RET)
        i0 = b.add_undefined("_free")
        i1 = b.add_undefined("_malloc")
        b.set_indirect_symbols([i1, i0])
        image = parse_macho(b.build())
        assert image.indirect_symbols == [i1, i0]


class TestFuzzSmoke:
    def test_mutated_headers_never_crash(self):
        _, blob = simple_image()
        rng = random.Random(42)
        for _ in range(2000):
            mutated = bytearray(blob)
            for _ in range(rng.randrange(1, 8)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                parse_macho(bytes(mutated))
            except Exception as exc:
                from lios.errors import LiosError

                assert isinstance(exc, LiosError), type(exc)
