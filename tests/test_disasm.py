"""Decoder, CFG, use-def, backtrace, and devirtualization tests.

Hand-stated expectations come from assembling known source; cross-checks use
the brute-force oracles in oracles.py over the same effective def/use sets.
"""

import dataclasses
import hashlib
import operator
import random
import re
import shutil
import struct
import subprocess

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lios.disasm import (
    BasicBlock,
    CallSite,
    CONST_STRING,
    Instruction,
    Loc,
    OWN_SELECTOR,
    SELF_REF,
    UNKNOWN,
    backtrace,
    build_function,
    build_function_from_instructions,
    call_effects_from_sites,
    compute_effects,
    compute_use_def,
    decode,
    devirtualize,
    mem,
    reg,
    stack_slot,
    _loc_for,
    _locs,
)
from conftest import lift_fixture
from lios.errors import EmptyRange
from lios.fixtures import corpus
from lios.fixtures.asm import assemble
from lios.fixtures.scaffold import ClassSpec, MethodSpec, Scaffold
from lios.macho import parse_macho
from lios.objc import load_model
from oracles import (
    constant_paths_oracle,
    reaching_defs_oracle,
    register_moves_oracle,
    value_paths_oracle,
)

ORIGIN = 0x100004000


def fn_from_asm(source: str, origin: int = ORIGIN, name: str = "f"):
    res = assemble(source, origin=origin)
    instrs = [
        decode(res.code[i : i + 4], origin + i) for i in range(0, len(res.code), 4)
    ]
    return build_function_from_instructions(instrs, name)


def instr_successors(fn):
    succ = {}
    for b in fn.blocks:
        for i, ins in enumerate(b.instructions):
            if i + 1 < len(b.instructions):
                succ[ins.ea] = [b.instructions[i + 1].ea]
            else:
                succ[ins.ea] = list(b.successors)
    return succ


def use_def_and_oracle(fn, eff):
    """compute_use_def(fn, eff) and the brute-force oracle fed the same
    effects, both as {(use ea, location text): {def ea}}."""
    triples = [
        (
            ins.ea,
            {str(l) for l in eff.eff_defs[ins.ea]},
            {str(l) for l in eff.eff_uses[ins.ea]},
        )
        for ins in fn.instructions()
    ]
    oracle = reaching_defs_oracle(triples, instr_successors(fn), fn.entry_ea)
    got: dict[tuple[int, str], set[int]] = {}
    for use_ea, def_ea, loc in compute_use_def(fn, eff):
        got.setdefault((use_ea, str(loc)), set()).add(def_ea)
    return got, oracle


class TestDecode:
    def test_ret(self):
        ins = decode(struct.pack("<I", 0xD65F03C0), ORIGIN)
        assert ins.asm == "ret"
        assert ins.kind == "return"
        assert ins.defs == set()

    @pytest.mark.parametrize(
        "word, text",
        [
            (0xD65F03E0, "ret xzr"),
            (0xD61F03E0, "br xzr"),
            (0xD63F03E0, "blr xzr"),
            (0x1000001F, "adr xzr, 0x100004000"),
            (0x9000001F, "adrp xzr, 0x100004000"),
        ],
    )
    def test_register_31_is_the_zero_register(self, word, text):
        ins = decode(struct.pack("<I", word), ORIGIN)
        assert ins.asm == text
        assert ins.uses == set()
        assert ins.defs == ({reg("x30")} if ins.mnemonic == "blr" else set())

    def test_mov_immediate(self):
        ins = decode(struct.pack("<I", 0xD2800020), ORIGIN)
        assert ins.asm == "mov x0, #1"
        assert ins.kind == "assignment"
        assert ins.defs == {reg("x0")}
        assert ins.immediate == 1

    def test_zero_word_is_opaque(self):
        ins = decode(b"\x00\x00\x00\x00", ORIGIN)
        assert ins.kind == "other"
        assert ins.asm == ".word 0x00000000"
        assert ins.defs == set() and ins.uses == set()

    def test_unknown_encodings_are_values(self):
        for word in (0xFFFFFFFF, 0x4E281C05, 0x1E604000, 0x9BC07C00):
            ins = decode(struct.pack("<I", word), ORIGIN)
            assert ins.kind == "other"
            assert ins.asm == f".word 0x{word:08x}"

    @pytest.mark.parametrize(
        "word",
        [
            0x8BC20020,  # add x0, x1, x2 with shift type 3
            0x0B028020,  # add w0, w1, w2 shifted by 32
            0xE9400000,  # ldp with opc 11
            0x69008BE1,  # stgp x1, x2, [sp, #16]: stores a tag, outside the subset
            0x52DD34D6,  # movz w22 with hw 2: a shift by 32 needs an x register
            0x72E00020,  # movk w0 with hw 3
        ],
        ids=hex,
    )
    def test_reserved_encodings_are_opaque(self, word):
        ins = decode(struct.pack("<I", word), ORIGIN)
        # the same as any word outside the covered forms
        assert ins == Instruction(
            ORIGIN, ins.bytes, f".word 0x{word:08x}", "other", mnemonic=".word"
        )

    def test_wide_move_shifts_past_32_bits_only_in_x_registers(self):
        # the x form of 0x52DD34D6, the reserved `mov w22, #0xe9a6 << 32`
        ins = decode(struct.pack("<I", 0xD2DD34D6), ORIGIN)
        assert ins.asm == "mov x22, #256899173842944"
        assert ins.immediate == 0xE9A6 << 32 and ins.defs == {reg("x22")}

    def test_ldpsw_loads_two_words_into_x_registers(self):
        ldpsw = decode(struct.pack("<I", 0x69408BE1), ORIGIN)
        assert ldpsw.asm == "ldpsw x1, x2, [sp, #4]"
        assert ldpsw.defs == {reg("x1"), reg("x2")} and ldpsw.uses == {reg("sp")}
        assert not ldpsw.sixty_four and ldpsw.mem_offset == 4
        fn = build_function_from_instructions([ldpsw])
        assert compute_effects(fn).eff_uses[ORIGIN] == {
            reg("sp"), stack_slot(4), stack_slot(8)
        }

    @pytest.mark.parametrize(
        "text",
        [
            "mov x0, #1",
            "mov w7, #65535",
            "movk x0, #2, lsl #16",
            "mov x8, x9",
            "add x0, x1, #4",
            "add x2, x1, #1, lsl #12",
            "sub sp, sp, #32",
            "adds x4, x1, x2",
            "sub x3, x2, x1",
            "cmp x0, x1",
            "cmp x0, #5",
            "cmn x3, #0",
            "ldr x0, [x1]",
            "ldr x0, [sp, #16]",
            "ldr w5, [x2, #8]",
            "str x0, [sp, #24]",
            "str w1, [x2]",
            "ldur x3, [x1, #-8]",
            "stur x3, [x1, #-16]",
            "ldr x9, [x10, #8]!",
            "str x9, [x10], #16",
            "stp x29, x30, [sp, #-16]!",
            "ldp x29, x30, [sp], #16",
            "stp x20, x21, [sp, #32]",
            "blr x8",
            "br x8",
            "ret",
            "nop",
        ],
    )
    def test_canonical_text_reassembles_identically(self, text):
        code = assemble(text).code
        rendered = decode(code, 0).asm
        assert assemble(rendered).code == code

    def test_w_registers_normalize_to_x_locations(self):
        ins = decode(assemble("mov w3, #7").code, ORIGIN)
        assert ins.asm == "mov w3, #7"
        assert ins.defs == {reg("x3")}

    def test_zero_register_is_not_a_location(self):
        ins = decode(assemble("str xzr, [x1]").code, ORIGIN)
        assert ins.uses == {reg("x1")}
        ins = decode(assemble("mov x0, xzr").code, ORIGIN)
        assert ins.uses == set() and ins.defs == {reg("x0")}
        ins = decode(assemble("stp xzr, x1, [sp, #16]").code, ORIGIN)
        assert ins.defs == set() and ins.uses == {reg("sp"), reg("x1")}
        # equal sets are one shared frozenset, whatever order built them
        assert type(ins.uses) is frozenset and type(ins.defs) is frozenset
        assert ins.uses is decode(assemble("str x1, [sp]").code, ORIGIN).uses
        ins = decode(assemble("ldp x2, xzr, [x3], #16").code, ORIGIN)
        assert ins.defs == {reg("x2"), reg("x3")} and ins.uses == {reg("x3")}

    def test_branch_target_arithmetic(self):
        code = assemble("b target\nnop\ntarget: nop", origin=ORIGIN).code
        ins = decode(code[:4], ORIGIN)
        assert ins.branch_target == ORIGIN + 8
        back = assemble("target: nop\nb target", origin=ORIGIN).code
        ins = decode(back[4:8], ORIGIN + 4)
        assert ins.branch_target == ORIGIN

    def test_conditional_branches(self):
        src = "top: b.ne top\ncbz x0, top\ncbnz w1, top\ntbz x2, #3, top\ntbnz x2, #33, top"
        code = assemble(src, origin=ORIGIN).code
        for i in range(0, len(code), 4):
            ins = decode(code[i : i + 4], ORIGIN + i)
            assert ins.kind == "branch" and ins.conditional
            assert ins.branch_target == ORIGIN

    def test_call_defines_link_register(self):
        bl = decode(assemble("bl 0x40", origin=0).code, 0)
        assert bl.kind == "call"
        assert bl.defs == {reg("x30")}
        ins = decode(assemble("blr x8").code, 0)
        assert ins.defs == {reg("x30")} and ins.uses == {reg("x8")}
        assert type(ins.defs) is frozenset and ins.defs is bl.defs

    def test_adrp_page_math(self):
        code = assemble("lbl: adrp x8, lbl@page", origin=0x100004A00).code
        ins = decode(code, 0x100004A00)
        assert ins.immediate == 0x100004000
        assert ins.defs == {reg("x8")}

    def test_alignment_and_width_invariants(self):
        ins = decode(assemble("nop").code, ORIGIN)
        assert ins.ea % 4 == 0 and len(ins.bytes) == 4


# The fixed bits (mask, value) of each decoded form, spelled out from the
# architecture manual here rather than read from the decoder.
DECODED_FORMS = (
    (0xFFFFFFFF, 0xD503201F),  # nop
    (0xFFFFFC1F, 0xD65F0000),  # ret
    (0xFFFFFC1F, 0xD61F0000),  # br
    (0xFFFFFC1F, 0xD63F0000),  # blr
    (0x7C000000, 0x14000000),  # b, bl
    (0xFF000010, 0x54000000),  # b.cond
    (0x7E000000, 0x34000000),  # cbz, cbnz
    (0x7E000000, 0x36000000),  # tbz, tbnz
    (0x9F000000, 0x90000000),  # adrp
    (0x9F000000, 0x10000000),  # adr
    (0x1F800000, 0x12800000),  # movn, movz, movk
    (0x7FE0FFE0, 0x2A0003E0),  # orr rd, zr, rm
    (0x1F800000, 0x11000000),  # add/sub immediate
    (0x1F200000, 0x0B000000),  # add/sub shifted register
    (0xFFC00000, 0xF9400000),  # ldr x, unsigned offset
    (0xFFC00000, 0xF9000000),  # str x, unsigned offset
    (0xFFC00000, 0xB9400000),  # ldr w, unsigned offset
    (0xFFC00000, 0xB9000000),  # str w, unsigned offset
    (0xFFE00000, 0xF8400000),  # ldur/ldr x, imm9
    (0xFFE00000, 0xF8000000),  # stur/str x, imm9
    (0xFFE00000, 0xB8400000),  # ldur/ldr w, imm9
    (0xFFE00000, 0xB8000000),  # stur/str w, imm9
    (0x3E000000, 0x28000000),  # ldp, stp
)


def pinned_words() -> list[int]:
    """62,000 words: random ones, and random ones forced into each form's
    fixed bits."""
    rng = random.Random(18)
    words = [rng.getrandbits(32) for _ in range(16_000)]
    for mask, value in DECODED_FORMS:
        words += [rng.getrandbits(32) & ~mask | value for _ in range(2_000)]
    return words


def test_decoder_output_is_pinned():
    """Every slot of the pinned words' decodes hashes to one digest.
    Location sets enter as sorted text, since frozenset order follows
    PYTHONHASHSEED, plus whether the set is the shared `_locs` object."""
    words = pinned_words()
    names = [f.name for f in dataclasses.fields(Instruction)]
    others = operator.attrgetter(*(n for n in names if n not in ("defs", "uses")))
    seen = {}  # id -> (set, its text); holding the set keeps its id unique

    def text(s):
        if id(s) not in seen:
            seen[id(s)] = s, repr((sorted(map(str, s)), s is _locs(*s)))
        return seen[id(s)][1]

    digest = hashlib.sha256()
    for i, word in enumerate(words):
        ins = decode(struct.pack("<I", word), ORIGIN + 4 * i)
        record = (others(ins), text(ins.defs), text(ins.uses))
        digest.update(repr(record).encode())
    assert len(words) == 62_000
    assert digest.hexdigest() == (
        "34e3e441f7325f30bebe1545b63f84d64cd6bc3519ebe953f7ad17a3269272c5"
    )


LLVM_MC = shutil.which("llvm-mc")
_PC_RELATIVE = ("b", "bl", "cbz", "cbnz", "tbz", "tbnz", "adr", "adrp")
# The two spellings where LLVM prints an alias that lios does not: a CMP/CMN
# immediate shifted by 12, which lios prints as the shifted value, and
# NEG/NEGS, which lios prints as SUB/SUBS from the zero register.
LLVM_ALIASES = (
    (
        re.compile(r"(cmp|cmn) (\w+), #(\d+), lsl #12"),
        lambda m: f"{m[1]} {m[2]}, #{int(m[3]) << 12}",
    ),
    (
        re.compile(r"neg(s?) ([xw])(\d+), (.*)"),
        lambda m: f"sub{m[1]} {m[2]}{m[3]}, {m[2]}zr, {m[4]}",
    ),
)


def llvm_as_lios(text: str, ea: int) -> tuple[str, bool]:
    """LLVM's text of the word at `ea` in lios's spelling, and whether an
    alias of `LLVM_ALIASES` was respelled.  Beyond the aliases: a PC-relative
    operand becomes its address, `b.lo`/`b.hs` become `b.cc`/`b.cs`, a
    `; =` comment and a shift by 0 are dropped, and a negative MOV
    immediate becomes its unsigned value in the register's width."""
    mnemonic, _, operands = text.split(";")[0].strip().partition("\t")
    mnemonic = {"b.lo": "b.cc", "b.hs": "b.cs"}.get(mnemonic, mnemonic)
    if mnemonic in _PC_RELATIVE or mnemonic.startswith("b."):
        head, _, offset = operands.rpartition("#")
        base = ea & ~0xFFF if mnemonic == "adrp" else ea
        operands = f"{head}0x{base + int(offset):x}"
    operands = re.sub(r", (lsl|lsr|asr) #0$", "", operands.strip())
    if mnemonic == "mov" and ", #-" in operands:
        rd, _, imm = operands.partition(", #")
        operands = f"{rd}, #{int(imm) % (1 << (64 if rd[0] == 'x' else 32))}"
    text = f"{mnemonic} {operands}".strip()
    for pattern, spelling in LLVM_ALIASES:
        m = pattern.fullmatch(text)
        if m:
            return spelling(m), True
    return text, False


@pytest.mark.skipif(LLVM_MC is None, reason="llvm-mc (LLVM's disassembler) is not installed")
def test_decoder_agrees_with_llvm():
    """LLVM's disassembler reads every pinned word that lios decodes, and
    prints it as lios does up to `llvm_as_lios`.  A word lios leaves as a
    `.word` is outside its subset, whatever LLVM reads."""
    words = pinned_words()
    listing = "".join(
        " ".join(f"0x{b:02x}" for b in struct.pack("<I", w)) + "\n" for w in words
    )
    run = subprocess.run(
        [LLVM_MC, "--disassemble", "-triple=arm64-apple-ios"],
        input=listing, capture_output=True, text=True, check=True,
    )
    invalid = {
        int(line) - 1
        for line in re.findall(
            r"<stdin>:(\d+):\d+: warning: invalid instruction encoding", run.stderr
        )
    }
    texts = [t for t in run.stdout.splitlines() if t.startswith("\t") and t[1] != "."]
    assert len(invalid) + len(texts) == len(words)  # one line per word
    texts.reverse()
    disagree, aliased = [], 0
    for i, word in enumerate(words):
        llvm = None if i in invalid else texts.pop()
        ea = ORIGIN + 4 * i
        ins = decode(struct.pack("<I", word), ea)
        if ins.mnemonic == ".word":
            continue
        text, alias = llvm_as_lios(llvm, ea) if llvm is not None else (None, False)
        aliased += alias
        if text != ins.asm:
            disagree.append(f"{word:#010x}: lios {ins.asm!r}, llvm {llvm!r}")
    assert disagree == [], f"{len(disagree)} words: {disagree[:10]}"
    assert aliased < 100  # the alias list respells a few words, not a form


class TestCfg:
    def test_straight_line_is_one_block(self):
        fn = fn_from_asm("mov x0, #1\nmov x1, #2\nret")
        assert len(fn.blocks) == 1
        assert fn.blocks[0].successors == []

    def test_single_cbz_makes_three_blocks(self):
        fn = fn_from_asm(
            """
            cbz x0, done
            mov x1, #1
            done:
            ret
            """
        )
        assert len(fn.blocks) == 3
        branch_block = fn.blocks[0]
        assert len(branch_block.successors) == 2
        assert sorted(branch_block.successors) == [ORIGIN + 4, ORIGIN + 8]

    def test_diamond(self):
        fn = fn_from_asm(
            """
            cbz x0, left
            mov x1, #1
            b join
            left:
            mov x1, #2
            join:
            ret
            """
        )
        assert len(fn.blocks) == 4
        preds = fn.predecessors
        join = fn.blocks[-1].ea
        assert len(preds[join]) == 2

    def test_loop_back_edge(self):
        fn = fn_from_asm(
            """
            mov x0, #10
            loop:
            sub x0, x0, #1
            cbnz x0, loop
            ret
            """
        )
        loop_head = ORIGIN + 4
        tail = next(b for b in fn.blocks if b.instructions[-1].mnemonic == "cbnz")
        assert loop_head in tail.successors

    def test_branch_outside_range_has_no_successor(self):
        fn = fn_from_asm("cmp x0, #0\nb 0x100009000")
        last = fn.blocks[-1]
        assert last.successors == []

    def test_calls_do_not_end_blocks(self):
        fn = fn_from_asm("mov x0, #1\nbl 0x100009000\nmov x1, #2\nret")
        assert len(fn.blocks) == 1

    def test_instructions_partition_blocks(self):
        fn = fn_from_asm(
            """
            cbz x0, out
            mov x1, #5
            cbnz x1, out
            mov x2, #6
            out:
            ret
            """
        )
        seen = set()
        for b in fn.blocks:
            expect = b.ea
            for ins in b.instructions:
                assert ins.ea == expect
                assert ins.ea not in seen
                seen.add(ins.ea)
                expect += 4
        assert seen == {ORIGIN + 4 * i for i in range(len(seen))}
        for b in fn.blocks:
            for ins in b.instructions[:-1]:
                assert not ins.ends_block

    def test_empty_range_raises(self):
        s = Scaffold()
        s.raw_func("f", b"\xc0\x03\x5f\xd6")
        blob, manifest = s.build()
        image = parse_macho(blob)
        entry = manifest["functions"]["f"]
        with pytest.raises(EmptyRange):
            build_function(image, entry, entry)
        with pytest.raises(EmptyRange):
            build_function(image, 0x7000, 0x7004)

    def test_trailing_zero_padding_dropped(self):
        fn = fn_from_asm("mov x0, #1\nret\n.word 0\n.word 0")
        assert [i.asm for i in fn.instructions()] == ["mov x0, #1", "ret"]


@pytest.fixture(scope="module")
def strings_image():
    s = Scaffold()
    s.cstring("hello", "hello world")
    s.func(
        "pair_add",
        """
        adrp x8, cstr_hello@page
        add x8, x8, cstr_hello@pageoff
        ret
        """,
    )
    s.func(
        "pair_load",
        """
        adrp x9, cstr_hello@page
        ldr x9, [x9, cstr_hello@pageoff]
        ret
        """,
    )
    s.func(
        "clobbered",
        """
        adrp x8, cstr_hello@page
        mov x8, #0
        add x0, x8, #4
        ret
        """,
    )
    blob, manifest = s.build()
    return parse_macho(blob), manifest


class TestXrefFusion:
    def test_adrp_add_fuses(self, strings_image):
        image, manifest = strings_image
        entry = manifest["functions"]["pair_add"]
        fn = build_function(image, entry, entry + 12)
        add = fn.blocks[0].instructions[1]
        assert add.xref == manifest["labels"]["cstr_hello"]

    def test_adrp_ldr_fuses(self, strings_image):
        image, manifest = strings_image
        entry = manifest["functions"]["pair_load"]
        fn = build_function(image, entry, entry + 12)
        load = fn.blocks[0].instructions[1]
        # pageoff of a label in another section still lands on the label
        assert load.xref == manifest["labels"]["cstr_hello"]

    def test_clobber_breaks_fusion(self, strings_image):
        image, manifest = strings_image
        entry = manifest["functions"]["clobbered"]
        fn = build_function(image, entry, entry + 16)
        add = fn.blocks[0].instructions[2]
        assert add.xref is None


class TestUseDef:
    def test_linear_register_chain(self):
        fn = fn_from_asm("mov x8, #5\nmov x0, x8\nret")
        edges = compute_use_def(fn)
        assert (ORIGIN + 4, ORIGIN, reg("x8")) in edges

    def test_diamond_yields_two_defs(self):
        fn = fn_from_asm(
            """
            cbz x0, left
            mov x1, #1
            b join
            left:
            mov x1, #2
            join:
            mov x2, x1
            ret
            """
        )
        edges = compute_use_def(fn)
        defs_of_use = {d for (u, d, l) in edges if l == reg("x1")}
        assert defs_of_use == {ORIGIN + 4, ORIGIN + 12}

    def test_stack_slot_round_trip(self):
        fn = fn_from_asm("str x0, [sp, #16]\nldr x1, [sp, #16]\nret")
        edges = compute_use_def(fn)
        assert (ORIGIN + 4, ORIGIN, stack_slot(16)) in edges

    def test_frame_adjustment_tracks_slots(self):
        fn = fn_from_asm(
            """
            sub sp, sp, #32
            str x0, [sp, #16]
            add x9, sp, #16
            ldr x1, [sp, #16]
            ret
            """
        )
        edges = compute_use_def(fn)
        # slot named relative to the entry frame: -32 + 16
        assert (ORIGIN + 12, ORIGIN + 4, stack_slot(-16)) in edges

    def test_parameter_use_has_no_edge(self):
        fn = fn_from_asm("mov x0, x2\nret")
        edges = compute_use_def(fn)
        assert not any(l == reg("x2") for (_, _, l) in edges)

    def test_writeback_defines_base(self):
        fn = fn_from_asm("ldr x9, [x10, #8]!\nmov x0, x10\nret")
        edges = compute_use_def(fn)
        assert (ORIGIN + 4, ORIGIN, reg("x10")) in edges

    def test_redefinition_kills(self):
        fn = fn_from_asm("mov x1, #1\nmov x1, #2\nmov x0, x1\nret")
        edges = compute_use_def(fn)
        defs_of_use = {d for (u, d, l) in edges if u == ORIGIN + 8 and l == reg("x1")}
        assert defs_of_use == {ORIGIN + 4}

    @pytest.mark.parametrize(
        "source",
        [
            "mov x1, #1\nmov x2, x1\nmov x1, #3\nadd x3, x1, x2\nret",
            """
            cbz x0, a
            mov x1, #1
            str x1, [sp, #8]
            b j
            a:
            mov x1, #2
            str x1, [sp, #8]
            j:
            ldr x2, [sp, #8]
            mov x3, x1
            ret
            """,
            """
            mov x0, #4
            loop:
            sub x0, x0, #1
            str x0, [sp, #24]
            ldr x1, [sp, #24]
            cbnz x0, loop
            mov x2, x1
            ret
            """,
        ],
    )
    def test_matches_brute_force_oracle(self, source):
        fn = fn_from_asm(source)
        got, oracle = use_def_and_oracle(fn, compute_effects(fn))
        assert got == oracle

    def test_call_site_uses_match_brute_force_oracle(self):
        # every call site reads its argument registers, a tail-call `b`
        # included, and its edges are the ones the oracle finds
        blob, manifest = corpus.msgsend_suite()
        _image, model, functions = lift_fixture(blob, manifest)
        for fn in functions.values():
            sites = devirtualize(fn, model, functions=functions)
            eff = compute_effects(fn, call_effects_from_sites(sites))
            got, oracle = use_def_and_oracle(fn, eff)
            assert got == oracle, fn.name
            if fn.entry_ea == manifest["functions"]["site_tail"]:
                tail = fn.entry_ea + 16  # adrp/ldr x0, adrp/ldr x1, b
                assert got[(tail, "x0")] == {fn.entry_ea + 4}
                assert got[(tail, "x1")] == {fn.entry_ea + 12}
                assert eff.eff_defs[tail] == frozenset()


class TestLocValues:
    def test_text_of_each_kind(self):
        assert str(reg("x0")) == "x0"
        assert str(stack_slot(-8)) == "stack-8"
        assert str(stack_slot(16)) == "stack+16"
        assert str(mem(0x100008010)) == "mem:0x100008010"

    def test_equal_by_value(self):
        assert Loc("stack", -8) == stack_slot(-8)
        assert hash(Loc("reg", "x5")) == hash(reg("x5"))
        assert len({mem(0x10), mem(0x10), stack_slot(0x10)}) == 2

    def test_registers_are_interned(self):
        assert reg("x3") is reg("x3")
        assert reg("sp") is reg("sp")
        assert _loc_for(3) is reg("x3")

    def test_register_31_is_sp_only_where_allowed(self):
        assert _loc_for(31) is None
        assert _loc_for(31, sp_ok=True) == reg("sp")

    def test_records_have_no_instance_dict(self):
        ins = Instruction(ORIGIN, struct.pack("<I", 0xD503201F), "nop", "nop")
        block = BasicBlock(ORIGIN, [ins])
        for record in (ins, block):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.unknown_field = 1


def shift_chain(registers: int) -> str:
    """Entry sets x0..x{registers-1} to 1.  Each trip round the loop moves
    every register of the chain up by one and counts x0 up, so the chain's
    constants die one register per fixpoint round; the loop head adds to
    the last one."""
    top = registers - 1
    lines = [f"mov x{i}, #1" for i in range(registers)]
    lines += ["loop:", f"add x28, x{top}, #1"]
    lines += [f"mov x{i}, x{i - 1}" for i in range(top, 0, -1)]
    lines += ["add x0, x0, #1", "cbnz x0, loop", "ret"]
    return "\n".join(lines)


def shuffled_layout(rng, blocks: dict[str, list[str]]) -> str:
    """Assembly for `blocks` with the entry block first and the rest in a
    random order.  Every block ends in a branch or `ret`, so the order
    changes the addresses and nothing else."""
    names = list(blocks)
    rest = names[1:]
    rng.shuffle(rest)
    return "\n".join(
        line for name in names[:1] + rest for line in [f"{name}:", *blocks[name]]
    )


def random_blocks(rng) -> dict[str, list[str]]:
    """3 to 10 labelled blocks of moves, adds, frame stores and loads and
    calls, each ending in `ret` or in branches to random blocks."""
    count = rng.randint(3, 10)
    blocks = {}
    for b in range(count):
        lines = []
        for _ in range(rng.randint(1, 5)):
            d, n = rng.randint(2, 6), rng.randint(2, 6)
            lines.append(rng.choice([
                f"mov x{d}, #{rng.randint(0, 3)}",
                f"mov x{d}, x{n}",
                f"add x{d}, x{n}, #{rng.randint(0, 2)}",
                f"str x{d}, [sp, #{8 * rng.randint(0, 3)}]",
                f"ldr x{d}, [sp, #{8 * rng.randint(0, 3)}]",
                f"str x{d}, [sp, #-16]!",
                "sub sp, sp, #16",
                "bl 0x100009000",
            ]))
        first, second = (f"L{rng.randrange(count)}" for _ in range(2))
        lines += rng.choices(
            [
                ["ret"],
                [f"b {first}"],
                [f"cbnz x{rng.randint(2, 6)}, {first}", f"b {second}"],
            ],
            weights=[1, 1, 2],
        )[0]
        blocks[f"L{b}"] = lines
    return blocks


def effects_by_line(source: str, blocks: dict[str, list[str]]) -> dict:
    """Each source line's effects as text, keyed by (block label, line)."""
    res = assemble(source, origin=ORIGIN)
    fn = build_function_from_instructions(
        [decode(res.code[i : i + 4], ORIGIN + i) for i in range(0, len(res.code), 4)]
    )
    eff = compute_effects(fn)
    rows = {}
    for label, lines in blocks.items():
        for i in range(len(lines)):
            ea = ORIGIN + res.labels[label] + 4 * i
            row = eff.assign[ea]
            rows[label, i] = (
                sorted(map(str, eff.eff_defs[ea])),
                sorted(map(str, eff.eff_uses[ea])),
                [(str(loc), *map(str, prov)) for loc, prov in zip(row[::2], row[1::2])],
            )
    return rows


# Scaffold functions with back edges: a loop whose constants die one
# register per round, a loop body laid out before its test, and a body laid
# out before its only predecessor
SCAFFOLD_LOOPS = {
    "shift": shift_chain(6).replace("loop", "shift_loop"),
    "countdown": """
        mov x2, #5
        b countdown_test
        countdown_body:
        str x2, [sp, #8]
        sub x2, x2, #1
        countdown_test:
        cbnz x2, countdown_body
        ldr x0, [sp, #8]
        ret
    """,
    "swing": """
        nop
        swing_head:
        b swing_tail
        swing_body:
        str x1, [sp, #8]
        bl 0x100009000
        b swing_head
        swing_tail:
        cbz x0, swing_body
        ret
    """,
}


def scaffold_loop_bodies() -> list:
    s = Scaffold()
    for name, source in SCAFFOLD_LOOPS.items():
        s.func(name, source)
    blob, manifest = s.build()
    image = parse_macho(blob)
    bodies = []
    for name, source in SCAFFOLD_LOOPS.items():
        lines = [line for line in source.split("\n") if line.strip()]
        entry = manifest["functions"][name]
        count = sum(not line.strip().endswith(":") for line in lines)
        bodies.append(build_function(image, entry, entry + 4 * count))
    return bodies


BLOCK_ORDER_BODIES = {
    "msgsend_suite": lambda: lift_fixture(*corpus.msgsend_suite())[2].values(),
    "listing_one_app": lambda: lift_fixture(*corpus.listing_one_app())[2].values(),
    "benign_app": lambda: lift_fixture(*corpus.benign_app())[2].values(),
    "perf_app": lambda: lift_fixture(*corpus.perf_app(functions=12))[2].values(),
    "scaffold_loops": scaffold_loop_bodies,
}


def fixpoint_results(fn) -> tuple:
    eff = compute_effects(fn)
    return eff.eff_defs, eff.eff_uses, eff.assign, compute_use_def(fn, eff)


@pytest.mark.parametrize("source", BLOCK_ORDER_BODIES)
def test_fixpoints_do_not_depend_on_the_order_of_fn_blocks(source):
    """`compute_effects` and `compute_use_def` give equal results for every
    order of a body's blocks, as `compute_effects`' docstring states."""
    rng = random.Random(source)
    bodies = list(BLOCK_ORDER_BODIES[source]())
    if source == "scaffold_loops":
        assert all(
            any(succ <= block.ea for block in fn.blocks for succ in block.successors)
            for fn in bodies
        )
    for fn in bodies:
        want = fixpoint_results(fn)
        for _ in range(6 if len(fn.blocks) > 1 else 0):
            blocks = rng.sample(fn.blocks, len(fn.blocks))
            assert fixpoint_results(dataclasses.replace(fn, blocks=blocks)) == want, fn.name


class TestEffects:
    @pytest.mark.parametrize(
        "setup, assign",
        [
            ("mov x8, #0x1234", (reg("x0"), ("load", mem(0x100001234)))),
            ("nop", ()),  # x8 holds no known value
        ],
    )
    def test_movk_keeps_the_other_bits_of_a_known_constant(self, setup, assign):
        fn = fn_from_asm(f"{setup}\nmovk x8, #0x1, lsl #32\nldr x0, [x8]\nret")
        ldr = ORIGIN + 8
        eff = compute_effects(fn)
        assert eff.assign[ldr] == assign
        assert eff.eff_uses[ldr] == {reg("x8"), *(prov[1] for prov in assign[1::2])}

    @pytest.mark.parametrize("registers", [10, 12, 28])
    def test_register_shift_loop_reaches_the_fixpoint(self, registers):
        fn = fn_from_asm(shift_chain(registers))
        assert len(fn.blocks) == 3
        head_add = fn.blocks[1].instructions[0]
        assert compute_effects(fn).assign[head_add.ea] == ()

    def test_loop_body_laid_out_before_its_test(self):
        # the body's only predecessor comes after it: it must wait for that
        # state, not start from an empty one and lose the frame
        fn = fn_from_asm(
            """
            mov x2, #5
            b test
            body:
            str x2, [sp, #8]
            sub x2, x2, #1
            test:
            cbnz x2, body
            ldr x0, [sp, #8]
            ret
            """
        )
        store, load = ORIGIN + 8, ORIGIN + 20
        eff = compute_effects(fn)
        assert stack_slot(8) in eff.eff_defs[store]
        assert eff.assign[load] == (reg("x0"), ("load", stack_slot(8)))
        assert (load, store, stack_slot(8)) in compute_use_def(fn, eff)

    def test_block_order_cannot_make_the_rounds_swing(self):
        # `body` lies before its only predecessor `tail`; started from the
        # empty state, it would make the rounds swing between two states
        fn = fn_from_asm(
            """
            nop
            head:
            b tail
            body:
            str x1, [sp, #8]
            b head
            tail:
            cbz x0, body
            ret
            """
        )
        assert compute_effects(fn).eff_defs[ORIGIN + 8] == {stack_slot(8)}

    def test_block_no_state_reaches_has_effects_from_empty_state(self):
        # `loop` is its own only predecessor, so no state ever reaches it:
        # its effects still exist, read from the empty state, and its frame
        # slot is unknown
        fn = fn_from_asm(
            """
            ret
            loop:
            str x1, [sp, #8]
            ldr x2, [sp, #8]
            cbnz x0, loop
            ret
            """
        )
        store, load = ORIGIN + 4, ORIGIN + 8
        eff = compute_effects(fn)
        eas = [ins.ea for ins in fn.instructions()]
        assert sorted(eff.eff_defs) == sorted(eff.eff_uses) == eas
        assert eff.eff_defs[store] == frozenset()
        assert eff.assign[load] == ()
        edges = compute_use_def(fn, eff)
        assert not any(loc == stack_slot(8) for _, _, loc in edges)

    def test_fixpoint_does_not_depend_on_block_order(self):
        rng = random.Random(20261018)
        for _ in range(200):
            blocks = random_blocks(rng)
            first, second = (
                effects_by_line(shuffled_layout(rng, blocks), blocks) for _ in range(2)
            )
            assert first == second, blocks

    def test_effects_leave_instructions_unchanged_and_repeat(self):
        fn = fn_from_asm(
            """
            sub sp, sp, #32
            stp x0, x1, [sp, #16]
            mov x2, #7
            loop:
            str x2, [sp, #8]!
            bl 0x100009000
            ldr x3, [sp, #8]
            ldp x4, x5, [sp, #16]
            sub x2, x2, #1
            cbnz x2, loop
            ret
            """
        )
        call = next(i for i in fn.instructions() if i.kind == "call")
        before = [(i.defs, i.uses) for i in fn.instructions()]
        copies = [(set(i.defs), set(i.uses)) for i in fn.instructions()]
        first = compute_effects(fn, {call.ea: {reg("x0"), reg("x1"), reg("x2")}})
        second = compute_effects(fn, {call.ea: {reg("x0"), reg("x1"), reg("x2")}})
        assert [(i.defs, i.uses) for i in fn.instructions()] == copies
        assert all(
            i.defs is defs and i.uses is uses
            for i, (defs, uses) in zip(fn.instructions(), before)
        )
        # an instruction the pass adds nothing to keeps its sets, uncopied
        plain = [
            i for i in fn.instructions()
            if i.kind != "call" and not (i.is_load or i.is_store)
        ]
        assert plain and all(
            first.eff_defs[i.ea] is i.defs and first.eff_uses[i.ea] is i.uses
            for i in plain
        )
        assert first == second
        assert first.eff_uses[call.ea] == {reg("x0"), reg("x1"), reg("x2")}
        assert first.eff_defs[call.ea] == {reg("x0"), reg("x30")}

    @pytest.mark.parametrize(
        "setup, strays",
        [
            ((), (0xD28000BF,)),  # mov xzr, #5
            ((), (0x928000BF,)),  # movn xzr, #5
            ((), (0xD28000BF, 0xF2A000BF)),  # mov xzr, #5; movk xzr, #5, lsl #16
            ((0xD28000A2,), (0xAA0203FF,)),  # mov x2, #5; mov xzr, x2
            ((), (0x1000001F,)),  # adr xzr, .
            ((), (0x9000001F,)),  # adrp xzr, .
        ],
    )
    def test_write_to_zero_register_binds_nothing(self, setup, strays):
        # then mov x0, xzr; ldr x1, [x0]; ret
        tail = (0xAA1F03E0, 0xF9400001, 0xD65F03C0)

        def tail_effects(words):
            fn = build_function_from_instructions(
                [decode(struct.pack("<I", w), ORIGIN + 4 * i) for i, w in enumerate(words)]
            )
            eff = compute_effects(fn)
            eas = [ORIGIN + 4 * i for i in range(len(words) - len(tail), len(words))]
            return [(eff.eff_defs[ea], eff.eff_uses[ea], eff.assign[ea]) for ea in eas]

        nops = (0xD503201F,) * len(strays)
        got = tail_effects(setup + strays + tail)
        assert got == tail_effects(setup + nops + tail)
        assert got[1][1:] == ({reg("x0")}, ())


class TestAddressWrap:
    """Every address lios computes wraps modulo 2^64, as the CPU's does."""

    @pytest.mark.parametrize(
        "source, addresses",
        [
            ("ldur x1, [x0, #-8]", ["mem:0xfffffffffffffff8"]),
            # the writeback wraps too, so the next load reads the same slot
            ("ldr x1, [x0, #-16]!\nldr x2, [x0]", ["mem:0xfffffffffffffff0"] * 2),
        ],
    )
    def test_load_address_wraps(self, source, addresses):
        fn = fn_from_asm(f"mov x0, #0\n{source}\nret")
        uses = compute_effects(fn).eff_uses
        loads = [ea for ea in sorted(uses) if ORIGIN < ea < fn.end_ea - 4]
        assert [str(l) for ea in loads for l in uses[ea] if l.kind == "mem"] == addresses

    @staticmethod
    def at_0x1000(*words):
        return [decode(struct.pack("<I", w), 0x1000 + 4 * i) for i, w in enumerate(words)]

    def test_adrp_below_zero_wraps(self):
        # adrp x0, two pages back from 0x1000; ldr x1, [x0]; ret
        instrs = self.at_0x1000(0xD0FFFFE0, 0xF9400001, 0xD65F03C0)
        adrp = instrs[0]
        assert adrp.asm == "adrp x0, 0xfffffffffffff000"
        assert adrp.immediate == adrp.xref == 0xFFFFFFFFFFFFF000
        uses = compute_effects(build_function_from_instructions(instrs)).eff_uses
        assert mem(0xFFFFFFFFFFFFF000) in uses[0x1004]

    @pytest.mark.parametrize(
        "word, name", [(0x97FFF800, "bl"), (0x54FF0000, "b.eq")], ids=["bl", "b.eq"]
    )
    def test_branch_target_below_zero_wraps(self, word, name):
        [ins] = self.at_0x1000(word)
        assert ins.asm == f"{name} 0xfffffffffffff000"
        assert ins.branch_target == 0xFFFFFFFFFFFFF000

    def test_call_below_zero_names_a_wrapped_address(self):
        # bl two pages back from 0x1000; ret
        fn = build_function_from_instructions(self.at_0x1000(0x97FFF800, 0xD65F03C0))
        [site] = devirtualize(fn)
        assert site.target_ea == 0xFFFFFFFFFFFFF000
        assert site.target_name == "sub_fffffffffffff000"

    def test_xref_of_a_w_register_add_fits_32_bits(self):
        # adrp x0, 0x100008000; add w0, w0, #16; ldr x1, [x0]
        words = (0x90000020, 0x11004000, 0xF9400001)
        instrs = [decode(struct.pack("<I", w), ORIGIN + 4 * i) for i, w in enumerate(words)]
        fn = build_function_from_instructions(instrs)
        add, ldr = instrs[1:]
        assert add.asm == "add w0, w0, #16"
        assert add.xref == ldr.xref == 0x8010
        assert mem(0x8010) in compute_effects(fn).eff_uses[ldr.ea]


class TestRegisterWidth:
    """A write to a w register keeps its low 32 bits, and x arithmetic wraps
    modulo 2^64 (Arm ARM, "Registers in AArch64 state")."""

    @pytest.mark.parametrize(
        "source, address",
        [
            ("movz x0, #1, lsl #32\nmovk w0, #5", "mem:0x5"),
            ("movn w0, #0\nadd w0, w0, #1", "mem:0x0"),  # 0xFFFFFFFF + 1
            ("mov x0, #0\nsub x0, x0, #1", "mem:0xffffffffffffffff"),
            ("movz x1, #1, lsl #32\nmov w0, w1", "mem:0x0"),
        ],
    )
    def test_constant_fits_the_register_written(self, source, address):
        fn = fn_from_asm(f"{source}\nldr x1, [x0]\nret")
        uses = compute_effects(fn).eff_uses[ORIGIN + 8]
        assert [str(l) for l in uses if l.kind == "mem"] == [address]

    def test_w_register_holds_no_frame_address(self):
        # add x0, sp, #16 and add w0, wsp, #16, then a load through x0
        for word, slots in ((0x910043E0, {stack_slot(16)}), (0x110043E0, set())):
            fn = fn_from_asm(f".word {word:#x}\nldr x1, [x0]\nret")
            assert compute_effects(fn).eff_uses[ORIGIN + 4] == {reg("x0"), *slots}

    _register = st.integers(0, 3)
    _move = st.one_of(
        st.builds(
            lambda op, d, sf, imm16, hw: (op, d, sf, imm16, hw if sf else hw % 2),
            st.sampled_from(["movz", "movn", "movk"]), _register, st.booleans(),
            st.integers(0, 0xFFFF), st.integers(0, 3),
        ),
        st.tuples(
            st.sampled_from(["add", "sub"]), _register, st.booleans(), _register,
            st.integers(0, 0xFFF), st.booleans(),
        ),
        st.tuples(st.just("mov"), _register, st.booleans(), _register),
    )

    @staticmethod
    def as_text(step: tuple) -> str:
        op, d, sf, *rest = step
        r = "x" if sf else "w"
        if op == "mov":
            return f"mov {r}{d}, {r}{rest[0]}"
        if op in ("add", "sub"):
            n, imm12, sh = rest
            return f"{op} {r}{d}, {r}{n}, #{imm12}" + (", lsl #12" if sh else "")
        imm16, hw = rest
        return f"{op} {r}{d}, #{imm16}" + (f", lsl #{16 * hw}" if hw else "")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_move, min_size=1, max_size=12))
    def test_constants_agree_with_the_concrete_interpreter(self, program):
        # a trailing load through each register reads the address it holds
        loads = [f"ldr x9, [x{n}]" for n in range(4)]
        source = "\n".join([*map(self.as_text, program), *loads, "ret"])
        fn = fn_from_asm(source)
        eff = compute_effects(fn)
        values = register_moves_oracle(program)
        first = ORIGIN + 4 * len(program)
        for n in range(4):
            used = {l for l in eff.eff_uses[first + 4 * n] if l.kind == "mem"}
            assert used == ({mem(values[n])} if n in values else set()), (source, n)



class TestConstantsOnEveryPath:
    """`compute_effects` against `constant_paths_oracle` on random programs
    with forward and backward branches."""

    _register = st.integers(0, 3)
    _slot = st.integers(0, 7).map(lambda k: 8 * k)
    _step = st.one_of(
        st.tuples(st.just("movz"), _register, st.integers(0, 0xFFFF)),
        st.tuples(
            st.sampled_from(["add", "sub"]), _register, _register, st.integers(0, 0xFFF)
        ),
        st.tuples(st.just("mov"), _register, _register),
        st.tuples(st.just("addsp"), _register, _slot),
        st.tuples(st.sampled_from(["str", "ldr"]), _register, _slot),
        st.tuples(st.sampled_from(["cbz", "b"]), st.integers(0, 10)),
    )
    # label Lk is step k, and L10 the trailing loads
    _text = {
        "movz": "movz x{0}, #{1}",
        "add": "add x{0}, x{1}, #{2}",
        "sub": "sub x{0}, x{1}, #{2}",
        "mov": "mov x{0}, x{1}",
        "addsp": "add x{0}, sp, #{1}",
        "str": "str x{0}, [sp, #{1}]",
        "ldr": "ldr x{0}, [sp, #{1}]",
        "cbz": "cbz x3, L{0}",
        "b": "b L{0}",
    }

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_step, min_size=10, max_size=10))
    def test_constants_hold_on_every_path(self, program):
        """Where `compute_effects` gives a trailing load a constant address or
        a frame slot, every path to it, around loops too, holds that value."""
        lines = [
            f"L{i}:\n" + self._text[op].format(*args)
            for i, (op, *args) in enumerate(program)
        ]
        loads = [f"ldr x9, [x{n}]" for n in range(4)]
        fn = fn_from_asm("\n".join([*lines, "L10:", *loads, "ret"]))
        eff = compute_effects(fn)
        ends = constant_paths_oracle(program)
        first = ORIGIN + 4 * len(program)
        for n in range(4):
            used = eff.eff_uses[first + 4 * n]
            reported = {l for l in used if l.kind in ("mem", "stack")}
            for regs in ends if reported else ():
                kind, v = regs.get(n, (None, None))
                held = {"const": mem, "frame": stack_slot}.get(kind)
                assert held is not None and reported == {held(v)}, (lines, n)


class TestBacktraceOnEveryPath:
    """`backtrace` against `value_paths_oracle` on random programs that
    spill, pair and write back, with forward and backward branches."""

    _register = st.integers(0, 3)
    _slot = st.integers(0, 7).map(lambda k: 8 * k)
    _two = st.tuples(_register, _register).filter(lambda t: t[0] != t[1])
    _step = st.one_of(
        st.tuples(st.just("movz"), _register, st.integers(0, 0xFFFF)),
        st.tuples(st.just("mov"), _register, _register),
        st.tuples(st.just("add"), _register, _register, st.sampled_from([0, 8, 16])),
        st.tuples(st.just("addsp"), _register, _slot),
        st.tuples(st.sampled_from(["str", "ldr"]), _register, _slot),
        st.builds(
            lambda op, regs, k: (op, *regs, k),
            st.sampled_from(["stp", "ldp"]), _two, st.integers(0, 6).map(lambda k: 8 * k),
        ),
        st.builds(
            lambda op, regs, k: (op, *regs, k),
            st.sampled_from(["ldrpost", "ldrpre"]), _two,
            st.integers(-2, 2).map(lambda k: 8 * k),
        ),
        st.tuples(st.sampled_from(["cbz", "b"]), st.integers(0, 10)),
    )
    _text = {
        "movz": "movz x{0}, #{1}",
        "mov": "mov x{0}, x{1}",
        "add": "add x{0}, x{1}, #{2}",
        "addsp": "add x{0}, sp, #{1}",
        "str": "str x{0}, [sp, #{1}]",
        "ldr": "ldr x{0}, [sp, #{1}]",
        "stp": "stp x{0}, x{1}, [sp, #{2}]",
        "ldp": "ldp x{0}, x{1}, [sp, #{2}]",
        "ldrpost": "ldr x{0}, [x{1}], #{2}",
        "ldrpre": "ldr x{0}, [x{1}, #{2}]!",
        "cbz": "cbz x3, L{0}",
        "b": "b L{0}",
    }
    _tokens = {"self": SELF_REF, "sel": OWN_SELECTOR}

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_step, min_size=10, max_size=10))
    # the written-back base holds sp + 24, not the slot's x1
    @example([("str", 1, 16), ("addsp", 3, 16), ("ldrpost", 2, 3, 8)])
    def test_traced_values_hold_on_every_path(self, program):
        """Where `backtrace` gives a register at the trailing `ret` only
        known values, every path to it, around loops too, holds one."""
        lines = [
            f"L{i}:\n" + self._text[op].format(*args)
            for i, (op, *args) in enumerate(program)
        ]
        fn = fn_from_asm("\n".join([*lines, f"L{len(program)}:", "ret"]))
        ends = value_paths_oracle(program)
        ret = ORIGIN + 4 * len(program)
        for n in range(4):
            values = backtrace(fn, reg(f"x{n}"), ret)
            for regs in ends if UNKNOWN not in values else ():
                assert self._tokens.get(regs.get(n)) in values, (lines, n, values)


class TestZeroRegister:
    def test_move_from_zero_register_is_opaque(self):
        fn = fn_from_asm("mov x0, xzr\nret")
        assert compute_effects(fn).assign[ORIGIN] == ()
        assert backtrace(fn, reg("x0"), ORIGIN + 4) == {UNKNOWN}

    @pytest.mark.parametrize(
        "store, slot, value",
        [
            ("str xzr, [sp, #8]", 8, UNKNOWN),
            ("stp xzr, x1, [sp, #16]", 16, UNKNOWN),
            ("stp xzr, x1, [sp, #16]", 24, OWN_SELECTOR),
            ("stp x1, xzr, [sp, #16]", 16, OWN_SELECTOR),
            ("stp x1, xzr, [sp, #16]", 24, UNKNOWN),
        ],
    )
    def test_stored_zero_register_traces_to_unknown(self, store, slot, value):
        fn = fn_from_asm(f"{store}\nldr x0, [sp, #{slot}]\nret")
        assert backtrace(fn, reg("x0"), ORIGIN + 8) == {value}

    def test_no_pinned_word_names_register_31(self):
        # in an operand field, a def or use set, or an assign row (each
        # location and what its provenance names), effects included
        x31 = Loc("reg", "x31")
        named = []
        for i, word in enumerate(pinned_words()):
            ea = ORIGIN + 4 * i
            ins = decode(struct.pack("<I", word), ea)
            eff = compute_effects(build_function_from_instructions([ins]))
            held = (
                ins.rd, ins.rn, ins.rm, ins.rt2, ins.mem_base,
                *ins.defs, *ins.uses, *eff.eff_defs[ea], *eff.eff_uses[ea],
                *eff.assign[ea][::2],
                *(x for prov in eff.assign[ea][1::2] for x in prov[1:]),
            )
            if x31 in held:
                named.append(ins.asm)
        assert named == []


@pytest.fixture(scope="module")
def objc_image():
    s = Scaffold()
    s.stub("objc_msgSend")
    s.selref("length")
    s.selref("doWork")
    s.selref("helperValue")
    s.raw_func("impl_work", b"\xc0\x03\x5f\xd6")
    s.func(
        "direct_methname",
        """
        adrp x8, meth_length@page
        add x8, x8, meth_length@pageoff
        mov x1, x8
        nop
        ret
        """,
    )
    s.func(
        "via_selref",
        """
        adrp x1, sel_length@page
        ldr x1, [x1, sel_length@pageoff]
        nop
        ret
        """,
    )
    s.func(
        "diamond_sel",
        """
        cbz x0, other
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        b use
        other:
        adrp x1, sel_helperValue@page
        ldr x1, [x1, sel_helperValue@pageoff]
        use:
        nop
        ret
        """,
    )
    s.func(
        "spill",
        """
        adrp x1, sel_length@page
        ldr x1, [x1, sel_length@pageoff]
        str x1, [sp, #8]
        mov x1, #0
        ldr x1, [sp, #8]
        nop
        ret
        """,
    )
    s.func(
        "copy_loop",
        """
        loop:
        mov x1, x2
        mov x2, x1
        cbnz x0, loop
        nop
        ret
        """,
    )
    s.func("returns_class", """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        ret
        """)
    s.func(
        "interproc",
        """
        bl returns_class
        nop
        ret
        """,
    )
    s.classref("Worker")
    s.add_class(ClassSpec(name="Worker", methods=[MethodSpec("doWork", "impl_work")]))
    blob, manifest = s.build()
    image = parse_macho(blob)
    return image, manifest, load_model(image)


class TestBacktrace:
    def test_x0_untouched_is_self_ref(self):
        fn = fn_from_asm("nop\nnop\nret")
        values = backtrace(fn, reg("x0"), ORIGIN + 8)
        assert values == {SELF_REF}

    def test_x1_untouched_is_own_selector(self):
        fn = fn_from_asm("nop\nret")
        assert backtrace(fn, reg("x1"), ORIGIN + 4) == {OWN_SELECTOR}

    def test_other_registers_unknown_at_entry(self):
        fn = fn_from_asm("nop\nret")
        assert backtrace(fn, reg("x4"), ORIGIN + 4) == {UNKNOWN}

    def test_trace_at_entry_instruction(self):
        fn = fn_from_asm("ret")
        assert backtrace(fn, reg("x0"), ORIGIN) == {SELF_REF}

    def test_store_pair_slots_hold_each_register(self):
        fn = fn_from_asm(
            "stp x0, x1, [sp, #16]\nldr x2, [sp, #24]\nldr x3, [sp, #16]\nret"
        )
        ret = ORIGIN + 12
        assert backtrace(fn, reg("x2"), ret) == {OWN_SELECTOR}
        assert backtrace(fn, reg("x3"), ret) == {SELF_REF}

    def test_loop_back_to_the_entry_brings_its_values(self):
        fn = fn_from_asm("head:\ncbz x3, done\nmov x0, x1\nb head\ndone:\nret")
        assert backtrace(fn, reg("x0"), ORIGIN + 12) == {SELF_REF, OWN_SELECTOR}

    def test_load_pair_gives_each_register_its_slot(self):
        fn = fn_from_asm("stp x0, x1, [sp, #16]\nldp x2, x3, [sp, #16]\nret")
        ret = ORIGIN + 8
        assert backtrace(fn, reg("x2"), ret) == {SELF_REF}
        assert backtrace(fn, reg("x3"), ret) == {OWN_SELECTOR}

    @pytest.mark.parametrize(
        "stored, load",
        [(16, "ldr x2, [x5], #8"), (24, "ldr x2, [x5, #8]!")],
        ids=["post", "pre"],
    )
    def test_written_back_base_is_unknown(self, stored, load):
        # x5 holds sp + 24 after the load, an address; the slot the load
        # reads holds x1, and only x2 gets it
        fn = fn_from_asm(f"str x1, [sp, #{stored}]\nadd x5, sp, #16\n{load}\nret")
        ret = ORIGIN + 12
        assert backtrace(fn, reg("x5"), ret) == {UNKNOWN}
        assert backtrace(fn, reg("x2"), ret) == {OWN_SELECTOR}

    def _fn(self, image, manifest, name, n_instr, model=None):
        entry = manifest["functions"][name]
        return build_function(image, entry, entry + 4 * n_instr, model=model)

    def test_const_string_through_methname(self, objc_image):
        image, manifest, model = objc_image
        fn = self._fn(image, manifest, "direct_methname", 5)
        use = manifest["functions"]["direct_methname"] + 12
        assert backtrace(fn, reg("x1"), use, model) == {CONST_STRING("length")}

    def test_const_string_through_selref_slot(self, objc_image):
        image, manifest, model = objc_image
        fn = self._fn(image, manifest, "via_selref", 4)
        use = manifest["functions"]["via_selref"] + 8
        assert backtrace(fn, reg("x1"), use, model) == {CONST_STRING("length")}

    def test_diamond_unions_both_selectors(self, objc_image):
        image, manifest, model = objc_image
        fn = self._fn(image, manifest, "diamond_sel", 8)
        use = manifest["functions"]["diamond_sel"] + 4 * 7
        assert backtrace(fn, reg("x1"), use, model) == {
            CONST_STRING("doWork"),
            CONST_STRING("helperValue"),
        }

    def test_stack_spill_survives_clobber(self, objc_image):
        image, manifest, model = objc_image
        fn = self._fn(image, manifest, "spill", 7)
        use = manifest["functions"]["spill"] + 4 * 5
        assert backtrace(fn, reg("x1"), use, model) == {CONST_STRING("length")}

    def test_copy_loop_terminates(self, objc_image):
        image, manifest, model = objc_image
        fn = self._fn(image, manifest, "copy_loop", 5)
        use = manifest["functions"]["copy_loop"] + 12
        values = backtrace(fn, reg("x1"), use, model)
        assert UNKNOWN in values

    def test_interprocedural_return_value(self, objc_image):
        image, manifest, model = objc_image
        callee = self._fn(image, manifest, "returns_class", 3)
        fn = self._fn(image, manifest, "interproc", 3)
        table = {callee.entry_ea: callee}
        use = manifest["functions"]["interproc"] + 4
        values = backtrace(fn, reg("x0"), use, model, depth=2, functions=table)
        assert values == {CONST_STRING("Worker")}

    def test_depth_exhaustion_is_unknown(self, objc_image):
        image, manifest, model = objc_image
        callee = self._fn(image, manifest, "returns_class", 3)
        fn = self._fn(image, manifest, "interproc", 3)
        table = {callee.entry_ea: callee}
        use = manifest["functions"]["interproc"] + 4
        values = backtrace(fn, reg("x0"), use, model, depth=0, functions=table)
        assert values == {UNKNOWN}


@pytest.fixture(scope="module")
def call_image():
    s = Scaffold()
    s.stub("objc_msgSend")
    s.stub("malloc")
    s.selref("doWork")
    s.selref("baseOnly")
    s.raw_func("impl_work", b"\xc0\x03\x5f\xd6")
    s.raw_func("impl_base", b"\xc0\x03\x5f\xd6")
    s.raw_func("leaf", b"\xc0\x03\x5f\xd6")
    s.func(
        "direct_caller",
        """
        bl leaf
        bl stub_malloc
        ret
        """,
    )
    s.func(
        "msg_const",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
    )
    s.func(
        "msg_super",
        """
        adrp x0, classref_Sub@page
        ldr x0, [x0, classref_Sub@pageoff]
        adrp x1, sel_baseOnly@page
        ldr x1, [x1, sel_baseOnly@pageoff]
        bl stub_objc_msgSend
        ret
        """,
    )
    s.func(
        "method_body",
        """
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
    )
    s.func(
        "msg_unknown_receiver",
        """
        mov x0, x5
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
    )
    s.func(
        "tail_call",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        b stub_objc_msgSend
        """,
    )
    s.func("self_as_sel", "mov x1, x0\nbl stub_objc_msgSend\nret")
    s.func("cmd_as_recv", "mov x0, x1\nbl stub_objc_msgSend\nret")
    s.func(
        "msg_ghost",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        adrp x1, sel_ghost@page
        ldr x1, [x1, sel_ghost@pageoff]
        bl stub_objc_msgSend
        ret
        """,
    )
    s.func(
        "msg_unknown_result",
        """
        adrp x0, classref_Worker@page
        ldr x0, [x0, classref_Worker@pageoff]
        mov x1, x5
        bl stub_objc_msgSend
        adrp x1, sel_doWork@page
        ldr x1, [x1, sel_doWork@pageoff]
        bl stub_objc_msgSend
        ret
        """,
    )
    s.selref("ghost")
    s.classref("Worker")
    s.classref("Sub")
    s.add_class(
        ClassSpec(
            name="Worker",
            methods=[
                MethodSpec("doWork", "impl_work"),
                MethodSpec("otherThing", "method_body"),
                MethodSpec("self_as_sel", "self_as_sel"),
                MethodSpec("cmd_as_recv", "cmd_as_recv"),
                MethodSpec("ghost", None),
            ],
        )
    )
    s.add_class(ClassSpec(name="Base", methods=[MethodSpec("baseOnly", "impl_base")]))
    s.add_class(ClassSpec(name="Sub", superclass="Base"))
    blob, manifest = s.build()
    image = parse_macho(blob)
    return image, manifest, load_model(image)


class TestDevirtualize:

    def _fn(self, image, manifest, name, n, model=None):
        entry = manifest["functions"][name]
        return build_function(image, entry, entry + 4 * n, model=model)

    def test_direct_and_external_calls(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "direct_caller", 3)
        sites = devirtualize(fn, model)
        by_ea = {c.caller_ea: c for c in sites}
        entry = manifest["functions"]["direct_caller"]
        assert by_ea[entry] == CallSite(
            entry, "in_image", manifest["functions"]["leaf"], "leaf"
        )
        assert by_ea[entry + 4] == CallSite(entry + 4, "external", None, "malloc")

    def test_constant_receiver_and_selector(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "msg_const", 6)
        sites = devirtualize(fn, model)
        call_ea = manifest["functions"]["msg_const"] + 16
        resolved = [c for c in sites if c.caller_ea == call_ea]
        assert resolved == [
            CallSite(
                call_ea,
                "in_image",
                manifest["functions"]["impl_work"],
                "-[Worker doWork]",
                selector="doWork",
            )
        ]

    def test_no_residual_msgsend_for_resolvable_site(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "msg_const", 6)
        sites = devirtualize(fn, model)
        assert not any(c.target_name == "objc_msgSend" for c in sites)

    def test_superclass_lookup(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "msg_super", 6)
        sites = devirtualize(fn, model)
        call_ea = manifest["functions"]["msg_super"] + 16
        hit = next(c for c in sites if c.caller_ea == call_ea)
        assert hit.target_ea == manifest["functions"]["impl_base"]
        assert hit.target_name == "-[Base baseOnly]"

    def test_self_ref_receiver_resolves_to_own_class(self, call_image):
        image, manifest, model = call_image
        # built without the model: devirtualize reads the owner from it
        fn = self._fn(image, manifest, "method_body", 4)
        assert model.class_of_impl(fn.entry_ea)[0].name == "Worker"
        sites = devirtualize(fn, model)
        call_ea = manifest["functions"]["method_body"] + 8
        hit = next(c for c in sites if c.caller_ea == call_ea)
        assert hit.target_ea == manifest["functions"]["impl_work"]

    def test_unknown_receiver_keeps_selector_annotation(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "msg_unknown_receiver", 5)
        sites = devirtualize(fn, model)
        call_ea = manifest["functions"]["msg_unknown_receiver"] + 12
        hit = next(c for c in sites if c.caller_ea == call_ea)
        assert hit.kind == "external"
        assert hit.target_name == "objc_msgSend"
        assert hit.selector == "doWork"

    @pytest.mark.parametrize(
        "name, n, call, selector, receiver",
        [
            # self passed as the selector, and _cmd as the receiver, name no
            # method: each stand-in counts only in its own role
            ("self_as_sel", 3, 4, None, "Worker"),
            ("cmd_as_recv", 3, 4, "cmd_as_recv", None),
            # a declared method with no implementation in the image
            ("msg_ghost", 6, 16, "ghost", "Worker"),
            # what a send of an unknown selector returns is of no known class
            ("msg_unknown_result", 8, 24, "doWork", None),
        ],
    )
    def test_unresolved_send_keeps_what_it_knows(
        self, call_image, name, n, call, selector, receiver
    ):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, name, n, model=model)
        call_ea = manifest["functions"][name] + call
        assert [s for s in devirtualize(fn, model) if s.caller_ea == call_ea] == [
            CallSite(call_ea, "external", None, "objc_msgSend", selector, receiver)
        ]

    def test_tail_call_is_devirtualized(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "tail_call", 5)
        sites = devirtualize(fn, model)
        assert any(
            c.target_ea == manifest["functions"]["impl_work"] for c in sites
        )

    def test_method_name_from_model(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "impl_work", 1, model=model)
        assert fn.name == "-[Worker doWork]"

    def test_call_effects_for_use_def(self, call_image):
        image, manifest, model = call_image
        fn = self._fn(image, manifest, "msg_const", 6)
        sites = devirtualize(fn, model)
        call_uses = call_effects_from_sites(sites)
        call_ea = manifest["functions"]["msg_const"] + 16
        assert call_uses[call_ea] == {reg("x0"), reg("x1")}
        eff = compute_effects(fn, call_uses)
        assert eff.eff_defs[call_ea] == {reg("x0"), reg("x30")}
        edges = compute_use_def(fn, eff)
        sel_def = manifest["functions"]["msg_const"] + 12
        assert (call_ea, sel_def, reg("x1")) in edges

