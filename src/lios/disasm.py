"""aarch64 subset decoder, CFG construction, use-def chains, devirtualization.

The decoder covers the instructions compilers emit around message dispatch
and control flow, one arm per group of forms: NOP; RET, BR and BLR; B and
BL; B.cond, CBZ/CBNZ and TBZ/TBNZ; ADR and ADRP; MOVZ, MOVN and MOVK; the
ORR register move; ADD/SUB immediate and shifted register with their
CMP/CMN aliases; and the loads and stores: LDR/STR with an unsigned offset,
the imm9 forms (LDUR/STUR and pre- and post-indexed LDR/STR), LDP/STP and
LDPSW, which loads two words into x registers and so reads 4-byte frame
slots.  Everything else, the reserved encodings of these forms, STGP
(LDPSW's encoding as a store) and a 32-bit MOVZ, MOVN or MOVK that shifts
by 32 or 48 (`hw` >= 2) included, decodes to an opaque `.word` that
defines and uses nothing, which keeps downstream analyses conservative but
total.

Register 31 is sp as a load or store base and in ADD/SUB immediate (bar
the rd of ADDS/SUBS: CMP/CMN), and the zero register everywhere else.  It
prints as LLVM prints it (`sp`/`wsp`, `xzr`/`wzr`), and the zero register
is no location: `ret xzr` and `br xzr` use nothing, `adr xzr` defines nothing.
The register operand fields of an `Instruction` hold the same shared `Loc`s
as its `defs` and `uses`, from the decoder to `backtrace`, and None there is
the zero register (or no such operand).

Register-to-register dataflow is tracked per function with a light constant
and stack-offset propagation; stack slots addressed as sp/fp plus a constant
become first-class locations so spills don't break use-def chains.  The
constant a register move, ADD/SUB immediate or MOVK writes keeps its low 32
bits in a w register and wraps modulo 2^64 in an x register (Arm ARM,
"Registers in AArch64 state").  Every address lios computes wraps modulo
2^64 too, as the CPU's does: a branch target, an ADR or ADRP value, a fused
xref and the absolute address a load or store reads or writes (`mem`).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import EmptyRange
from .macho import (
    MachoImage,
    c_name,
    read_cstring,
    read_u64,
    strip_pac,
    va_to_offset,
)
from .objc import method_name, strip_class_prefix


# ---------------------------------------------------------------------------
# locations and instructions


class Loc(NamedTuple):
    """A dataflow location: register, frame slot, or absolute memory.

    A value type: two Locs with the same kind and value are equal and hash
    alike, and both run in C, as for any tuple.  There is one shared Loc per
    register (`_REGS`), so the decoder builds no Loc per operand.
    """

    kind: str  # "reg" | "stack" | "mem"
    value: object  # reg name, signed frame offset, or virtual address

    def __str__(self) -> str:
        if self.kind == "reg":
            return self.value
        if self.kind == "stack":
            return f"stack{self.value:+d}"
        return f"mem:{self.value:#x}"


# the 32 register locations: x0-x30 by register number, and sp; the zero
# register is none
_X_LOCS = tuple(Loc("reg", f"x{n}") for n in range(31))
_SP_LOC = Loc("reg", "sp")
_REGS = {loc.value: loc for loc in (*_X_LOCS, _SP_LOC)}
X0, X1, LINK_REG = _X_LOCS[0], _X_LOCS[1], _X_LOCS[30]

# One shared frozenset per distinct location set the decoder builds, so that
# instructions with equal sets hold the same object.  A decoded set holds at
# most three register Locs (a load or store pair with writeback: rt, rt2 and
# the base) out of the 32 in `_REGS`.  So the table never holds more than
# 1 + 32 + C(32, 2) + C(32, 3) = 5,489 sets, whatever the input.
_LOC_SETS: dict[frozenset, frozenset] = {}


def _locs(*locs: Loc | None) -> frozenset[Loc]:
    """The shared frozenset of the given locations; None stands for none."""
    key = frozenset(locs)
    if None in key:
        key = key - {None}
    return _LOC_SETS.setdefault(key, key)


def reg(name: str) -> Loc:
    """The shared Loc of register `name` (`x0`-`x30` or `sp`)."""
    return _REGS[name]


_ADDRESS_MASK = (1 << 64) - 1


def stack_slot(offset: int) -> Loc:
    return Loc("stack", offset)


def mem(address: int) -> Loc:
    return Loc("mem", address & _ADDRESS_MASK)


@dataclass(slots=True)
class Instruction:
    """One decoded word.

    `defs` and `uses` are the shared frozensets of `_locs`: many
    instructions hold the same object, so no pass may mutate them; a pass
    that needs other sets builds new ones, as `compute_effects` does.
    """

    ea: int
    bytes: bytes
    asm: str
    kind: str  # assignment | branch | call | return | compare | nop | other
    defs: frozenset[Loc] = frozenset()
    uses: frozenset[Loc] = frozenset()
    branch_target: int | None = None
    immediate: int | None = None
    xref: int | None = None
    # operand detail for the analyses; a register operand is the shared Loc
    # that `defs`/`uses` hold, None where it is the zero register or absent
    mnemonic: str = ""
    rd: Loc | None = None
    rn: Loc | None = None
    rm: Loc | None = None
    rt2: Loc | None = None
    mem_base: Loc | None = None  # never None for a load or store: 31 is sp
    mem_offset: int = 0
    mem_mode: str = "off"  # off | pre | post
    is_load: bool = False
    is_store: bool = False
    conditional: bool = False
    sixty_four: bool = True
    hw_shift: int = 0  # movk chunk position

    @property
    def ends_block(self) -> bool:
        return self.kind in ("branch", "return")


def _print_reg(n: int, sixty_four: bool, sp_ok: bool = False) -> str:
    if n == 31:
        if sp_ok:
            return "sp" if sixty_four else "wsp"
        return "xzr" if sixty_four else "wzr"
    return f"{'x' if sixty_four else 'w'}{n}"


def _loc_for(n: int, sp_ok: bool = False) -> Loc | None:
    """Register 31 is sp in addressing contexts and the zero register elsewhere."""
    if n == 31:
        return _SP_LOC if sp_ok else None
    return _X_LOCS[n]


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


_COND_NAMES = [
    "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
    "hi", "ls", "ge", "lt", "gt", "le", "al", "nv",
]


_unpack_word = struct.Struct("<I").unpack

# RET, BR and BLR by their fixed bits: kind and mnemonic
_REGISTER_BRANCHES = {
    0xD65F0000: ("return", "ret"),
    0xD61F0000: ("branch", "br"),
    0xD63F0000: ("call", "blr"),
}
# LDUR/STUR and post- and pre-indexed LDR/STR by bits 10-11: mnemonic tail, mode
_IMM9_MODES = {0: ("ur", "off"), 1: ("r", "post"), 3: ("r", "pre")}
# LDP/STP by bits 23-24: mode
_PAIR_MODES = {1: "post", 2: "off", 3: "pre"}


def _opaque(ins: Instruction, word: int) -> Instruction:
    ins.asm = f".word 0x{word:08x}"
    ins.mnemonic = ".word"
    return ins


def decode(word_bytes: bytes, ea: int) -> Instruction:
    """Decode one 4-byte word; unknown encodings become opaque `.word`s."""
    word = _unpack_word(word_bytes)[0]
    ins = Instruction(ea=ea, bytes=bytes(word_bytes), asm="", kind="other")

    if word == 0xD503201F:
        ins.kind, ins.asm, ins.mnemonic = "nop", "nop", "nop"
        return ins

    hit = _REGISTER_BRANCHES.get(word & 0xFFFFFC1F)
    if hit is not None:  # RET, BR, BLR
        rn = (word >> 5) & 0x1F
        ins.kind, name = hit
        ins.mnemonic, ins.rn = name, _loc_for(rn)
        plain_ret = name == "ret" and rn == 30
        ins.asm = name if plain_ret else f"{name} {_print_reg(rn, True)}"
        ins.uses = _locs(ins.rn)
        if name == "blr":
            ins.defs = _locs(LINK_REG)
        return ins

    if word & 0x7C000000 == 0x14000000:  # B, BL
        target = (ea + 4 * _sext(word & 0x3FFFFFF, 26)) & _ADDRESS_MASK
        ins.branch_target = target
        if word >> 31:
            ins.kind, ins.mnemonic = "call", "bl"
            ins.defs = _locs(LINK_REG)
        else:
            ins.kind, ins.mnemonic = "branch", "b"
        ins.asm = f"{ins.mnemonic} 0x{target:x}"
        return ins

    if word & 0xFF000010 == 0x54000000 or word & 0x7C000000 == 0x34000000:
        # B.cond, CBZ/CBNZ and TBZ/TBNZ
        offset, operands = _sext((word >> 5) & 0x7FFFF, 19), ""
        if word & 0x40000000:  # B.cond
            name = f"b.{_COND_NAMES[word & 0xF]}"
        else:
            rt = word & 0x1F
            nz = "nz" if word & 0x01000000 else "z"
            if word & 0x02000000:  # TBZ/TBNZ: tests bit b5:b40, 14-bit offset
                bit = ((word >> 31) << 5) | ((word >> 19) & 0x1F)
                ins.immediate, ins.sixty_four = bit, bit >= 32
                name, operands = f"tb{nz}", f", #{bit}"
                offset = _sext((word >> 5) & 0x3FFF, 14)
            else:
                name = f"cb{nz}"
                ins.sixty_four = bool(word >> 31)
            operands = f" {_print_reg(rt, ins.sixty_four)}{operands},"
            ins.uses = _locs(_loc_for(rt))
        target = (ea + 4 * offset) & _ADDRESS_MASK
        ins.kind, ins.mnemonic = "branch", name
        ins.conditional = True
        ins.branch_target = target
        ins.asm = f"{name}{operands} 0x{target:x}"
        return ins

    if word & 0x1F000000 == 0x10000000:  # ADR, ADRP
        rd = word & 0x1F
        imm = _sext(((word >> 3) & 0x1FFFFC) | ((word >> 29) & 0x3), 21)
        if word >> 31:
            name, value = "adrp", ((ea & ~0xFFF) + (imm << 12)) & _ADDRESS_MASK
        else:
            name, value = "adr", (ea + imm) & _ADDRESS_MASK
        ins.kind, ins.mnemonic = "assignment", name
        ins.rd = _loc_for(rd)
        ins.immediate = ins.xref = value
        ins.asm = f"{name} {_print_reg(rd, True)}, 0x{value:x}"
        ins.defs = _locs(ins.rd)
        return ins

    if word & 0x1F800000 == 0x12800000:  # MOVN/MOVZ/MOVK
        opc = (word >> 29) & 0x3
        sixty_four = bool(word >> 31)
        hw = (word >> 21) & 0x3
        if opc == 1 or (hw >= 2 and not sixty_four):
            return _opaque(ins, word)
        imm16 = (word >> 5) & 0xFFFF
        rd = word & 0x1F
        shift = 16 * hw
        ins.sixty_four = sixty_four
        ins.rd = _loc_for(rd)
        ins.defs = _locs(ins.rd)
        rd_text = _print_reg(rd, sixty_four)
        if opc == 3:  # MOVK: keeps other bits, so value alone is not the result
            ins.kind, ins.mnemonic = "assignment", "movk"
            ins.uses = ins.defs
            ins.immediate = imm16
            ins.hw_shift = shift
            suffix = f", lsl #{shift}" if shift else ""
            ins.asm = f"movk {rd_text}, #{imm16}{suffix}"
            return ins
        value = imm16 << shift
        if opc == 0:  # MOVN
            mask = (1 << 64) - 1 if sixty_four else (1 << 32) - 1
            value = ~value & mask
        ins.kind, ins.mnemonic = "assignment", "mov"
        ins.immediate = value
        ins.asm = f"mov {rd_text}, #{value}"
        return ins

    if word & 0x7FE0FFE0 == 0x2A0003E0:  # ORR rd, xzr, rm (register move)
        sixty_four = bool(word >> 31)
        rm = (word >> 16) & 0x1F
        rd = word & 0x1F
        ins.kind, ins.mnemonic = "assignment", "mov"
        ins.sixty_four = sixty_four
        ins.rd, ins.rm = _loc_for(rd), _loc_for(rm)
        ins.asm = f"mov {_print_reg(rd, sixty_four)}, {_print_reg(rm, sixty_four)}"
        ins.defs = _locs(ins.rd)
        ins.uses = _locs(ins.rm)
        return ins

    if word & 0x1F800000 == 0x11000000 or (
        word & 0x1F200000 == 0x0B000000
        and (word >> 22) & 0x3 != 3  # shift type 3 is reserved,
        and (word >> 31 or not word & 0x8000)  # as is a w-register shift >= 32
    ):
        # ADD/SUB immediate and shifted register; only the immediate form
        # reads register 31 as sp
        sixty_four = bool(word >> 31)
        is_sub = (word >> 30) & 1
        sets_flags = (word >> 29) & 1
        rn = (word >> 5) & 0x1F
        rd = word & 0x1F
        sp_ok = bool(word & 0x10000000)
        ins.sixty_four = sixty_four
        ins.rn = _loc_for(rn, sp_ok)
        if sp_ok:
            raw12 = (word >> 10) & 0xFFF
            shifted = (word >> 22) & 1
            ins.immediate = raw12 << 12 if shifted else raw12
            operand = f"#{raw12}, lsl #12" if shifted else f"#{raw12}"
            ins.uses = _locs(ins.rn)
        else:
            rm = (word >> 16) & 0x1F
            imm6 = (word >> 10) & 0x3F
            shift_kind = ("lsl", "lsr", "asr", "ror")[(word >> 22) & 0x3]
            operand = _print_reg(rm, sixty_four)
            operand += f", {shift_kind} #{imm6}" if imm6 else ""
            ins.rm = _loc_for(rm)
            ins.uses = _locs(ins.rn, ins.rm)
        rn_text = _print_reg(rn, sixty_four, sp_ok)
        if sets_flags and rd == 31:  # CMP/CMN; an immediate prints shifted
            name = "cmp" if is_sub else "cmn"
            ins.kind, ins.mnemonic = "compare", name
            ins.asm = f"{name} {rn_text}, " + (f"#{ins.immediate}" if sp_ok else operand)
            return ins
        name = ("sub" if is_sub else "add") + ("s" if sets_flags else "")
        ins.kind, ins.mnemonic = "assignment", name
        ins.rd = _loc_for(rd, sp_ok)
        ins.asm = f"{name} {_print_reg(rd, sixty_four, sp_ok)}, {rn_text}, {operand}"
        ins.defs = _locs(ins.rd)
        return ins

    if _decode_loadstore(word, ins):
        return ins
    return _opaque(ins, word)


def _decode_loadstore(word: int, ins: Instruction) -> bool:
    """Fill a load or store of `rt`, and of `rt2` for LDP/STP, at [rn +/- imm];
    False for any other word."""
    is_load = bool(word & 0x400000)
    sixty_four = bool(word & 0x40000000)
    rt2 = None
    if word & 0xBF800000 == 0xB9000000:  # LDR/STR, unsigned scaled offset
        tail, mode = "r", "off"
        imm = ((word >> 10) & 0xFFF) << (3 if sixty_four else 2)
    elif word & 0xBFA00000 == 0xB8000000 and (word >> 10) & 0x3 in _IMM9_MODES:
        tail, mode = _IMM9_MODES[(word >> 10) & 0x3]
        imm = _sext((word >> 12) & 0x1FF, 9)
    elif (word >> 25) & 0x1F == 0x14 and (word >> 23) & 0x3 and word >> 30 != 3:
        # LDP/STP; opc 11 is reserved, and opc 01 is LDPSW or STGP
        if word >> 30 == 1 and not is_load:
            return False  # STGP stores a tag, not two registers
        sixty_four = bool(word >> 31)
        tail = "psw" if word >> 30 == 1 else "p"
        mode = _PAIR_MODES[(word >> 23) & 0x3]
        imm = _sext((word >> 15) & 0x7F, 7) << (3 if sixty_four else 2)
        rt2 = (word >> 10) & 0x1F
    else:
        return False
    name = ("ld" if is_load else "st") + tail
    rn = (word >> 5) & 0x1F
    rt = word & 0x1F
    ins.kind, ins.mnemonic = "assignment", name
    ins.sixty_four = sixty_four
    ins.is_load, ins.is_store = is_load, not is_load
    ins.rd = _loc_for(rt)
    ins.mem_base = _loc_for(rn, sp_ok=True)
    ins.mem_offset = imm
    ins.mem_mode = mode
    x_text = sixty_four or tail == "psw"  # LDPSW sign-extends into x registers
    regs = _print_reg(rt, x_text)
    tlocs = (ins.rd,)
    if rt2 is not None:
        ins.rt2 = _loc_for(rt2)
        regs += ", " + _print_reg(rt2, x_text)
        tlocs += (ins.rt2,)
    base = _print_reg(rn, True, sp_ok=True)
    if mode == "off":
        addr = f"[{base}, #{imm}]" if imm else f"[{base}]"
    elif mode == "pre":
        addr = f"[{base}, #{imm}]!"
    else:
        addr = f"[{base}], #{imm}"
    ins.asm = f"{name} {regs}, {addr}"
    written = (ins.mem_base,) if mode != "off" else ()
    if is_load:
        ins.defs = _locs(*tlocs, *written)
        ins.uses = _locs(ins.mem_base)
    else:
        ins.defs = _locs(*written)
        ins.uses = _locs(*tlocs, ins.mem_base)
    return True


# ---------------------------------------------------------------------------
# CFG construction


@dataclass(slots=True)
class BasicBlock:
    ea: int
    instructions: list[Instruction]
    successors: list[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.instructions[-1].ea + 4


@dataclass
class FunctionBody:
    entry_ea: int
    name: str
    blocks: list[BasicBlock]
    end_ea: int
    # block ea -> the eas of its predecessor blocks, for every block
    predecessors: dict[int, list[int]]

    def instructions(self):
        for b in self.blocks:
            yield from b.instructions


def word_span(image: MachoImage, entry_ea: int, end_ea: int) -> tuple[int, int]:
    """(file offset, count) of the whole words of [entry_ea, end_ea) in the
    file, which can end mid-word; EmptyRange if there are none."""
    offset = va_to_offset(image, entry_ea)
    if offset is None:
        raise EmptyRange(f"entry {entry_ea:#x} is not mapped")
    count = min(end_ea - entry_ea, len(image.data) - offset) // 4
    if count <= 0:
        raise EmptyRange(
            f"function range [{entry_ea:#x}, {end_ea:#x}) holds no whole word"
        )
    return offset, count


def function_name(image: MachoImage, model, entry_ea: int) -> str:
    """The one name of an in-image function, for its node, body and call
    sites: `±[Class sel]` for a method at `entry_ea`, else its symbol, else `sub_…`."""
    hit = model.class_of_impl(entry_ea) if model is not None else None
    if hit is not None:
        return method_name(hit[0].is_metaclass, hit[0].name, hit[1].selector)
    return image.symbol_names.get(entry_ea) or f"sub_{entry_ea:x}"


def build_function(
    image: MachoImage, entry_ea: int, end_ea: int, model=None
) -> FunctionBody:
    """Decode [entry_ea, end_ea) and shape it into basic blocks."""
    offset, count = word_span(image, entry_ea, end_ea)
    instructions = [
        decode(image.data[offset + 4 * i : offset + 4 * i + 4], entry_ea + 4 * i)
        for i in range(count)
    ]
    return build_function_from_instructions(
        instructions, function_name(image, model, entry_ea)
    )


def build_function_from_instructions(
    instructions: list[Instruction], name: str = ""
) -> FunctionBody:
    if not instructions:
        raise EmptyRange("no instructions")
    instructions = list(instructions)
    while len(instructions) > 1 and instructions[-1].bytes == b"\x00\x00\x00\x00":
        instructions.pop()  # linker padding after the final return
    fn = _shape_blocks(instructions[0].ea, instructions, name)
    _fuse_xrefs(fn)
    if not fn.name:
        fn.name = f"sub_{fn.entry_ea:x}"
    return fn


def _shape_blocks(entry_ea: int, instructions: list[Instruction], name: str) -> FunctionBody:
    end_ea = instructions[-1].ea + 4
    in_range = lambda ea: entry_ea <= ea < end_ea
    leaders = {entry_ea}
    for ins in instructions:
        if ins.ends_block:
            if ins.branch_target is not None and in_range(ins.branch_target):
                leaders.add(ins.branch_target)
            if ins.ea + 4 < end_ea:
                leaders.add(ins.ea + 4)

    blocks: list[BasicBlock] = []
    current: list[Instruction] = []
    for ins in instructions:
        if ins.ea in leaders and current:
            blocks.append(BasicBlock(current[0].ea, current))
            current = []
        current.append(ins)
    if current:
        blocks.append(BasicBlock(current[0].ea, current))

    starts = {b.ea for b in blocks}
    preds: dict[int, list[int]] = {b.ea: [] for b in blocks}
    for b in blocks:
        last = b.instructions[-1]
        succ: list[int] = []
        if last.kind == "return":
            pass
        elif last.kind == "branch":
            target = last.branch_target
            if target is not None and in_range(target):
                succ.append(target)
            if last.conditional and last.ea + 4 < end_ea:
                succ.append(last.ea + 4)
        elif last.ea + 4 < end_ea:
            succ.append(last.ea + 4)  # fell into the next leader
        b.successors = sorted(s for s in set(succ) if s in starts)
        for s in b.successors:
            preds[s].append(b.ea)
    return FunctionBody(
        entry_ea=entry_ea, name=name, blocks=blocks, end_ea=end_ea, predecessors=preds
    )


def _fuse_xrefs(fn: FunctionBody) -> None:
    """Turn ADRP+ADD / ADRP+LDR pairs into an absolute xref on the second half."""
    for block in fn.blocks:
        page: dict[Loc, int] = {}
        for ins in block.instructions:
            if ins.mnemonic == "adrp":
                page[ins.rd] = ins.immediate
                continue
            if ins.kind == "call":
                page.clear()
                continue
            if ins.mnemonic == "add" and ins.immediate is not None and ins.rn in page:
                ins.xref = _fit(("const", page[ins.rn] + ins.immediate), ins.sixty_four)[1]
                page[ins.rd] = ins.xref
                continue
            if ins.is_load and ins.mem_base in page and ins.mem_mode == "off":
                ins.xref = (page[ins.mem_base] + ins.mem_offset) & _ADDRESS_MASK
            for d in ins.defs:
                page.pop(d, None)


# ---------------------------------------------------------------------------
# effects: constant/stack tracking shared by use-def and backtrace

_SP = ("sp", 0)
_RETURN_LOCS = _locs(X0)
_CALL_CLOBBERS = (*_X_LOCS[:18], LINK_REG)
_COPIED = {None: ("const", 0), **{r: ("copy", r) for r in _REGS.values()}}


@dataclass
class _Effects:
    """Per-instruction effective defs/uses, and where each value written came from.

    The sets are frozensets and may be the very objects an `Instruction`
    holds, shared with other instructions, so they are never mutated: a
    change rebinds the entry to a new set.  `assign[ea]` is a flat tuple
    (loc, provenance, loc, provenance, ...) of written locations; a
    provenance, ("const", v) | ("copy", Loc) | ("load", Loc) | ("call",),
    never equals a Loc.  A written location with no entry is unknown.
    """

    eff_defs: dict[int, frozenset[Loc]]
    eff_uses: dict[int, frozenset[Loc]]
    assign: dict[int, tuple]

    def add_call_uses(self, call_uses: dict[int, set[Loc]]) -> None:
        """Add the argument registers of resolved call sites to the uses of
        their instructions, a tail-call `b` included (it still defines
        nothing)."""
        for ea, regs in call_uses.items():
            self.eff_uses[ea] = self.eff_uses[ea] | regs


def _merge_states(states: list[dict]) -> dict:
    if not states:
        return {}
    out = dict(states[0])
    for other in states[1:]:
        for key in list(out):
            if other.get(key) != out[key]:
                del out[key]
    return out


def _value_after_add(value, imm: int, negate: bool):
    if value is None:
        return None
    kind, v = value
    return (kind, v - imm if negate else v + imm)


def _fit(value, sixty_four: bool):
    """`value` as a write of that width leaves it: a constant modulo 2^64, or
    2^32 in a w register; an sp offset survives only in an x register."""
    if value is None or value[0] != "const":
        return value if sixty_four else None
    return ("const", value[1] % (1 << (64 if sixty_four else 32)))


def _put(state: dict, key: Loc, value) -> None:
    """Bind `key` to `value` in a block state; None forgets the key."""
    if value is None:
        state.pop(key, None)
    else:
        state[key] = value


def _step(state: dict, ins: Instruction) -> tuple:
    """Apply one instruction to a block's register state, in place.

    Returns its effective defs and uses and `assign` row, read from the state
    before it: a loaded register's slot, a stored slot's register (xzr:
    ("const", 0)), a call's x0 ("call",), what a move, constant or ADD/SUB
    immediate copies; a written-back base, x30 at a call and all else get
    no entry.  A load or store through a known register reads or writes its
    slot.  A call forgets what AAPCS64 lets a callee change, x0-x17 and x30."""
    m = ins.mnemonic
    defs, uses = ins.defs, ins.uses
    if ins.kind == "call":
        for loc in _CALL_CLOBBERS:
            state.pop(loc, None)
        return defs | _RETURN_LOCS, uses | _RETURN_LOCS, (X0, ("call",))
    if ins.is_load or ins.is_store:
        base = state.get(ins.mem_base)
        slots = ()
        if base is not None:
            kind, v = base
            at = stack_slot if kind == "sp" else mem
            v += ins.mem_offset if ins.mem_mode != "post" else 0
            slots = (at(v),)
            if m in ("ldp", "stp", "ldpsw"):  # rt2 may be xzr: None
                slots += (at(v + (8 if ins.sixty_four else 4)),)
        for d in defs:
            state.pop(d, None)
        if ins.mem_mode != "off":  # writeback
            value = _value_after_add(base, ins.mem_offset, False)
            _put(state, ins.mem_base, _fit(value, True))
        if ins.is_store:
            row = (slots[0], _COPIED[ins.rd]) if slots else ()
            if len(slots) == 2:
                row += (slots[1], _COPIED[ins.rt2])
            return (defs.union(slots) if slots else defs), uses, row
        row = (ins.rd, ("load", slots[0])) if slots and ins.rd is not None else ()
        if len(slots) == 2 and ins.rt2 is not None:
            row += (ins.rt2, ("load", slots[1]))
        return defs, (uses.union(slots) if slots else uses), row
    if not defs:  # writes nothing, or the zero register: binds nothing
        return defs, uses, ()
    if m == "mov" and ins.immediate is None:  # register move; xzr binds nothing
        _put(state, ins.rd, _fit(state.get(ins.rm), ins.sixty_four))
        return defs, uses, () if ins.rm is None else (ins.rd, _COPIED[ins.rm])
    if m == "mov" or m == "adrp" or m == "adr":
        state[ins.rd] = value = ("const", ins.immediate)
        return defs, uses, (ins.rd, value)
    if (m == "add" or m == "sub") and ins.immediate is not None:
        value = _value_after_add(state.get(ins.rn), ins.immediate, m == "sub")
        value = _fit(value, ins.sixty_four)
        _put(state, ins.rd, value)
        if value is not None and value[0] == "const":
            return defs, uses, (ins.rd, value)
        return defs, uses, (ins.rd, _COPIED[ins.rn]) if ins.immediate == 0 else ()
    if m == "movk":
        prev, value = state.get(ins.rd), None
        if prev is not None and prev[0] == "const":
            shift = ins.hw_shift
            bits = (prev[1] & ~(0xFFFF << shift)) | (ins.immediate << shift)
            value = _fit(("const", bits), ins.sixty_four)
        _put(state, ins.rd, value)
    else:
        for d in defs:
            state.pop(d, None)
    return defs, uses, ()


def compute_effects(fn: FunctionBody, call_uses: dict | None = None) -> _Effects:
    """Forward constant/stack-offset propagation to a fixpoint over the CFG.

    A block's state maps register `Loc`s to ("const", value) or ("sp",
    offset).  Each visit of a block builds its merged incoming state once
    and `_step` updates it in place, instruction by instruction, recording
    each instruction's effects as it goes.  The last round changes no
    block state, so what it records are the effects at the fixpoint.

    Rounds sweep the blocks in address order.  A block waits until one of
    its predecessors has a state; blocks without any predecessor start from
    the empty state, and the entry from sp = ("sp", 0) merged with what its
    back edges bring.  From its first visit on, a block's state can only
    lose keys, and every round but the last visits a block for the first
    time or drops a key.  So the fixpoint ends, in at most
    blocks * (keys + 1) + 1 rounds, at the
    greatest fixpoint whatever the block order.  Starting a waiting block
    from the empty state would make the result depend on block order, and
    the rounds could swing between two states for ever.  A block that
    still waits in the last round, which no predecessor state reaches, has
    its effects recorded from the empty state and passes no state on.

    A call defines x0 and x30 and reads x0, plus any argument registers
    `call_uses` (from `call_effects_from_sites`) adds; those change no
    block state, so the fixpoint does not depend on them."""
    preds = fn.predecessors
    block_out: dict[int, dict] = {}
    effects = _Effects({}, {}, {})
    eff_defs, eff_uses, assign = effects.eff_defs, effects.eff_uses, effects.assign

    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            ea = block.ea
            incoming = [block_out[p] for p in preds[ea] if p in block_out]
            entry = ea == fn.entry_ea
            waiting = not entry and preds[ea] and not incoming
            state = _merge_states([{_SP_LOC: _SP}, *incoming] if entry else incoming)
            for ins in block.instructions:
                eff_defs[ins.ea], eff_uses[ins.ea], assign[ins.ea] = _step(state, ins)
            if not waiting and block_out.get(ea) != state:
                block_out[ea] = state
                changed = True
    effects.add_call_uses(call_uses or {})
    return effects


# ---------------------------------------------------------------------------
# reaching definitions / use-def chains


def compute_use_def(
    fn: FunctionBody, effects: _Effects | None = None
) -> set[tuple[int, int, Loc]]:
    """Reaching-definitions edges (use ea, def ea, location) over the CFG.

    `effects` defaults to `compute_effects(fn)`, whose calls read x0 only;
    pass effects with the call sites' argument uses when those are known.
    """
    eff = effects if effects is not None else compute_effects(fn)
    preds = fn.predecessors

    gen: dict[int, dict[Loc, frozenset[int]]] = {}
    for block in fn.blocks:
        current: dict[Loc, frozenset[int]] = {}
        for ins in block.instructions:
            for loc in eff.eff_defs[ins.ea]:
                current[loc] = frozenset((ins.ea,))
        gen[block.ea] = current

    block_in: dict[int, dict[Loc, frozenset[int]]] = {b.ea: {} for b in fn.blocks}
    block_out: dict[int, dict[Loc, frozenset[int]]] = {b.ea: {} for b in fn.blocks}
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            merged: dict[Loc, frozenset[int]] = {}
            for p in preds[block.ea]:
                for loc, eas in block_out[p].items():
                    seen = merged.get(loc)
                    merged[loc] = eas if seen is None else seen | eas
            block_in[block.ea] = merged
            out = {**merged, **gen[block.ea]}
            if out != block_out[block.ea]:
                block_out[block.ea] = out
                changed = True

    edges: set[tuple[int, int, Loc]] = set()
    for block in fn.blocks:
        reaching = dict(block_in[block.ea])
        for ins in block.instructions:
            for loc in eff.eff_uses[ins.ea]:
                for def_ea in reaching.get(loc, ()):
                    edges.add((ins.ea, def_ea, loc))
            for loc in eff.eff_defs[ins.ea]:
                reaching[loc] = (ins.ea,)
    return edges


# ---------------------------------------------------------------------------
# backtracing (receiver/selector reconstruction)


@dataclass(frozen=True)
class ResolvedValue:
    variant: str  # const_string | self_ref | own_selector | composed | unknown
    text: str | None = None
    receiver: "ResolvedValue | None" = None
    selector: "ResolvedValue | None" = None


CONST_STRING = lambda text: ResolvedValue("const_string", text=text)
SELF_REF = ResolvedValue("self_ref")
OWN_SELECTOR = ResolvedValue("own_selector")
UNKNOWN = ResolvedValue("unknown")
# what the argument registers hold on entry to a method; anything else is UNKNOWN
_AT_ENTRY = {X0: SELF_REF, X1: OWN_SELECTOR}


def composed(receiver: ResolvedValue, selector: ResolvedValue) -> ResolvedValue:
    return ResolvedValue("composed", receiver=receiver, selector=selector)


def _resolve_memory(model, address: int) -> str | None:
    """A constant address into objc metadata or string sections, as text."""
    if model is None or model.image is None:
        return None
    image = model.image
    if model.selmap is not None:
        sel = model.selmap.get(address)
        if sel is not None:
            return sel
    cls = model.by_address.get(address)
    if cls is not None:
        return cls.name
    for sect_name in ("__objc_methname", "__cstring", "__objc_classname"):
        sect = image.section("__TEXT", sect_name)
        if sect is not None and sect.contains_va(address):
            text = read_cstring(image, address)
            if text is not None:
                return text
    bound = image.bind_map.get(address)
    return strip_class_prefix(bound) if bound is not None else None


def resolve_constant(model, address: int) -> str | None:
    """Public lookup of an address against metadata and string sections, as
    text; on a miss, follow the one pointer stored there (a classref/selref-
    style slot) and resolve its target."""
    text = _resolve_memory(model, address)
    if text is None and model is not None and model.image is not None:
        pointer = strip_pac(read_u64(model.image, address) or 0)
        if pointer:
            text = _resolve_memory(model, pointer)
    return text


def backtrace(
    fn: FunctionBody,
    location: Loc,
    addr: int,
    model=None,
    depth: int = 2,
    functions: Mapping[int, FunctionBody] | None = None,
    effects: _Effects | None = None,
    summaries: dict[tuple[int, int], frozenset] | None = None,
) -> set[ResolvedValue]:
    """Possible values of `location` immediately before `addr` executes: one
    lookup per write in `effects.assign`, where no entry is UNKNOWN.  `summaries`
    maps (callee entry, depth) to what a traced in-image callee returns; one
    dict shared by a lift's traces saves recomputing them, never changes a result."""
    eff = effects if effects is not None else compute_effects(fn)
    summaries = {} if summaries is None else summaries
    blocks, preds = fn.blocks, fn.predecessors
    starts = [b.ea for b in blocks]

    def block_at(ea: int) -> BasicBlock | None:
        """The block that holds the instruction at `ea`."""
        i = bisect_right(starts, ea) - 1
        return blocks[i] if i >= 0 and ea < blocks[i].end else None

    results: set[ResolvedValue] = set()
    visited: set[tuple[Loc, int]] = set()
    work: list[tuple[Loc, int]] = []

    def push_before(loc: Loc, ea: int) -> None:
        """Keep tracing `loc` from just before the instruction at `ea`."""
        if ea == fn.entry_ea:  # the value on entry; a loop back to it goes on
            results.add(_AT_ENTRY.get(loc, UNKNOWN))
        if ea in preds:  # a block's first instruction
            work.extend((loc, block_at(p).end - 4) for p in preds[ea])
        else:
            work.append((loc, ea - 4))

    push_before(location, addr)
    while work:
        loc, ea = work.pop()
        if (loc, ea) in visited:
            continue
        visited.add((loc, ea))
        block = block_at(ea)
        if block is None:
            results.add(UNKNOWN)
            continue
        if loc not in eff.eff_defs[ea]:
            push_before(loc, ea)
            continue
        row = eff.assign[ea]
        if loc not in row:  # written, with no provenance: unknown
            results.add(UNKNOWN)
            continue
        info = row[row.index(loc) + 1]
        if info[0] == "call":
            ins = block.instructions[(ea - block.ea) // 4]
            results |= _trace_through_call(fn, ins, model, depth, functions, eff, summaries)
        elif info[0] == "const":
            text = _resolve_memory(model, info[1]) if info[1] else None
            results.add(UNKNOWN if text is None else CONST_STRING(text))
        elif info[0] == "load" and info[1].kind == "mem":
            text = resolve_constant(model, info[1].value)
            results.add(UNKNOWN if text is None else CONST_STRING(text))
        else:  # a copy, or a load from a frame slot
            push_before(info[1], ea)
    return results or {UNKNOWN}


def _trace_through_call(fn, ins, model, depth, functions, eff, summaries):
    """Values of x0 after the call at `ins`: what an in-image callee returns,
    or a message send composed of its receiver and selector.  The first trace
    of a callee at a depth stores what it returns in `summaries`, which later
    ones read: depth falls at each descent, so no key is read while computed."""
    target = ins.branch_target
    if depth <= 0 or target is None:
        return {UNKNOWN}
    if functions is not None and target in functions:
        if (target, depth) not in summaries:
            callee = functions[target]
            returns = [i.ea for i in callee.instructions() if i.kind == "return"]
            callee_eff = compute_effects(callee) if returns else None
            out: set[ResolvedValue] = set()
            for ret_ea in returns:
                out |= backtrace(callee, X0, ret_ea, model, depth - 1, functions,
                                 callee_eff, summaries)
            summaries[target, depth] = frozenset(out or {UNKNOWN})
        return summaries[target, depth]
    image = model.image if model is not None else None
    stub = _stub_name(image, target) if image is not None else None
    if stub is None or not stub.startswith("objc_msgSend"):
        return {UNKNOWN}
    receivers = backtrace(fn, X0, ins.ea, model, depth - 1, functions, eff, summaries)
    selectors = backtrace(fn, X1, ins.ea, model, depth - 1, functions, eff, summaries)
    return {composed(r, s) for r in receivers for s in selectors}


# ---------------------------------------------------------------------------
# call-site devirtualization


@dataclass(frozen=True)
class CallSite:
    caller_ea: int
    kind: str  # "in_image" | "external"
    target_ea: int | None
    target_name: str
    selector: str | None = None
    # receiver class name, kept as an annotation when the dispatch stays
    # external (e.g. `invoke` on an NSInvocation built in-function)
    receiver: str | None = None


def _stub_name(image: MachoImage, target: int) -> str | None:
    """Imported-symbol name for a call landing in `__stubs`, if any."""
    stubs = image.section("__TEXT", "__stubs")
    if stubs is None or not stubs.contains_va(target):
        return None
    stride = stubs.reserved2 or 4
    index = (target - stubs.vm_addr) // stride
    table_index = stubs.reserved1 + index
    if 0 <= table_index < len(image.indirect_symbols):
        sym_index = image.indirect_symbols[table_index]
        if 0 <= sym_index < len(image.symbols):
            name = image.symbols[sym_index].name
            if name:
                return c_name(name) or name
    return f"stub_{target:x}"


def _flatten_receiver(value: ResolvedValue) -> ResolvedValue:
    """Unwrap constructor chains down to the class they instantiate.

    alloc/new/init... return an instance of the receiver's class, and by
    Cocoa convention so do `...With...:` class factories
    (`invocationWithMethodSignature:`, `stringWithFormat:`).
    """
    while value.variant == "composed":
        sel = value.selector
        if sel is None or sel.variant != "const_string":
            return value
        if (
            sel.text in ("alloc", "new")
            or sel.text.startswith("init")
            or "With" in sel.text
        ):
            value = value.receiver
        else:
            return value
    return value


def devirtualize(
    fn: FunctionBody,
    model=None,
    functions: Mapping[int, FunctionBody] | None = None,
    depth: int = 2,
    effects: _Effects | None = None,
    summaries: dict[tuple[int, int], frozenset] | None = None,
) -> list[CallSite]:
    """Resolve direct calls, stubs, and objc_msgSend dispatches to targets;
    every msgSend backtrace reads `effects`, by default `compute_effects(fn)`,
    and `summaries` (see `backtrace`)."""
    image = model.image if model is not None else None
    if effects is None:
        effects = compute_effects(fn)
    sites: list[CallSite] = []
    for ins in fn.instructions():
        target = ins.branch_target
        if ins.mnemonic != "bl" and (
            ins.mnemonic != "b" or fn.entry_ea <= target < fn.end_ea
        ):
            continue  # neither a call nor a tail call out of the function
        stub = _stub_name(image, target) if image is not None else None
        if stub is None:
            name = function_name(image, model, target) if image else f"sub_{target:x}"
            sites.append(CallSite(ins.ea, "in_image", target, name))
            continue
        if stub.startswith("objc_msgSend"):
            sites.extend(_resolve_msgsend(fn, ins, model, depth, functions, effects, summaries))
        else:
            sites.append(CallSite(ins.ea, "external", None, stub))
    return sites


def _text(value: ResolvedValue, stand_in: ResolvedValue, own: str | None):
    """A constant's text, or `own` where `value` is its role's entry stand-in
    (SELF_REF for a receiver, OWN_SELECTOR for a selector); else None."""
    if value.variant == "const_string":
        return value.text
    return own if value == stand_in else None


def _resolve_msgsend(fn, ins, model, depth, functions, eff, summaries) -> list[CallSite]:
    receivers = backtrace(fn, X0, ins.ea, model, depth, functions, eff, summaries)
    selectors = backtrace(fn, X1, ins.ea, model, depth, functions, eff, summaries)
    hit = model.class_of_impl(fn.entry_ea)
    own_class, own_sel = (hit[0].name, hit[1].selector) if hit else (None, None)
    classes = {
        _text(_flatten_receiver(r), SELF_REF, own_class) for r in receivers
    } - {None}
    sels = {_text(s, OWN_SELECTOR, own_sel) for s in selectors} - {None}
    sites = set()
    for cls_name in classes:
        for sel in sels:
            hit = model.lookup(cls_name, sel)
            impl = hit[1].impl_address if hit is not None else None
            if impl is not None:
                name = function_name(model.image, model, impl)
                sites.add(CallSite(ins.ea, "in_image", impl, name, sel))
    if sites:
        # the value sets iterate in hash order, which varies between processes
        return sorted(sites, key=lambda s: (s.target_ea, s.target_name))
    selector, receiver = min(sels, default=None), min(classes, default=None)
    return [CallSite(ins.ea, "external", None, "objc_msgSend", selector, receiver)]


def call_effects_from_sites(sites: list[CallSite]) -> dict[int, set[Loc]]:
    """The register `Loc`s each call site reads as arguments, by caller
    address: x0, and for a message send x1 and one more per colon of its
    selector, up to x30."""
    uses_at: dict[int, set[Loc]] = {}
    for s in sites:
        n = 1
        if s.selector is not None or s.target_name.startswith("objc_msgSend"):
            n = 2 + (s.selector.count(":") if s.selector else 0)
        uses_at.setdefault(s.caller_ea, set()).update(_X_LOCS[:n])
    return uses_at
