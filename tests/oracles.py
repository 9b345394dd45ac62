"""Independent reference implementations used to generate expected test values.

Each oracle deliberately takes a different route than the package code it
checks, so a shared bug cannot make both sides agree.
"""

from __future__ import annotations

import plistlib
import struct


def uleb_encode_oracle(value: int) -> bytes:
    """Encode via binary-string chunking rather than shift/mask arithmetic."""
    if value < 0:
        raise ValueError("ULEB128 encodes unsigned values only")
    bits = bin(value)[2:]
    pad = (7 - len(bits) % 7) % 7
    bits = "0" * pad + bits
    groups = [bits[i : i + 7] for i in range(0, len(bits), 7)]
    groups.reverse()  # little-endian group order on the wire
    out = bytearray()
    for i, g in enumerate(groups):
        byte = int(g, 2)
        if i + 1 < len(groups):
            byte |= 0x80
        out.append(byte)
    return bytes(out)


def uleb_decode_oracle(data: bytes) -> tuple[int, int]:
    """Decode by reassembling the 7-bit groups as a binary string."""
    groups = []
    pos = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated")
        byte = data[pos]
        pos += 1
        groups.append(format(byte & 0x7F, "07b"))
        if not byte & 0x80:
            break
    return int("".join(reversed(groups)), 2), pos


def function_starts_oracle(deltas: list[int], base: int) -> list[int]:
    """Cumulative-sum expansion of a delta list (pre-encoding, not bytes)."""
    out = []
    cur = base
    for d in deltas:
        if d == 0:
            break
        cur += d
        out.append(cur)
    return out


def plist_roundtrip_xml(obj) -> bytes:
    """stdlib plistlib as the independent XML plist producer."""
    return plistlib.dumps(obj, fmt=plistlib.FMT_XML)


def plist_roundtrip_binary(obj) -> bytes:
    """stdlib plistlib as the independent binary plist producer."""
    return plistlib.dumps(obj, fmt=plistlib.FMT_BINARY)


def bplist_oracle(objects: list[bytes], top: int = 0) -> bytes:
    """A bplist00 assembled by hand, without plistlib: `objects` are encoded
    records, laid out in order, whose references are two bytes wide."""
    body = bytearray(b"bplist00")
    offsets = []
    for obj in objects:
        offsets.append(len(body))
        body += obj
    table = len(body)
    for offset in offsets:
        body += offset.to_bytes(2, "big")
    return bytes(body) + struct.pack(">6xBBQQQ", 2, 2, len(objects), top, table)


def reachable_oracle(num_nodes: int, edges: list[tuple[int, int]], start: int) -> set[int]:
    """Plain BFS over an adjacency list; includes the start node."""
    adj: dict[int, list[int]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for n in frontier:
            for m in adj.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return seen


def exe_paths_oracle(
    blocks: dict[int, list[int]], entry: int, l_max: int
) -> list[tuple[int, ...]]:
    """Enumerate every block path from entry by recursive descent.

    `blocks` maps block id -> successor ids.  A path ends at a block with no
    successors; paths longer than l_max blocks are cut and kept as prefixes.
    Only valid on acyclic graphs (the caller guarantees that).
    """
    out: list[tuple[int, ...]] = []

    def walk(path: list[int]) -> None:
        node = path[-1]
        succs = blocks.get(node, [])
        if not succs or len(path) >= l_max:
            out.append(tuple(path))
            return
        for s in sorted(succs):
            walk(path + [s])

    walk([entry])
    return out


def reaching_defs_oracle(
    instructions: list[tuple[int, set[str], set[str]]],
    succ: dict[int, list[int]],
    entry: int,
) -> dict[tuple[int, str], set[int]]:
    """Brute-force use-def: for every (instruction, used location), the set of
    instructions whose definition of that location can reach it.

    `instructions`: (id, defs, uses) triples; `succ`: id -> successor ids.
    A def at D reaches a use at U for location l if some path D -> U exists
    on which no intermediate instruction (exclusive of both ends) redefines l.
    Found by BFS from each definition, stopping at redefinitions.
    """
    by_id = {i: (d, u) for i, d, u in instructions}
    result: dict[tuple[int, str], set[int]] = {}
    for def_id, (defs, _) in by_id.items():
        for loc in defs:
            # BFS forward from def_id; the def survives into a successor edge
            # unless the node we pass through redefines loc.
            seen = set()
            frontier = list(succ.get(def_id, ()))
            while frontier:
                nxt = []
                for n in frontier:
                    if n in seen:
                        continue
                    seen.add(n)
                    d, u = by_id[n]
                    if loc in u:
                        result.setdefault((n, loc), set()).add(def_id)
                    if loc in d:
                        continue  # killed here; do not push successors
                    nxt.extend(succ.get(n, ()))
                frontier = nxt
    return result


def register_moves_oracle(program: list[tuple]) -> dict[int, int]:
    """Concrete values of x0-x30 after a straight-line program, read from the
    Arm ARM pseudocode of MOVZ/MOVN/MOVK, ADD/SUB (immediate) and MOV
    (register), not from `disasm._step`.  A register absent from the result
    holds an unknown value, as every register does on entry.

    Each step is one of:
      ("movz" | "movn" | "movk", d, sf, imm16, hw)
      ("add" | "sub", d, sf, n, imm12, sh)
      ("mov", d, sf, m)
    where `sf` picks X (64-bit) over W (32-bit) registers.

    As in the manual, an operation reads `datasize` bits of its sources and
    builds a `datasize`-bit result, and writing a W register clears bits
    63:32 of the X register, so every value written is below 2^datasize.
    """
    regs: dict[int, int] = {}

    def read(n: int, datasize: int) -> int | None:
        value = regs.get(n)
        return None if value is None else value & ((1 << datasize) - 1)

    def write(d: int, result: int | None) -> None:
        if result is None:
            regs.pop(d, None)
        else:
            regs[d] = result  # ZeroExtend(result, 64)

    for op, d, sf, *rest in program:
        datasize = 64 if sf else 32
        ones = (1 << datasize) - 1
        if op in ("movz", "movn", "movk"):
            imm16, hw = rest
            pos = hw * 16
            result = read(d, datasize) if op == "movk" else 0
            if result is not None:
                # result<pos+15:pos> = imm16
                result = result & ~(0xFFFF << pos) & ones | imm16 << pos
                if op == "movn":
                    result = ones ^ result  # NOT(result)
            write(d, result)
        elif op in ("add", "sub"):
            n, imm12, sh = rest
            imm = imm12 << 12 if sh else imm12
            operand1 = read(n, datasize)
            if operand1 is None:
                write(d, None)
                continue
            # AddWithCarry(operand1, operand2, carry): SUB adds NOT(imm) + 1
            operand2, carry = (ones ^ imm, 1) if op == "sub" else (imm, 0)
            write(d, (operand1 + operand2 + carry) & ones)
        else:  # mov: ORR d, ZR, m, LSL #0
            (m,) = rest
            write(d, read(m, datasize))  # ZR OR operand2
    return regs


def constant_paths_oracle(
    program: list[tuple], max_steps: int = 40, max_paths: int = 4000
) -> list[dict[int, tuple]]:
    """The values x0-x3 hold where `program` ends, one dict per path that
    gets there, found by walking the paths one at a time from its first
    step, not by merging states at joins.

    Each step is one of:
      ("movz", d, imm16)             xd = imm16
      ("add" | "sub", d, n, imm12)   xd = xn + or - imm12, modulo 2^64
      ("mov", d, n)                  xd = xn
      ("addsp", d, k)                xd = sp + k
      ("subsp", k)                   sp = sp - k
      ("str" | "ldr", d, k)          store xd at, or load xd from, [sp + k]
      ("cbz", k) | ("b", k)          to step k if x3 is zero, or always;
                                     k == len(program) is the end
      ("bl",)                        call a function that returns; AAPCS64
                                     lets it change x0-x17 and x30, so
                                     after it they hold unknown values

    A value is ("const", v) or ("frame", k), the address sp0 + k, where sp0
    is sp at the start: each path tracks how far sp has moved from sp0. A
    register missing from a dict holds an unknown value, as every register
    does at the start, and a load gives an unknown value. A `cbz`
    on a register whose value is unknown or a frame address takes both
    ways, one on a constant only its own. A path is cut after `max_steps`
    steps, and the walk stops after `max_paths` paths, cut ones included.
    """
    ends: list[dict[int, tuple]] = []
    walked = 0
    pending = [(0, 0, {}, 0)]  # (step index, steps taken, registers, sp - sp0)
    while pending and walked < max_paths:
        i, taken, regs, sp = pending.pop()
        if i == len(program) or taken == max_steps:
            walked += 1
            if i == len(program):
                ends.append(regs)
            continue
        op, *args = program[i]
        nexts = [i + 1]
        if op in ("cbz", "b"):
            (k,) = args
            x3 = regs.get(3)
            if op == "b" or x3 == ("const", 0):
                nexts = [k]
            elif x3 is None or x3[0] == "frame":
                nexts = [i + 1, k]
        elif op == "subsp":
            sp -= args[0]
        elif op == "bl":
            regs = {r: v for r, v in regs.items() if 18 <= r <= 29}
        elif op != "str":
            regs, d = dict(regs), args[0]
            if op == "movz":
                value = ("const", args[1])
            elif op in ("add", "sub"):
                value = regs.get(args[1])
                if value is not None:
                    kind, v = value
                    v = v + args[2] if op == "add" else v - args[2]
                    value = (kind, v % (1 << 64) if kind == "const" else v)
            elif op == "mov":
                value = regs.get(args[1])
            elif op == "addsp":
                value = ("frame", sp + args[1])
            else:  # ldr
                value = None
            if value is None:
                regs.pop(d, None)
            else:
                regs[d] = value
        pending.extend((j, taken + 1, regs, sp) for j in nexts)
    return ends


def value_paths_oracle(
    program: list[tuple], max_steps: int = 40, max_paths: int = 4000
) -> list[dict[int, object]]:
    """The values x0-x3 hold where `program` ends, one dict per path that
    gets there, walked one path at a time as `constant_paths_oracle` walks
    them, with the frame's slots tracked as well as the registers.

    On entry x0 holds the token "self" and x1 the token "sel"; every other
    register, and each slot [sp + k] until the path stores to it, holds an
    unknown value.  Each step is one of:
      ("movz", d, imm16)             xd = imm16
      ("mov", d, n)                  xd = xn
      ("add", d, n, imm12)           xd = xn + imm12
      ("addsp", d, k)                xd = sp + k
      ("str" | "ldr", d, k)          store xd at, or load xd from, [sp + k]
      ("stp" | "ldp", d, e, k)       the same for xd at [sp + k] and xe at
                                     [sp + k + 8]
      ("ldrpost", d, n, k)           ldr xd, [xn], #k: load from xn, then
                                     add k to xn
      ("ldrpre", d, n, k)            ldr xd, [xn, #k]!: add k to xn, then
                                     load from it
      ("cbz", k) | ("b", k)          as in `constant_paths_oracle`

    A value is "self", "sel", ("const", v) or ("frame", k); a register
    missing from a dict holds an unknown value.  Adding to a token or to an
    unknown value gives an unknown value, bar adding 0, and so does a load
    through a register that holds no frame address.  sp never changes.
    """

    def plus(value, k):
        if k == 0:
            return value
        if isinstance(value, tuple):
            kind, v = value
            return (kind, (v + k) % (1 << 64) if kind == "const" else v + k)
        return None

    def put(table: dict, key, value) -> None:
        if value is None:
            table.pop(key, None)
        else:
            table[key] = value

    ends: list[dict[int, object]] = []
    walked = 0
    # (step index, steps taken, registers, frame slots by offset)
    pending = [(0, 0, {0: "self", 1: "sel"}, {})]
    while pending and walked < max_paths:
        i, taken, regs, slots = pending.pop()
        if i == len(program) or taken == max_steps:
            walked += 1
            if i == len(program):
                ends.append(regs)
            continue
        op, *args = program[i]
        nexts = [i + 1]
        regs, slots = dict(regs), dict(slots)
        if op in ("cbz", "b"):
            (k,) = args
            x3 = regs.get(3)
            if op == "b" or x3 == ("const", 0):
                nexts = [k]
            elif not (isinstance(x3, tuple) and x3[0] == "const"):
                nexts = [i + 1, k]
        elif op == "movz":
            regs[args[0]] = ("const", args[1])
        elif op == "mov":
            put(regs, args[0], regs.get(args[1]))
        elif op == "add":
            put(regs, args[0], plus(regs.get(args[1]), args[2]))
        elif op == "addsp":
            regs[args[0]] = ("frame", args[1])
        elif op in ("str", "stp"):
            *stored, k = args
            for offset, d in enumerate(stored):
                put(slots, k + 8 * offset, regs.get(d))
        elif op in ("ldr", "ldp"):
            *loaded, k = args
            for offset, d in enumerate(loaded):
                put(regs, d, slots.get(k + 8 * offset))
        else:  # ldrpost, ldrpre
            d, n, k = args
            before, after = regs.get(n), plus(regs.get(n), k)
            at = after if op == "ldrpre" else before
            put(regs, n, after)
            framed = isinstance(at, tuple) and at[0] == "frame"
            put(regs, d, slots.get(at[1]) if framed else None)
        pending.extend((j, taken + 1, regs, slots) for j in nexts)
    return ends
