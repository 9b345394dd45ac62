"""Field-boundary mutants: copies of a Mach-O with one 4-byte word set to an
edge value.

The sweep covers every 4-byte word of the Mach-O header and load commands,
each set to one of eight values (0, 1, -1, 2^31-1, 2^31, and the file size
-1, +0 and +1), and every 4-byte word in the first 4 KB of each `__DATA*`
section and ObjC name section, each set to one of four values.  Counts,
offsets and sizes read from the file meet these values first.

`boundary_sample` draws the fixed, seeded part of the sweep that the whole-lift
fuzz test lifts; the byte-identity harness (`tools/identity.py`) lifts all of it.
"""

from __future__ import annotations

import random
import struct

from ..macho import parse_macho

_DATA_VALUES = (0, 1, 0xFFFFFFFF, 0x80000000)
_DATA_BYTES = 4096
_OBJC_NAME_SECTIONS = ("__objc_methname", "__objc_classname", "__objc_methtype")

# corpus fixture -> seed of its boundary sample
BOUNDARY_SAMPLE_SEEDS = {"benign_app": 4, "msgsend_suite": 5, "listing_one": 6}
BOUNDARY_SAMPLE_SIZE = 300


def boundary_fields(blob: bytes) -> list[tuple[int, int]]:
    """Every (file offset, 32-bit value) pair of the sweep of a thin Mach-O."""
    size = len(blob)
    header_values = (0, 1, 0xFFFFFFFF, 2**31 - 1, 2**31, size - 1, size, size + 1)
    commands_end = 32 + struct.unpack_from("<I", blob, 20)[0]
    pairs = [
        (offset, value & 0xFFFFFFFF)
        for offset in range(0, min(commands_end, size) - 3, 4)
        for value in header_values
    ]
    for sect in parse_macho(blob).sections.values():
        if sect.is_zerofill or not (
            sect.segment_name.startswith("__DATA")
            or sect.section_name in _OBJC_NAME_SECTIONS
        ):
            continue
        end = sect.file_offset + min(sect.size, _DATA_BYTES)
        pairs += [
            (offset, value)
            for offset in range(sect.file_offset, min(end, size) - 3, 4)
            for value in _DATA_VALUES
        ]
    return pairs


def boundary_mutant(blob: bytes, offset: int, value: int) -> bytes:
    """`blob` with the little-endian 32-bit word at `offset` set to `value`."""
    data = bytearray(blob)
    struct.pack_into("<I", data, offset, value)
    return bytes(data)


def boundary_sample(blob: bytes, seed: int) -> list[tuple[int, int]]:
    """`BOUNDARY_SAMPLE_SIZE` pairs of `boundary_fields(blob)`, the same ones
    for the same seed."""
    return random.Random(seed).sample(boundary_fields(blob), BOUNDARY_SAMPLE_SIZE)
