"""Mach-O loader: fat containers, load commands, segments, symbols, function starts.

Only 64-bit arm64/arm64e images are lifted; fat slices of other architectures
are enumerated but rejected on parse.  Fat header fields are big-endian,
Mach-O 64 header fields little-endian.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field

from .errors import (
    BadMagic,
    DanglingReference,
    MalformedLoadCommand,
    OverlongUleb,
    TruncatedFile,
    UnsupportedArch,
)

log = logging.getLogger(__name__)

FAT_MAGIC = 0xCAFEBABE
FAT_MAGIC_64 = 0xCAFEBABF
MH_MAGIC_64 = 0xFEEDFACF
MH_CIGAM_64 = 0xCFFAEDFE
MH_MAGIC = 0xFEEDFACE
MH_CIGAM = 0xCEFAEDFE

CPU_TYPE_ARM64 = 0x0100000C
CPU_TYPE_ARM = 0x0000000C
CPU_TYPE_X86_64 = 0x01000007
CPU_TYPE_I386 = 0x00000007

LC_REQ_DYLD = 0x80000000
LC_SEGMENT_64 = 0x19
LC_SYMTAB = 0x02
LC_DYSYMTAB = 0x0B
LC_DYLD_INFO = 0x22
LC_DYLD_INFO_ONLY = 0x22 | LC_REQ_DYLD
LC_FUNCTION_STARTS = 0x26
LC_CODE_SIGNATURE = 0x1D
LC_ENCRYPTION_INFO_64 = 0x2C

# section flags
S_ZEROFILL = 0x01
S_CSTRING_LITERALS = 0x02
S_SYMBOL_STUBS = 0x08
S_ATTR_PURE_INSTRUCTIONS = 0x80000000
S_ATTR_SOME_INSTRUCTIONS = 0x00000400

# nlist type bits
N_STAB = 0xE0
N_EXT = 0x01
N_TYPE = 0x0E
N_UNDF = 0x00

# code signature blob magics (big-endian on disk)
CSMAGIC_EMBEDDED_SIGNATURE = 0xFADE0CC0
CSMAGIC_EMBEDDED_ENTITLEMENTS = 0xFADE7171
CSSLOT_ENTITLEMENTS = 5

# arm64e data words carry pointer-authentication bits above bit 47
PAC_MASK = (1 << 48) - 1

# the longest C string `read_cstring` scans for its terminator
_CSTRING_LIMIT = 4096

_CPU_NAMES = {
    CPU_TYPE_ARM64: "arm64",
    CPU_TYPE_ARM: "armv7",
    CPU_TYPE_X86_64: "x86_64",
    CPU_TYPE_I386: "i386",
}


def cpu_tag(cputype: int) -> str:
    return _CPU_NAMES.get(cputype, f"cpu_{cputype:#x}")


def c_name(symbol: str) -> str:
    """The C name of a Mach-O symbol: without the one leading `_` that the
    compiler prefixes, so `___strcpy_chk` names `__strcpy_chk`."""
    return symbol.removeprefix("_")


def strip_pac(value: int) -> int:
    """Mask pointer-authentication bits off a data-section address word."""
    return value & PAC_MASK


@dataclass(frozen=True)
class Segment:
    name: str
    vm_addr: int
    vm_size: int
    file_offset: int
    file_size: int

    def contains_va(self, va: int) -> bool:
        return self.vm_addr <= va < self.vm_addr + self.vm_size


@dataclass(frozen=True)
class Section:
    segment_name: str
    section_name: str
    vm_addr: int
    size: int
    file_offset: int
    flags: int
    reserved1: int = 0
    reserved2: int = 0

    @property
    def is_zerofill(self) -> bool:
        return (self.flags & 0xFF) == S_ZEROFILL

    def contains_va(self, va: int) -> bool:
        return self.vm_addr <= va < self.vm_addr + self.size


@dataclass(frozen=True)
class SymbolEntry:
    name: str
    address: int | None
    is_external: bool
    is_exported: bool = False


@dataclass
class MachoImage:
    """A parsed 64-bit Mach-O image.

    `sections` maps (segment name, section name) to the section, in
    load-command order; a later section of the same names is skipped.
    `symbol_names` is the address -> name view of `symbols`: the first defined,
    non-debug, named symbol at an address, with one leading `_` stripped.

    Its fields do not change after parse, except `warnings`: `load_model`'s
    parsers and the pipeline's end-of-code scan append to it.  So share an
    image only between lifts that may see each other's warnings."""

    data: bytes
    segments: list[Segment] = field(default_factory=list)
    sections: dict[tuple[str, str], Section] = field(default_factory=dict)
    symbols: list[SymbolEntry] = field(default_factory=list)
    symbol_names: dict[int, str] = field(default_factory=dict)
    function_starts: list[int] = field(default_factory=list)
    entitlements: str | None = None
    image_base: int = 0
    indirect_symbols: list[int] = field(default_factory=list)
    bind_map: dict[int, str] = field(default_factory=dict)
    encryption_id: int = 0
    warnings: list[str] = field(default_factory=list)

    def section(self, segment_name: str, section_name: str) -> Section | None:
        return self.sections.get((segment_name, section_name))


def _need(data: bytes, offset: int, count: int, what: str) -> None:
    if offset < 0 or offset + count > len(data):
        raise TruncatedFile(f"{what} at {offset:#x} needs {count} bytes, have {len(data)}")


def parse_fat(data: bytes) -> list[tuple[str, range]]:
    """Enumerate slices of a fat container, or the whole file for a thin image.

    Returns (architecture tag, byte range) per slice.
    """
    if len(data) < 4:
        raise TruncatedFile("shorter than a magic")
    magic = struct.unpack_from(">I", data, 0)[0]
    if magic in (FAT_MAGIC, FAT_MAGIC_64):
        _need(data, 4, 4, "fat header")
        nfat = struct.unpack_from(">I", data, 4)[0]
        entries = []
        wide = magic == FAT_MAGIC_64
        rec_size = 32 if wide else 20
        for i in range(nfat):
            off = 8 + i * rec_size
            _need(data, off, rec_size, f"fat arch record {i}")
            if wide:
                cputype, _sub, sl_off, sl_size, _al, _res = struct.unpack_from(
                    ">iiQQII", data, off
                )
            else:
                cputype, _sub, sl_off, sl_size, _al = struct.unpack_from(
                    ">iiLLL", data, off
                )
            if sl_off + sl_size > len(data):
                raise TruncatedFile(
                    f"fat slice {i} ({cpu_tag(cputype)}) ends at {sl_off + sl_size:#x} "
                    f"past file end {len(data):#x}"
                )
            entries.append((cpu_tag(cputype & 0xFFFFFFFF), range(sl_off, sl_off + sl_size)))
        return entries

    le_magic = struct.unpack_from("<I", data, 0)[0]
    if le_magic in (MH_MAGIC_64, MH_MAGIC):
        cputype = struct.unpack_from("<i", data, 4)[0] if len(data) >= 8 else 0
        return [(cpu_tag(cputype & 0xFFFFFFFF), range(0, len(data)))]
    if le_magic in (MH_CIGAM_64, MH_CIGAM):
        # byte-swapped images exist in theory; enumerate but let parse_macho reject
        return [("swapped", range(0, len(data)))]
    raise BadMagic(f"unrecognized magic {magic:#010x}")


def parse_macho(data: bytes) -> MachoImage:
    """Parse a 64-bit Mach-O image: a thin file, one fat slice, or the
    arm64 slice of a fat file."""
    if len(data) >= 4 and struct.unpack_from(">I", data, 0)[0] in (FAT_MAGIC, FAT_MAGIC_64):
        arm64 = dict(parse_fat(data)).get("arm64")
        if arm64 is None:
            raise UnsupportedArch("fat file has no arm64 slice")
        data = data[arm64.start : arm64.stop]
    if len(data) < 4:
        raise TruncatedFile("shorter than a magic")
    magic = struct.unpack_from("<I", data, 0)[0]
    if magic in (MH_MAGIC, MH_CIGAM, MH_CIGAM_64):
        raise UnsupportedArch("only little-endian 64-bit Mach-O images are supported")
    if magic != MH_MAGIC_64:
        raise BadMagic(f"not a Mach-O 64 image (magic {magic:#010x})")
    _need(data, 0, 32, "mach_header_64")
    _magic, cputype, _cpusubtype, _filetype, ncmds, sizeofcmds, _flags, _res = (
        struct.unpack_from("<IiiIIIII", data, 0)
    )
    if (cputype & 0xFFFFFFFF) != CPU_TYPE_ARM64:
        raise UnsupportedArch(f"cputype {cpu_tag(cputype & 0xFFFFFFFF)} is not arm64")

    image = MachoImage(data=data)
    lc_region_end = 32 + sizeofcmds
    if lc_region_end > len(data):
        raise TruncatedFile("load-command region extends past end of file")

    symtab = None
    dysymtab = None
    function_starts_loc = None
    code_sig_loc = None
    dyld_info_loc = None

    offset = 32
    for i in range(ncmds):
        _need(data, offset, 8, f"load command {i}")
        cmd, cmdsize = struct.unpack_from("<II", data, offset)
        if cmdsize < 8 or offset + cmdsize > lc_region_end:
            raise MalformedLoadCommand(
                f"load command {i} (cmd {cmd:#x}) has cmdsize {cmdsize} at {offset:#x}"
            )
        body = data[offset : offset + cmdsize]

        if cmd == LC_SEGMENT_64:
            _parse_segment64(image, body, i)
        elif cmd == LC_SYMTAB and cmdsize >= 24:
            symtab = struct.unpack_from("<IIII", body, 8)
        elif cmd == LC_DYSYMTAB and cmdsize >= 80:
            dysymtab = struct.unpack_from("<18I", body, 8)
        elif cmd == LC_FUNCTION_STARTS and cmdsize >= 16:
            function_starts_loc = struct.unpack_from("<II", body, 8)
        elif cmd == LC_CODE_SIGNATURE and cmdsize >= 16:
            code_sig_loc = struct.unpack_from("<II", body, 8)
        elif cmd in (LC_DYLD_INFO, LC_DYLD_INFO_ONLY) and cmdsize >= 48:
            dyld_info_loc = struct.unpack_from("<10I", body, 8)
        elif cmd == LC_ENCRYPTION_INFO_64 and cmdsize >= 20:
            image.encryption_id = struct.unpack_from("<I", body, 16)[0]
        offset += cmdsize

    text = next((s for s in image.segments if s.name == "__TEXT"), None)
    if text is not None:
        image.image_base = text.vm_addr
    elif image.segments:
        image.image_base = min(
            (s.vm_addr for s in image.segments if s.file_size), default=0
        )

    if symtab is not None:
        _parse_symtab(image, *symtab)
    if dysymtab is not None:
        _parse_indirect_symbols(image, dysymtab[12], dysymtab[13])
    if function_starts_loc is not None:
        fs_off, fs_size = function_starts_loc
        if fs_off + fs_size > len(data):
            raise TruncatedFile("LC_FUNCTION_STARTS payload past end of file")
        image.function_starts = decode_function_starts(
            data[fs_off : fs_off + fs_size], image.image_base
        )
    if code_sig_loc is not None:
        image.entitlements = _parse_entitlements(image, *code_sig_loc)
    if dyld_info_loc is not None:
        image.bind_map = _parse_bind_stream(image, dyld_info_loc[2], dyld_info_loc[3])
    return image


def _parse_segment64(image: MachoImage, body: bytes, index: int) -> None:
    if len(body) < 72:
        raise MalformedLoadCommand(f"LC_SEGMENT_64 {index} shorter than its fixed header")
    segname = body[8:24].rstrip(b"\x00").decode("ascii", "replace")
    vmaddr, vmsize, fileoff, filesize = struct.unpack_from("<QQQQ", body, 24)
    nsects = struct.unpack_from("<I", body, 64)[0]
    if 72 + nsects * 80 > len(body):
        raise MalformedLoadCommand(f"LC_SEGMENT_64 {index} section headers overrun cmdsize")
    if filesize > 0 and fileoff >= len(image.data):
        # no byte of it is in the file: it keeps its slot, which bind
        # opcodes name by ordinal, and its vmaddr, with no file bytes and no
        # sections. One that starts inside the file and runs past the end
        # stays whole, so that a truncated file lifts what it holds
        image.warnings.append(
            f"segment {segname} file offset {fileoff:#x} lies past the end of the "
            f"file; its file data and its {nsects} sections dropped"
        )
        image.segments.append(Segment(segname, vmaddr, vmsize, fileoff, 0))
        return
    image.segments.append(Segment(segname, vmaddr, vmsize, fileoff, filesize))
    for s in range(nsects):
        off = 72 + s * 80
        sectname = body[off : off + 16].rstrip(b"\x00").decode("ascii", "replace")
        seg_of_sect = body[off + 16 : off + 32].rstrip(b"\x00").decode("ascii", "replace")
        addr, size = struct.unpack_from("<QQ", body, off + 32)
        offset32, _align, _reloff, _nreloc, flags, res1, res2 = struct.unpack_from(
            "<IIIIIII", body, off + 48
        )
        segment_end = vmaddr + vmsize
        if addr + size > segment_end:
            clamped = max(0, segment_end - addr)
            image.warnings.append(
                f"section ({seg_of_sect},{sectname}) size {size:#x} runs past the end "
                f"of segment {segname}; clamped to {clamped:#x}"
            )
            size = clamped
        key = (seg_of_sect, sectname)
        if key in image.sections:
            image.warnings.append(f"duplicate section ({seg_of_sect},{sectname}) skipped")
            continue
        image.sections[key] = Section(*key, addr, size, offset32, flags, res1, res2)


def _parse_symtab(image: MachoImage, symoff: int, nsyms: int, stroff: int, strsize: int) -> None:
    data = image.data
    if symoff + nsyms * 16 > len(data) or stroff + strsize > len(data):
        raise TruncatedFile("symbol or string table past end of file")
    strtab = data[stroff : stroff + strsize]
    for i in range(nsyms):
        n_strx, n_type, _n_sect, _n_desc, n_value = struct.unpack_from(
            "<IBBHQ", data, symoff + i * 16
        )
        end = strtab.find(b"\x00", n_strx)
        if n_strx >= len(strtab) or end < 0:
            name = ""
        else:
            name = strtab[n_strx:end].decode("utf-8", "replace")
        is_debug = bool(n_type & N_STAB)
        is_undef = (n_type & N_TYPE) == N_UNDF and not is_debug
        is_ext = bool(n_type & N_EXT)
        address = None if is_undef else n_value
        if address is not None and name and not is_debug:
            image.symbol_names.setdefault(address, c_name(name))
        image.symbols.append(
            SymbolEntry(
                name=name,
                address=address,
                is_external=is_undef and is_ext,
                is_exported=is_ext and not is_undef and not is_debug,
            )
        )


def _parse_indirect_symbols(image: MachoImage, indirectsymoff: int, nindirect: int) -> None:
    data = image.data
    if indirectsymoff + nindirect * 4 > len(data):
        raise TruncatedFile("indirect symbol table past end of file")
    image.indirect_symbols = list(
        struct.unpack_from(f"<{nindirect}I", data, indirectsymoff)
    )


def decode_uleb128(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one unsigned LEB128 value; returns (value, next offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise TruncatedFile(f"ULEB128 at {offset:#x} runs past end")
        byte = data[pos]
        pos += 1
        if pos - offset > 10:
            raise OverlongUleb(f"ULEB128 at {offset:#x} exceeds 10 bytes")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_uleb128(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_function_starts(payload: bytes, image_base: int) -> list[int]:
    """Expand the delta-encoded LC_FUNCTION_STARTS payload into absolute addresses.

    The first value is an offset from the text segment base, each further
    value a delta from the previous address; a zero delta terminates.
    """
    addrs: list[int] = []
    current = image_base
    offset = 0
    while offset < len(payload):
        value, offset = decode_uleb128(payload, offset)
        if value == 0:
            break
        current += value
        addrs.append(current)
    return addrs


def section_bytes(image: MachoImage, segment_name: str, section_name: str) -> bytes | None:
    """File bytes of a named section, or None if absent or purely zero-fill."""
    sect = image.section(segment_name, section_name)
    if sect is None or sect.is_zerofill:
        return None
    if sect.file_offset + sect.size > len(image.data):
        return None
    return image.data[sect.file_offset : sect.file_offset + sect.size]


def va_to_offset(image: MachoImage, va: int) -> int | None:
    """Translate a virtual address to a file offset; None for unmapped or zero-fill."""
    for seg in image.segments:
        if seg.contains_va(va):
            delta = va - seg.vm_addr
            if delta >= seg.file_size:
                return None
            return seg.file_offset + delta
    return None


def read_cstring(image: MachoImage, va: int) -> str | None:
    off = va_to_offset(image, va)
    if off is None:
        return None
    end = image.data.find(b"\x00", off, off + _CSTRING_LIMIT)
    if end < 0:
        return None
    return image.data[off:end].decode("utf-8", "replace")


def read_struct(image: MachoImage, fmt: str, offset: int) -> tuple:
    """`struct.unpack_from(fmt)` at a file offset; a record that does not lie
    wholly inside the file raises DanglingReference."""
    size = struct.calcsize(fmt)
    if offset < 0 or offset + size > len(image.data):
        raise DanglingReference(f"{size} bytes at {offset:#x} lie past the end of the file")
    return struct.unpack_from(fmt, image.data, offset)


def read_u64(image: MachoImage, va: int) -> int | None:
    off = va_to_offset(image, va)
    if off is None or off + 8 > len(image.data):
        return None
    return struct.unpack_from("<Q", image.data, off)[0]


def _parse_entitlements(image: MachoImage, dataoff: int, datasize: int) -> str | None:
    data = image.data
    if dataoff + datasize > len(data) or datasize < 12:
        image.warnings.append("code signature blob out of bounds")
        return None
    blob = data[dataoff : dataoff + datasize]
    magic, total, count = struct.unpack_from(">III", blob, 0)
    if magic != CSMAGIC_EMBEDDED_SIGNATURE:
        return None
    if total > len(blob) or 12 + count * 8 > len(blob):
        image.warnings.append("signature superblob lengths inconsistent")
        return None
    for i in range(count):
        slot_type, slot_off = struct.unpack_from(">II", blob, 12 + i * 8)
        if slot_type != CSSLOT_ENTITLEMENTS:
            continue
        if slot_off + 8 > len(blob):
            image.warnings.append("entitlements slot offset past superblob end")
            return None
        sub_magic, sub_len = struct.unpack_from(">II", blob, slot_off)
        if sub_magic != CSMAGIC_EMBEDDED_ENTITLEMENTS:
            continue
        if sub_len < 8 or slot_off + sub_len > len(blob):
            image.warnings.append("entitlements blob length past superblob end")
            return None
        return blob[slot_off + 8 : slot_off + sub_len].decode("utf-8", "replace")
    return None


# LC_DYLD_INFO bind opcodes (the subset real linkers emit for non-lazy binds)
BIND_OPCODE_MASK = 0xF0
BIND_IMMEDIATE_MASK = 0x0F
BIND_OPCODE_DONE = 0x00
BIND_OPCODE_SET_DYLIB_ORDINAL_IMM = 0x10
BIND_OPCODE_SET_DYLIB_ORDINAL_ULEB = 0x20
BIND_OPCODE_SET_DYLIB_SPECIAL_IMM = 0x30
BIND_OPCODE_SET_SYMBOL_TRAILING_FLAGS_IMM = 0x40
BIND_OPCODE_SET_TYPE_IMM = 0x50
BIND_OPCODE_SET_ADDEND_SLEB = 0x60
BIND_OPCODE_SET_SEGMENT_AND_OFFSET_ULEB = 0x70
BIND_OPCODE_ADD_ADDR_ULEB = 0x80
BIND_OPCODE_DO_BIND = 0x90
BIND_OPCODE_DO_BIND_ADD_ADDR_ULEB = 0xA0
BIND_OPCODE_DO_BIND_ADD_ADDR_IMM_SCALED = 0xB0
BIND_OPCODE_DO_BIND_ULEB_TIMES_SKIPPING_ULEB = 0xC0


def _parse_bind_stream(image: MachoImage, bind_off: int, bind_size: int) -> dict[int, str]:
    """Interpret the bind opcode stream into {bound address: symbol name}."""
    data = image.data
    if bind_size == 0:
        return {}
    if bind_off + bind_size > len(data):
        image.warnings.append("bind info past end of file")
        return {}
    stream = data[bind_off : bind_off + bind_size]
    result: dict[int, str] = {}
    symbol = ""
    segment: Segment | None = None
    address = 0
    pos = 0
    try:
        while pos < len(stream):
            byte = stream[pos]
            pos += 1
            opcode = byte & BIND_OPCODE_MASK
            imm = byte & BIND_IMMEDIATE_MASK
            if opcode == BIND_OPCODE_DONE:
                break
            elif opcode in (
                BIND_OPCODE_SET_DYLIB_ORDINAL_IMM,
                BIND_OPCODE_SET_DYLIB_SPECIAL_IMM,
                BIND_OPCODE_SET_TYPE_IMM,
            ):
                pass
            elif opcode == BIND_OPCODE_SET_DYLIB_ORDINAL_ULEB:
                _, pos = decode_uleb128(stream, pos)
            elif opcode == BIND_OPCODE_SET_SYMBOL_TRAILING_FLAGS_IMM:
                end = stream.find(b"\x00", pos)
                if end < 0:
                    raise TruncatedFile("unterminated bind symbol name")
                symbol = stream[pos:end].decode("utf-8", "replace")
                pos = end + 1
            elif opcode == BIND_OPCODE_SET_ADDEND_SLEB:
                # sleb, same continuation scheme; value unused here
                while pos < len(stream) and stream[pos] & 0x80:
                    pos += 1
                pos += 1
            elif opcode == BIND_OPCODE_SET_SEGMENT_AND_OFFSET_ULEB:
                off, pos = decode_uleb128(stream, pos)
                if imm >= len(image.segments):
                    image.warnings.append(f"bind references segment {imm} out of range")
                    return result
                segment = image.segments[imm]
                address = segment.vm_addr + off
            elif opcode == BIND_OPCODE_ADD_ADDR_ULEB:
                delta, pos = decode_uleb128(stream, pos)
                address += delta
            elif opcode == BIND_OPCODE_DO_BIND:
                result[address] = symbol
                address += 8
            elif opcode == BIND_OPCODE_DO_BIND_ADD_ADDR_ULEB:
                result[address] = symbol
                delta, pos = decode_uleb128(stream, pos)
                address += 8 + delta
            elif opcode == BIND_OPCODE_DO_BIND_ADD_ADDR_IMM_SCALED:
                result[address] = symbol
                address += 8 + imm * 8
            elif opcode == BIND_OPCODE_DO_BIND_ULEB_TIMES_SKIPPING_ULEB:
                count, pos = decode_uleb128(stream, pos)
                skip, pos = decode_uleb128(stream, pos)
                # dyld binds only inside the segment the stream chose, so a
                # count that steps past its end is refused before the loop
                end = address + count * (8 + skip) - skip
                if segment is None or end > segment.vm_addr + segment.vm_size:
                    image.warnings.append(
                        f"bind stream malformed: {count} binds from {address:#x}"
                        " step past the end of their segment"
                    )
                    return result
                for _ in range(count):
                    result[address] = symbol
                    address += 8 + skip
            else:
                image.warnings.append(f"unknown bind opcode {byte:#x}")
                return result
    except (TruncatedFile, OverlongUleb) as exc:
        image.warnings.append(f"bind stream malformed: {exc}")
    return result

