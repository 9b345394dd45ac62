"""Property-list parsing: XML plists and binary bplist00, plus canonical JSON.

The stdlib `plistlib` reads both formats. This module sniffs the format,
turns every failure of the reader into a `MalformedPlist`, and walks the
result once to plain Python types: dict, list, str, int, float, bool, None,
naive-UTC datetime, bytes. A keyed-archiver UID reads as its int.

An XML plist first goes through one `expat` pass that admits only what
PropertyList-1.0.dtd admits: its elements, under one `<plist>` that holds
exactly one value, text only inside scalar elements, and keys and values
that alternate in each `<dict>`. `plistlib` alone skips unknown elements and
keeps the last of several values, so damage would read as another value.

Dictionary keys must be unique strings; a duplicate is a parse error rather
than a silent last-wins. A container found inside itself, nesting deeper
than `MAX_DEPTH`, more than `MAX_VALUES` values once shared containers are
copied, and a `<plist>` that holds no value are parse errors too.
"""

from __future__ import annotations

import base64
import datetime
import itertools
import json
import plistlib
from xml.parsers.expat import ExpatError, ParserCreate

from .errors import MalformedPlist

# Deeper than any real Info.plist, and shallow enough that `_plain` and
# `canonical_json` stay inside Python's recursion limit.
MAX_DEPTH = 256

# Far more values than any real Info.plist holds. A binary plist may share one
# container between several parents, and the walk copies it once per parent,
# so a few hundred bytes could otherwise expand to millions of values.
MAX_VALUES = 1 << 16

_SCALARS = (str, bool, int, float, bytes, datetime.datetime, type(None))

# the elements of PropertyList-1.0.dtd that hold text; `true` and `false`
# are empty, and `plist`, `array` and `dict` hold elements
_TEXT_ELEMENTS = frozenset({"key", "string", "data", "date", "integer", "real"})
_ELEMENTS = _TEXT_ELEMENTS | {"true", "false", "plist", "array", "dict"}


class _UniqueKeyDict(dict):
    """The dict type plistlib builds every XML and binary dictionary with."""

    def __setitem__(self, key, value):
        if not isinstance(key, str):
            raise MalformedPlist("dictionary key is not a string")
        if key in self:
            raise MalformedPlist(f"duplicate dictionary key {key!r}")
        super().__setitem__(key, value)


def parse_plist(data: bytes):
    """Parse XML (`<?xml` or `<plist` prefix) or binary (`bplist00` magic) plist bytes."""
    head = data.lstrip(b"\xef\xbb\xbf \t\r\n")
    if head.startswith(b"<?xml") or head.startswith(b"<plist"):
        data, fmt = head, plistlib.FMT_XML
    elif data.startswith(b"bplist00"):
        fmt = plistlib.FMT_BINARY
    else:
        raise MalformedPlist("neither an XML plist nor bplist00")
    try:
        if fmt is plistlib.FMT_XML:
            _check_xml(data)
        value = plistlib.loads(data, fmt=fmt, dict_type=_UniqueKeyDict)
    except MalformedPlist:
        raise
    except ExpatError as exc:
        raise MalformedPlist(f"XML parse error: {exc}") from exc
    except Exception as exc:
        # damaged input makes plistlib raise many kinds: ValueError,
        # LookupError, OverflowError, RecursionError, AttributeError, ...
        raise MalformedPlist(f"{type(exc).__name__}: {exc}") from exc
    if value is None:
        raise MalformedPlist("plist holds no value")
    return _plain(value, 0, set(), itertools.count(1))


def _check_xml(data: bytes) -> None:
    """Raise `MalformedPlist` unless `data` has the shape the DTD admits."""
    open_elements: list[list] = []  # [name, children so far], outermost first

    def start(name, _attributes):
        if name not in _ELEMENTS:
            raise MalformedPlist(f"unknown element <{name}>")
        if not open_elements:
            if name != "plist":
                raise MalformedPlist(f"root element is <{name}>, not <plist>")
        else:
            parent = open_elements[-1]
            holder, count = parent
            if holder not in ("plist", "array", "dict") or name == "plist":
                raise MalformedPlist(f"<{name}> inside <{holder}>")
            if holder == "plist" and count:
                raise MalformedPlist("<plist> holds more than one value")
            if (name == "key") != (holder == "dict" and count % 2 == 0):
                raise MalformedPlist(f"<{name}> out of place in <{holder}>")
            parent[1] += 1
        open_elements.append([name, 0])

    def end(_name):
        name, children = open_elements.pop()
        if name == "dict" and children % 2:
            raise MalformedPlist("<dict> ends after a key")
        if name == "plist" and not children:
            raise MalformedPlist("plist holds no value")

    def text(chars):
        if open_elements and open_elements[-1][0] in _TEXT_ELEMENTS:
            return
        if chars.strip(" \t\r\n"):
            raise MalformedPlist(f"text {chars[:20]!r} outside a scalar element")

    def entity(*_args):
        raise MalformedPlist("XML entity declarations are not supported")

    parser = ParserCreate()
    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.CharacterDataHandler, parser.EntityDeclHandler = text, entity
    parser.Parse(data, True)


def _plain(value, depth: int, open_ids: set[int], produced):
    """`value` with UIDs as ints and dicts as plain dicts; `open_ids` holds
    the ids of the containers that enclose it, and `produced` counts the
    values made so far."""
    if next(produced) > MAX_VALUES:
        raise MalformedPlist(f"plist expands to more than {MAX_VALUES} values")
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, plistlib.UID):
        return value.data
    if not isinstance(value, (dict, list)):
        raise MalformedPlist(f"value of type {type(value).__name__} is not a plist value")
    if depth >= MAX_DEPTH:
        raise MalformedPlist(f"plist nests deeper than {MAX_DEPTH} levels")
    if id(value) in open_ids:
        raise MalformedPlist("plist container holds itself")
    open_ids.add(id(value))
    if isinstance(value, dict):
        out = {k: _plain(v, depth + 1, open_ids, produced) for k, v in value.items()}
    else:
        out = [_plain(v, depth + 1, open_ids, produced) for v in value]
    open_ids.remove(id(value))
    return out


def canonical_json(value) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace, tagged
    wrappers for the two types JSON lacks (bytes and dates)."""
    return json.dumps(
        _jsonable(value), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, bytes):
        return {"$data": base64.b64encode(value).decode("ascii")}
    if isinstance(value, datetime.datetime):
        return {"$date": value.strftime("%Y-%m-%dT%H:%M:%SZ")}
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    raise MalformedPlist(f"value of type {type(value).__name__} has no JSON form")
