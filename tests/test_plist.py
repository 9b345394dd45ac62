"""Plist parser tests; stdlib plistlib acts as the encoder, and a
hand-written XML text and a hand-assembled bplist00 are the oracles
independent of it."""

import datetime
import json
import plistlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lios.errors import MalformedPlist
from lios.plist import canonical_json, parse_plist
from oracles import bplist_oracle


def test_xml_bundle_executable():
    raw = plistlib.dumps({"CFBundleExecutable": "demo"}, fmt=plistlib.FMT_XML)
    assert raw.startswith(b"<?xml")
    assert parse_plist(raw) == {"CFBundleExecutable": "demo"}


def test_binary_same_tree():
    tree = {"CFBundleExecutable": "demo", "n": 3, "ok": True}
    xml = plistlib.dumps(tree, fmt=plistlib.FMT_XML)
    binary = plistlib.dumps(tree, fmt=plistlib.FMT_BINARY)
    assert binary.startswith(b"bplist00")
    assert parse_plist(xml) == parse_plist(binary) == tree


def test_truncated_binary_trailer():
    binary = plistlib.dumps({"a": 1}, fmt=plistlib.FMT_BINARY)
    with pytest.raises(MalformedPlist):
        parse_plist(binary[:-8])
    with pytest.raises(MalformedPlist):
        parse_plist(b"bplist00")


def test_neither_format():
    with pytest.raises(MalformedPlist):
        parse_plist(b"{json: true}")


def test_all_scalar_kinds():
    tree = {
        "text": "café",
        "int": -12,
        "big": 2**40,
        "real": 2.5,
        "yes": True,
        "no": False,
        "blob": b"\x00\x01\xff",
        "when": datetime.datetime(2024, 6, 1, 12, 30, 0),
        "list": [1, "two", [3]],
        "empty": {},
    }
    for fmt in (plistlib.FMT_XML, plistlib.FMT_BINARY):
        assert parse_plist(plistlib.dumps(tree, fmt=fmt)) == tree


def test_duplicate_keys_rejected():
    raw = (
        b'<?xml version="1.0"?><plist version="1.0"><dict>'
        b"<key>a</key><integer>1</integer>"
        b"<key>a</key><integer>2</integer>"
        b"</dict></plist>"
    )
    with pytest.raises(MalformedPlist):
        parse_plist(raw)


def test_dict_key_without_value():
    raw = (
        b'<?xml version="1.0"?><plist version="1.0"><dict>'
        b"<key>a</key></dict></plist>"
    )
    with pytest.raises(MalformedPlist):
        parse_plist(raw)


def test_unknown_element():
    raw = b'<?xml version="1.0"?><plist version="1.0"><widget/></plist>'
    with pytest.raises(MalformedPlist):
        parse_plist(raw)


@pytest.mark.parametrize(
    "raw",
    [
        # plistlib alone reads these as {}, "c" and [1, True]
        b"<plist><dict><key>NSAllowsArbitraryLoads</key><true/></dict><dict/></plist>",
        b"<plist><string>a<b/>c</string></plist>",
        b"<plist><array><integer>1</integer><foo/><true/></array></plist>",
        b"<plist><array><string>a</string>b</array></plist>",
        b"<plist><true>yes</true></plist>",
        b"<plist><dict><string>a</string><key>k</key></dict></plist>",
        b"<plist><key>k</key></plist>",
        b"<plist><array><plist><true/></plist></array></plist>",
        b'<?xml version="1.0"?><dict/>',
        b"<plist/>",
    ],
    ids=[
        "two-values", "element-in-string", "unknown-in-array", "text-in-array",
        "text-in-true", "value-before-key", "key-outside-dict", "nested-plist",
        "root-not-plist", "no-value",
    ],
)
def test_xml_outside_the_dtd_rejected(raw):
    with pytest.raises(MalformedPlist):
        parse_plist(raw)


def test_cyclic_binary_rejected():
    # hand-built bplist where the array's single element is the array itself
    objects = bytes([0xA1, 0x00])  # array of 1 ref -> object 0
    table = bytes([8])  # object 0 at offset 8
    trailer = struct.pack(">6xBBQQQ", 1, 1, 1, 0, 8 + len(objects))
    with pytest.raises(MalformedPlist):
        parse_plist(b"bplist00" + objects + table + trailer)


def test_canonical_json_sorted_and_tagged():
    tree = {
        "b": 1,
        "a": [True, "x"],
        "d": b"hi",
        "t": datetime.datetime(2024, 1, 2, 3, 4, 5),
    }
    text = canonical_json(tree)
    assert text == canonical_json(dict(reversed(list(tree.items()))))
    decoded = json.loads(text)
    assert list(decoded.keys()) == sorted(decoded.keys())
    assert decoded["d"] == {"$data": "aGk="}
    assert decoded["t"] == {"$date": "2024-01-02T03:04:05Z"}


_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=12
    ),
    st.binary(max_size=12),
    st.datetimes(
        min_value=datetime.datetime(1970, 1, 1),
        max_value=datetime.datetime(2100, 1, 1),
    ).map(lambda d: d.replace(microsecond=0)),
)

_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=8
            ),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_xml_binary_parity(tree):
    via_xml = parse_plist(plistlib.dumps(tree, fmt=plistlib.FMT_XML))
    via_bin = parse_plist(plistlib.dumps(tree, fmt=plistlib.FMT_BINARY))
    assert via_xml == via_bin == tree


# Oracles written without plistlib, which lios now reads with.

_XML_ORACLE = """<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE plist PUBLIC "-//Apple//DTD PLIST 1.0//EN" "http://www.apple.com/DTDs/PropertyList-1.0.dtd">
<plist version="1.0">
<dict>
\t<key>array</key>
\t<array>
\t\t<integer>1</integer>
\t\t<string>two</string>
\t\t<array/>
\t</array>
\t<key>big</key>
\t<integer>1099511627776</integer>
\t<key>data</key>
\t<data>
\tAAH/
\t</data>
\t<key>date</key>
\t<date>2024-06-01T12:30:00Z</date>
\t<key>dict</key>
\t<dict>
\t\t<key>inner</key>
\t\t<string></string>
\t</dict>
\t<key>false</key>
\t<false/>
\t<key>integer</key>
\t<integer>-12</integer>
\t<key>real</key>
\t<real>2.5</real>
\t<key>string</key>
\t<string>café &amp; &lt;b&gt; &#x2603;</string>
\t<key>true</key>
\t<true/>
</dict>
</plist>
""".encode("utf-8")


def test_hand_written_xml():
    assert parse_plist(_XML_ORACLE) == {
        "array": [1, "two", []],
        "big": 2**40,
        "data": b"\x00\x01\xff",
        "date": datetime.datetime(2024, 6, 1, 12, 30, 0),
        "dict": {"inner": ""},
        "false": False,
        "integer": -12,
        "real": 2.5,
        "string": "café & <b> ☃",
        "true": True,
    }
    assert canonical_json(parse_plist(_XML_ORACLE)) == (
        '{"array":[1,"two",[]],"big":1099511627776,"data":{"$data":"AAH/"},'
        '"date":{"$date":"2024-06-01T12:30:00Z"},"dict":{"inner":""},'
        '"false":false,"integer":-12,"real":2.5,"string":"café & <b> ☃","true":true}'
    )


def _ref(index: int) -> bytes:
    return index.to_bytes(2, "big")


def test_hand_assembled_binary():
    keys = [b"\x51" + bytes([c]) for c in b"abcdefghijkl"]
    values = [
        b"\x10\x07",  # int, 1 byte
        b"\x13" + (-2).to_bytes(8, "big", signed=True),  # int, 8 bytes, signed
        b"\x23" + struct.pack(">d", 0.5),  # real, 8 bytes
        b"\x22" + struct.pack(">f", 1.5),  # real, 4 bytes
        b"\x09",  # true
        b"\x08",  # false
        b"\x33" + struct.pack(">d", 86400.0),  # date: one day after 2001-01-01
        b"\x42\x00\xff",  # data
        b"\x52hi",  # ASCII string
        b"\x62\x00\xe9\x26\x03",  # UTF-16BE string of 2 units
        b"\x81\x01\x2c",  # keyed-archiver UID 300
    ]
    n = len(keys)
    values.append(b"\xa2" + _ref(1) + _ref(1 + n))  # array: key "a", value 7
    top = bytes([0xDF, 0x10, n])  # dict; its count follows as a 1-byte int
    top += b"".join(_ref(1 + i) for i in range(n))
    top += b"".join(_ref(1 + n + i) for i in range(n))
    tree = parse_plist(bplist_oracle([top] + keys + values))
    assert tree == {
        "a": 7,
        "b": -2,
        "c": 0.5,
        "d": 1.5,
        "e": True,
        "f": False,
        "g": datetime.datetime(2001, 1, 2),
        "h": b"\x00\xff",
        "i": "hi",
        "j": "\xe9☃",
        "k": 300,
        "l": ["a", 7],
    }
    assert type(tree["k"]) is int
