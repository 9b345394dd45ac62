"""Plist robustness: damaged input raises `MalformedPlist` and nothing else.

Named cases pin crash classes a differential fuzz found; a seeded fuzz of
an XML and a binary plist checks the rest. The seeds are fixed, so every
run reads the same mutants.
"""

import json
import plistlib
import random
import re
import struct
import time

import pytest

import lios.plist
from lios.cli import main
from lios.errors import MalformedPlist
from lios.fixtures import corpus
from lios.plist import MAX_DEPTH, canonical_json, parse_plist
from oracles import bplist_oracle

MUTANTS = 300


def xml_arrays(depth: int) -> bytes:
    return b"<plist>" + b"<array>" * depth + b"</array>" * depth + b"</plist>"


def binary_arrays(depth: int) -> bytes:
    """`depth` arrays, each holding the next; the last is empty."""
    objects = [b"\xa1" + (i + 1).to_bytes(2, "big") for i in range(depth - 1)]
    return bplist_oracle(objects + [b"\xa0"])


def shared_chain(depth: int) -> bytes:
    """`depth` arrays, each holding the next one twice; the last is empty."""
    objects = [b"\xa2" + (i + 1).to_bytes(2, "big") * 2 for i in range(depth - 1)]
    return bplist_oracle(objects + [b"\xa0"])


def test_unknown_xml_encoding():
    raw = b'<?xml version="1.0" encoding="UJF-8"?><plist><dict/></plist>'
    with pytest.raises(MalformedPlist):
        parse_plist(raw)


def test_binary_date_out_of_range():
    with pytest.raises(MalformedPlist):
        parse_plist(bplist_oracle([b"\x33" + struct.pack(">d", 1e300)]))


@pytest.mark.parametrize("nest", [xml_arrays, binary_arrays], ids=["xml", "binary"])
def test_deep_nesting(nest):
    with pytest.raises(MalformedPlist):
        parse_plist(nest(5000))
    with pytest.raises(MalformedPlist, match="deeper"):
        parse_plist(nest(MAX_DEPTH + 1))
    tree = parse_plist(nest(MAX_DEPTH))
    assert canonical_json(tree) == "[" * MAX_DEPTH + "]" * MAX_DEPTH


def test_shared_container_is_not_a_cycle():
    # array [a, a] where a is one empty array object, referenced twice
    raw = bplist_oracle([b"\xa2\x00\x01\x00\x01", b"\xa0"])
    assert parse_plist(raw) == [[], []]


def test_shared_chain_expansion_is_bounded():
    # 2**depth - 1 values once every shared array is copied: 65,535 parse
    assert len(canonical_json(parse_plist(shared_chain(16)))) == 5 * 2**15 - 3
    with pytest.raises(MalformedPlist, match="more than"):
        parse_plist(shared_chain(17))
    start = time.perf_counter()
    with pytest.raises(MalformedPlist, match="more than"):
        parse_plist(shared_chain(40))
    assert time.perf_counter() - start < 1.0


def test_binary_dict_key_must_be_a_string():
    raw = bplist_oracle([b"\xd1\x00\x01\x00\x01", b"\x10\x07"])
    with pytest.raises(MalformedPlist, match="not a string"):
        parse_plist(raw)


def _mutants(blob: bytes, seed: int):
    rng = random.Random(seed)
    for _ in range(MUTANTS):
        data = bytearray(blob)
        for _ in range(rng.randint(1, 6)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        if rng.random() < 0.1:
            del data[rng.randrange(len(data)):]
        yield bytes(data)


_XML = corpus.info_plist(executable="Fuzz", ats=corpus.ATS_DOMAINS)
_BINARY = plistlib.dumps(
    {"CFBundleExecutable": "Fuzz", "NSAppTransportSecurity": corpus.ATS_ARBITRARY,
     "n": -3, "r": 0.25, "blob": b"\x00\xff", "name": "caf\xe9", "u": plistlib.UID(9)},
    fmt=plistlib.FMT_BINARY,
)


@pytest.mark.parametrize("blob, seed", [(_XML, 11), (_BINARY, 12)], ids=["xml", "binary"])
def test_mutants_raise_only_malformed_plist(blob, seed):
    for data in _mutants(blob, seed):
        try:
            canonical_json(parse_plist(data))
        except MalformedPlist:
            pass


def test_strict_xml_only_rejects_more(monkeypatch):
    # the DTD pass may reject a mutant that plistlib reads, but a mutant it
    # admits reads as plistlib alone reads it
    rng = random.Random(13)
    admitted = 0
    for _ in range(MUTANTS):
        tags = re.split(rb"(<[^>]*>)", _XML)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(len(tags)), rng.randrange(len(tags))
            tags[i : i + 1] = [[], [tags[i], tags[j]], [tags[j]]][rng.randrange(3)]
        data = b"".join(tags)
        try:
            value = parse_plist(data)
        except MalformedPlist:
            continue
        admitted += 1
        with monkeypatch.context() as patch:
            patch.setattr(lios.plist, "_check_xml", lambda data: None)
            assert parse_plist(data) == value
    assert admitted


def _lift_findings(tmp_path, plist: bytes) -> str:
    binary, _ = corpus.listing_one_app(sanitized=True)
    path = tmp_path / "deep.ipa"
    path.write_bytes(corpus.build_ipa(binary, plist, app_name="App"))
    assert main(["lift", str(path), "--out", str(tmp_path / "out")]) == 0
    return (tmp_path / "out" / "findings.json").read_text()


def test_ipa_with_deep_plist_lifts(tmp_path, capsys):
    assert "info-plist-malformed" in _lift_findings(tmp_path, xml_arrays(5000))


def test_ipa_with_two_plist_values_is_malformed(tmp_path, capsys):
    # plistlib alone keeps the last value, {}, and the ATS setting is lost
    plist = corpus.info_plist(executable="App", ats=corpus.ATS_ARBITRARY)
    plist = plist.replace(b"</plist>", b"<dict/></plist>")
    findings = json.loads(_lift_findings(tmp_path, plist))
    assert [f["rule"] for f in findings] == ["info-plist-malformed"]


def test_ipa_with_shared_plist_lifts(tmp_path, capsys):
    assert "info-plist-malformed" in _lift_findings(tmp_path, shared_chain(40))
