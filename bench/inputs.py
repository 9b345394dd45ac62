"""Seeded inputs for the three benchmark workloads.

Every input comes from the fixture generators in `lios.fixtures.corpus`, so
each one carries the ground truth it was built with. The same seed always
writes the same files. Only the files written here reach the process that
runs the workload.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

from lios.fixtures import corpus
from lios.fixtures.scaffold import Scaffold

# lift-large: the largest perf_app size of the ROADMAP baseline (~830 KB)
LARGE_FUNCTIONS = 400
SMOKE_FUNCTIONS = 12

# reload-query: a rule with no selector filter, so `run_rules` runs the
# taint engine over every in-image function of the graph
RULES = {
    "rules": [
        {
            "id": "perf-return-flow",
            "sources": [{"kind": "return", "callee": "perf_fn_0"}],
            "sinks": [
                {"callee": "perf_fn_9", "arg": 0},
                {"callee": "NSLog", "arg": 0},
            ],
            "severity": "info",
        }
    ]
}

# reload-query: the fixed query set; `tainted` is the taint engine's verb
QUERIES = (
    'functions().calling("NSLog")',
    'functions().implementing("perform3")',
    'entrypoints().out("calls").dedup()',
    'classes().out("has_meth")',
    "functions().has(is_ext, true)",
    'functions().named("main").out("calls").out("calls").dedup()',
    'functions().tainted("perf_fn_0", "perf_fn_9")',
    'functions().tainted("perf_fn_2", "NSLog")',
    'functions().tainted("perf_fn_1", "-[Perf2 perform2]")',
)

ATS_CHOICES = ("arbitrary", "domains", "absent")

# Mutants that crash the lift today with an exception that is not a
# LiosError (ROADMAP item 4). Each entry is (base fixture, scheme, mutation
# seed); the seeds came from a scan of mutation seeds 0..2999. They are
# fixed, not drawn from --seed, so every run fails the same operations.
KNOWN_FAULT_MUTANTS = (
    ("benign", "anywhere", 189),  # struct.error in disasm.decode
    ("benign", "anywhere", 627),  # struct.error in disasm.decode
    ("suite", "anywhere", 293),  # struct.error in objc._read_method_list
    ("listing", "anywhere", 757),  # struct.error in objc._read_method_list
    ("listing", "anywhere", 571),  # struct.error in objc._parse_class_t
    ("suite", "starts", 10),  # IndexError in disasm._shape_blocks
    ("suite", "starts", 14),  # IndexError in disasm._shape_blocks
)

# the exception sites those mutants reach: (exception type, function)
KNOWN_FAULTS = frozenset(
    {
        ("error", "decode"),
        ("error", "_read_method_list"),
        ("error", "_parse_class_t"),
        ("IndexError", "_shape_blocks"),
    }
)


def write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# lift-large and reload-query


def write_perf_app(dest: Path, seed: int, functions: int) -> None:
    """app.bin (a bare Mach-O) plus its generator manifest."""
    dest.mkdir(parents=True, exist_ok=True)
    blob, manifest = corpus.perf_app(seed=seed, functions=functions)
    (dest / "app.bin").write_bytes(blob)
    write_json(dest / "manifest.json", {"seed": seed, **manifest})


def write_reload_inputs(dest: Path, seed: int, functions: int) -> None:
    write_perf_app(dest, seed, functions)
    write_json(dest / "rules.json", RULES)
    write_json(dest / "queries.json", list(QUERIES))


# ---------------------------------------------------------------------------
# scan-batch


def _ats_dict(choice: str, rng: random.Random) -> tuple[dict | None, list]:
    """(NSAppTransportSecurity value, findings the ATS check must report)."""
    if choice == "arbitrary":
        return {"NSAllowsArbitraryLoads": True}, [["ats-disabled", "warning"]]
    if choice == "domains":
        names = sorted({f"h{rng.randrange(10**6)}.example.com" for _ in range(2)})
        domains = {n: {"NSExceptionAllowsInsecureHTTPLoads": True} for n in names}
        return {"NSExceptionDomains": domains}, [["ats-exception", "info"]] * len(names)
    return None, []


def encrypted_app() -> bytes:
    """A minimal image whose LC_ENCRYPTION_INFO_64 marks it FairPlay-encrypted."""
    s = Scaffold()
    s.stub("NSLog")
    s.func("main", "bl stub_NSLog\nmov x0, #0\nret", exported=True)
    s.b.set_encryption(1)
    blob, _manifest = s.build()
    return blob


def _function_starts_payload(blob: bytes) -> tuple[int, int]:
    """(file offset, size) of the LC_FUNCTION_STARTS data."""
    ncmds = struct.unpack_from("<I", blob, 16)[0]
    off = 32
    for _ in range(ncmds):
        cmd, size = struct.unpack_from("<II", blob, off)
        if cmd == 0x26:
            return struct.unpack_from("<II", blob, off + 8)
        off += size
    raise ValueError("fixture has no LC_FUNCTION_STARTS")


def mutate(blob: bytes, scheme: str, seed: int) -> bytes:
    """A byte-mutated copy: `anywhere` overwrites 1-8 bytes and sometimes
    truncates; `starts` overwrites 1-3 bytes of the function-starts data."""
    rng = random.Random(seed)
    data = bytearray(blob)
    if scheme == "anywhere":
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        if rng.random() < 0.2:
            del data[rng.randrange(len(data) // 2, len(data)):]
    else:
        offset, size = _function_starts_payload(blob)
        for _ in range(rng.randint(1, 3)):
            data[offset + rng.randrange(size)] = rng.randrange(256)
    return bytes(data)


def _batch_plan(smoke: bool) -> dict:
    """How many apps of each kind one round lifts."""
    if smoke:
        return {"listing_ipa": 1, "listing_bare": 1, "malformed": 1,
                "benign": 1, "suite": 1, "perf_sizes": (1, 2), "perf_each": 1,
                "encrypted": 1, "mutants_anywhere": 4, "mutants_starts": 2}
    return {"listing_ipa": 10, "listing_bare": 8, "malformed": 2,
            "benign": 10, "suite": 10, "perf_sizes": (1, 2, 3, 4), "perf_each": 4,
            "encrypted": 2, "mutants_anywhere": 48, "mutants_starts": 8}


def write_scan_batch(dest: Path, seed: int, smoke: bool) -> None:
    """apps/*.ipa|*.bin plus batch.json: one entry per app, in lift order,
    with the outcome its generator encoded."""
    rng = random.Random(seed)
    plan = _batch_plan(smoke)
    apps_dir = dest / "apps"
    apps_dir.mkdir(parents=True, exist_ok=True)
    vulnerable, vuln_manifest = corpus.listing_one_app(sanitized=False)
    sanitized, _ = corpus.listing_one_app(sanitized=True)
    listing = {False: vulnerable, True: sanitized}
    chain = vuln_manifest["taint_chain_names"]
    benign, _ = corpus.benign_app()
    suite, _ = corpus.msgsend_suite()
    bases = {"benign": benign, "suite": suite, "listing": vulnerable}
    entries: list[tuple[dict, bytes]] = []

    def bridge(is_sanitized: bool, arbitrary: bool) -> list:
        if is_sanitized:
            return []
        return [["webview-bridge", "critical" if arbitrary else "warning"]]

    def ipa(binary: bytes, ats: dict | None = None, plist: bytes | None = None) -> bytes:
        name = f"App{rng.randrange(10**6):06d}"
        if plist is None:
            plist = corpus.info_plist(executable=name, ats=ats)
        return corpus.build_ipa(binary, plist, app_name=name)

    for is_sanitized in (False, True):
        for choice in ATS_CHOICES:
            for _ in range(plan["listing_ipa"]):
                ats, ats_findings = _ats_dict(choice, rng)
                blob = ipa(listing[is_sanitized], ats)
                expect = bridge(is_sanitized, choice == "arbitrary") + ats_findings
                entries.append(({"kind": "listing", "ext": "ipa", "findings": expect,
                                 "chain": [] if is_sanitized else chain}, blob))
        for _ in range(plan["listing_bare"]):
            entries.append(({"kind": "listing", "ext": "bin",
                             "findings": bridge(is_sanitized, False),
                             "chain": [] if is_sanitized else chain},
                            listing[is_sanitized]))
        for _ in range(plan["malformed"]):
            blob = ipa(listing[is_sanitized], plist=b"<plist><dict>")
            expect = bridge(is_sanitized, False) + [["info-plist-malformed", "warning"]]
            entries.append(({"kind": "malformed-plist", "ext": "ipa", "findings": expect,
                             "chain": [] if is_sanitized else chain}, blob))
    for i in range(plan["benign"]):
        if i % 2:
            entries.append(({"kind": "benign", "ext": "ipa", "findings": []}, ipa(benign)))
        else:
            entries.append(({"kind": "benign", "ext": "bin", "findings": []}, benign))
    for i in range(plan["suite"]):
        if i % 2:
            ats, ats_findings = _ats_dict(rng.choice(ATS_CHOICES), rng)
            entries.append(({"kind": "suite", "ext": "ipa", "findings": ats_findings},
                            ipa(suite, ats)))
        else:
            entries.append(({"kind": "suite", "ext": "bin", "findings": []}, suite))
    for size in plan["perf_sizes"]:
        for _ in range(plan["perf_each"]):
            blob, _ = corpus.perf_app(seed=rng.randrange(10**6), functions=size,
                                      data_bytes=4096)
            entries.append(({"kind": "perf", "ext": "bin", "findings": []}, blob))
    locked = encrypted_app()
    for i in range(plan["encrypted"]):
        if i % 2:
            entries.append(({"kind": "encrypted", "ext": "ipa",
                             "error": "EncryptedBinary"}, ipa(locked)))
        else:
            entries.append(({"kind": "encrypted", "ext": "bin",
                             "error": "EncryptedBinary"}, locked))
    mutants = [(sorted(bases)[i % 3], "anywhere", i)
               for i in range(plan["mutants_anywhere"])]
    mutants += [("suite", "starts", i) for i in range(plan["mutants_starts"])]
    mutants += list(KNOWN_FAULT_MUTANTS)
    for base, scheme, mseed in mutants:
        entries.append(({"kind": "mutant", "ext": "bin", "base": base,
                         "scheme": scheme, "mutation_seed": mseed},
                        mutate(bases[base], scheme, mseed)))

    rng.shuffle(entries)
    batch = []
    for index, (entry, blob) in enumerate(entries):
        entry["file"] = f"apps/{index:04d}-{entry['kind']}.{entry['ext']}"
        if "findings" in entry:
            entry["findings"] = sorted(entry["findings"])
        (dest / entry["file"]).write_bytes(blob)
        batch.append(entry)
    write_json(dest / "batch.json", {"seed": seed, "apps": batch})


def generate(workload: str, dest: Path, seed: int, smoke: bool,
             functions: int | None = None) -> None:
    """Write a workload's inputs; `functions` overrides the perf_app size."""
    if functions is None:
        functions = SMOKE_FUNCTIONS if smoke else LARGE_FUNCTIONS
    if workload == "lift-large":
        write_perf_app(dest, seed, functions)
    elif workload == "scan-batch":
        write_scan_batch(dest, seed, smoke)
    elif workload == "reload-query":
        write_reload_inputs(dest, seed, functions)
    else:
        raise ValueError(f"unknown workload {workload!r}")
