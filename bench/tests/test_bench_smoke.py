"""Smoke tests of the benchmark itself: every workload and its checks on
small inputs, the printed metrics against BENCHMARK.json, and the helpers
the checks and the traced run rely on.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_prints_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    result = result_of(proc)
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    want = units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_failed_share_is_the_same_for_every_seed():
    shares = []
    for seed in (1, 2):
        result = result_of(bench(ROOT, "--workload", "scan-batch", "--seed", str(seed),
                                 "--seconds", "0", "--smoke"))
        assert result["correct"]
        shares.append((result["failed"], result["attempted"]))
    assert shares[0] == shares[1]
    assert shares[0][0] == len(inputs.KNOWN_FAULT_MUTANTS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_repeat_for_a_seed(tmp_path):
    for name in ("a", "b"):
        inputs.write_scan_batch(tmp_path / name, seed=5, smoke=True)
    a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*"))
    b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*"))
    assert a == b
    for rel in a:
        if (tmp_path / "a" / rel).is_file():
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_reaching_defs_search_agrees_with_use_def_on_the_suite():
    from lios.disasm import build_function, compute_effects, compute_use_def
    from lios.fixtures import corpus
    from lios.macho import parse_macho
    from lios.objc import load_model

    blob, manifest = corpus.msgsend_suite()
    image = parse_macho(blob)
    model = load_model(image)
    for start, end in manifest["function_ranges"].values():
        fn = build_function(image, start, end, model=model)
        want = {(u, d, str(loc)) for u, d, loc in compute_use_def(fn)}
        assert checks.reaching_defs(fn, compute_effects(fn)) == want, fn.name


def test_reaching_defs_search_sees_a_loop():
    from lios.disasm import build_function_from_instructions, compute_effects, decode

    words = [
        0xD2800020,  # mov x0, #1
        0x91000400,  # add x0, x0, #1
        0xB5FFFFE0,  # cbnz x0, -4 (back to the add)
        0xD65F03C0,  # ret
    ]
    body = [decode(w.to_bytes(4, "little"), 0x1000 + 4 * i) for i, w in enumerate(words)]
    fn = build_function_from_instructions(body)
    edges = checks.reaching_defs(fn, compute_effects(fn))
    # the add reads x0 from the mov and, around the loop, from itself
    assert {(0x1004, 0x1000, "x0"), (0x1004, 0x1004, "x0")} <= edges


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.02), "disasm.effects", None)
    outer = tracer._wrap(lambda: (inner(), time.sleep(0.01)), "graph.assemble", None)
    outer()
    times = tracer.self_times()
    assert 0.015 <= times["disasm.effects"] < 0.2
    assert 0.005 <= times["graph.assemble"] < times["disasm.effects"]
    assert tracer.covered() == pytest.approx(times["disasm.effects"] + times["graph.assemble"])
