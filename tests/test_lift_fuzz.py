"""Whole-lift fuzz: a damaged input lifts or fails with a `LiosError`.

Each mutant of a corpus fixture has 1-8 bytes overwritten at random
offsets, and about one in five is also cut short. The seeds are fixed, so
every run lifts the same mutants. The dump of each mutant that lifts must
reload to a graph that validates, dumps to the same bytes and gives the
same findings as the lift.
"""

import random

import pytest

from lios import analyses, graph
from lios.errors import LiosError
from lios.fixtures import corpus
from lios.pipeline import AnalysisConfig, run_pipeline

MUTANTS_PER_FIXTURE = 100


def mutants(blob: bytes, seed: int, count: int):
    """`count` damaged copies of `blob`, the same ones for the same seed."""
    rng = random.Random(seed)
    for _ in range(count):
        data = bytearray(blob)
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        if rng.random() < 0.2:
            # keep the Mach-O header, so that the cut reaches later parsers
            del data[rng.randrange(64, len(data)):]
        yield bytes(data)


@pytest.mark.parametrize(
    "build, seed",
    [
        (corpus.benign_app, 1),
        (corpus.msgsend_suite, 2),
        (corpus.listing_one_app, 3),
    ],
    ids=["benign_app", "msgsend_suite", "listing_one"],
)
def test_mutants_lift_or_raise_lios_error(tmp_path, build, seed):
    blob, _ = build()
    path = tmp_path / "mutant.bin"
    out = tmp_path / "out"
    config = AnalysisConfig(input=str(path), out_dir=str(out))
    outcomes = {"lifted": 0, "rejected": 0}
    for number, mutant in enumerate(mutants(blob, seed, MUTANTS_PER_FIXTURE)):
        path.write_bytes(mutant)
        try:
            run_pipeline(config)
        except LiosError:
            outcomes["rejected"] += 1
            continue
        except Exception as exc:
            pytest.fail(f"mutant {number} (seed {seed}) raised {exc!r}")
        outcomes["lifted"] += 1
        where = f"mutant {number} (seed {seed})"
        dumped = (out / "graph.jsonl").read_bytes()
        reloaded = graph.load(out / "graph.jsonl")
        assert reloaded.validate() == [], where
        assert reloaded.dumps().encode("utf-8") == dumped, where
        findings = analyses.findings_to_json(analyses.run_detectors(reloaded, []))
        assert findings + "\n" == (out / "findings.json").read_text("utf-8"), where
    # a mutator that damaged nothing, or everything, would test nothing
    assert outcomes["lifted"] and outcomes["rejected"], outcomes
