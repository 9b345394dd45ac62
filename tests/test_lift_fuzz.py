"""Whole-lift fuzz: a damaged input lifts or fails with a `LiosError`.

Each mutant of a corpus fixture has 1-8 bytes overwritten at random
offsets, and about one in five is also cut short. The seeds are fixed, so
every run lifts the same mutants. The dump of each mutant that lifts must
reload to a graph that validates, dumps to the same bytes and gives the
same findings as the lift.

The same holds for a fixed sample of the field-boundary sweep
(`lios.fixtures.sweep`): one 4-byte header, load-command or metadata word
set to an edge value, where counts and offsets read from the file meet it.
"""

import random

import pytest

from lios import analyses, graph
from lios.errors import LiosError
from lios.fixtures import corpus
from lios.fixtures.sweep import BOUNDARY_SAMPLE_SEEDS, boundary_mutant, boundary_sample
from lios.pipeline import AnalysisConfig, run_pipeline

MUTANTS_PER_FIXTURE = 100


def mutants(blob: bytes, seed: int):
    """Damaged copies of `blob`, the same ones for the same seed."""
    rng = random.Random(seed)
    for _ in range(MUTANTS_PER_FIXTURE):
        data = bytearray(blob)
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        if rng.random() < 0.2:
            # keep the Mach-O header, so that the cut reaches later parsers
            del data[rng.randrange(64, len(data)):]
        yield bytes(data)


def boundary_mutants(blob: bytes, seed: int):
    """A seeded sample of the field-boundary mutants of `blob`."""
    for offset, value in boundary_sample(blob, seed):
        yield boundary_mutant(blob, offset, value)


@pytest.mark.parametrize(
    "build, seed, make",
    [
        (corpus.benign_app, 1, mutants),
        (corpus.msgsend_suite, 2, mutants),
        (corpus.listing_one_app, 3, mutants),
        (corpus.benign_app, BOUNDARY_SAMPLE_SEEDS["benign_app"], boundary_mutants),
        (corpus.msgsend_suite, BOUNDARY_SAMPLE_SEEDS["msgsend_suite"], boundary_mutants),
        (corpus.listing_one_app, BOUNDARY_SAMPLE_SEEDS["listing_one"], boundary_mutants),
    ],
    ids=[
        "benign_app",
        "msgsend_suite",
        "listing_one",
        "benign_app_boundary",
        "msgsend_suite_boundary",
        "listing_one_boundary",
    ],
)
def test_mutants_lift_or_raise_lios_error(tmp_path, build, seed, make):
    blob, _ = build()
    path = tmp_path / "mutant.bin"
    out = tmp_path / "out"
    config = AnalysisConfig(input=str(path), out_dir=str(out))
    outcomes = {"lifted": 0, "rejected": 0}
    for number, mutant in enumerate(make(blob, seed)):
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
