"""Byte-identity harness: lift one fixed input set and fingerprint the artifacts.

For every input it prints the sha256 of `graph.jsonl`, `findings.json` and
`stats.json`, or the `LiosError` the lift raised.  Each input that lifts is
also reloaded: the dump must validate, dump again to the same bytes and give
the same `findings.json`.

    python tools/identity.py                      # this checkout, PYTHONHASHSEED=0
    python tools/identity.py --against REV        # inputs that differ from REV
    python tools/identity.py --hash-seeds 0,1     # inputs that differ by hash seed

`--against` lifts the same input files with REV's `src/`, which `git archive`
extracts into the temporary directory, so nothing is written under `.git`.
The inputs are written once, by this checkout's generators, so both sides
lift the same bytes under the same file names.  The set, 9,495 inputs and
18,990 lifts:

- perf_app N=400 seed 1 and N=100 seed 7;
- listing_one vulnerable and sanitized, msgsend_suite, benign_app and
  spill_suite, and 150 `mutate(blob, "anywhere", s)` mutants of each, s in
  5000..5149;
- the `write_scan_batch` apps of seeds 7 and 11;
- the whole field-boundary sweep (`lios.fixtures.sweep.boundary_fields`) of
  listing_one, msgsend_suite and benign_app: 8,376 mutants;
- each of these with and without the reload-query rule file.

REV must contain `99448ae`, the bind-stream count check: an older lios
stores one bind entry per count, and the sweep sets a bind stream's start
to the Mach-O header, whose first bytes read as a count of 27 M (2.6 GB).
Each worker process also caps its own address space, so a lift that would
exhaust memory fails with `MemoryError` instead.

Exit status: 0 when nothing differs and every lift either succeeds with a
sound reload or raises a `LiosError`; 1 otherwise; 2 when REV is refused.
Not part of tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE_CAP = 2 << 30
FIXTURE_MUTANT_SEEDS = range(5000, 5150)
BATCH_SEEDS = (7, 11)
SWEPT_FIXTURES = ("listing_one", "msgsend_suite", "benign_app")
# the first revision whose lios bounds a bind run by its segment
OLDEST_AGAINST = "99448ae"


def write_inputs(dest: Path) -> None:
    """The input set under dest/apps, and the rule file at dest/rules.json."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import inputs
    from lios.fixtures import corpus
    from lios.fixtures.sweep import boundary_fields, boundary_mutant

    apps = dest / "apps"
    apps.mkdir(parents=True)
    inputs.write_json(dest / "rules.json", inputs.RULES)
    for seed, functions in ((1, 400), (7, 100)):
        blob, _ = corpus.perf_app(seed=seed, functions=functions)
        (apps / f"perf_app_n{functions}_s{seed}.bin").write_bytes(blob)
    fixtures = {
        "listing_one": corpus.listing_one_app(sanitized=False)[0],
        "listing_one_sanitized": corpus.listing_one_app(sanitized=True)[0],
        "msgsend_suite": corpus.msgsend_suite()[0],
        "benign_app": corpus.benign_app()[0],
        "spill_suite": corpus.spill_suite()[0],
    }
    for name, blob in fixtures.items():
        (apps / f"{name}.bin").write_bytes(blob)
        for s in FIXTURE_MUTANT_SEEDS:
            mutant = inputs.mutate(blob, "anywhere", s)
            (apps / f"{name}_anywhere_{s}.bin").write_bytes(mutant)
    for name in SWEPT_FIXTURES:
        blob = fixtures[name]
        for offset, value in boundary_fields(blob):
            mutant = boundary_mutant(blob, offset, value)
            (apps / f"{name}_word{offset:#x}_{value:#x}.bin").write_bytes(mutant)
    for seed in BATCH_SEEDS:
        batch = dest / f"batch{seed}"
        inputs.write_scan_batch(batch, seed, smoke=False)
        for app in sorted((batch / "apps").iterdir()):
            app.rename(apps / f"batch{seed}_{app.name}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def lift_all(inputs_dir: Path, out_path: Path) -> None:
    """Worker: lift every input with the lios on PYTHONPATH, one JSON line each."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    from lios import analyses, graph
    from lios.errors import LiosError
    from lios.pipeline import AnalysisConfig, run_pipeline

    rules_path = inputs_dir / "rules.json"
    out = out_path.parent / f"{out_path.stem}.out"
    with open(out_path, "w", encoding="utf-8") as fh:
        for app in sorted((inputs_dir / "apps").iterdir()):
            for rules in (None, rules_path):
                name = app.name + (" +rules" if rules else "")
                config = AnalysisConfig(
                    input=str(app), rules=rules and str(rules), out_dir=str(out)
                )
                try:
                    run_pipeline(config)
                except LiosError as exc:
                    record = {"error": f"{type(exc).__name__}: {exc}"}
                except Exception as exc:  # a defect: report it and go on
                    record = {"crash": f"{type(exc).__name__}: {exc}"}
                else:
                    record = {
                        part: _sha256(out / f"{part}.{ext}")
                        for part, ext in (
                            ("graph", "jsonl"),
                            ("findings", "json"),
                            ("stats", "json"),
                        )
                    }
                    dumped = (out / "graph.jsonl").read_bytes()
                    reloaded = graph.load(out / "graph.jsonl")
                    found = analyses.run_detectors(
                        reloaded, analyses.load_rules(str(rules)) if rules else []
                    )
                    if reloaded.validate():
                        record["reload"] = "dump does not validate"
                    elif reloaded.dumps().encode("utf-8") != dumped:
                        record["reload"] = "dump of the reload differs"
                    elif analyses.findings_to_json(found) + "\n" != (
                        out / "findings.json"
                    ).read_text("utf-8"):
                        record["reload"] = "findings of the reload differ"
                fh.write(json.dumps({"input": name, **record}) + "\n")


def run_tree(tree: Path, inputs_dir: Path, hash_seed: str, out_path: Path):
    """Start a worker that lifts the input set with `tree`'s lios."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.Popen(
        [sys.executable, __file__, "--lift", str(inputs_dir), str(out_path)],
        env=env,
    )


def read_records(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {r.pop("input"): r for r in records}


def describe(record: dict) -> str:
    if "graph" in record:
        text = f"{record['graph']} {record['findings']} {record['stats']}"
        return text + (f" reload: {record['reload']}" if "reload" in record else "")
    return record.get("error") or f"CRASH {record['crash']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="compare with a git revision")
    parser.add_argument(
        "--hash-seeds",
        metavar="S,S",
        default="0",
        help="PYTHONHASHSEED values to lift under (default 0)",
    )
    parser.add_argument("--lift", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.lift:
        lift_all(*args.lift)
        return 0

    seeds = args.hash_seeds.split(",")
    if args.against and subprocess.run(
        ["git", "-C", str(ROOT), "merge-base", "--is-ancestor", OLDEST_AGAINST,
         args.against],
        capture_output=True,
    ).returncode:
        print(
            f"--against {args.against}: not a revision that contains "
            f"{OLDEST_AGAINST}; an older lios runs out of memory on the "
            "field-boundary sweep",
            file=sys.stderr,
        )
        return 2
    with tempfile.TemporaryDirectory(prefix="lios-identity-") as tmp:
        tmp = Path(tmp)
        write_inputs(tmp / "inputs")
        runs = {("checkout", seed): ROOT for seed in seeds}
        if args.against:
            rev_tree = tmp / "rev"
            rev_tree.mkdir()
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", args.against, "src"],
                check=True,
                capture_output=True,
            ).stdout
            subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive, check=True)
            runs.update({(args.against, seed): rev_tree for seed in seeds})
        outputs = {key: tmp / f"run{i}.jsonl" for i, key in enumerate(runs)}
        workers = [
            run_tree(tree, tmp / "inputs", seed, outputs[rev, seed])
            for (rev, seed), tree in runs.items()
        ]
        if any([w.wait() for w in workers]):
            print("a worker failed", file=sys.stderr)
            return 1
        results = {key: read_records(path) for key, path in outputs.items()}

    head = results[("checkout", seeds[0])]
    for name, record in head.items():
        print(f"{name}\t{describe(record)}")
    failures = [
        f"{key[0]} PYTHONHASHSEED={key[1]} {name}: {describe(r)}"
        for key, records in results.items()
        for name, r in records.items()
        if "crash" in r or "reload" in r
    ]
    differ = [
        f"{name}: {describe(record)} [checkout PYTHONHASHSEED={seeds[0]}] vs "
        f"{describe(results[key][name])} [{key[0]} PYTHONHASHSEED={key[1]}]"
        for key in results
        for name, record in head.items()
        if results[key][name] != record
    ]
    lifted = sum("graph" in r for r in head.values())
    print(
        f"# {len(head)} lifts: {lifted} lifted, {len(head) - lifted} raised; "
        f"{len(differ)} differ across {len(results)} runs; {len(failures)} failures",
        file=sys.stderr,
    )
    for line in failures + differ:
        print(f"# {line}", file=sys.stderr)
    return 1 if failures or differ else 0


if __name__ == "__main__":
    sys.exit(main())
