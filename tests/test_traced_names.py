"""Every name the traced benchmark wraps is still called where it is wrapped.

`bench/spans.py` times lios from outside: it replaces module attributes
where their callers look them up. A call that moves to another module, or
a name that a caller binds at import, drops out of the traced numbers
without an error, so this test wraps each entry of its `SPANS` with a
counter and runs what the benchmark runs.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import lios.analyses
import lios.graph
import lios.pipeline
import lios.traverse
from lios.fixtures import corpus
from lios.pipeline import AnalysisConfig

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of each `SPANS` entry, read from the file."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _layer in spans.SPANS]


def test_every_traced_name_is_called(tmp_path, monkeypatch):
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    names = traced_names()
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        wrapped = counting((module_name, attr), getattr(module, attr))
        monkeypatch.setattr(module, attr, wrapped)

    apps = {"msgsend_suite": corpus.msgsend_suite, "bridge.ipa": corpus.listing_one_ipa}
    for name, build in apps.items():
        (tmp_path / name).write_bytes(build()[0])
        out = tmp_path / f"{name}.out"
        lios.pipeline.run_pipeline(AnalysisConfig(input=str(tmp_path / name), out_dir=str(out)))
    g = lios.graph.load(tmp_path / "bridge.ipa.out" / "graph.jsonl")
    lios.analyses.run_detectors(g, [])
    lios.traverse.run_query(g, 'functions().calling("NSClassFromString")')

    assert [key for key in names if not calls[key]] == []
