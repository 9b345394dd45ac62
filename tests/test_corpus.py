"""The prebuilt fixtures behave exactly as their manifests claim."""

import zipfile
import io

import pytest

from conftest import graph_bundle
from lios.disasm import (
    CONST_STRING,
    CallSite,
    backtrace,
    build_function,
    devirtualize,
    function_name,
    reg,
)
from lios.fixtures import corpus
from lios.graph import link_pass
from lios.macho import parse_macho
from lios.objc import load_model
from lios.plist import parse_plist


def lift(blob, manifest):
    image = parse_macho(blob)
    model = load_model(image)
    functions = {}
    for name, (start, end) in manifest["function_ranges"].items():
        functions[start] = build_function(image, start, end, model=model)
    return image, model, functions


def expected_sites(manifest, name):
    return {
        CallSite(
            e["caller_ea"],
            e["kind"],
            e.get("target_ea"),
            e["target_name"],
            e.get("selector"),
            e.get("receiver"),
        )
        for e in manifest["expected_calls"][name]
    }


def assert_call_sets_match(manifest, model, functions):
    """Each function's devirtualized call set is the one its manifest lists."""
    got, want = {}, {}
    for name in manifest["expected_calls"]:
        start, _ = manifest["function_ranges"][name]
        got[name] = set(devirtualize(functions[start], model, functions=functions))
        want[name] = expected_sites(manifest, name)
    assert got == want


@pytest.fixture(scope="module")
def suite():
    blob, manifest = corpus.msgsend_suite()
    image, model, functions = lift(blob, manifest)
    return manifest, model, functions


class TestMsgsendSuite:
    def test_call_sets_match_manifest_exactly(self, suite):
        assert_call_sets_match(*suite)

    def test_site_count_meets_coverage_floor(self, suite):
        manifest, model, functions = suite
        assert manifest["msgsend_site_count"] >= 10

    def test_resolvable_sites_leave_no_msgsend_residue(self, suite):
        manifest, model, functions = suite
        resolvable_callers = {
            "site_const", "site_super", "site_self", "site_diamond",
            "site_movchain", "site_spill", "site_interproc", "site_own_sel",
            "site_tail",
        }
        for name in resolvable_callers:
            start, _ = manifest["function_ranges"][name]
            sites = devirtualize(functions[start], model, functions=functions)
            assert all(s.target_name != "objc_msgSend" for s in sites), name

    def test_function_starts_cover_all_functions(self, suite):
        manifest, model, functions = suite
        starts = set(manifest["function_starts"])
        for name, (start, _) in manifest["function_ranges"].items():
            assert start in starts, name

    def test_model_matches_class_manifest(self, suite):
        manifest, model, functions = suite
        wanted = {c["name"] for c in manifest["classes"]}
        got = {c.name for c in model.classes if not c.is_metaclass and not c.is_external}
        assert got == wanted


def test_spill_suite_call_sets_match_manifest():
    """A pair reload resolves the send it feeds; a written-back base holds
    no selector."""
    blob, manifest = corpus.spill_suite()
    assert_call_sets_match(manifest, *lift(blob, manifest)[1:])


@pytest.mark.parametrize(
    "builder, kwargs",
    [
        (corpus.msgsend_suite, {}),
        (corpus.listing_one_app, {}),
        (corpus.benign_app, {}),
        (corpus.perf_app, {"functions": 12}),
    ],
    ids=["msgsend_suite", "listing_one_app", "benign_app", "perf_app"],
)
def test_one_name_per_in_image_function(builder, kwargs):
    """`function_name` names every in-image function: its Function node, each
    call site that targets it, direct or resolved, and the link pass keeps it."""
    _, image, model, functions, g = graph_bundle(builder, **kwargs)
    in_image = [n for n in g.nodes("Function") if not n.get("is_ext")]
    named = {n.id: n.get("name") for n in in_image}
    assert named == {n.id: function_name(image, model, n.get("ea")) for n in in_image}
    sites = [
        s
        for fn in functions.values()
        for s in devirtualize(fn, model, functions=functions)
        if s.kind == "in_image"
    ]
    assert [s.target_name for s in sites] == [
        function_name(image, model, s.target_ea) for s in sites
    ]
    link_pass(g)
    assert {n.id: n.get("name") for n in in_image} == named


@pytest.fixture(scope="module")
def listing_pair():
    out = {}
    for sanitized in (False, True):
        blob, manifest = corpus.listing_one_app(sanitized=sanitized)
        out[sanitized] = (manifest,) + lift(blob, manifest)[1:]
    return out


class TestListingPair:
    @pytest.mark.parametrize("sanitized", [False, True])
    def test_call_sets_match_manifest(self, listing_pair, sanitized):
        assert_call_sets_match(*listing_pair[sanitized])

    def test_delegate_method_is_named_from_model(self, listing_pair):
        manifest, model, functions = listing_pair[False]
        start, _ = manifest["function_ranges"][manifest["delegate_function"]]
        fn = functions[start]
        assert fn.name == f"-[BridgeDelegate {manifest['delegate_selector']}]"
        assert model.class_of_impl(start)[1].selector == manifest["delegate_selector"]

    def test_vulnerable_sink_receives_url_derived_value(self, listing_pair):
        manifest, model, functions = listing_pair[False]
        start, _ = manifest["function_ranges"][manifest["delegate_function"]]
        fn = functions[start]
        values = backtrace(fn, reg("x0"), manifest["sink_ea"], model)
        assert all(v.variant in ("composed", "unknown") for v in values)
        assert any(v.variant == "composed" for v in values)

    def test_sanitized_sink_receives_constant(self, listing_pair):
        manifest, model, functions = listing_pair[True]
        start, _ = manifest["function_ranges"][manifest["delegate_function"]]
        fn = functions[start]
        values = backtrace(fn, reg("x0"), manifest["sink_ea"], model)
        assert values == {CONST_STRING("SafeAPI")}

    def test_taint_chain_eas_are_the_named_dispatches(self, listing_pair):
        manifest, model, functions = listing_pair[False]
        start, _ = manifest["function_ranges"][manifest["delegate_function"]]
        sites = {
            s.caller_ea: s
            for s in devirtualize(functions[start], model)
        }
        chain = manifest["taint_chain"]
        names = manifest["taint_chain_names"]
        assert [sites[ea].selector for ea in chain] == names

    def test_delegate_adopts_webview_protocol(self, listing_pair):
        manifest, model, functions = listing_pair[False]
        cls = model.by_name["BridgeDelegate"]
        assert "UIWebViewDelegate" in [p.name for p in model.protocols_of(cls)]


class TestPackaging:
    def test_ipa_layout(self):
        blob, _ = corpus.benign_app()
        plist = corpus.info_plist(executable="Demo", ats=corpus.ATS_ARBITRARY)
        ipa = corpus.build_ipa(blob, plist, app_name="Demo")
        with zipfile.ZipFile(io.BytesIO(ipa)) as z:
            names = set(z.namelist())
            assert names == {
                "Payload/Demo.app/Info.plist",
                "Payload/Demo.app/Demo",
            }
            tree = parse_plist(z.read("Payload/Demo.app/Info.plist"))
            assert tree["CFBundleExecutable"] == "Demo"
            assert tree["NSAppTransportSecurity"]["NSAllowsArbitraryLoads"] is True
            assert z.read("Payload/Demo.app/Demo") == blob

    def test_ipa_bytes_are_deterministic(self):
        blob, _ = corpus.benign_app()
        plist = corpus.info_plist()
        a = corpus.build_ipa(blob, plist)
        b = corpus.build_ipa(blob, plist)
        assert a == b

    def test_ats_matrix_values(self):
        for ats, key in (
            (corpus.ATS_ARBITRARY, "NSAllowsArbitraryLoads"),
            (corpus.ATS_DOMAINS, "NSExceptionDomains"),
        ):
            tree = parse_plist(corpus.info_plist(ats=ats))
            assert key in tree["NSAppTransportSecurity"]
        absent = parse_plist(corpus.info_plist(ats=None))
        assert "NSAppTransportSecurity" not in absent


class TestPerfFixture:
    def test_shape(self):
        blob, manifest = corpus.perf_app()
        assert len(blob) > 250 * 1024
        assert len(manifest["function_ranges"]) >= 100
        image = parse_macho(blob)
        model = load_model(image)
        assert len([c for c in model.classes if not c.is_metaclass]) >= 6

    def test_generation_is_deterministic(self):
        a, _ = corpus.perf_app()
        b, _ = corpus.perf_app()
        assert a == b
