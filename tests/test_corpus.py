import pytest

from persinet import UnknownIdError, corpus_load, corpus_names, verify_corpus
from persinet.corpus import verify_entry


def test_names_cover_the_figures():
    names = corpus_names()
    assert len(names) == 17
    for expected in ("fig1_basic", "fig2_confuse", "fig4_perslocal", "fig5_acbc",
                     "fig6_unfair", "fig7_left", "fig7_right", "fig8_variant",
                     "fig10_fpe_not_spe", "fig12_spar", "fig13_impure_diamond",
                     "fig14_counterexample", "fig15_a_star", "fig15_b",
                     "fig15_sum", "fig15_choice", "fig16_appendix"):
        assert expected in names


def test_unknown_entry():
    with pytest.raises(UnknownIdError):
        corpus_load("fig99")


def test_entries_parse_and_carry_manifests():
    for name in corpus_names():
        entry = corpus_load(name)
        assert entry.net is not None
        assert entry.manifest, f"{name} has no manifest"


def test_companion_lts_present_where_expected():
    assert corpus_load("fig1_basic").lts is not None
    assert corpus_load("fig2_confuse").lts is not None
    assert corpus_load("fig14_counterexample").lts is not None
    assert corpus_load("fig5_acbc").lts is None


def test_fig15_sum_is_tagged():
    entry = corpus_load("fig15_sum")
    assert entry.net.components is not None


def test_every_manifest_claim_passes():
    results = verify_corpus()
    failures = [r for r in results if not r.ok]
    assert not failures, failures
    assert len(results) > 100


def test_truncated_graph_gives_no_verdict(monkeypatch):
    # fig2_confuse has 3 reachable markings; its companion-LTS claim does
    # not read the reachability graph and keeps its verdict
    monkeypatch.setenv("PERSINET_MAX_STATES", "2")
    results = {r.description: r for r in verify_entry(corpus_load("fig2_confuse"))}
    for desc in ("rg states=3 edges=3",
                 "net_persistent value=False witness_state=M0 witness_pair=['x', 'y']",
                 "isomorphic_rg_lts"):
        assert not results[desc].ok
        assert "cut off at 2 states" in results[desc].detail
    assert results["embeds pattern=nonpers in=lts found=True"].ok


def test_every_net_pins_its_persistence_verdict():
    # a moved first witness fails the claim of whichever net it moves on
    for name in corpus_names():
        claims = [c for c in corpus_load(name).manifest if c["check"] == "net_persistent"]
        assert len(claims) == 1, name
        assert claims[0]["value"] or "witness_state" in claims[0], name


@pytest.fixture
def graphs_built(monkeypatch):
    """The names of the nets build_rg is called on."""
    from persinet import lts as lts_mod

    built = []
    real = lts_mod.build_rg

    def spy(net, max_states=None):
        built.append(net.name)
        return real(net, max_states)

    monkeypatch.setattr(lts_mod, "build_rg", spy)
    return built


def test_one_graph_per_entry(graphs_built):
    # every graph claim of an entry reads the entry's one graph; fig7_left's
    # rg_isomorphic_to claim also builds fig7_right's
    results = verify_corpus()
    assert all(r.ok for r in results)
    assert len(graphs_built) == 18
    assert sorted(graphs_built) == sorted(corpus_names() + ["fig7_right"])


def test_cut_off_graph_fails_every_graph_claim_alike(graphs_built, monkeypatch):
    # fig1_basic has six claims on its 8-state graph, among them two
    # embeddings in it; a graph cut off at 5 states is built once and fails
    # each of them with the same text
    monkeypatch.setenv("PERSINET_MAX_STATES", "5")
    entry = corpus_load("fig1_basic")
    results = verify_entry(entry)
    assert [r.description for r in results[:2]] == ["net round-trip", "lts round-trip"]
    failed = [r for claim, r in zip(entry.manifest, results[2:])
              if claim["check"] in ("rg", "deadlocks", "net_persistent", "isomorphic_rg_lts")
              or claim.get("in") == "rg"]
    assert len(failed) == 6
    assert graphs_built == ["fig1_basic"]
    text = "reachability graph of net 'fig1_basic' cut off at 5 states; " \
           "a truncated graph gives no verdict"
    for r in failed:
        assert not r.ok and r.detail == text, r.description
