import json
import subprocess
import sys

CLI = [sys.executable, "-m", "persinet.cli"]


def run(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env)


def test_classify_fig1():
    out = run("classify", "fig1_basic")
    assert out.returncode == 0
    assert "plain: yes" in out.stdout
    assert "dissymmetric_choice: no" in out.stdout
    assert "asymmetric_choice: yes" in out.stdout
    assert "safe: yes" in out.stdout


def test_classify_fig16():
    out = run("classify", "fig16_appendix")
    assert "dissymmetric_choice: yes" in out.stdout
    assert "dc_tilde: yes" in out.stdout
    assert "free_choice: no" in out.stdout


def test_rg_with_dot(tmp_path):
    dot = tmp_path / "g.dot"
    out = run("rg", "fig1_basic", "--dot", str(dot))
    assert out.returncode == 0
    assert "states: 8" in out.stdout and "edges: 10" in out.stdout
    assert dot.read_text().startswith("digraph")


def test_persistence():
    out = run("persistence", "fig1_basic")
    assert "persistent: no" in out.stdout and "M4" in out.stdout
    out = run("persistence", "fig5_acbc")
    assert "persistent: yes" in out.stdout


def test_seq_modes():
    out = run("seq", "fig1_basic", "--run", "c d a", "--persistence")
    assert "persistent: no" in out.stdout
    out = run("seq", "fig1_basic", "--run", "c a d", "--parikh")
    assert "a:1" in out.stdout and "b:0" in out.stdout
    out = run("seq", "fig1_basic", "--run", "c d a")
    assert "p4" in out.stdout
    for mode in ((), ("--persistence",)):
        out = run("seq", "fig1_basic", "--run", "zz", *mode)
        assert _bad_input(out) and "unknown transition 'zz'" in out.stderr


def test_seq_modes_name_the_same_deficient_place():
    # replaying and the persistence test reject an unfirable run alike
    for word, line in (("a", "(place 'p2' lacks tokens) at step 0"),
                       ("c a b", "(place 'p3' lacks tokens) at step 2")):
        plain = run("seq", "fig1_basic", "--run", word)
        checked = run("seq", "fig1_basic", "--run", word, "--persistence")
        assert _bad_input(plain) and _bad_input(checked)
        assert line in plain.stderr
        assert checked.stderr == plain.stderr


def test_seq_persistence_validates_whole_run():
    # 'a' is a nonpersistent first step, and the run still has to fire
    for word, line in (("a a", "transition 'a' is not enabled (place 'p0' lacks "
                                "tokens) at step 1"),
                       ("a zz", "unknown transition 'zz'")):
        out = run("seq", "fig4_perslocal", "--run", word, "--persistence")
        assert _bad_input(out) and line in out.stderr


def test_net_command_rejects_lts_document(tmp_path):
    from persinet.corpus import LTS_DOCS

    doc = tmp_path / "fig2.lts"
    doc.write_text(LTS_DOCS["fig2_confuse"])
    out = run("spe", str(doc), "--bound", "2")
    assert _bad_input(out)
    assert f"'{doc}' is an LTS document; this command needs a net" in out.stderr


def test_equiv():
    out = run("equiv", "fig1_basic", "--a", "d c a", "--b", "c a d")
    assert "equivalent: yes" in out.stdout
    out = run("equiv", "fig12_spar", "--a", "a b c", "--b", "c b a")
    assert "equivalent: no" in out.stdout


def test_spe():
    out = run("spe", "fig10_fpe_not_spe", "--bound", "2")
    assert "refuted" in out.stdout and "y b" in out.stdout
    out = run("spe", "fig1_basic", "--bound", "8", "--parikh")
    assert "holds-up-to-bound" in out.stdout


def test_pattern():
    out = run("pattern", "fig1_basic", "--name", "nonpers")
    assert "embedding: found" in out.stdout and "1 -> M4" in out.stdout
    out = run("pattern", "fig1_basic", "--derive-nondc")
    assert "embedding found (constructed)" in out.stdout


def test_pattern_file(tmp_path):
    doc = tmp_path / "p.pat"
    doc.write_text("pattern twojump\nstate u\nstate v\nstate w\n"
                   "arc u a v\narc v a w\n")
    out = run("pattern", "fig1_basic", "--file", str(doc))
    assert out.returncode == 0


def test_pattern_name_and_file_exclude(tmp_path):
    # the consequence line belongs to the built-in pattern searched
    doc = tmp_path / "p.pat"
    doc.write_text("pattern one\nstate u\nstate v\narc u a v\n")
    out = run("pattern", "fig5_acbc", "--file", str(doc), "--name", "nonpers")
    assert out.returncode == 2 and "not allowed with" in out.stderr
    assert "consequence" not in out.stdout


def test_fairness():
    out = run("fairness", "fig6_unfair", "--lasso", "y ; x a c",
              "--search-equivalent")
    assert "strongly_fair: no" in out.stdout
    assert "persistent: no" in out.stdout
    assert "none-within-bounds" in out.stdout


def test_pe_matrix():
    out = run("pe-matrix", "fig14_counterexample")
    assert out.returncode == 0
    assert "SPE:  holds-up-to-bound" in out.stdout
    assert "FPE:  refuted-within-bounds" in out.stdout


def test_pe_matrix_probes_file(tmp_path):
    probes = tmp_path / "probes.txt"
    probes.write_text("y ; x a c\n")
    out = run("pe-matrix", "fig6_unfair", "--probes", str(probes))
    assert out.returncode == 0
    assert "JPE:  refuted-within-bounds" in out.stdout
    # '#' starts a comment anywhere on a line, as in the net and LTS formats
    probes.write_text("  # note\n\ny b  # note\n")
    out = run("pe-matrix", "fig10_fpe_not_spe", "--probes", str(probes))
    assert out.returncode == 0, out.stderr
    assert "probe [y b]:" in out.stdout and out.stdout.count("probe [") == 1


def test_pe_matrix_probes_file_first_bad_probe(tmp_path):
    # each probe is validated by its own question, in file order
    probes = tmp_path / "probes.txt"
    probes.write_text("y y\ny ; x a\n")
    out = run("pe-matrix", "fig6_unfair", "--probes", str(probes))
    assert _bad_input(out) and "transition 'y' is not enabled" in out.stderr
    probes.write_text("y ; x a\n")
    out = run("pe-matrix", "fig6_unfair", "--probes", str(probes))
    assert _bad_input(out) and "not back to its entry marking" in out.stderr


def test_pattern_on_lts_file(tmp_path):
    from persinet import corpus_load

    doc = tmp_path / "ts.lts"
    doc.write_text(corpus_load("fig2_confuse").lts_text)
    out = run("pattern", str(doc), "--name", "nonpers")
    assert out.returncode == 0
    assert "embedding: found" in out.stdout
    assert "not persistent" in out.stdout


def test_verify_corpus_subset():
    out = run("verify-corpus", "fig5_acbc", "fig12_spar")
    assert out.returncode == 0
    assert "FAIL" not in out.stdout


def test_explore(tmp_path):
    out = run("explore", "--theorem", "CF-persistent", "--seeds", "0..9")
    assert out.returncode == 0
    assert "violations: 0" in out.stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"places": 3, "transitions": 3,
                               "class_constraint": ["CF"], "seed": 0}))
    out = run("explore", "--theorem", "CF-persistent", "--seeds", "0..4",
              "--config", str(cfg))
    assert out.returncode == 0


def test_explore_probe_on_weighted_nets(tmp_path):
    # seed 3 of this configuration is a non-plain net the probe must answer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_weight": 2, "arc_density": 0.4}))
    dump = tmp_path / "r.json"
    out = run("explore", "--theorem", "spe-implies-fpe-probe", "--seeds", "0..40",
              "--config", str(cfg), "--dump", str(dump))
    assert out.returncode == 0, out.stderr
    assert "instances: 41" in out.stdout and "violations: 0" in out.stdout
    assert "slowest seeds: " in out.stdout
    slowest = json.loads(dump.read_text())["report"]["slowest"]
    assert len(slowest) == 5 and all(0 <= seed <= 40 for seed, _ in slowest)


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("net x\nplace p\nplace p\n")
    assert run("classify", str(bad)).returncode == 2
    assert run("classify", "not_a_thing").returncode == 2
    assert run("seq", "fig1_basic", "--run", "a").returncode == 2
    out = run("persistence", "fig1_basic")
    assert out.returncode == 0


def test_resource_exit_code(monkeypatch):
    import os

    env = dict(os.environ, PERSINET_MAX_STATES="3")
    out = run("persistence", "fig1_basic", env=env)
    assert out.returncode == 3


def test_rg_cut_off_reports_only_real_deadlocks(tmp_path):
    # a cut-off graph drops the edges into undiscovered states: at 3 states
    # M1 and M2 of fig1_basic have empty rows, yet both enable transitions
    dump = tmp_path / "rg.json"
    out = run("rg", "fig1_basic", "--max-states", "3", "--dump", str(dump))
    assert out.returncode == 0 and "status: cutoff-reached" in out.stdout
    assert "deadlocks: -\n" in out.stdout
    assert json.loads(dump.read_text())["report"]["deadlocks"] == []
    assert "deadlocks: M6\n" in run("rg", "fig1_basic", "--max-states", "7").stdout
    assert "deadlocks: M6 M7\n" in run("rg", "fig1_basic").stdout


def test_rg_of_an_unbounded_net_under_a_state_budget(tmp_path):
    # g generates tokens on p for ever; u and v consume them
    doc = tmp_path / "gen.net"
    doc.write_text("net gen\nplace q init 1\nplace p\ntrans g\ntrans u\ntrans v\n"
                   "arc q -> g\narc g -> q\narc g -> p\narc p -> u\narc p -> v\n")
    out = run("rg", str(doc), "--max-states", "5")
    assert out.returncode == 0
    assert "states: 5\n" in out.stdout and "status: cutoff-reached\n" in out.stdout
    assert "deadlocks: -\n" in run("rg", str(doc), "--max-states", "1").stdout
    # the cut-off graph still refutes persistence: the witness replays
    out = run("persistence", str(doc), "--max-states", "50")
    assert out.returncode == 0 and out.stdout == (
        "persistent: no\n"
        "witness: state M1 (marking {'q': 1, 'p': 1}), firing u disables v\n")


def test_persistence_refuses_truncated_graph():
    out = run("persistence", "fig1_basic", "--max-states", "3")
    assert out.returncode == 3 and "persistent:" not in out.stdout
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert "'fig1_basic' cut off at 3 states" in out.stderr


def _par_doc(k):
    """k disjoint one-token cycles p_i -> a_i -> q_i -> b_i -> p_i: a
    persistent net with 2^k reachable markings."""
    lines = [f"net par{k}"]
    for i in range(k):
        lines += [f"place p{i} init 1", f"place q{i}", f"trans a{i}", f"trans b{i}",
                  f"arc p{i} -> a{i}", f"arc a{i} -> q{i}",
                  f"arc q{i} -> b{i}", f"arc b{i} -> p{i}"]
    return "\n".join(lines) + "\n"


def test_pattern_refuses_truncated_graph(tmp_path):
    import os

    doc = tmp_path / "par4.net"
    doc.write_text(_par_doc(4))
    out = run("pattern", str(doc), "--name", "nonpers")
    assert out.returncode == 0 and "embedding: none" in out.stdout
    env = dict(os.environ, PERSINET_MAX_STATES="5")
    out = run("pattern", str(doc), "--name", "nonpers", env=env)
    assert out.returncode == 3
    assert "consequence" not in out.stdout


def test_dump_is_versioned(tmp_path):
    dump = tmp_path / "r.json"
    out = run("classify", "fig1_basic", "--dump", str(dump))
    assert out.returncode == 0
    doc = json.loads(dump.read_text())
    assert doc["format"] == "persinet-report" and doc["version"] == 1
    assert doc["report"]["classify"]["plain"] is True


def _bad_input(out):
    """Exit 2 with one error line and no traceback."""
    return (out.returncode == 2 and out.stderr.startswith("error: ")
            and "Traceback" not in out.stderr)


def test_bad_max_states_setting():
    import os

    env = dict(os.environ, PERSINET_MAX_STATES="abc")
    out = run("rg", "fig1_basic", env=env)
    assert _bad_input(out) and "PERSINET_MAX_STATES" in out.stderr


def test_bad_class_guard_setting():
    import os

    env = dict(os.environ, PERSINET_CLASS_GUARD="x")
    out = run("equiv", "fig1_basic", "--a", "c a d", "--b", "c d a", env=env)
    assert _bad_input(out) and "PERSINET_CLASS_GUARD" in out.stderr


def test_bad_seed_range():
    for seeds in ("5", "a..b", "1..2..3", "5..2"):
        out = run("explore", "--theorem", "CF-persistent", "--seeds", seeds)
        assert _bad_input(out) and "--seeds" in out.stderr


def test_bad_generator_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    for doc, named in (({"max_weight": 0}, "max_weight"), ({"places": True}, "places")):
        cfg.write_text(json.dumps(doc))
        out = run("explore", "--theorem", "CF-persistent", "--seeds", "0..1",
                  "--config", str(cfg))
        assert _bad_input(out) and named in out.stderr


def test_bad_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    for doc, named in (({"places": 3, "colour": "red"}, "colour"),
                       ({"places": 2.5}, "places"),
                       ([3, 3], "object")):
        cfg.write_text(json.dumps(doc))
        out = run("explore", "--theorem", "CF-persistent", "--seeds", "0..1",
                  "--config", str(cfg))
        assert _bad_input(out) and named in out.stderr
