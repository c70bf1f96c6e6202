"""The three workloads.  Each builds its inputs from the seed, registers
their documents with the context, and returns its round: the list of
decisions run, in order, once per round.

Sizes were chosen so that one round takes a few seconds on a 2-core
machine; README.md records them and why each workload exists.
"""

from __future__ import annotations

import math
import random
import re
from types import SimpleNamespace

import decisions as d
import reference as ref
from reference import require

PAR = "k"  # id prefix of par_k components, disjoint from every corpus id


def _par(ctx, rng, key, k, file=False):
    at_q = [rng.random() < 0.5 for _ in range(k)]
    spec = ref.par_spec(k, PAR, at_q)
    ctx.add(key, spec, file=file)
    return spec, at_q


def _corpus_spec(ctx, name):
    return ref.parse_doc(ctx.corpus.NET_DOCS[name])


def _sum(ctx, rng, key, fig, k):
    """fig + par_k, with the par component's tokens placed by the seed."""
    par = ref.par_spec(k, PAR, [rng.random() < 0.5 for _ in range(k)])
    spec = ref.sum_spec(key, _corpus_spec(ctx, fig), par)
    ctx.add(key, spec)
    return spec, par


def _reordered(ctx, rng, key, base):
    order = list(ctx.specs[base].transitions)
    while order == ctx.specs[base].transitions:
        rng.shuffle(order)
    ctx.add(key, ctx.specs[base].reordered(order, name=key))
    return key


def _expect_spe_holds(ctx, fig, bound):
    """SPE of fig + (a persistent net) holds up to a bound iff it holds on
    fig: steps of the persistent part disable nothing, and letters of the
    two parts always commute.  Checked here by brute force on fig."""
    spec = _corpus_spec(ctx, fig)
    for mode in ("perm", "parikh"):
        require(ref.spe_holds(spec, bound, mode), f"{fig}: SPE fails below {bound}")


def par_closed_form(k):
    return 2 ** k, k * 2 ** k


def fig1_par_closed_form(k):
    return 8 * 2 ** k, (10 + 8 * k) * 2 ** k


# -- small decisions for layers a workload does not exercise at scale --------------

def small_layers(ctx, rng, missing):
    """One small decision per layer in `missing`, so that a traced run of
    every workload reports every layer metric."""
    key = "small.fig1+par1"

    def fig1par1():
        """The small net most layers run on, registered on first use."""
        if key not in ctx.specs:
            _sum(ctx, rng, key, "fig1_basic", 1)
            ctx.add(key + ".cli", ctx.specs[key], file=True)
            _reordered(ctx, rng, key + ".reordered", key)
            _expect_spe_holds(ctx, "fig1_basic", 4)
        return key

    def lasso_net(fig, name):
        _, par = _sum(ctx, rng, name, fig, 1)
        return name, ref.par_word(1, PAR, _at_q(par, 1))

    def theorem_instances():
        return [d.theorem_instance(ctx, theorem, cfg, rng.choice(ACCEPTANCE_SEEDS))
                for theorem, cfg in SUITES]

    def pe_matrix():
        name, pair = lasso_net("fig8_variant", "small.fig8+par1.matrix")
        _expect_spe_holds(ctx, "fig8_variant", 4)
        return d.pe_probe_matrix(ctx, name, [((), ("c", "d", "a", "e") + pair)],
                                 4, "holds-up-to-bound")

    def lasso():
        name, pair = lasso_net("fig8_variant", "small.fig8+par1")
        return d.lasso_search(ctx, name, (), ("c", "d", "a", "e") + pair, "found", max_cycle=6)

    def equivalence_class():
        _, at_q = _par(ctx, rng, "small.par3", 3)
        return d.equivalence_class(ctx, "small.par3", ref.par_word(3, PAR, at_q),
                                   math.factorial(6) // 2 ** 3)

    def cli():
        fig1par1()
        return d.cli(ctx, ["persistence", ctx.files[key + ".cli"]],
                     _check_cli_persistence(ctx, key))

    builders = {
        "lts.build_rg": ("persistence", lambda: d.persistence(ctx, fig1par1())),
        "lts.persistence_check": ("persistence", lambda: d.persistence(ctx, fig1par1())),
        "lts.lts_properties": ("lts_properties", lambda: d.lts_properties(ctx, fig1par1())),
        "lts.isomorphic": ("isomorphic", lambda: d.isomorphic(
            ctx, fig1par1(), fig1par1() + ".reordered")),
        "textio.lts_round_trip": ("round_trip", lambda: d.round_trip(ctx, fig1par1())),
        "patterns.find_embedding": ("find_embedding", lambda: d.find_embedding(
            ctx, fig1par1(), "nonpers")),
        "patterns.derive_nonDC_embedding": ("derive", lambda: d.derive_nondc(
            ctx, fig1par1(), 4)),
        "net.fire": ("fire", lambda: d.fire_loop(ctx, fig1par1(), 20)),
        "net.enabled_transitions": ("enabled", lambda: d.enabled_loop(ctx, fig1par1(), 20)),
        "sequences.spe_perm": ("spe_perm", lambda: d.spe(ctx, fig1par1(), 4, "perm", "holds")),
        "sequences.spe_parikh": ("spe_parikh", lambda: d.spe(
            ctx, fig1par1(), 4, "parikh", "holds")),
        "sequences.equivalence_class": ("class", equivalence_class),
        "sequences.persistent_parikh_equivalent": ("ppe", lambda: d.persistent_parikh_equivalent(
            ctx, fig1par1(), {"c": 1, "d": 1, "a": 1, f"{PAR}a0": 1, f"{PAR}b0": 1}, False)),
        "fairness.lasso_search": ("lasso", lasso),
        "fairness.pe_probe_matrix": ("pe_matrix", pe_matrix),
        "theorems.gen_random_net": ("theorems", theorem_instances),
        "theorems.check_theorem": ("theorems", theorem_instances),
        "theorems.oracle_spe_check": ("oracle", lambda: [
            d.oracle_agreement(ctx, rng.randrange(10 ** 6)) for _ in range(3)]),
        "corpus.verify_corpus": ("corpus", lambda: d.verify_corpus(ctx, ["fig1_basic"])),
        "cli.main": ("cli", cli),
    }
    out, built = [], set()
    for layer in d.LAYERS:
        tag, build = builders[layer]
        if layer in missing and tag not in built:
            built.add(tag)
            got = build()
            out += got if isinstance(got, list) else [got]
    return out


def _at_q(par, k):
    """Which cycles of a par_k spec start with their token on q."""
    return [par.init.get(f"{PAR}q{i}", 0) == 1 for i in range(k)]


def _complete(ctx, rng, main):
    """The round: the workload's own decisions, then small ones for the
    layers they leave out.  Only the former are the workload's instances."""
    covered = set().union(*(x.layers for x in main))
    small = small_layers(ctx, rng, set(d.LAYERS) - covered)
    for x in small:
        x.instance = False
    return main + small


# -- statespace -------------------------------------------------------------------------

def statespace(ctx):
    """Large reachability graphs: par_k (persistent, 2^k states) and
    fig1_basic + par_k (nonpersistent, 8 * 2^k states)."""
    rng = random.Random(ctx.seed)
    _par(ctx, rng, "par11", 11)
    _sum(ctx, rng, "fig1+par8", "fig1_basic", 8)
    _par(ctx, rng, "par8", 8)
    _reordered(ctx, rng, "par8.reordered", "par8")
    _sum(ctx, rng, "fig1+par5", "fig1_basic", 5)
    _par(ctx, rng, "par6", 6)
    _sum(ctx, rng, "fig1+par3", "fig1_basic", 3)
    _sum(ctx, rng, "fig1+par2", "fig1_basic", 2)
    _par(ctx, rng, "par4", 4, file=True)
    _expect_spe_holds(ctx, "fig1_basic", 6)
    for key, k in (("par11", 11), ("par8", 8), ("par6", 6), ("par4", 4)):
        graph = ctx.graph(key)
        require((len(graph.markings), len(graph.edges)) == par_closed_form(k)
                and graph.persistent and not graph.deadlocks, f"{key}: closed form")
    for key, k in (("fig1+par8", 8), ("fig1+par5", 5), ("fig1+par3", 3)):
        graph = ctx.graph(key)
        require((len(graph.markings), len(graph.edges)) == fig1_par_closed_form(k)
                and not graph.persistent, f"{key}: closed form")

    main = [
        d.persistence(ctx, "par11", *par_closed_form(11)),
        d.persistence(ctx, "fig1+par8", *fig1_par_closed_form(8)),
        d.round_trip(ctx, "par11"),
        d.round_trip(ctx, "fig1+par8"),
        d.lts_properties(ctx, "par8"),
        d.lts_properties(ctx, "fig1+par5"),
        d.isomorphic(ctx, "par8", "par8.reordered"),
        d.find_embedding(ctx, "par6", "nonpers"),
        d.find_embedding(ctx, "fig1+par3", "nonDC"),
        d.derive_nondc(ctx, "fig1+par2", 6),
        d.cli(ctx, ["pattern", ctx.files["par4"], "--name", "nonpers"],
              _check_truncated_pattern, env={"PERSINET_MAX_STATES": "5"}),
    ]
    return _complete(ctx, rng, main)


def _check_truncated_pattern(code, out):
    """Known fault: on a persistent net whose graph was cut off at 5
    states, `persinet pattern --name nonpers` exits 0 and claims the net is
    not persistent.  Correct is exit 3, or no such consequence."""
    if code == 3:
        return None
    require(code == 0, f"pattern on a truncated graph exited {code}")
    if "consequence: net is not persistent" in out:
        return d.FAULT
    return None


# -- runs ---------------------------------------------------------------------------------

def runs(ctx):
    """Finite and infinite runs on small concurrent nets with large run
    spaces; graphs stay at a few hundred states."""
    rng = random.Random(ctx.seed)
    _sum(ctx, rng, "fig1+par2", "fig1_basic", 2)
    _sum(ctx, rng, "fig10+par3", "fig10_fpe_not_spe", 3)
    _, at_q = _par(ctx, rng, "par4", 4)
    _sum(ctx, rng, "fig1+par3", "fig1_basic", 3)
    _sum(ctx, rng, "fig10+par3.none", "fig10_fpe_not_spe", 3)
    ctx.add("onecycle", ref.one_cycle_spec())
    _, par14 = _sum(ctx, rng, "fig14+par1", "fig14_counterexample", 1)
    _, par8 = _sum(ctx, rng, "fig8+par2", "fig8_variant", 2)
    _sum(ctx, rng, "fig1+par4", "fig1_basic", 4)

    _expect_spe_holds(ctx, "fig1_basic", 11)
    _expect_spe_holds(ctx, "fig14_counterexample", 6)
    ppe_found = {"c": 1, "d": 1, "a": 1}
    ppe_found.update({t: 3 for t in ctx.specs["fig1+par3"].transitions if t.startswith(PAR)})
    ppe_none = {"y": 1, "b": 1}
    ppe_none.update({t: 1 for t in ctx.specs["fig10+par3.none"].transitions
                     if t.startswith(PAR)})
    require(not any(ctx.specs["fig10+par3.none"].persistent_word(w)
                    for w in ref.realisations(ctx.specs["fig10+par3.none"], ppe_none)),
            "fig10+par3: the none case has a persistent realisation")

    fig14_cycle = ("x", "a1", "a2", "b", "c") + ref.par_word(1, PAR, _at_q(par14, 1))
    fig8_cycle = ("c", "d", "a", "e") + ref.par_word(2, PAR, _at_q(par8, 2))

    main = [
        d.spe(ctx, "fig1+par2", 7, "perm", "holds"),
        d.spe(ctx, "fig1+par2", 11, "parikh", "holds"),
        d.spe(ctx, "fig10+par3", 4, "perm", "refuted"),
        d.spe(ctx, "fig10+par3", 4, "parikh", "refuted"),
        d.equivalence_class(ctx, "par4", ref.par_word(4, PAR, at_q),
                            math.factorial(8) // 2 ** 4),
        d.persistent_parikh_equivalent(ctx, "fig1+par3", ppe_found, False),
        d.persistent_parikh_equivalent(ctx, "fig10+par3.none", ppe_none, True),
        d.recursion_fault(ctx, "onecycle", 1500),
        d.lasso_search(ctx, "fig14+par1", ("y",), fig14_cycle, "none",
                       max_prefix=5, max_cycle=7),
        d.lasso_search(ctx, "fig8+par2", (), fig8_cycle, "found", max_cycle=len(fig8_cycle)),
        d.pe_probe_matrix(ctx, "fig14+par1", [(("y",), fig14_cycle)], 6,
                          "holds-up-to-bound"),
        d.persistence(ctx, "fig1+par4", *fig1_par_closed_form(4)),
        d.fire_loop(ctx, "fig1+par4", 150),
        d.enabled_loop(ctx, "fig1+par4", 40),
    ]
    return _complete(ctx, rng, main)


# -- theorem-lab --------------------------------------------------------------------------

# the acceptance-suite distributions, all required to show zero violations
SUITES = (
    ("perm-implies-parikh", {}),
    ("persistence-factorisation", {}),
    ("CF-persistent", {"class_constraint": ("CF",)}),
    ("diamond-completion", {"class_constraint": ("pure", "plain"), "token_budget": 4}),
    ("EC-main", {"class_constraint": ("EC",)}),
    ("DC-main", {"class_constraint": ("pure", "plain")}),
    ("spe-implies-fpe-probe", {}),
)

ACCEPTANCE_SEEDS = range(1000)
ORACLE_NETS = 150
GRAPH_NETS = 1000


def theorem_lab(ctx):
    """Thousands of tiny random nets plus the corpus: per-net and per-call
    overhead dominates.

    The theorem instances are the acceptance suite's own: every suite over
    seeds 0..999, the range on which it certifies zero violations, in an
    order drawn from the seed.  The nets for the graph layers and the
    oracle comparison are fresh draws from the seed.
    """
    rng = random.Random(ctx.seed)
    main = []
    for theorem, cfg in SUITES:
        seeds = list(ACCEPTANCE_SEEDS)
        rng.shuffle(seeds)
        main += [d.theorem_instance(ctx, theorem, cfg, s) for s in seeds]
    base = 10 ** 6 * (ctx.seed + 1)
    for i in range(GRAPH_NETS):
        key = ("gen", i)
        main += [d.generate(ctx, key, base + i), d.persistence(ctx, key),
                 d.lts_properties(ctx, key), d.find_embedding(ctx, key, "nonpers"),
                 d.round_trip(ctx, key)]
    main += [d.oracle_agreement(ctx, base + GRAPH_NETS + i) for i in range(ORACLE_NETS)]
    main.append(d.verify_corpus(ctx))
    main += [
        d.cli(ctx, ["classify", "fig1_basic"], _check_cli_classify(ctx, "fig1_basic")),
        d.cli(ctx, ["persistence", "fig1_basic"], _check_cli_persistence(ctx, "fig1_basic")),
        d.cli(ctx, ["spe", "fig10_fpe_not_spe", "--bound", "2"],
              _check_cli_spe(ctx, "fig10_fpe_not_spe")),
        d.cli(ctx, ["pattern", "fig1_basic", "--name", "nonpers"],
              _check_cli_pattern(ctx, "fig1_basic")),
        d.cli(ctx, ["pe-matrix", "fig14_counterexample"], _check_cli_pe_matrix),
    ]
    # only (theorem, seed) checks are instances of this workload
    for x in main:
        x.instance = x.layers == {"theorems.gen_random_net", "theorems.check_theorem"}
    return _complete(ctx, rng, main)


# -- CLI output checks ------------------------------------------------------------------------

def _cli_ref(ctx, name):
    """Spec and reference graph of a corpus entry or of a registered net."""
    if name in ctx.specs:
        return ctx.specs[name], ctx.graph(name)
    spec = _corpus_spec(ctx, name)
    return spec, ref.Graph(spec)


def _lines(out):
    return [line.strip() for line in out.splitlines()]


def _check_cli_classify(ctx, name):
    spec, graph = _cli_ref(ctx, name)
    weights = [w for t in spec.transitions for w in (*spec.pre[t].values(),
                                                     *spec.post[t].values())]
    plain = all(w == 1 for w in weights)
    pure = not any(set(spec.pre[t]) & set(spec.post[t]) for t in spec.transitions)
    k = max(max(m) for m in graph.markings)

    def check(code, out):
        lines = _lines(out)
        require(code == 0, f"classify {name} exited {code}")
        for want in (f"plain: {'yes' if plain else 'no'}", f"pure: {'yes' if pure else 'no'}",
                     f"bounded: yes (k={k})", f"safe: {'yes' if k <= 1 else 'no'}"):
            require(any(line.startswith(want) for line in lines),
                    f"classify {name}: no line '{want}'")

    return check


def _check_cli_persistence(ctx, name):
    spec, graph = _cli_ref(ctx, name)

    def check(code, out):
        require(code == 0, f"persistence {name} exited {code}")
        if graph.persistent:
            require("persistent: yes" in out, f"persistence {name}: want yes")
            return
        match = re.search(r"witness: state M(\d+) .*firing (\S+) disables (\S+)", out)
        require("persistent: no" in out and match, f"persistence {name}: want a witness")
        i, t, u = int(match.group(1)), match.group(2), match.group(3)
        m = graph.markings[i]
        require(spec.enabled(m, t) and spec.enabled(m, u)
                and not spec.enabled(spec.fire(m, t), u),
                f"persistence {name}: witness M{i} {t} {u} does not replay")

    return check


def _check_cli_spe(ctx, name):
    spec, _ = _cli_ref(ctx, name)

    def check(code, out):
        require(code == 0 and "status: refuted" in out, f"spe {name}: want refuted")
        match = re.search(r"counterexample: (.*)", out)
        verdict = SimpleNamespace(status="refuted", counterexample=tuple(match.group(1).split()))
        ref.check_spe_counterexample(spec, verdict, "perm")

    return check


def _check_cli_pattern(ctx, name):
    _, graph = _cli_ref(ctx, name)

    def check(code, out):
        require(code == 0 and "embedding: found" in out, f"pattern {name}: want found")
        pairs = dict(re.findall(r"^\s+(\S+) -> (\S+)$", out, re.M))
        emb = SimpleNamespace(state_map={s: pairs[s] for s in ("1", "2", "3")},
                              label_map={a: pairs[a] for a in ("a", "b")})
        ref.check_embedding("nonpers", emb, graph.named_edges())

    return check


def _check_cli_pe_matrix(code, out):
    """fig14's fair run has no persistent equivalent: FPE is refuted within
    the bounds, and the implication table stays consistent."""
    require(code == 0 and "VIOLATION" not in out, f"pe-matrix exited {code}")
    require(re.search(r"^FPE:\s+refuted-within-bounds", out, re.M), "pe-matrix: FPE")


WORKLOADS = {"statespace": statespace, "runs": runs, "theorem-lab": theorem_lab}
