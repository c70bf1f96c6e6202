"""The decisions a workload issues, each a call (or a short chain of calls)
into persinet's public API plus the check of its answer.

A decision's `run` is timed and makes only program calls, each inside a
span named after the layer it enters.  Its `check` runs afterwards, outside
the timing, and compares the answer with the reference computations in
`reference.py` or with a property the method must have; it raises
`Mismatch`, or returns FAULT for an answer that shows one of the known
faults listed in README.md.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import reference as ref
from reference import Mismatch, require

FAULT = "known-fault"

# one span name per family of persinet calls; README.md lists their metrics
LAYERS = (
    "net.fire", "net.enabled_transitions",
    "lts.build_rg", "lts.persistence_check", "lts.lts_properties", "lts.isomorphic",
    "patterns.find_embedding", "patterns.derive_nonDC_embedding",
    "textio.lts_round_trip",
    "sequences.spe_perm", "sequences.spe_parikh", "sequences.equivalence_class",
    "sequences.persistent_parikh_equivalent",
    "fairness.lasso_search", "fairness.pe_probe_matrix",
    "theorems.gen_random_net", "theorems.check_theorem", "theorems.oracle_spe_check",
    "corpus.verify_corpus", "cli.main",
)


class Decision:
    """One timed operation of a workload.

    instance: counts towards the instance rate and latency quantiles.
    states: reachable states, set by the check of a build_rg +
    persistence_check decision (the path `persinet persistence` takes).
    """

    __slots__ = ("name", "run", "check", "layers", "instance", "states")

    def __init__(self, name, run, check, layers, instance=True):
        self.name = name
        self.run = run
        self.check = check
        self.layers = frozenset(layers)
        self.instance = instance
        self.states = 0


class Ctx:
    """A workload's inputs: reference specs, the nets persinet parsed from
    their documents, and per-round graphs shared by consecutive decisions."""

    def __init__(self, modules, seed, out_dir):
        self.pn, self.textio, self.cli, self.corpus = modules
        self.seed = seed
        self.out_dir = out_dir
        self.specs = {}
        self.docs = {}
        self.nets = {}
        self.files = {}
        self._graphs = {}
        self.rgs = {}
        self.generated = {}
        self._gen_refs = {}

    def add(self, key, spec, file=False):
        self.specs[key] = spec
        self.docs[key] = spec.doc()
        if file:
            path = os.path.join(self.out_dir, f"{key}.net")
            with open(path, "w") as fh:
                fh.write(self.docs[key])
            self.files[key] = path
        return key

    def parse_all(self):
        """The nets the decisions use, parsed by persinet from their documents."""
        self.nets = {key: self.textio.parse_net(doc) for key, doc in self.docs.items()}

    def graph(self, key):
        if key not in self._graphs:
            self._graphs[key] = ref.Graph(self.specs[key])
        return self._graphs[key]

    def rg(self, tr, key):
        """This round's reachability graph of a net, built on first use."""
        if key not in self.rgs:
            net = self.nets[key] if key in self.nets else self.generated[key]
            self.rgs[key] = build_rg(self, tr, net)
        return self.rgs[key]

    def ref(self, key):
        """Reference spec and graph of a net.  For a net made by the
        generator this round, the generator must give the identical net in
        every round."""
        if key in self.specs:
            return self.specs[key], self.graph(key)
        spec = ref.spec_of(self.generated[key])
        if key not in self._gen_refs:
            self._gen_refs[key] = (spec, ref.Graph(spec))
        first, graph = self._gen_refs[key]
        require(spec.doc() == first.doc(), f"{key}: generator is not deterministic")
        return first, graph


def build_rg(ctx, tr, net):
    with tr.span("lts.build_rg") as sp:
        rg, report = ctx.pn.build_rg(net)
        sp.add(report.state_count)
    return rg, report


# -- reachability graphs ---------------------------------------------------------

def persistence(ctx, key, states=None, edges=None):
    """build_rg + persistence_check; closed-form counts are checked when given."""

    def run(tr):
        ctx.rgs.pop(key, None)
        rg, report = ctx.rg(tr, key)
        return rg, report, tr.call("lts.persistence_check", ctx.pn.persistence_check, rg)

    def check(out):
        rg, report, verdict = out
        spec, graph = ctx.ref(key)
        ref.check_rg(rg, report, graph, spec)
        if states is not None:
            require(report.state_count == states and report.edge_count == edges,
                    f"{key}: {report.state_count}/{report.edge_count} states/edges, "
                    f"closed form {states}/{edges}")
        ref.check_persistence(verdict, rg, graph, spec)
        decision.states = len(graph.markings)

    decision = Decision(f"persistence {key}", run, check,
                        ("lts.build_rg", "lts.persistence_check"))
    return decision


def lts_properties(ctx, key):
    def run(tr):
        rg, _ = ctx.rg(tr, key)
        return tr.call("lts.lts_properties", ctx.pn.lts_properties, rg)

    def check(rep):
        graph = ctx.ref(key)[1]
        require(rep.finite and rep.totally_reachable and rep.deterministic,
                f"{key}: a reachability graph is finite, totally reachable, deterministic")
        want = tuple(f"M{i}" for i in graph.deadlocks)
        require(tuple(rep.deadlocks) == want, f"{key}: deadlocks {rep.deadlocks}, want {want}")

    return Decision(f"lts_properties {key}", run, check, ("lts.build_rg", "lts.lts_properties"))


def isomorphic(ctx, key, other):
    """The graph of a net against the graph of the same net declared in
    another transition order."""
    def run(tr):
        rg1, _ = ctx.rg(tr, key)
        rg2, _ = ctx.rg(tr, other)
        return rg1, rg2, tr.call("lts.isomorphic", ctx.pn.isomorphic, rg1, rg2)

    def check(out):
        rg1, rg2, verdict = out
        require(verdict.isomorphic, f"{key}: not isomorphic to {other}: {verdict.mismatch}")
        ref.check_iso_mapping(verdict.mapping, rg1, rg2)

    return Decision(f"isomorphic {key}", run, check, ("lts.build_rg", "lts.isomorphic"))


def round_trip(ctx, key):
    def run(tr):
        rg, _ = ctx.rg(tr, key)
        with tr.span("textio.lts_round_trip"):
            back = ctx.textio.parse_lts(ctx.textio.print_lts(rg))
        return rg, back

    def check(out):
        ref.check_same_lts(*out)

    return Decision(f"lts round trip {key}", run, check,
                    ("lts.build_rg", "textio.lts_round_trip"))


def find_embedding(ctx, key, pattern):
    """Expected found iff the reference says so: nonpers iff the net is not
    persistent; nonDC is asked only where it embeds."""
    def run(tr):
        rg, _ = ctx.rg(tr, key)
        return tr.call("patterns.find_embedding", ctx.pn.find_embedding,
                       ctx.pn.builtin_pattern(pattern), rg)

    def check(emb):
        graph = ctx.ref(key)[1]
        want = not graph.persistent if pattern == "nonpers" else True
        if not want:
            require(emb is None, f"{key}: {pattern} embedded in a persistent net")
            return
        ref.check_embedding(pattern, emb, graph.named_edges())

    return Decision(f"find_embedding {pattern} {key}", run, check,
                    ("lts.build_rg", "patterns.find_embedding"))


def derive_nondc(ctx, key, spe_bound):
    def run(tr):
        return tr.call("patterns.derive_nonDC_embedding", ctx.pn.derive_nonDC_embedding,
                       ctx.nets[key], spe_bound=spe_bound)

    def check(d):
        ref.check_embedding("nonDC", d.embedding, ctx.graph(key).named_edges())

    return Decision(f"derive_nonDC {key}", run, check, ("patterns.derive_nonDC_embedding",))


# -- firing kernel ------------------------------------------------------------------

def fire_loop(ctx, key, passes):
    """Public fire on every (marking, enabled transition) of a fixed graph."""
    spec, graph = ctx.specs[key], ctx.graph(key)
    pairs = [(m, t) for m in graph.markings for t in spec.enabled_list(m)]
    want = [spec.fire(m, t) for m, t in pairs]

    def run(tr):
        fire, net, out = ctx.pn.fire, ctx.nets[key], [None] * len(pairs)
        with tr.span("net.fire") as sp:
            for _ in range(passes):
                for i, (m, t) in enumerate(pairs):
                    out[i] = fire(net, m, t)
            sp.add(passes * len(pairs))
        return out

    def check(out):
        require(out == want, f"{key}: fire disagrees with the reference firing rule")

    return Decision(f"fire loop {key}", run, check, ("net.fire",))


def enabled_loop(ctx, key, passes):
    """Public enabled_transitions at every marking of a fixed graph."""
    spec, graph = ctx.specs[key], ctx.graph(key)
    marks = graph.markings
    want = [tuple(spec.enabled_list(m)) for m in marks]

    def run(tr):
        enabled, net, out = ctx.pn.enabled_transitions, ctx.nets[key], [None] * len(marks)
        with tr.span("net.enabled_transitions") as sp:
            for _ in range(passes):
                for i, m in enumerate(marks):
                    out[i] = enabled(net, m)
            sp.add(passes * len(marks))
        return out

    def check(out):
        require(out == want, f"{key}: enabled_transitions disagrees with the reference")

    return Decision(f"enabled loop {key}", run, check, ("net.enabled_transitions",))


# -- sequences ------------------------------------------------------------------------

def spe(ctx, key, bound, mode, expect):
    """expect "holds" rests on a brute-force check made when the workload is
    built; a refutation is replayed and brute-forced here."""
    span = "sequences.spe_perm" if mode == "perm" else "sequences.spe_parikh"

    def run(tr):
        with tr.span(span) as sp:
            verdict = ctx.pn.spe_check(ctx.nets[key], bound, mode)
            sp.add(verdict.searched_count)
        return verdict

    def check(verdict):
        if expect == "holds":
            require(verdict.status == "holds-up-to-bound",
                    f"{key}: spe {mode} bound {bound}: {verdict.status} "
                    f"{verdict.counterexample}")
        else:
            ref.check_spe_counterexample(ctx.specs[key], verdict, mode)

    return Decision(f"spe {mode} {key} bound {bound}", run, check, (span,))


def equivalence_class(ctx, key, word, size):
    def run(tr):
        net = ctx.nets[key]
        return tr.call("sequences.equivalence_class", ctx.pn.equivalence_class,
                       net, net.initial, word)

    def check(members):
        spec = ctx.specs[key]
        require(len(members) == size, f"{key}: class of {len(members)} words, want {size}")
        require(tuple(word) in members, f"{key}: class misses its own word")
        counts = ref.parikh(word)
        for w in members:
            require(ref.parikh(w) == counts and spec.run(w) is not None,
                    f"{key}: class member {' '.join(w)} is not a firable permutation")

    return Decision(f"equivalence_class {key}", run, check, ("sequences.equivalence_class",))


def persistent_parikh_equivalent(ctx, key, counts, expect_none):
    def run(tr):
        net = ctx.nets[key]
        return tr.call("sequences.persistent_parikh_equivalent",
                       ctx.pn.persistent_parikh_equivalent, net, net.initial, counts)

    def check(word):
        if expect_none:
            require(word is None, f"{key}: found {word}, no persistent realisation exists")
            return
        spec = ctx.specs[key]
        require(word is not None, f"{key}: no persistent realisation returned")
        require(ref.parikh(word) == {t: n for t, n in counts.items() if n},
                f"{key}: wrong letter counts")
        require(spec.persistent_word(word), f"{key}: {' '.join(word)} is not persistent")

    return Decision(f"persistent_parikh_equivalent {key}", run, check,
                    ("sequences.persistent_parikh_equivalent",))


def recursion_fault(ctx, key, n):
    """Known fault: the recursive search raises RecursionError on a
    2n-letter vector of a one-cycle net, whose only realisation is (a b)^n."""
    def run(tr):
        net = ctx.nets[key]
        try:
            return tr.call("sequences.persistent_parikh_equivalent",
                           ctx.pn.persistent_parikh_equivalent, net, net.initial,
                           {"a": n, "b": n})
        except RecursionError:
            return FAULT

    def check(word):
        if word == FAULT:
            return FAULT
        require(word == ("a", "b") * n, f"{key}: expected (a b)^{n}")
        return None

    return Decision(f"persistent_parikh_equivalent {key} {2 * n} letters", run, check,
                    ("sequences.persistent_parikh_equivalent",))


# -- fairness --------------------------------------------------------------------------

def lasso_search(ctx, key, prefix, cycle, expect, **bounds):
    """expect "found": the returned lasso is checked with the reference
    firing rule.  expect "none": the input is the paper's fair run with no
    persistent equivalent, so none may be found."""
    def run(tr):
        net = ctx.nets[key]
        lasso = ctx.pn.Lasso(prefix, cycle)
        return tr.call("fairness.lasso_search", ctx.pn.search_persistent_equivalent_lasso,
                       net, lasso, **bounds)

    def check(result):
        if expect == "none":
            require(result.status == "none-within-bounds" and result.lasso is None,
                    f"{key}: found {result.lasso} for a run with no persistent equivalent")
            return
        spec = ctx.specs[key]
        require(result.status == "found" and result.lasso is not None,
                f"{key}: no persistent equivalent found")
        pre, cyc = result.lasso.prefix, result.lasso.cycle
        entry = spec.run(pre)
        require(entry is not None and spec.run(cyc, entry) == entry,
                f"{key}: {result.lasso} is not a lasso of the net")
        require(spec.persistent_word(pre + cyc + cyc), f"{key}: {result.lasso} not persistent")
        base, got = ref.parikh(cycle), ref.parikh(cyc)
        k = len(cyc) // len(cycle)
        require({t: k * n for t, n in base.items()} == got,
                f"{key}: cycle letters are not a multiple of the input cycle's")
        require(set(pre) <= set(cycle) | set(prefix), f"{key}: prefix adds letters")

    return Decision(f"lasso search {key}", run, check, ("fairness.lasso_search",))


def pe_probe_matrix(ctx, key, probes, sequence_len, expect_spe):
    """Each row must respect fair => just => progress; a lasso row's
    persistence agrees with the reference; SPE statuses are brute-forced."""
    def run(tr):
        net = ctx.nets[key]
        runs = [ctx.pn.Lasso(p, c) for p, c in probes]
        bounds = ctx.pn.AnalysisBounds(sequence_len=sequence_len)
        return tr.call("fairness.pe_probe_matrix", ctx.pn.pe_probe_matrix, net, runs, bounds)

    def check(matrix):
        spec = ctx.specs[key]
        require(matrix.spe.status == expect_spe and matrix.spe_parikh.status == expect_spe,
                f"{key}: SPE {matrix.spe.status}/{matrix.spe_parikh.status}, want {expect_spe}")
        require(len(matrix.probes) == len(probes), f"{key}: probe rows missing")
        for row, (p, c) in zip(matrix.probes, probes):
            require(not row.fair or row.just, f"{key}: fair but not just")
            require(not row.just or row.progress, f"{key}: just but lacks progress")
            require(row.persistent == spec.persistent_word(p + c + c),
                    f"{key}: persistence of {p} ; {c}")

    return Decision(f"pe_probe_matrix {key}", run, check, ("fairness.pe_probe_matrix",))


# -- theorem lab -------------------------------------------------------------------------

def theorem_instance(ctx, theorem, cfg, seed):
    """gen_random_net + check_theorem on an acceptance-suite distribution
    and seed, where every theorem must show zero violations."""
    constraint = cfg.get("class_constraint", ())

    def run(tr):
        pn = ctx.pn
        config = pn.GenConfig(seed=seed, **cfg)
        try:
            net = tr.call("theorems.gen_random_net", pn.gen_random_net, config)
        except pn.ResourceExceededError:
            return None, None  # the generator's rejection budget: a skip
        return net, tr.call("theorems.check_theorem", pn.check_theorem, theorem, net, seed=seed)

    def check(out):
        net, report = out
        if net is None:
            return
        require(not report.violations, f"{theorem} seed {seed}: {report.violations[:1]}")
        ref.check_constraints(ref.spec_of(net), constraint)

    return Decision(f"{theorem} seed {seed}", run, check,
                    ("theorems.gen_random_net", "theorems.check_theorem"))


def generate(ctx, key, seed):
    """A default-configuration random net for the graph decisions after it."""
    def run(tr):
        pn = ctx.pn
        ctx.generated[key] = tr.call("theorems.gen_random_net", pn.gen_random_net,
                                     pn.GenConfig(seed=seed))
        return ctx.generated[key]

    def check(net):
        ref.check_constraints(ref.spec_of(net), ())

    return Decision(f"generate {key}", run, check, ("theorems.gen_random_net",))


def oracle_agreement(ctx, seed):
    """Criterion-10 distribution: fast spe_check against the shipped oracle."""
    cfg = dict(places=3, transitions=3, token_budget=2)

    def run(tr):
        pn = ctx.pn
        net = tr.call("theorems.gen_random_net", pn.gen_random_net,
                      pn.GenConfig(seed=seed, **cfg))
        _, report = build_rg(ctx, tr, net)
        if report.status != "bounded" or report.state_count > 9:
            return net, []
        bound = min(report.state_count + 1, 6)
        pairs = []
        for mode in (pn.SPE, pn.SPE_PARIKH):
            span = "sequences.spe_perm" if mode == pn.SPE else "sequences.spe_parikh"
            with tr.span(span) as sp:
                fast = pn.spe_check(net, bound, mode)
                sp.add(fast.searched_count)
            slow = tr.call("theorems.oracle_spe_check", pn.oracle_spe_check, net, bound, mode)
            pairs.append((mode, fast, slow))
        return net, pairs

    def check(out):
        net, pairs = out
        for mode, fast, slow in pairs:
            require((fast.status, fast.counterexample) == (slow.status, slow.counterexample),
                    f"seed {seed} {mode}: fast {fast.status} {fast.counterexample}, "
                    f"oracle {slow.status} {slow.counterexample}")
            if fast.refuted:
                ref.check_spe_counterexample(ref.spec_of(net), fast, mode)

    return Decision(f"oracle agreement seed {seed}", run, check,
                    ("theorems.gen_random_net", "lts.build_rg", "sequences.spe_perm",
                     "sequences.spe_parikh", "theorems.oracle_spe_check"))


def verify_corpus(ctx, names=None):
    def run(tr):
        return tr.call("corpus.verify_corpus", ctx.pn.verify_corpus, names)

    def check(results):
        bad = [f"{r.entry}: {r.description}" for r in results if not r.ok]
        require(results and not bad, f"corpus claims failed: {bad[:3]}")

    return Decision(f"verify_corpus {names or 'all'}", run, check, ("corpus.verify_corpus",))


def cli(ctx, argv, check_output, env=None):
    """persinet.cli.main in process; check_output(code, stdout) checks it."""
    env = env or {}

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            with tr.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
                try:
                    code = ctx.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return code, out.getvalue()

    def check(out):
        return check_output(*out)

    shown = " ".join(os.path.basename(a) for a in argv)
    return Decision(f"cli {shown}", run, check, ("cli.main",))
