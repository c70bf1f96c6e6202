"""Command-line surface.

Net and LTS arguments accept either a file path or the name of an embedded
corpus entry.  Reports are line-oriented plain text; --dump additionally
writes one canonical machine-readable serialization with a versioned
header.  Exit codes: 0 verdict computed, 2 input error, 3 resource bound
hit, 4 internal invariant broken.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import corpus, fairness, lts as lts_mod, net as net_mod, patterns, sequences
from . import textio, theorems
from .errors import InputError, PersinetError, ResourceExceededError

DUMP_HEADER = {"format": "persinet-report", "version": 1}


def _load_net(spec):
    net, _ = _load_lts_or_net(spec)
    if net is None:
        raise InputError(f"'{spec}' is an LTS document; this command needs a net")
    return net


def _load_lts_or_net(spec):
    """(net, lts): nets get their reachability graph on demand."""
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        head = next((line.split()[0] for line in text.splitlines()
                     if line.strip() and not line.lstrip().startswith("#")), "")
        if head == "lts":
            return None, textio.parse_lts(text)
        return textio.parse_net(text), None
    if spec in corpus.corpus_names():
        entry = corpus.corpus_load(spec)
        return entry.net, entry.lts
    raise InputError(f"'{spec}' is neither a file nor a corpus entry")


def _dump(args, payload):
    if not getattr(args, "dump", None):
        return
    doc = dict(DUMP_HEADER)
    doc["report"] = _plain(payload)
    with open(args.dump, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_plain(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _flag_text(value):
    return {True: "yes", False: "no", None: "n/a"}[value]


def cmd_classify(args):
    net = _load_net(args.net)
    report = net_mod.classify_structure(net)
    _, bound = lts_mod.build_rg(net, args.max_states)
    print(f"net {net.name}: {len(net.places)} places, {len(net.transitions)} transitions")
    for flag in (f.name for f in dataclasses.fields(report) if f.name != "witnesses"):
        line = f"{flag}: {_flag_text(report.flag(flag))}"
        if report.flag(flag) is False and flag in report.witnesses:
            line += f"   witness: {report.witnesses[flag]}"
        print(line)
    if bound.status == "bounded":
        print(f"bounded: yes (k={bound.k_bound})")
        print(f"safe: {_flag_text(bound.safe)}")
    else:
        print(f"bounded: not certified within {bound.cutoff} states")
    _dump(args, {"classify": report, "bound": bound})


def cmd_rg(args):
    net = _load_net(args.net)
    graph, bound = lts_mod.build_rg(net, args.max_states)
    print(f"states: {bound.state_count}")
    print(f"edges: {bound.edge_count}")
    print(f"status: {bound.status}")
    deadlocks = graph.deadlocks()
    if bound.status == "bounded":
        print(f"k_bound: {bound.k_bound}")
        print(f"safe: {_flag_text(bound.safe)}")
    print(f"deadlocks: {' '.join(deadlocks) or '-'}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(textio.emit_dot(graph))
        print(f"dot written to {args.dot}")
    _dump(args, {"bound": bound, "deadlocks": list(deadlocks)})


def cmd_persistence(args):
    net = _load_net(args.net)
    graph, report = lts_mod.build_rg(net, args.max_states)
    try:  # a witness on a cut-off graph is exact and replays
        verdict = lts_mod.persistence_check(graph)
    except ResourceExceededError:
        raise lts_mod._cut_off(net, report) from None
    if verdict.persistent:
        print("persistent: yes")
    else:
        s, t, u = verdict.witness
        print("persistent: no")
        print(f"witness: state {s} (marking {net.marking_dict(graph.payload[s])}), "
              f"firing {t} disables {u}")
    _dump(args, verdict)


def cmd_seq(args):
    net = _load_net(args.net)
    run = textio.parse_sequence(args.run)
    if args.parikh:
        counts = sequences.parikh(run)
        print(" ".join(f"{t}:{counts.get(t, 0)}" for t in net.transitions))
        _dump(args, counts)
        return
    if args.persistence:
        verdict = sequences.sequence_persistence(net, net.initial, run)
        if verdict.persistent:
            print("persistent: yes")
        else:
            print("persistent: no")
            print(f"failing_index: {verdict.failing_index}")
            print(f"disables: {verdict.disabled_transition}")
        _dump(args, verdict)
        return
    end = net_mod.fire_sequence(net, net.initial, run)
    print(f"marking: {net.marking_dict(end) or {}}")
    _dump(args, {"marking": net.marking_dict(end)})


def cmd_equiv(args):
    net = _load_net(args.net)
    got = sequences.perm_equivalent(
        net, net.initial, textio.parse_sequence(args.a), textio.parse_sequence(args.b))
    print(f"equivalent: {_flag_text(got)}")
    _dump(args, {"equivalent": got})


def cmd_spe(args):
    net = _load_net(args.net)
    mode = sequences.SPE_PARIKH if args.parikh else sequences.SPE
    verdict = sequences.spe_check(net, args.bound, mode)
    print(f"mode: {'short Parikh equivalence' if args.parikh else 'short permutation equivalence'}")
    print(f"status: {verdict.status}")
    if verdict.counterexample:
        print(f"counterexample: {' '.join(verdict.counterexample)}")
    print(f"sequences searched: {verdict.searched_count}")
    _dump(args, verdict)


def cmd_pattern(args):
    net, graph = _load_lts_or_net(args.target)
    if args.derive_nondc:
        if net is None:
            raise InputError("--derive-nondc needs a net, not an LTS")
        derivation = patterns.derive_nonDC_embedding(net, spe_bound=args.bound)
        print("embedding found (constructed)" if derivation.via_construction
              else "embedding found (by search)")
        for s in sorted(derivation.embedding.state_map):
            print(f"  {s} -> {derivation.embedding.state_map[s]}")
        for a in sorted(derivation.embedding.label_map):
            print(f"  {a} -> {derivation.embedding.label_map[a]}")
        _dump(args, derivation.embedding)
        return
    if args.file:
        with open(args.file) as fh:
            pattern = textio.parse_pattern(fh.read())
    elif args.name:
        pattern = patterns.builtin_pattern(args.name)
    else:
        raise InputError("give --name or --file")
    if graph is None:
        graph, _ = lts_mod.complete_rg(net)
    emb = patterns.find_embedding(pattern, graph)
    if emb is None:
        print("embedding: none")
    else:
        print("embedding: found")
        for s in pattern.states:
            print(f"  {s} -> {emb.state_map[s]}")
        for a in pattern.labels:
            print(f"  {a} -> {emb.label_map[a]}")
        if args.name:  # the built-in pattern searched, never a file's
            print(f"consequence: {patterns._CONSEQUENCES[args.name]}")
    _dump(args, emb)


def cmd_fairness(args):
    net = _load_net(args.net)
    lasso = textio.parse_lasso(args.lasso)
    regime = (fairness.MAXIMAL_FINITE_IS_FAIR if args.regime == "maximal"
              else fairness.FINITE_IS_FAIR)
    report = fairness.fairness_classify(net, lasso, regime)
    print(f"strongly_fair: {_flag_text(report.strongly_fair)}")
    print(f"weakly_fair: {_flag_text(report.weakly_fair)}")
    print(f"progress: {_flag_text(report.progress)}")
    for t, tag in report.neglected.items():
        print(f"  {t}: {tag}")
    if args.search_equivalent:
        result = fairness.search_persistent_equivalent_lasso(net, lasso)
        # exact, as in probe_run: the search returns a persistent input
        # unchanged and builds persistent candidates only
        persistent = result.lasso == lasso
    else:
        persistent = fairness.lasso_persistence(net, lasso).persistent
    print(f"persistent: {_flag_text(persistent)}")
    payload = {"fairness": report, "persistent": persistent}
    if args.search_equivalent:
        print(f"persistent equivalent: {result.status}"
              + (f" ({result.lasso})" if result.lasso else ""))
        payload["search"] = result
    _dump(args, payload)


def cmd_pe_matrix(args):
    net = _load_net(args.net)
    if args.probes:
        with open(args.probes) as fh:
            lines = [" ".join(words) for _, words in textio._lines(fh.read())]
    elif args.net in corpus.corpus_names():
        lines = corpus.corpus_load(args.net).probes
    else:
        lines = []
    probe_runs = [textio.parse_lasso(l) if ";" in l else textio.parse_sequence(l)
                  for l in lines]
    result = theorems.implication_matrix(net, probe_runs)
    print(f"SPE:  {result.matrix.spe.status}")
    print(f"SPE~: {result.matrix.spe_parikh.status}")
    for notion in ("APE", "JPE", "FPE"):
        line = f"{notion}:  {result.evidence[notion]}"
        if notion in result.witnesses:
            line += f"   witness: {result.witnesses[notion]}"
        print(line)
    for row in result.matrix.probes:
        run = str(row.run) if isinstance(row.run, fairness.Lasso) else " ".join(row.run)
        print(f"probe [{run}]: fair={_flag_text(row.fair)} just={_flag_text(row.just)} "
              f"progress={_flag_text(row.progress)} persistent={_flag_text(row.persistent)} "
              f"equivalent={row.equivalent}")
    for violation in result.violations:
        print(f"VIOLATION: {violation}")
    _dump(args, {"evidence": result.evidence, "violations": result.violations})
    if result.violations:
        sys.exit(4)


def cmd_verify_corpus(args):
    names = args.entries or corpus.corpus_names()
    results = corpus.verify_corpus(names)
    failed = 0
    for r in results:
        mark = "ok" if r.ok else "FAIL"
        line = f"[{mark}] {r.entry}: {r.description}"
        if not r.ok and r.detail:
            line += f"   ({r.detail})"
        print(line)
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    _dump(args, results)
    if failed:
        sys.exit(4)


def _gen_config(path):
    """The GenConfig a JSON object file describes; anything else is bad input."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise InputError(f"config '{path}' is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"config '{path}' must hold a JSON object")
    unknown = sorted(doc.keys() - {f.name for f in dataclasses.fields(theorems.GenConfig)})
    if unknown:
        raise InputError(f"config '{path}': unknown keys {unknown}")
    try:
        return theorems.GenConfig(**doc)
    except InputError as exc:
        raise InputError(f"config '{path}': {exc}") from None


def _seed_range(text):
    try:
        lo, hi = map(int, text.split(".."))
        if not 0 <= lo <= hi:  # GenConfig takes no negative seed
            raise ValueError
    except ValueError:
        raise InputError(f"--seeds wants LO..HI with 0 <= LO <= HI, got '{text}'") from None
    return range(lo, hi + 1)


def cmd_explore(args):
    cfg = _gen_config(args.config) if args.config else theorems.GenConfig()
    seeds = _seed_range(args.seeds)
    report = theorems.run_theorem_suite(args.theorem, cfg, seeds)
    print(f"theorem: {report.theorem}")
    print(f"instances: {report.instances}")
    print(f"confirmations: {report.confirmations}")
    print(f"skips: {len(report.skips)}")
    print(f"violations: {len(report.violations)}")
    for v in report.violations:
        print(f"VIOLATION: {v}")
    print(f"wall_time: {report.wall_time:.2f}s")
    if report.slowest:
        print("slowest seeds: " + ", ".join(f"{seed} ({seconds:.3f}s)"
                                            for seed, seconds in report.slowest))
    _dump(args, report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="persinet",
        description="Petri net persistence and permutation-equivalence analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--dump", metavar="FILE",
                       help="also write a machine-readable report")
        return p

    p = add("classify", cmd_classify, help="structural class flags and bounds")
    p.add_argument("net")
    p.add_argument("--max-states", type=int, default=None)

    p = add("rg", cmd_rg, help="build the reachability graph")
    p.add_argument("net")
    p.add_argument("--max-states", type=int, default=None)
    p.add_argument("--dot", metavar="FILE")

    p = add("persistence", cmd_persistence, help="net-level persistence verdict")
    p.add_argument("net")
    p.add_argument("--max-states", type=int, default=None)

    p = add("seq", cmd_seq, help="fire a sequence; optionally analyse it")
    p.add_argument("net")
    p.add_argument("--run", required=True)
    p.add_argument("--persistence", action="store_true")
    p.add_argument("--parikh", action="store_true")

    p = add("equiv", cmd_equiv, help="permutation equivalence of two sequences")
    p.add_argument("net")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("spe", cmd_spe, help="bounded short-persistent-equivalence check")
    p.add_argument("net")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--parikh", action="store_true",
                   help="demand Parikh equivalents instead of permutations")

    p = add("pattern", cmd_pattern, help="embed a pattern into a graph")
    p.add_argument("target", help="net or LTS (file or corpus name)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--name", choices=("nonpers", "nonDC"))
    which.add_argument("--file")
    p.add_argument("--derive-nondc", action="store_true")
    p.add_argument("--bound", type=int, default=8,
                   help="sequence bound for the derivation premise check")

    p = add("fairness", cmd_fairness, help="classify a lasso run")
    p.add_argument("net")
    p.add_argument("--lasso", required=True, metavar='"PREFIX ; CYCLE"')
    p.add_argument("--regime", choices=("maximal", "finite"), default="maximal")
    p.add_argument("--search-equivalent", action="store_true")

    p = add("pe-matrix", cmd_pe_matrix, help="evidence table for APE/JPE/FPE/SPE")
    p.add_argument("net")
    p.add_argument("--probes", metavar="FILE")

    p = add("verify-corpus", cmd_verify_corpus, help="replay the corpus manifests")
    p.add_argument("entries", nargs="*")

    p = add("explore", cmd_explore, help="run a theorem over seeded random nets")
    p.add_argument("--config", metavar="FILE")
    p.add_argument("--seeds", default="0..49",
                   help="inclusive range of seeds >= 0, e.g. 0..999")
    p.add_argument("--theorem", required=True, choices=theorems.THEOREM_IDS)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except PersinetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
