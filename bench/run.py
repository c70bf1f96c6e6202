#!/usr/bin/env python3
"""persinet benchmark.

    python3 bench/run.py --workload statespace|runs|theorem-lab \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; persinet is imported from ./src.
The inputs are made from the seed.  The run times seven set-ups (importing
persinet afresh and parsing the workload's net documents), then repeats
whole rounds of the workload's decisions until S seconds have passed,
checking every answer.  Every time is scaled to a reference host speed by a
speed probe (`Clock`).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from spans around every call into persinet; the spans are
also written to bench/out/trace-<workload>.json.  README.md defines every
metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 7
# The speed probe takes PROBE_REF_S at the reference speed (this host's fast
# state); one runs at least every PROBE_EVERY_S.
PROBE_ITERATIONS = 2000
PROBE_REF_S = 0.0015
PROBE_EVERY_S = 0.1

sys.path.insert(0, HERE)

from decisions import FAULT, LAYERS, Ctx  # noqa: E402
from reference import Mismatch, par_spec, par_word, perm_class  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE_NET = par_spec(3, "z", [False] * 3)
PROBE_WORD = par_word(3, "z", [False] * 3)

# per-layer metric -> (span name, how the round value is derived, unit)
LAYER_METRICS = {}
for _span in LAYERS:
    if _span.startswith("net."):
        LAYER_METRICS[_span + "_us"] = (_span, "us_per_call", "us")
    else:
        LAYER_METRICS[_span + "_s"] = (_span, "self_s", "s")
LAYER_METRICS["lts.build_rg_states_per_s"] = ("lts.build_rg", "count_per_s", "states/s")
LAYER_METRICS["sequences.spe_perm_searched"] = ("sequences.spe_perm", "count", "count")
LAYER_METRICS["sequences.spe_parikh_searched"] = ("sequences.spe_parikh", "count", "count")


def _persinet_modules():
    return [m for m in sys.modules if m == "persinet" or m.startswith("persinet.")]


def import_persinet():
    """The persinet modules the decisions call, imported from ./src."""
    pn = importlib.import_module("persinet")
    if not os.path.abspath(pn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"persinet imported from {pn.__file__}, not from {SRC}")
    return (pn, importlib.import_module("persinet.textio"),
            importlib.import_module("persinet.cli"), importlib.import_module("persinet.corpus"))


def probe():
    """Seconds taken by a fixed slice of interpreter work like persinet's
    searches (dict and tuple traffic, then a permutation-class search with
    the reference firing rule); it tracks the host's speed."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(PROBE_ITERATIONS):
        table[(i, i & 7)] = acc
        acc += len(table) & 3
    perm_class(PROBE_NET, PROBE_WORD)
    return time.perf_counter() - t0


class Clock:
    """Scales measured seconds to the reference speed.

    A probe runs at least every PROBE_EVERY_S of the run, between
    decisions.  Each time measured since the last probe is multiplied by
    PROBE_REF_S over the mean of that probe and the next one.
    """

    def __init__(self):
        self.last = probe()
        self.last_at = time.perf_counter()
        self.pending = []

    def add(self, row):
        """row[0] holds raw seconds; it is rescaled at the next probe."""
        self.pending.append(row)
        if time.perf_counter() - self.last_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        p = probe()
        scale = 2 * PROBE_REF_S / (self.last + p)
        for row in self.pending:
            row[0] *= scale
            row[2] = scale
        self.pending.clear()
        self.last, self.last_at = p, time.perf_counter()


def time_setup(ctx):
    """Scaled seconds of one set-up as a user pays it: import persinet
    afresh and parse every net document of the workload.  The modules in
    use are put back afterwards, so the decisions keep calling the same
    code."""
    kept = {name: sys.modules.pop(name) for name in _persinet_modules()}
    try:
        before = probe()
        t0 = time.perf_counter()
        parse = importlib.import_module("persinet.cli").textio.parse_net
        for doc in ctx.docs.values():
            parse(doc)
        seconds = time.perf_counter() - t0
        return seconds * 2 * PROBE_REF_S / (before + probe())
    finally:
        for name in _persinet_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_round(decisions, tracer, errors):
    """One pass over the decisions; returns [scaled seconds, verdict,
    scale, decision span id] per decision."""
    rows = []
    clock = Clock()
    with tracer.span("round"):
        for dec in decisions:
            with tracer.span("decision") as sp:
                t0 = time.perf_counter()
                try:
                    out, raised = dec.run(tracer), False
                except Exception:  # any escape is a wrong answer; keep measuring
                    errors.append(f"{dec.name}: raised\n{traceback.format_exc()}")
                    out, raised = None, True
                dt = time.perf_counter() - t0
            row = [dt, "error" if raised else None, 1.0, sp.id]
            rows.append(row)
            if not raised:
                try:
                    row[1] = dec.check(out)
                except Mismatch as exc:
                    errors.append(f"{dec.name}: {exc}")
                    row[1] = "error"
            clock.add(row)
    clock.flush()
    return rows


def typical(rounds):
    """Each decision's median scaled time over the run's rounds."""
    return [statistics.median(rows[i][0] for rows in rounds) for i in range(len(rounds[0]))]


def end_to_end(decisions, times, setup_times):
    inst = [t for dec, t in zip(decisions, times) if dec.instance]
    pers = [(dec.states, t) for dec, t in zip(decisions, times) if dec.states]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "persistence_states_per_s": (sum(s for s, _ in pers) / sum(t for _, t in pers),
                                     "states/s"),
        "instances_per_s": (len(inst) / sum(inst), "1/s"),
        "instance_p50_ms": (quantile(inst, 50) * 1e3, "ms"),
        "instance_p99_ms": (quantile(inst, 99) * 1e3, "ms"),
    }


def decision_scales(rounds):
    """Decision span id -> the speed-probe factor of that decision."""
    return {row[3]: row[2] for rows in rounds for row in rows}


def per_layer(tracer, rounds, times):
    by_round = tracer.self_times(decision_scales(rounds))
    out = {}
    for metric, (span, kind, unit) in LAYER_METRICS.items():
        values = []
        for rnd in sorted(by_round):
            self_s, count, n = by_round[rnd].get(span, (0.0, 0, 0))
            if not n:
                raise SystemExit(f"benchmark defect: round {rnd} made no {span} span")
            if kind == "self_s":
                values.append(self_s)
            elif kind == "us_per_call":
                values.append(self_s / count * 1e6)
            elif kind == "count_per_s":
                values.append(count / self_s)
            else:
                values.append(count)
        out[metric] = (statistics.median(values), unit)
    out["trace.round_s"] = (sum(times), "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "persinet", "__init__.py")):
        print(f"error: no persinet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    ctx = Ctx(import_persinet(), args.seed, OUT)
    decisions = WORKLOADS[args.workload](ctx)
    ctx.parse_all()
    setup_times = [time_setup(ctx) for _ in range(SETUP_REPS)]

    # the benchmark's own references stay alive for the whole run; keep the
    # collector from re-scanning them while persinet is timed
    gc.collect()
    gc.freeze()
    tracer = Tracer(bool(args.trace))
    errors, rounds = [], []
    start = time.perf_counter()
    while True:
        ctx.rgs.clear()
        ctx.generated.clear()
        tracer.round = len(rounds)
        rounds.append(run_round(decisions, tracer, errors))
        if time.perf_counter() - start >= args.seconds:
            break

    attempted = sum(len(rows) for rows in rounds)
    failed = sum(1 for rows in rounds for row in rows if row[1] == FAULT)
    for line in errors[:5]:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, rounds, typical(rounds))
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.json"), decision_scales(rounds))
    else:
        metrics = end_to_end(decisions, typical(rounds), setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"{'rounds':40s} {len(rounds):16d}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
