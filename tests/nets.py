"""The par_k nets the test modules and the CI workflow share.

    PYTHONPATH=src python tests/nets.py DIR K...

writes par<K>.net into DIR for each K.
"""

import os
import sys

from persinet.net import Net


def par(k):
    """k disjoint one-token cycles p_i -> a_i -> q_i -> b_i -> p_i: a pure,
    plain, choice-free and persistent net with 2^k reachable markings."""
    arcs = [arc for i in range(k) for arc in (
        (f"p{i}", f"a{i}", 1), (f"a{i}", f"q{i}", 1),
        (f"q{i}", f"b{i}", 1), (f"b{i}", f"p{i}", 1))]
    return Net(f"par{k}", [f"{x}{i}" for i in range(k) for x in "pq"],
               [f"{x}{i}" for i in range(k) for x in "ab"], arcs,
               {f"p{i}": 1 for i in range(k)})


def par_doc(k):
    """par(k) as a net document, one cycle after another."""
    lines = [f"net par{k}"]
    for i in range(k):
        lines += [f"place p{i} init 1", f"place q{i}", f"trans a{i}", f"trans b{i}",
                  f"arc p{i} -> a{i}", f"arc a{i} -> q{i}",
                  f"arc q{i} -> b{i}", f"arc b{i} -> p{i}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    for k in map(int, sys.argv[2:]):
        with open(os.path.join(sys.argv[1], f"par{k}.net"), "w") as f:
            f.write(par_doc(k))
