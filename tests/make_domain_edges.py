"""Write tests/data/domain_edge128.json and domain_edge129.json.

    python tests/make_domain_edges.py

Seeded punctures drawn uniformly in the unit disk, as [x, y] pairs: 128,
the most for which rho_bounds and sigma_lower read a sorted table of
the distances (N(N-1) <= bounds._TABLE_CELLS), and the same 128 with
one more, the fewest for which they run the pruned search.  The pinned
output of both in tests/data/bounds_cli_edge.jsonl then checks each
route through the console script.
"""

import cmath
import json
import math
import os
import random

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SIZES = (128, 129)


def path(n):
    return os.path.join(DATA, f"domain_edge{n}.json")


def text(n):
    rng = random.Random(20261020)
    pts = [cmath.rect(math.sqrt(rng.random()), 2.0 * math.pi * rng.random())
           for _ in range(max(SIZES))]
    return json.dumps([[p.real, p.imag] for p in pts[:n]]) + "\n"


if __name__ == "__main__":
    for n in SIZES:
        with open(path(n), "w") as fh:
            fh.write(text(n))
