"""Write tests/data/domain_edge128.json, domain_edge129.json and
domain_ring400.json.

    python tests/make_domain_edges.py

Seeded punctures drawn uniformly in the unit disk, as [x, y] pairs: 128,
the most for which rho_bounds and sigma_lower read a sorted table of
the distances (N(N-1) <= bounds._TABLE_CELLS), and the same 128 with
one more, the fewest for which they run the pruned search.  The pinned
output of both in tests/data/bounds_cli_edge.jsonl then checks each
route through the console script.

And 400 punctures on the unit circle about 3+2i, where the pruned
search runs at its extreme: at z = 3+2i every distance to z is 1 up to
rounding, so no row drops out of the search and the lower end's walk
visits every puncture.  tests/data/bounds_cli_ring.jsonl pins them.
"""

import cmath
import json
import math
import os
import random

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SIZES = (128, 129)
RING = 400


def path(name):
    return os.path.join(DATA, f"domain_{name}.json")


def _text(pts):
    return json.dumps([[p.real, p.imag] for p in pts]) + "\n"


def texts():
    """Each domain's name, as in its file's, and the file's text."""
    rng = random.Random(20261020)
    pts = [cmath.rect(math.sqrt(rng.random()), 2.0 * math.pi * rng.random())
           for _ in range(max(SIZES))]
    out = {f"edge{n}": _text(pts[:n]) for n in SIZES}
    out[f"ring{RING}"] = _text(
        [complex(3.0, 2.0) + cmath.exp(2j * math.pi * k / RING)
         for k in range(RING)])
    return out


if __name__ == "__main__":
    for name, text in texts().items():
        with open(path(name), "w") as fh:
            fh.write(text)
