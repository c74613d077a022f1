"""Write tests/data/domain_clusters.json, a seeded clustered domain.

    python tests/make_domain_clusters.py

400 punctures in eight Gaussian clusters of 50, spread 0.01, about
centres drawn uniformly in the unit disk, as [x, y] pairs.  Most of
the pinned query points of tests/test_cli.py lie outside the clusters,
where the upper end of rho_bounds is decided by far rows.
"""

import cmath
import json
import math
import os
import random

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "domain_clusters.json")


def text():
    rng = random.Random(20261019)
    centres = [cmath.rect(math.sqrt(rng.random()),
                          2.0 * math.pi * rng.random()) for _ in range(8)]
    pts = [centres[i % 8] + complex(rng.gauss(0.0, 0.01),
                                    rng.gauss(0.0, 0.01))
           for i in range(400)]
    return json.dumps([[p.real, p.imag] for p in pts]) + "\n"


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        fh.write(text())
