"""Workload sizes, shared by run.py and the child operations it starts.

Why each workload exists is written down in README.md beside this file.
The `smoke` sizes run the same code paths in about a second; the
benchmark's own tests use them.
"""

import math
import random

GROW = {
    # name: (d, n, format)
    "grow-d2": (2, 1_000_000, "code"),
    "grow-d3": (3, 100_000, "paren"),
}
GROW_SMOKE_N = {"grow-d2": 2_000, "grow-d3": 1_000}

# criterion 3's exhaustive suite: 6,958 (edge-marked tree, letter) inputs
BIJECTION_SUITE = (
    [(2, n) for n in range(6)]
    + [(3, n) for n in range(4)]
    + [(4, n) for n in range(3)]
    + [(5, 0), (5, 1)]
)

VERIFY = {
    "chi": (3, 4, 110_000),  # d, n, samples: criterion 8's first grid
    "suite": BIJECTION_SUITE,
    "trip_ds": (2, 3, 5),
    "trip_n": 10_000,
    "trips": 4,  # enlarge -> reduce round trips per arity
}
VERIFY_SMOKE = {
    "chi": (3, 3, 1_200),
    "suite": [(2, n) for n in range(4)] + [(3, n) for n in range(3)],
    "trip_ds": (2, 3, 5),
    "trip_n": 200,
    "trips": 2,
}

WORKLOADS = ("grow-d2", "grow-d3", "verify")

# Distinct program seeds per run; each is repeated so that every run also
# checks that equal seeds give byte-identical output.
SEEDS_PER_RUN = 2


def op_seeds(workload, seed):
    """The program seeds one run uses, derived from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(48) for _ in range(SEEDS_PER_RUN)]


def verify_sizes(smoke):
    return VERIFY_SMOKE if smoke else VERIFY


def trip_seeds(seed, d):
    """Growth seed and mark-draw seed of a verify op's round trips at arity d."""
    return seed + d, seed + 100 + d


def count_trees(d, n):
    """Fuss-Catalan number, computed here independently of the package."""
    top = d * n + 1
    return math.comb(top, n) // top


def bijection_inputs(d, n):
    """(edge-marked tree, letter) pairs of size n: trees x mark sets x letters."""
    return count_trees(d, n) * math.comb(d * n + d - 1, d - 1) * d
