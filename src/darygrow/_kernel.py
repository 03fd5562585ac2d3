"""What both growth kernels share: the PRNG, the rank draw, and in
:class:`Kernel` every argument check and size guard of the kernel API.

The step semantics are documented in ``_growth_py``.  This module imports
nothing but ``errors``, so the compiled kernel loads without the Python one.
"""

from .errors import INT32_MAX, ArityError, SizeGuardError, check_child_slots

MASK = (1 << 64) - 1


def check_bound(k):
    """Refuse a ``uniform_below`` bound outside 1 <= k < 2^64."""
    if k < 1:
        raise ValueError("uniform_below needs k >= 1")
    if k > MASK:
        raise OverflowError("uniform_below needs k < 2**64")


class SplitMix64:
    """The package PRNG: splitmix64 (Steele, Lea & Flood, *Fast splittable
    pseudorandom number generators*, OOPSLA 2014), fixed for cross-platform
    determinism.

    State advances by the 64-bit golden gamma; outputs pass through the
    standard two-round finalizer.  ``draws`` counts raw 64-bit outputs.
    """

    __slots__ = ("state", "draws")

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK
        self.draws = 0

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        self.draws += 1
        return z ^ (z >> 31)

    def uniform_below(self, k: int) -> int:
        """Unbiased uniform integer in [0, k), for 1 <= k < 2^64.

        Rejection rule: draws at or above floor(2^64 / k) * k are discarded
        and redrawn.  k = 1 consumes no draw.
        """
        if not 1 < k <= MASK:  # k = 1 draws nothing; check_bound refuses the rest
            check_bound(k)
            return 0
        threshold = ((1 << 64) // k) * k
        while True:
            x = self.next64()
            if x < threshold:
                return x % k


def draw_ranks(rng: SplitMix64, universe: int, count: int) -> list:
    """A uniform ``count``-subset of ``range(universe)``, in the order drawn:
    a rank equal to an earlier one is drawn again, the earlier ones kept."""
    ranks = []
    while len(ranks) < count:
        r = rng.uniform_below(universe)
        if r not in ranks:
            ranks.append(r)
    return ranks


class Kernel:
    """The kernel API up to storage.  A subclass sets ``name``, keeps ``n``
    and the counters, and provides ``_steps``, ``_step_with``,
    ``_edge_word``, ``_uniform_below`` and ``_histogram``, which are called
    only with arguments checked here."""

    def __init__(self, d: int) -> None:
        if d < 2:
            raise ArityError(f"arity must be >= 2, got {d}")
        if d + 1 > INT32_MAX:
            raise SizeGuardError(f"arity {d} leaves no room for int32 node ids")
        self.d = d

    @property
    def root(self) -> int:
        return self.d * self.n

    @property
    def node_count(self) -> int:
        return self.d * self.n + 1

    def step(self) -> None:
        self.steps(1)

    def steps(self, k: int) -> None:
        """Grow by ``k`` internal nodes; past the int32 node-id or child-slot
        limit, SizeGuardError before anything changes."""
        if k > 0:
            check_child_slots(self.d, self.n + k)
            self._steps(k)

    def step_with(self, ranks, letter: int) -> None:
        """Apply one step with externally chosen ranks and letter (test hook)."""
        d = self.d
        universe = d * self.n + d - 1
        ranks = list(ranks)
        if len(ranks) != d - 1 or len(set(ranks)) != d - 1:
            raise ValueError(f"need {d - 1} distinct ranks")
        if any(not 0 <= r < universe for r in ranks):
            raise ValueError(f"rank outside [0, {universe})")
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} outside 1..{d}")
        check_child_slots(d, self.n + 1)
        self._step_with(ranks, letter)

    def edge_word(self, rank: int) -> tuple:
        """Root word of the edge's child node for a given rank."""
        if not 0 <= rank < self.d * self.n:
            raise IndexError(f"edge rank {rank} outside [0, {self.d * self.n})")
        return self._edge_word(rank)

    def uniform_below(self, k: int) -> int:
        """The next uniform integer in [0, k) of the kernel's stream."""
        check_bound(k)
        return self._uniform_below(k)

    def histogram(self, n: int, chains: int) -> dict:
        """Shape counts over repeated chains to size n (one PRNG stream), keyed
        by ``tree.shape_key``."""
        check_child_slots(self.d, n)
        return self._histogram(n, chains)
