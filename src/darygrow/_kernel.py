"""What both growth kernels share: the PRNG, the rank draw, the counter
list, and in :class:`Kernel` every argument check and size guard of the
kernel API and every view derived from the preorder code.

A kernel itself keeps only its arena and the growth step; the step
semantics are documented in ``_growth_py``.  This module imports nothing
but ``errors`` and ``tree``, so the compiled kernel loads without the
Python one.
"""

from dataclasses import dataclass, fields

from .errors import INT32_MAX, ArityError, SizeGuardError, check_child_slots
from .tree import DaryTree, format_code, format_paren, shape_key

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


@dataclass(frozen=True)
class OpCounters:
    """Cost counters accumulated over a run; all monotone non-decreasing.

    The field names are the counter attributes every kernel exposes.
    """

    node_allocations: int = 0
    link_redirections: int = 0
    rng_draws: int = 0
    lex_letters_compared: int = 0
    max_step_redirections: int = 0


COUNTERS = tuple(f.name for f in fields(OpCounters))


class Kernel:
    """The kernel API up to storage.  A subclass sets ``name``, keeps ``n``,
    the counters and ``lex_seconds``, and provides ``reset``,
    ``preorder_code``, ``_steps``, ``_step_with``, ``_edge_word`` and
    ``_uniform_below``, which are called only with arguments checked here.
    The views below are all read off ``preorder_code``; a kernel may
    override them with faster ones that give the same result."""

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
        """Grow by ``k`` internal nodes; past the int32 child-slot limit,
        SizeGuardError before anything changes."""
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

    def _histogram(self, n, chains):
        counts = {}
        for _ in range(chains):
            self.reset()
            self._steps(n)
            key = shape_key(self.preorder_code())
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def counters(self) -> OpCounters:
        return OpCounters(**{c: getattr(self, c) for c in COUNTERS})

    @property
    def tree(self) -> DaryTree:
        """The current tree as a fresh, checked :class:`DaryTree`."""
        return DaryTree.from_preorder_code(self.d, self.preorder_code())

    def code_text(self) -> bytes:
        """Preorder code as ASCII: ``0`` or ``d`` per node, space separated."""
        return format_code(self.preorder_code()).encode("ascii")

    def paren_text(self) -> bytes:
        """``(`` + children + ``)`` per internal node, ``o`` per leaf, as ASCII."""
        return format_paren(self.d, self.preorder_code()).encode("ascii")

    def height(self) -> int:
        return self.tree.height()
