"""What both growth kernels share: the PRNG, the rank draw, the counter
list, and in :class:`Kernel` every argument check and size guard of the
kernel API and every view derived from the shape a kernel walks.

A kernel itself keeps only its arena and the growth step; the step
semantics are documented in ``_growth_py``.  This module imports nothing
but ``errors``, ``tree`` and ``_value``, so the compiled kernel loads
without the Python one.  ``OpCounters`` is a ``_value.Record``, not a
dataclass: ``dataclasses`` alone would cost a ``grow`` process about 11 ms
of import (see ``_value``).
"""

from ._value import Record
from .errors import INT32_MAX, ArityError, SizeGuardError, check_child_slots
from .tree import DaryTree, format_paren, format_shape

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


# The counter attributes every kernel exposes.  The C kernel's struct (and
# ``_growth_c._Head``, which mirrors it) lists them in this order.
COUNTERS = (
    "node_allocations",
    "link_redirections",
    "rng_draws",
    "lex_letters_compared",
    "max_step_redirections",
)


class OpCounters(Record):
    """Cost counters accumulated over a run; all monotone non-decreasing.

    One field per name in ``COUNTERS``, in that order; each defaults to 0.
    """

    __slots__ = COUNTERS
    _defaults = dict.fromkeys(COUNTERS, 0)


class Kernel:
    """The kernel API up to storage.  A subclass sets ``name``, keeps ``n``,
    the counters and ``lex_seconds``, and provides ``reset``, ``_shape``,
    ``_steps``, ``_step_with``, ``_edge_word`` and ``_uniform_below``, which
    are called only with arguments checked here.  ``_shape()`` is the tree's
    ``tree.shape_key``: one byte per node in preorder, 1 internal and 0 leaf,
    as bytes or a bytearray.  The views below are all read off it; a kernel
    may override them with faster ones that give the same result."""

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
        by ``tree.shape_key`` as bytes, the keys in the order their shapes
        first came up.  Each chain starts from ``reset``, so the kernel is
        left holding the last chain's tree and counters and the PRNG where
        the last chain left it, and ``lex_seconds`` covers the last chain at
        most: the compiled kernel does not time its chains and reads 0."""
        check_child_slots(self.d, n)
        return self._histogram(n, chains)

    def _histogram(self, n, chains):
        counts = {}
        for _ in range(chains):
            self.reset()
            self._steps(n)
            key = bytes(self._shape())
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def counters(self) -> OpCounters:
        return OpCounters(**{c: getattr(self, c) for c in COUNTERS})

    def preorder_code(self) -> list:
        """Depth-first preorder child counts, 0 or ``d`` per node."""
        d = self.d
        return [d * s for s in self._shape()]

    @property
    def tree(self) -> DaryTree:
        """The current tree as a fresh, checked :class:`DaryTree`."""
        return DaryTree.from_preorder_code(self.d, self.preorder_code())

    def code_text(self) -> bytearray:
        """Preorder code as ASCII: ``0`` or ``d`` per node, space separated;
        a bytearray, which spares the memory of one more copy of the text."""
        return format_shape(self.d, self._shape())

    def paren_text(self) -> bytes:
        """``(`` + children + ``)`` per internal node, ``o`` per leaf, as ASCII."""
        return format_paren(self.d, self._shape()).encode("ascii")

    def height(self) -> int:
        return self.tree.height()
