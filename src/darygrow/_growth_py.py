"""Pure-Python growth kernel, the readable spec of the compiled one.

Identical observable behaviour to the compiled kernel in ``_growth_c``:
same PRNG, same draw order, same arena layout, same counters, same
serializations.  This module keeps only the arena, the growth step and
the arena walks (edge words, the preorder code).  The PRNG, the rank
draw, the counter list, every argument check and size guard, and every
view read off the preorder code (code and paren text, height, histogram,
``tree``, ``counters``) live in ``_kernel.Kernel``, which both kernels
share.  The layout contract (which also pins cross-implementation
determinism, see README):

* the arena is always compact: after k steps the live ids are exactly
  0 .. d*k, the root is d*k, and edge rank r maps to node id r;
* so the next step's d new ids, d*k + 1 .. d*k + d, are handed out by
  counting: one leaf per marked bud (ascending position), one replacement
  leaf per marked edge (descending lexicographic order of the edge words,
  each edge's subtree taking the largest free position), the new root last;
  the old root keeps the one free position left;
* per step the PRNG serves first d-1 ranks, all different (rejection on the
  top range inside uniform_below; a rank equal to an earlier one in the
  same step is drawn again, earlier ranks are kept), then the letter.

``link_redirections`` counts parent and child pointer writes during
surgery, 2 per relinked edge and 2 per child of the new root: 2*(marked
edges) + 2*d per step, at most 4*d - 2.
``lex_letters_compared`` counts letter pair comparisons while ordering the
marked edges; the time spent materializing and ordering edge words is
accumulated separately in ``lex_seconds`` because it is the only per-step
cost that is not O(d).
"""

import time

from ._kernel import Kernel, SplitMix64, draw_ranks

KERNEL_NAME = "python"


def _compare_words(a, b):
    """Lexicographic compare counting letter comparisons: (sign, compared)."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit:
        if a[i] != b[i]:
            return (-1 if a[i] < b[i] else 1), i + 1
        i += 1
    if len(a) == len(b):
        return 0, i
    return (-1 if len(a) < len(b) else 1), i


def _insertion_sort_desc(keyed):
    """Sort (word, node) pairs by word, largest first; return compare count."""
    compared = 0
    for i in range(1, len(keyed)):
        item = keyed[i]
        j = i - 1
        while j >= 0:
            sign, letters = _compare_words(keyed[j][0], item[0])
            compared += letters
            if sign < 0:
                keyed[j + 1] = keyed[j]
                j -= 1
            else:
                break
        keyed[j + 1] = item
    return compared


class GrowthKernel(Kernel):
    name = KERNEL_NAME

    def __init__(self, d, seed):
        super().__init__(d)
        self._rng = SplitMix64(seed)
        self.reset()

    # ------------------------------------------------------------------
    # PRNG (splitmix64)

    @property
    def rng_draws(self):
        return self._rng.draws

    def _uniform_below(self, k):
        return self._rng.uniform_below(k)

    # ------------------------------------------------------------------
    # state

    def reset(self):
        """Back to the single-node tree; counters cleared, PRNG untouched."""
        self.n = 0
        self._parent = [-1]
        self._slot = [0]
        self._child = [-1] * self.d
        self.node_allocations = 0
        self.link_redirections = 0
        self.lex_letters_compared = 0
        self.lex_seconds = 0.0
        self.max_step_redirections = 0

    def _edge_word(self, u):
        parent, slot = self._parent, self._slot
        letters = []
        while parent[u] >= 0:
            letters.append(slot[u])
            u = parent[u]
        letters.reverse()
        return tuple(letters)

    # ------------------------------------------------------------------
    # one growth step

    def _step(self):
        # one step, unguarded: steps() and histogram() guard the whole run
        d = self.d
        ranks = draw_ranks(self._rng, d * self.n + d - 1, d - 1)
        letter = self._rng.uniform_below(d) + 1
        self._step_with(ranks, letter)

    def _steps(self, k):
        for _ in range(k):
            self._step()

    def _step_with(self, ranks, letter):
        """The growth bijection on the arena, for checked ranks and letter."""
        d = self.d
        parent, slot, child = self._parent, self._slot, self._child
        root = self.root

        # pos[p]: the subtree the new root hangs at position p; the old
        # root keeps the free position that no edge's subtree takes
        pos = [root] * d
        edges = []
        for r in ranks:
            if r < root:
                edges.append(r)
            else:
                pos[r - root] = -1  # a bud
        if len(edges) > 1:
            t0 = time.perf_counter_ns()
            keyed = [(self._edge_word(u), u) for u in edges]
            self.lex_letters_compared += _insertion_sort_desc(keyed)
            edges = [u for _, u in keyed]
            self.lex_seconds += (time.perf_counter_ns() - t0) * 1e-9

        parent.extend([-1] * d)
        slot.extend([0] * d)
        child.extend([-1] * (d * d))

        v = root  # the last id handed out
        for p in range(d):
            if pos[p] < 0:
                v += 1
                pos[p] = v
        free = [p for p in reversed(range(d)) if pos[p] == root]
        for p, u in zip(free, edges):
            v += 1
            pu = parent[u]
            child[pu * d + slot[u] - 1] = v
            parent[v] = pu
            slot[v] = slot[u]
            pos[p] = u

        v += 1  # the new root, root + d
        base = v * d
        for i in range(d):
            c = pos[(i + letter) % d]
            child[base + i] = c
            parent[c] = v
            slot[c] = i + 1
        self.n += 1

        redirections = 2 * len(edges) + 2 * d
        self.node_allocations += d
        self.link_redirections += redirections
        if redirections > self.max_step_redirections:
            self.max_step_redirections = redirections

    # ------------------------------------------------------------------
    # inspection

    def preorder_code(self):
        d, child = self.d, self._child
        code = []
        stack = [self.root]
        while stack:
            u = stack.pop()
            base = u * d
            if child[base] < 0:
                code.append(0)
            else:
                code.append(d)
                for j in range(base + d - 1, base - 1, -1):
                    stack.append(child[j])
        return code
