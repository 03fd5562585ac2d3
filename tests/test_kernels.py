"""Cross-checks between the pure-Python kernel and the compiled one.

Both kernels promise the same observable behaviour down to the draw
sequence: same arena layout (node r is the child end of edge rank r, root
id d*n), same allocation order inside a step, same counters, same trees,
same serializations, for every arity.  The package compiles the C core on
first import when a C compiler is present, so this module is skipped only
where the compiled kernel cannot be built.
"""

import ctypes
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from darygrow import _growth_py
from darygrow.cli import main as cli_main
from darygrow.errors import ArityError, SizeGuardError, check_child_slots
from darygrow.bijections import enlarge
from darygrow.marks import Bud, EdgeMark, EdgeMarkedTree
from darygrow.sampler import COUNTERS, SplitMix64, make_kernel
from darygrow.tree import DaryTree

c_kernel = pytest.importorskip(
    "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
)


def both(d, seed):
    return make_kernel(d, seed, kernel="python"), make_kernel(d, seed, kernel="c")


with open(c_kernel.SOURCE, encoding="ascii") as _fh:
    # the C core's jump distance: internal nodes keep their J-th ancestor
    J = int(re.search(r"enum \{ J = (\d+) \};", _fh.read()).group(1))


def bad_jump(k):
    """The first jump index whose jump is wrong in C kernel k, or -1."""
    return c_kernel._lib.dg_check_jumps(k._k)


class _Arena(ctypes.Structure):
    """The C kernel struct as far as its jump array, for corrupting one."""

    _fields_ = [
        ("head", c_kernel._Head),
        ("div_mul", ctypes.c_uint64),
        ("cap", ctypes.c_int64),
        ("up", ctypes.POINTER(ctypes.c_int32)),
        ("child", ctypes.POINTER(ctypes.c_int32)),
        ("jump", ctypes.POINTER(ctypes.c_int32)),
    ]


COUNTER_FIELDS = COUNTERS


def counters(k):
    return {f: getattr(k, f) for f in COUNTER_FIELDS}


class TestAgreement:
    @pytest.mark.parametrize(
        "d,n,seed",
        [
            (2, 300, 0),
            (3, 200, 1),
            (5, 120, 99),
            (127, 300, 0),
            (128, 100, 2),
            (200, 60, 3),
            (1000, 12, 4),
        ],
    )
    def test_codes_and_counters_match(self, d, n, seed):
        py, cy = both(d, seed)
        py.steps(n)
        cy.steps(n)
        assert py.preorder_code() == cy.preorder_code()
        assert py.height() == cy.height()
        assert counters(py) == counters(cy)

    @pytest.mark.parametrize(
        "d,n,seed",
        [
            # paths of several hundred ids, which the lex phase climbs by
            # many jumps to J-th ancestors
            (3, 20_000, 5),
            # 3 and 4 marked edges per step: an odd count, whose last edge
            # walks alone, and an even one
            (4, 2000, 6),
            (5, 2000, 7),
        ],
    )
    def test_long_paths_and_many_edges(self, d, n, seed):
        py, c = both(d, seed)
        py.steps(n)
        c.steps(n)
        assert py.preorder_code() == c.preorder_code()
        assert counters(py) == counters(c)
        if d == 3:
            assert c.height() > 256

    def test_stepwise_lockstep(self):
        py, cy = both(3, 7)
        for _ in range(50):
            py.step()
            cy.step()
            assert py.rng_draws == cy.rng_draws
            assert py.preorder_code() == cy.preorder_code()

    @pytest.mark.parametrize("d", [2, 3, 5, 200])
    def test_chunked_steps_match(self, d):
        # chunk sizes around the C core's d = 2 draw-ahead ring of 16 steps:
        # a kernel that drew a step too many would leave the PRNG ahead,
        # and the next uniform_below would differ
        py, c = both(d, 31)
        rng = random.Random(d)
        for chunk in (1, 7, "step_with", 15, 16, "draw", 17, 40):
            ranks = rng.sample(range(d * py.n + d - 1), d - 1)
            letter = rng.randrange(1, d + 1)
            for k in (py, c):
                if chunk == "step_with":
                    k.step_with(ranks, letter)
                elif chunk == "draw":
                    k.uniform_below(2**40)
                else:
                    k.steps(chunk)
            assert py.preorder_code() == c.preorder_code()
            assert counters(py) == counters(c)
            assert py.uniform_below(2**40) == c.uniform_below(2**40)

    def test_edge_words_match(self):
        # the C core reads each letter and parent off one link per node:
        # arities that are not powers of two, and rows spanning several
        # cache lines, past n = J -> J + 1, where one walk first writes every
        # jump
        for d, n in ((2, 30), (3, 30), (4, 30), (12, 30), (40, 10), (300, 6)):
            py, cy = both(d, 13)
            py.steps(n)
            cy.steps(n)
            for rank in range(d * n):
                assert py.edge_word(rank) == cy.edge_word(rank), (d, rank)

    def test_histograms_match(self):
        # criterion 8's arities, d = 3 on the C core's generic loop and d = 2
        # on its d = 2 one, and d = 4, whose steps mark up to three edges
        for d, n in [(3, 3), (2, 5), (4, 3)]:
            py, cy = both(d, 21)
            assert py.histogram(n, 400) == cy.histogram(n, 400), (d, n)

    def test_reset_keeps_the_stream(self):
        py, cy = both(2, 5)
        for k in (py, cy):
            k.steps(10)
            k.reset()
            assert k.n == 0
            assert k.preorder_code() == [0]
        # reset keeps the PRNG stream position, so the replays agree with
        # each other but not with the first run
        py.steps(10)
        cy.steps(10)
        assert py.preorder_code() == cy.preorder_code()


class TestDraws:
    @pytest.mark.parametrize("k", [1, 2, 3, 1000, 2**32 + 1, 3 * 2**62, 2**63 + 1, 2**64 - 1])
    def test_uniform_below_matches_reference(self, k):
        # near 2^64 about half of all draws are rejected, which pins the
        # rejection rule, not only the modulus
        ref = SplitMix64(77)
        c = make_kernel(2, 77, kernel="c")
        assert [c.uniform_below(k) for _ in range(300)] == [
            ref.uniform_below(k) for _ in range(300)
        ]
        assert c.rng_draws == ref.draws

    @pytest.mark.parametrize("source", ["python", "c", "SplitMix64"])
    def test_uniform_below_range_checked(self, source, deadline):
        if source == "SplitMix64":
            rng = SplitMix64(0)
        else:
            rng = make_kernel(2, 0, kernel=source)
        with pytest.raises(ValueError):
            rng.uniform_below(0)
        # above 2^64 the rejection threshold is 0, so no draw is ever kept
        for k in (2**64, 2**65):
            with deadline(2), pytest.raises(OverflowError):
                rng.uniform_below(k)


class TestArenaContract:
    @pytest.mark.parametrize("make", [lambda: make_kernel(3, 4, kernel="python"),
                                      lambda: make_kernel(3, 4, kernel="c")])
    def test_compact_ids_and_root(self, make):
        k = make()
        for step in range(1, 30):
            k.step()
            code = k.preorder_code()
            assert len(code) == 3 * step + 1
            # root is always the freshest allocation
            assert k.edge_word(0) is not None  # ranks stay dense

    def test_allocation_count_per_step(self):
        for name in ("python", "c"):
            k = make_kernel(4, 11, kernel=name)
            prev = 0
            for _ in range(25):
                k.step()
                assert k.node_allocations - prev == 4
                prev = k.node_allocations

    @pytest.mark.parametrize("name", ["python", "c"])
    def test_allocation_order(self, name):
        # a step hands out ids R+1 .. R+4 (R = d*n) at d = 4: the buds by
        # ascending position, then a replacement leaf per marked edge, the
        # lex-larger edge first, each edge's subtree taking the largest free
        # position left and the old root the last one; the new root is R+4.
        # Position p hangs in slot s(p) of the new root.
        d, n = 4, 10
        R = d * n

        def grown():
            k = make_kernel(d, 5, kernel=name)
            k.steps(n)
            return k

        words = [grown().edge_word(r) for r in range(R)]
        e = 7
        # two edges, lo's word the smaller and neither inside the other's
        # subtree (a smaller word is a prefix of a larger one or parts from it)
        lo, hi = next(
            (x, y)
            for x in range(R)
            for y in range(R)
            if words[x] < words[y] and words[y][: len(words[x])] != words[x]
        )
        for a in range(1, d + 1):
            def s(p):
                return (p - a) % d + 1

            k = grown()
            k.step_with([R + 2, R + 0, e], a)  # buds at positions 2 and 0
            assert k.edge_word(R + 1) == (s(0),)
            assert k.edge_word(R + 2) == (s(2),)
            assert k.edge_word(R + 3) == (s(1),) + words[e]
            assert k.edge_word(e) == (s(3),)
            assert k.root == R + 4

            k = grown()
            k.step_with([lo, R + 1, hi], a)  # a bud at position 1
            assert k.edge_word(R + 1) == (s(1),)
            assert k.edge_word(R + 2) == (s(0),) + words[hi]
            assert k.edge_word(R + 3) == (s(0),) + words[lo]
            assert k.edge_word(hi) == (s(3),)
            assert k.edge_word(lo) == (s(2),)
            assert k.root == R + 4

    @pytest.mark.parametrize("name", ["python", "c"])
    @pytest.mark.parametrize("d", [2, 3, 5, 200])
    def test_internal_ids_are_multiples_of_d(self, name, d):
        # each step's new root d*(n+1) is its only internal node and no node
        # changes kind, so the internal ids are exactly d, 2d, .., d*n: the
        # leaf test both kernels make without reading the arena
        n = 3 if d == 200 else 15

        def check(k):
            tree = k.tree
            for r in range(k.root):
                internal = tree.code[tree.node_at(k.edge_word(r))] == d
                assert internal == (r > 0 and r % d == 0), r
            assert k.root == d * k.n and tree.code[tree.root] == d

        def grown():
            k = make_kernel(d, 19, kernel=name)
            k.steps(n)
            return k

        check(grown())
        R = d * n
        k = grown()
        k.step_with(range(R, R + d - 1), 1)  # every bud
        check(k)
        k = grown()
        k.step_with(random.Random(d).sample(range(R), d - 1), d)  # edges only
        check(k)

    def test_redirections_bounded(self):
        for name in ("python", "c"):
            k = make_kernel(5, 3, kernel=name)
            k.steps(200)
            assert k.max_step_redirections <= 4 * 5 - 2

    def test_letter_rank_draw_order(self):
        # d-1 distinct ranks first (a colliding rank is drawn again, the
        # earlier ones are kept), then one letter draw; replaying the raw
        # stream must predict the tree
        d, seed, n = 3, 101, 40
        k = make_kernel(d, seed, kernel="c")
        rng = SplitMix64(seed)
        mirror = make_kernel(d, seed + 1, kernel="python")  # seed unused below
        for step in range(n):
            k.step()
            universe = d * step + d - 1
            ranks = []
            while len(ranks) < d - 1:
                r = rng.uniform_below(universe)
                if r not in ranks:
                    ranks.append(r)
            letter = rng.uniform_below(d) + 1
            mirror.step_with(ranks, letter)
        assert mirror.preorder_code() == k.preorder_code()
        assert rng.draws == k.rng_draws


def kernel_tree(k):
    return DaryTree.from_preorder_code(k.d, k.preorder_code())


class TestMatchesReferenceSemantics:
    """step_with must act exactly like the reference enlarge."""

    @given(st.integers(2, 5), st.integers(0, 2**31), st.integers(1, 25))
    @settings(max_examples=40, deadline=None)
    def test_step_with_equals_enlarge(self, d, seed, n):
        k = make_kernel(d, seed, kernel="c")
        k.steps(n)
        rng = SplitMix64(seed ^ 0xBEEF)
        universe = d * k.n + d - 1
        while True:
            ranks = sorted(rng.uniform_below(universe) for _ in range(d - 1))
            if len(set(ranks)) == d - 1:
                break
        letter = rng.uniform_below(d) + 1

        # drive the reference map with marks at the same words
        t = kernel_tree(k)
        marks = []
        for r in ranks:
            if r < d * k.n:
                marks.append(EdgeMark(t.node_at(k.edge_word(r))))
            else:
                marks.append(Bud(r - d * k.n))
        expected = enlarge(EdgeMarkedTree(t, tuple(marks)), letter)

        k.step_with(ranks, letter)
        assert k.preorder_code() == expected.tree.to_preorder_code()

    @pytest.mark.parametrize("name", ["python", "c"])
    def test_step_with_validates(self, name):
        with pytest.raises(ArityError):
            make_kernel(1, 0, kernel=name)
        k = make_kernel(3, 0, kernel=name)
        k.steps(2)
        with pytest.raises(ValueError):
            k.step_with([0, 0], 1)  # duplicate ranks
        with pytest.raises(ValueError):
            k.step_with([0, 1], 4)  # letter out of range
        with pytest.raises(ValueError):
            k.step_with([0, 999], 1)  # rank past the universe


class TestLexAccounting:
    def test_lex_counter_zero_at_d2(self):
        # one marked edge at most: nothing to sort, nothing to compare
        k = make_kernel(2, 9, kernel="c")
        k.steps(500)
        assert k.lex_letters_compared == 0

    def test_lex_counters_match_across_kernels(self):
        py, cy = both(5, 17)
        py.steps(150)
        cy.steps(150)
        assert py.lex_letters_compared == cy.lex_letters_compared
        assert py.lex_letters_compared > 0

    @pytest.mark.parametrize(
        "d,depths", [(3, (0, 5)), (3, (7, 2)), (4, (1, 6, 3)), (5, (4, 0, 9, 2))]
    )
    def test_nested_marked_edges(self, d, depths):
        # marked edges on one root path, each inside the subtree of the
        # ones above it: the words compare as prefixes, so the counter adds
        # the shorter length for each such pair
        py, c = both(d, 23)
        py.steps(300)
        c.steps(300)
        words = [c.edge_word(r) for r in range(d * c.n)]
        deep = max(words, key=len)
        on_path = {len(w): r for r, w in enumerate(words) if deep[: len(w)] == w}
        lengths = [len(deep) - h for h in depths]
        before = c.lex_letters_compared
        for k in (py, c):
            k.step_with([on_path[h] for h in lengths], 2)
        assert py.preorder_code() == c.preorder_code()
        assert counters(py) == counters(c)
        if d == 3:  # one comparison
            assert c.lex_letters_compared - before == min(lengths)

    def test_lex_seconds_accumulate(self):
        k = make_kernel(4, 2, kernel="c")
        k.steps(2000)
        assert 0 < k.lex_seconds < 5.0

    def test_histogram_chains_are_not_timed(self):
        # each chain starts from a reset, which clears lex_seconds, so the
        # compiled kernel reads no clock in them and reads 0 afterwards
        k = make_kernel(3, 2, kernel="c")
        k.steps(2000)
        assert k.lex_seconds > 0
        k.histogram(4, 200)
        assert k.lex_seconds == 0.0


def arena(k):
    """What a step's edge order decides: the shape, the counters, and the
    word of every node id (each replacement leaf's id follows the order)."""
    return k.preorder_code(), counters(k), [k.edge_word(r) for r in range(k.root)]


class TestLexPhase:
    """The C core orders marked edges by jumps to J-th ancestors and replays
    the spec's letter count; every case must give the spec's order and
    lex_letters_compared, and the jumps must stay right for later steps."""

    @staticmethod
    def grown(d, n, seed):
        py, c = both(d, seed)
        py.steps(n)
        c.steps(n)
        return py, c

    @staticmethod
    def check_step(py, c, ranks, letter=2, then=20):
        for k in (py, c):
            k.step_with(ranks, letter)
        assert arena(py) == arena(c)
        for k in (py, c):  # later steps read the jumps this step rewrote
            k.steps(then)
        assert arena(py) == arena(c)

    @staticmethod
    def words(k):
        return [k.edge_word(r) for r in range(k.root)]

    @staticmethod
    def path(words):
        """depth -> rank of the nodes on the deepest root path"""
        deep = max(words, key=len)
        return {len(w): r for r, w in enumerate(words) if deep[: len(w)] == w}

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("gap", [1, 2, 3, 4, 5, 6, 7, 9, 13])
    def test_ancestor_pairs(self, d, gap):
        # depth gaps that are not multiples of J end the lift with parent
        # steps; the ancestor's word is a prefix, so it is the smaller
        py, c = self.grown(d, 1500 // d, 40 + gap)
        on_path = self.path(self.words(c))
        h = max(on_path)
        ranks = [on_path[h], on_path[h - gap]] + [c.root + i for i in range(d - 3)]
        before = c.lex_letters_compared
        self.check_step(py, c, ranks, then=0)
        if d == 3:
            assert c.lex_letters_compared - before == h - gap
        self.check_step(py, c, ranks[::-1], then=30)

    @pytest.mark.parametrize("d,gaps", [(4, (0, 3, 9)), (5, (0, 1, 6, 11)), (12, (0, 2, 3, 5, 8))])
    def test_nested_cut_subtrees(self, d, gaps):
        # edges on one root path, each cut subtree inside the one above it;
        # after the step they hang side by side under the new root, and the
        # next step marks edges inside them again
        py, c = self.grown(d, 2400 // d, 7)
        for _ in range(2):
            on_path = self.path(self.words(c))
            h = max(on_path)
            ranks = [on_path[h - g] for g in gaps]
            ranks += [c.root + i for i in range(d - 1 - len(ranks))]
            self.check_step(py, c, ranks, letter=d, then=0)

    @pytest.mark.parametrize("d", [3, 5, 12])
    def test_siblings(self, d):
        py, c = self.grown(d, 1200 // d, 8)
        words = self.words(c)
        rows = {}
        for r, w in enumerate(words):
            rows.setdefault(w[:-1], []).append(r)
        # the deepest parent with at least two marked children
        row = max((v for v in rows.values() if len(v) >= 2), key=lambda v: len(words[v[0]]))
        ranks = row[: d - 1] + [c.root + i for i in range(d - 1 - len(row[: d - 1]))]
        self.check_step(py, c, ranks)

    @pytest.mark.parametrize("d", [3, 5])
    def test_lca_at_the_root(self, d):
        py, c = self.grown(d, 1500 // d, 9)
        words = self.words(c)
        deepest = {}
        for r, w in enumerate(words):
            if w and len(w) > len(words[deepest.get(w[0], r)]) or w and w[0] not in deepest:
                deepest[w[0]] = r
        assert len(deepest) >= 2
        ranks = sorted(deepest.values(), key=lambda r: -len(words[r]))[: d - 1]
        ranks += [c.root + i for i in range(d - 1 - len(ranks))]
        self.check_step(py, c, ranks)

    @pytest.mark.parametrize("gap", [1, 2, 3, 5, 6, 7])
    def test_depth_gaps_across_branches(self, gap):
        # two edges in different branches whose depths differ by gap, the
        # deeper one first and then last
        py, c = self.grown(3, 600, 10 + gap)
        for deeper_first in (True, False):
            words = self.words(c)
            on_path = self.path(words)
            h = max(on_path)
            deep = words[on_path[h]]
            other = next(
                r for r, w in enumerate(words) if len(w) == h - gap and deep[: len(w)] != w
            )
            ranks = [on_path[h], other]
            self.check_step(py, c, ranks if deeper_first else ranks[::-1])

    @pytest.mark.parametrize("d,n", [(5, 400), (12, 150), (40, 40)])
    def test_many_edges(self, d, n):
        py, c = self.grown(d, n, 11)
        rng = random.Random(d)
        for step in range(12):
            if step % 3 == 0:  # edges only
                ranks = rng.sample(range(c.root), d - 1)
            else:
                ranks = rng.sample(range(c.root + d - 1), d - 1)
            self.check_step(py, c, ranks, letter=rng.randrange(1, d + 1), then=step)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("m", [4, 5, 6, 7, 9])
    def test_paths_cross_depth_4(self, d, m):
        # steps that mark only buds grow a path: its first root is m - 1
        # deep; two edges at the deep end, up to 7 apart, make the compare
        # lift and climb by parent steps below depth J, which
        # test_paths_cross_the_jump_distance crosses
        py, c = both(d, 13)
        for _ in range(m):
            for k in (py, c):
                k.step_with(range(k.root, k.root + d - 1), 1)
            assert arena(py) == arena(c)
        for gap in range(8):
            words = self.words(c)
            depth = {}
            for r in sorted(range(c.root), key=lambda r: -len(words[r])):
                depth.setdefault(len(words[r]), []).append(r)
            h = max(depth)
            if h - gap not in depth:
                continue
            ranks = [depth[h][0], depth[h - gap][-1]] if gap else depth[h][:2]
            ranks += [c.root + i for i in range(d - 3)]
            self.check_step(py, c, ranks, then=0)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("m", [J - 1, J, J + 1, J + 2, J + 5, 2 * J, 2 * J + 1, 2 * J + 5])
    def test_paths_cross_the_jump_distance(self, d, m):
        # the same path, grown across depth J and 2J, where a climb first
        # takes one and then two jumps; gaps up to 2J - 1 lift the deep edge
        # by up to one jump and J - 1 parent steps
        py, c = both(d, 14)
        for _ in range(m):
            for k in (py, c):
                k.step_with(range(k.root, k.root + d - 1), 1)
            assert bad_jump(c) == -1
        assert arena(py) == arena(c)
        for gap in range(2 * J):
            words = self.words(c)
            depth = {}
            for r in sorted(range(c.root), key=lambda r: -len(words[r])):
                depth.setdefault(len(words[r]), []).append(r)
            h = max(depth)
            if h - gap not in depth:
                continue
            ranks = [depth[h][0], depth[h - gap][-1]] if gap else depth[h][:2]
            ranks += [c.root + i for i in range(d - 3)]
            self.check_step(py, c, ranks, then=0)
            assert bad_jump(c) == -1

    @pytest.mark.parametrize("d", [3, 4, 5, 12])
    def test_small_trees_and_reset(self, d):
        # no internal node is J deep before n = J + 1, where one walk first
        # writes every jump; reset reuses the ids, whose old jumps must not
        # leak
        py, c = both(d, 12)
        rng = random.Random(d)
        for _ in range(3):
            for _ in range(9):
                ranks = rng.sample(range(d * c.n + d - 1), d - 1)
                letter = rng.randrange(1, d + 1)
                for k in (py, c):
                    k.step_with(ranks, letter)
                assert arena(py) == arena(c)
            for k in (py, c):
                k.steps(7)
            assert arena(py) == arena(c)
            for k in (py, c):
                k.reset()
        assert py.histogram(6, 200) == c.histogram(6, 200)


class TestJumps:
    """dg_check_jumps recomputes every jump from the tree; the jumps the
    steps keep must equal it after every step, whatever the step marks."""

    @staticmethod
    def deepest_path(c, d):
        """d - 1 ranks: the deepest edges on one root path, padded with buds,
        so that each cut subtree holds the next one"""
        on_path = TestLexPhase.path(TestLexPhase.words(c))
        ranks = [on_path[h] for h in sorted(on_path)[-(d - 1) :]]
        return ranks + [c.root + i for i in range(d - 1 - len(ranks))]

    @pytest.mark.parametrize("d", [3, 5, 12])
    def test_after_every_step(self, d):
        # drawn steps, bud-only steps that grow a path past depth J, deep
        # nested cuts and random edges, on chains that continue across reset
        py, c = both(d, 15)
        rng = random.Random(d)
        chain = ["draw"] * 25 + ["bud"] * (J + 3) + ["deep"] + ["draw"] * 10
        chain += ["edges"] * 5 + ["deep"] + ["draw"] * 10
        for _ in range(3):
            for kind in chain:
                if kind == "draw":
                    for k in (py, c):
                        k.step()
                else:
                    if kind == "bud":
                        ranks = range(c.root, c.root + d - 1)
                    elif kind == "deep":
                        ranks = self.deepest_path(c, d)
                    else:
                        ranks = rng.sample(range(c.root), d - 1)
                    letter = rng.randrange(1, d + 1)
                    for k in (py, c):
                        k.step_with(ranks, letter)
                assert bad_jump(c) == -1, (kind, c.n)
            assert arena(py) == arena(c)
            for k in (py, c):
                k.reset()

    def test_a_wrong_jump_is_reported(self):
        c = make_kernel(3, 16, kernel="c")
        c.steps(J)
        # while n <= J a jump is only known to be above n
        jump = _Arena.from_address(c._k).jump
        jump[1], kept = c.n, jump[1]
        assert bad_jump(c) == 1
        jump[1] = kept
        assert bad_jump(c) == -1
        c.steps(4 * J)
        jump = _Arena.from_address(c._k).jump  # the steps may move the array
        deep = next(x for x in range(1, c.n) if len(c.edge_word(3 * x)) >= J)
        for x in (c.n, deep):  # the root, and a node at least J deep
            jump[x] += 1
            assert bad_jump(c) == x
            jump[x] -= 1
        assert bad_jump(c) == -1
        assert bad_jump(make_kernel(2, 0, kernel="c")) == -1


class TestWideArity:
    """Child slots are int32 in the C core: every arity agrees.

    d = 127 and 1000 are among TestAgreement's inputs.
    """

    @pytest.mark.parametrize("d", [128, 200])
    def test_kernels_agree(self, d):
        py, c = both(d, 0)
        py.steps(20)
        c.steps(20)
        assert py.preorder_code() == c.preorder_code()
        assert py.height() == c.height()
        assert counters(py) == counters(c)
        assert py.histogram(2, 30) == c.histogram(2, 30)

    @pytest.mark.parametrize("d", [128, 200])
    def test_default_is_compiled(self, d):
        # unless DARYGROW_PURE_PYTHON forces the fallback for the run
        expected = "python" if os.environ.get("DARYGROW_PURE_PYTHON") else c_kernel.KERNEL_NAME
        assert make_kernel(d, 0).name == expected

    @pytest.mark.parametrize("d", [128, 200])
    def test_cli_forced_compiled_matches_python(self, d, capsys):
        outs = []
        for kernel in ("python", "c"):
            argv = ["grow", "--d", str(d), "--n", "3", "--seed", "0", "--kernel", kernel]
            assert cli_main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert len(outs[0].split()) == 3 * d + 1

    @pytest.mark.parametrize("d", [256, 1000])
    def test_histogram_keys_carry_no_arity(self, d):
        py, c = both(d, 3)
        assert py.histogram(1, 3) == c.histogram(1, 3) == {b"\x01" + b"\x00" * d: 3}


class TestSerializers:
    # one- and two-digit symbols, and arities on both sides of the largest
    # one that fits in a byte
    @pytest.mark.parametrize(
        "d,n",
        [
            (2, 0),
            (2, 1),
            (2, 400),
            (3, 150),
            (9, 40),
            (10, 40),
            # a two-digit shape of 72,001 bytes: two blocks of format_shape
            (12, 6000),
            (255, 3),
            (256, 3),
            (300, 3),
        ],
    )
    def test_text_forms_match(self, d, n):
        py, c = both(d, n)
        py.steps(n)
        c.steps(n)
        assert py.code_text() == c.code_text()
        assert py.paren_text() == c.paren_text()
        assert c.code_text().split() == [str(s).encode() for s in c.preorder_code()]
        assert c.tree.code_text().encode() == c.code_text()

    @pytest.mark.parametrize("d,n,chains", [(2, 9, 3000), (2, 1000, 40), (3, 4, 2000)])
    def test_histogram_table_grows(self, d, n, chains):
        # the C core's shape table starts at 16 shapes and 32 slots: d = 2,
        # n = 9 has 4,862 classes, so most of its chains add a shape, and
        # n = 1000 gives keys of 2,001 bytes.  Keys come in the order first
        # seen on both kernels.
        py, c = both(d, 8)
        expected, got = py.histogram(n, chains), c.histogram(n, chains)
        assert got == expected
        assert list(got) == list(expected)
        assert len(got) > 16
        assert py.rng_draws == c.rng_draws
        assert counters(py) == counters(c)

    @pytest.mark.parametrize("n,chains", [(4, 300), (0, 5), (-2, 5), (4, 0)])
    def test_histogram_leaves_the_last_chain(self, n, chains):
        # the kernel holds the last chain's tree and counters and the PRNG
        # is where the last chain left it; no chains leave the kernel alone
        py, c = both(3, 5)
        for k in (py, c):
            k.steps(20)
            k.histogram(n, chains)
            assert k.n == (max(n, 0) if chains else 20)
        assert py.preorder_code() == c.preorder_code()
        assert counters(py) == counters(c)
        assert py.uniform_below(10**9) == c.uniform_below(10**9)

    def test_empty_histograms(self):
        py, c = both(3, 1)
        assert py.histogram(2, 0) == c.histogram(2, 0) == {}
        assert py.histogram(-1, 4) == c.histogram(-1, 4) == {b"\x00": 4}


def comb(kernel, n, letter):
    """Grow ``kernel`` by n steps that mark only buds: each old tree becomes
    one child of the new root, at the slot ``letter`` puts it in."""
    d = kernel.d
    for _ in range(n):
        kernel.step_with(range(kernel.root, kernel.root + d - 1), letter)
    return kernel


class TestWalkSides:
    """The C core renders the shape, the paren text and the height in one
    preorder walk over a stack of node ids, with a marker below each
    internal node's children in the paren and height modes.  Every view
    must be the spec's, whatever the tree's size and shape, and however
    full the stack gets."""

    @staticmethod
    def views(k):
        return bytes(k._shape()), k.code_text(), k.paren_text(), k.height()

    @pytest.mark.parametrize("d", [2, 3, 12])
    @pytest.mark.parametrize("nodes", [10922, 32769, 65536])
    def test_random_trees(self, d, nodes):
        # big random trees
        py, c = both(d, nodes)
        n = -(-(nodes - 1) // d)
        py.steps(n)
        c.steps(n)
        assert self.views(py) == self.views(c)

    @pytest.mark.parametrize("d", [2, 3, 12])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_combs(self, d, side):
        # a left comb keeps its internal nodes first in preorder, so the
        # walk's stack fills: (d - 1) * n leaves and n markers are pending
        # at once; a right comb's internal nodes come last, and its stack
        # holds at most d entries and a marker per level walked
        n = 65536 // d
        letter = d - 1 if side == "left" else d
        py, c = (comb(k, n, letter) for k in both(d, 0))
        leaves = b"\0" * (d - 1)
        spine = b"\1" * n + leaves * n if side == "left" else (b"\1" + leaves) * n
        assert bytes(c._shape()) == spine + b"\0"
        assert c.height() == n
        assert self.views(py) == self.views(c)

    @pytest.mark.parametrize("d", [2, 3, 5, 12])
    def test_every_small_tree_size(self, d):
        # tiny trees, the size of histogram chains: every size from the
        # single leaf to 40 steps
        for n in range(41):
            py, c = both(d, 1000 * d + n)
            py.steps(n)
            c.steps(n)
            assert bytes(c._shape()) == bytes(py._shape()), n
            assert c.paren_text() == py.paren_text(), n
            assert c.height() == py.height(), n

    def test_one_cpu_gives_the_same_bytes(self):
        # pinned to one CPU, a process walks exactly as it does unpinned:
        # the walks keep to the calling thread, so the bytes are the same
        # and come in about the same time
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no os.sched_setaffinity")
        cpu = min(os.sched_getaffinity(0))
        argv = ["grow", "--d", "2", "--n", "200000", "--seed", "5", "--kernel", "c", "--counters"]
        pinned = (
            f"import os, sys; os.sched_setaffinity(0, {{{cpu}}});"
            "from darygrow.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        runs = [
            subprocess.run(
                [sys.executable, *how, *argv], capture_output=True, timeout=120
            )
            for how in (["-m", "darygrow.cli"], ["-c", pinned])
        ]
        for out in runs:
            assert out.returncode == 0, out.stderr
        free, one = runs
        assert one.stdout == free.stdout and len(one.stdout) == 2 * 400_001
        record = json.loads(one.stderr.splitlines()[-1])
        assert record["kernel"] == "c" and record["emit_s"] < 1.0, record


class TestSizeGuard:
    def test_steps_past_int32_ids_refused(self):
        k = make_kernel(2, 0, kernel="c")
        k.steps(5)
        with pytest.raises(SizeGuardError):
            k.steps(10**12)
        with pytest.raises(SizeGuardError):
            k.steps(2**30)  # 2 * (5 + 2^30) + 1 ids
        # refused before anything changed
        assert k.n == 5 and k.node_allocations == 10
        k.steps(1)
        assert k.n == 6

    def test_guard_boundary(self):
        # d * (d * n + 1) child slots may reach INT32_MAX, not pass it: at
        # d = 2, n = 2^29 - 1 holds 2^31 - 2 of them; checked without
        # growing, since the arena would take gigabytes
        check_child_slots(2, 2**29 - 1)
        with pytest.raises(SizeGuardError):
            check_child_slots(2, 2**29)

    def test_histogram_past_int32_ids_refused(self):
        k = make_kernel(2, 0, kernel="c")
        with pytest.raises(SizeGuardError):
            k.histogram(2**30, 1)

    def test_cli_size_guard_exit(self, capsys):
        argv = ["grow", "--d", "2", "--n", "1000000000000", "--seed", "0", "--kernel", "c"]
        assert cli_main(argv) == 1
        assert "size guard" in capsys.readouterr().err

    def test_allocation_failure_is_memory_error(self):
        # under a 1 GiB address-space limit, a 6*10^8-node arena cannot be
        # allocated; the kernel must raise MemoryError and stay usable
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from darygrow.sampler import make_kernel\n"
            "k = make_kernel(2, 0, kernel='c')\n"
            "try:\n"
            "    k.steps(300_000_000)\n"
            "except MemoryError:\n"
            "    k.steps(10)\n"
            "    print('memory error', k.n)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["memory", "error", "10"]

    def test_histogram_allocation_failure_is_memory_error(self):
        # under a 1 GiB address-space limit the shape table's first 16 keys
        # of 2^26 + 1 bytes cannot be allocated; MemoryError, and the kernel
        # still bins the next histogram
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from darygrow.sampler import make_kernel\n"
            "k = make_kernel(2, 0, kernel='c')\n"
            "try:\n"
            "    k.histogram(1 << 25, 16)\n"
            "except MemoryError:\n"
            "    h = k.histogram(3, 40)\n"
            "    print('memory error', sum(h.values()), {len(key) for key in h}, k.n)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["memory", "error", "40", "{7}", "3"]

    def test_library_does_not_shadow_wrapper(self):
        assert c_kernel.__file__.endswith("_growth_c.py")
        assert c_kernel.library_name().startswith("_growth_core-")
