"""Cross-checks between the pure-Python kernel and the compiled one.

Both kernels promise the same observable behaviour down to the draw
sequence: same arena layout (node r is the child end of edge rank r, root
id d*n), same allocation order inside a step, same counters, same trees,
same serializations, for every arity.  The package compiles the C core on
first import when a C compiler is present, so this module is skipped only
where the compiled kernel cannot be built.
"""

import os
import random
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
            # paths of several hundred ids: the lex phase's buffer starts at
            # 256 ids shared by the lanes, so it must grow and walk again
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
        py, cy = both(4, 13)
        py.steps(30)
        cy.steps(30)
        for rank in range(4 * 30):
            assert py.edge_word(rank) == cy.edge_word(rank)

    def test_histograms_match(self):
        py, cy = both(3, 21)
        assert py.histogram(3, 400) == cy.histogram(3, 400)

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
    @pytest.mark.parametrize("d,n", [(2, 0), (2, 1), (2, 400), (3, 150), (10, 40), (300, 3)])
    def test_text_forms_match(self, d, n):
        py, c = both(d, n)
        py.steps(n)
        c.steps(n)
        assert py.code_text() == c.code_text()
        assert py.paren_text() == c.paren_text()
        assert c.code_text().split() == [str(s).encode() for s in c.preorder_code()]

    def test_histogram_spans_blocks(self):
        # more chain bytes than one C call fills: the blocks must add up
        py, c = both(2, 8)
        n = 1000
        chains = 2 * (c_kernel._HISTOGRAM_BLOCK // (2 * n + 1)) + 3
        assert py.histogram(n, chains) == c.histogram(n, chains)
        assert py.rng_draws == c.rng_draws

    def test_empty_histograms(self):
        py, c = both(3, 1)
        assert py.histogram(2, 0) == c.histogram(2, 0) == {}
        assert py.histogram(-1, 4) == c.histogram(-1, 4) == {b"\x00": 4}


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

    def test_library_does_not_shadow_wrapper(self):
        assert c_kernel.__file__.endswith("_growth_c.py")
        assert c_kernel.library_name().startswith("_growth_core-")
