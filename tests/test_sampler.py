import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from darygrow.errors import SizeGuardError
from darygrow.marks import Bud, EdgeMark
from darygrow.sampler import (
    OpCounters,
    SplitMix64,
    chain,
    grow_to,
    kernel_name,
    make_kernel,
    sample_mark_set,
)
from darygrow.tree import DaryTree


# published reference outputs of the splitmix64 stream; anything that
# drifts from these breaks cross-implementation reproducibility
REFERENCE_STREAMS = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC),
    1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E),
    42: (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52),
}


class TestSplitMix64:
    @pytest.mark.parametrize("seed,expected", sorted(REFERENCE_STREAMS.items()))
    def test_reference_stream(self, seed, expected):
        rng = SplitMix64(seed)
        assert tuple(rng.next64() for _ in expected) == expected

    def test_determinism(self):
        a, b = SplitMix64(987), SplitMix64(987)
        assert [a.next64() for _ in range(50)] == [b.next64() for _ in range(50)]

    def test_draw_counter(self):
        rng = SplitMix64(3)
        rng.next64()
        rng.uniform_below(10)
        assert rng.draws >= 2

    def test_uniform_below_one_consumes_nothing(self):
        rng = SplitMix64(5)
        before = rng.draws
        assert rng.uniform_below(1) == 0
        assert rng.draws == before

    def test_uniform_below_zero_rejected(self):
        with pytest.raises(ValueError):
            SplitMix64(5).uniform_below(0)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_uniform_below_in_range(self, seed, k):
        assert 0 <= SplitMix64(seed).uniform_below(k) < k

    def test_unbiased_coin(self):
        rng = SplitMix64(314159)
        n = 10**5
        ones = sum(rng.uniform_below(2) for _ in range(n))
        assert 0.49 < ones / n < 0.51


class TestSampleMarkSet:
    def test_forced_buds_at_n0(self):
        for d in (2, 3, 5):
            t = DaryTree.from_code_text(d, "0")
            marks = sample_mark_set(SplitMix64(0), t)
            assert sorted(m.index for m in marks) == list(range(d - 1))
            assert all(isinstance(m, Bud) for m in marks)

    def test_size_and_distinctness(self):
        k = make_kernel(3, 8)
        k.steps(40)
        t = DaryTree.from_preorder_code(3, k.preorder_code())
        rng = SplitMix64(123)
        for _ in range(200):
            marks = sample_mark_set(rng, t)
            assert len(marks) == 2
            keys = {
                (0, m.index) if isinstance(m, Bud) else (1, m.child) for m in marks
            }
            assert len(keys) == 2

    def test_all_two_subsets_reachable(self):
        # d=3, n=1: universe of 5 ranks, binom(5,2)=10 subsets
        t = DaryTree.from_code_text(3, "3 0 0 0")
        rng = SplitMix64(77)
        seen = set()
        for _ in range(3000):
            marks = sample_mark_set(rng, t)
            seen.add(
                frozenset(
                    ("b", m.index) if isinstance(m, Bud) else ("e", m.child)
                    for m in marks
                )
            )
        assert len(seen) == 10

    def test_edge_marks_name_nonroot_nodes(self):
        k = make_kernel(2, 5)
        k.steps(20)
        t = DaryTree.from_preorder_code(2, k.preorder_code())
        rng = SplitMix64(6)
        for _ in range(100):
            for m in sample_mark_set(rng, t):
                if isinstance(m, EdgeMark):
                    assert m.child != t.root
                    assert 0 < m.child < t.node_count


class TestKernelSelection:
    def test_default_prefers_compiled(self):
        # the compiled kernel is selected whenever it can be imported and
        # no override is set; otherwise the Python kernel is
        try:
            import darygrow._growth_c  # noqa: F401
        except ImportError:
            compiled = False
        else:
            compiled = True
        if compiled and not os.environ.get("DARYGROW_PURE_PYTHON"):
            assert kernel_name() == "c"
        else:
            assert kernel_name() == "python"

    def test_explicit_python(self):
        k = make_kernel(3, 1, kernel="python")
        assert k.name == "python"

    def test_env_override(self):
        # run in a subprocess: the override is read at import time
        code = "from darygrow.sampler import kernel_name; print(kernel_name())"
        env = dict(os.environ, DARYGROW_PURE_PYTHON="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            make_kernel(3, 1, kernel="fortran")

    def test_python_kernel_size_guard(self):
        # the same child-slot limit as the compiled kernel, checked before
        # anything grows
        k = make_kernel(2, 0, kernel="python")
        k.steps(5)
        with pytest.raises(SizeGuardError):
            k.steps(2**30)
        with pytest.raises(SizeGuardError):
            k.histogram(2**30, 1)
        assert k.n == 5 and k.node_allocations == 10

    @pytest.mark.parametrize("name", ["python", "c"])
    def test_one_step_past_the_child_slots_refused(self, name, deadline):
        # at d = 46341 the first internal node already needs d*(d+1) child
        # slots, past 2^31 - 1: step() and a chain's second tree are refused
        # at once, as steps() is, before any rank is drawn
        if name == "c":
            pytest.importorskip(
                "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
            )
        with deadline(5), pytest.raises(SizeGuardError):
            make_kernel(46341, 1, kernel=name).step()
        trees = chain(46341, 1, kernel=name)
        with deadline(5):
            assert next(trees).node_count == 1
            with pytest.raises(SizeGuardError):
                next(trees)


class TestGrowing:
    def test_grow_to_zero(self):
        t, counters = grow_to(3, 0, seed=9)
        assert t.node_count == 1
        assert counters.node_allocations == 0

    def test_allocations_are_d_per_step(self):
        for d in (2, 4):
            t, counters = grow_to(d, 25, seed=31)
            assert t.internal_count == 25
            assert counters.node_allocations == d * 25

    def test_same_seed_same_tree(self):
        a, _ = grow_to(3, 100, seed=424242)
        b, _ = grow_to(3, 100, seed=424242)
        assert a == b

    def test_different_seeds_usually_differ(self):
        a, _ = grow_to(2, 60, seed=1)
        b, _ = grow_to(2, 60, seed=2)
        assert a != b

    def test_counters_are_frozen_snapshots(self):
        _, counters = grow_to(2, 5, seed=0)
        assert isinstance(counters, OpCounters)
        with pytest.raises(AttributeError):
            counters.rng_draws = 0

    def test_grow_step_state(self):
        kernel = make_kernel(3, seed=17)
        for expected in (1, 2, 3):
            kernel.step()
            assert kernel.n == expected
            assert kernel.tree.internal_count == expected
        assert kernel.counters.node_allocations == 9

    def test_chain_prefix_matches_grow_to(self):
        gen = chain(3, seed=55)
        snapshots = [next(gen) for _ in range(6)]
        assert snapshots[0].node_count == 1
        for k, snap in enumerate(snapshots):
            assert snap.internal_count == k
            direct, _ = grow_to(3, k, seed=55)
            assert snap == direct

    def test_chain_yields_independent_copies(self):
        gen = chain(2, seed=3)
        first = next(gen)
        second = next(gen)
        assert first.internal_count == 0  # mutating later snapshots never
        assert second.internal_count == 1  # reaches back into earlier ones
