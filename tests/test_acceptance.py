"""The acceptance gate: eleven numbered criteria, one test each.

Every criterion pins its tolerances and time budget in the assertions.
The `criterion` fixture prints one PASS/FAIL line per criterion at the end
of the run (see conftest).  Ordering between tests does not matter; each
test builds everything it needs.
"""

import math
import os
import statistics
import subprocess
import sys
import time

import pytest

from darygrow import oracle
from darygrow.bijections import cut, enlarge, reduce
from darygrow.marks import EdgeMarkedTree, is_excursion_forest
from darygrow.sampler import SplitMix64, make_kernel, sample_mark_set
from darygrow.tree import DaryTree

COUNTING_SUITE = (
    [(2, n) for n in range(7)]
    + [(3, n) for n in range(5)]
    + [(4, n) for n in range(4)]
    + [(5, n) for n in range(3)]
)

BIJECTION_SUITE = (
    [(2, n) for n in range(6)]
    + [(3, n) for n in range(4)]
    + [(4, n) for n in range(3)]
    + [(5, 0), (5, 1)]
)

# documented seed grids for the statistical runs (criterion 8)
CHI_SQUARE_CONFIGS = [
    (3, 4, 110000, list(range(42, 52))),
    (2, 5, 84000, list(range(7, 17))),
]


def elapsed_since(t0):
    return time.perf_counter() - t0


def test_criterion_01_counting(criterion):
    with criterion(1, "count_trees matches exhaustive enumeration", budget=10.0) as budget:
        t0 = time.perf_counter()
        for d, n in COUNTING_SUITE:
            assert len(oracle.enumerate_trees(d, n)) == oracle.count_trees(d, n)
        assert oracle.count_trees(3, 2) == 3
        assert [oracle.count_trees(2, n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        assert elapsed_since(t0) < budget


def test_criterion_02_growth_identity(criterion):
    with criterion(
        2, "marked-count identity exact for d in [2,8], n in [0,50]", budget=1.0
    ) as budget:
        t0 = time.perf_counter()
        for d in range(2, 9):
            for n in range(0, 51):
                assert oracle.growth_identity_holds(d, n), (d, n)
        assert elapsed_since(t0) < budget


def test_criterion_03_bijectivity(criterion):
    with criterion(3, "enlarge bijective on the exhaustive suites", budget=60.0) as budget:
        t0 = time.perf_counter()
        for d, n in BIJECTION_SUITE:
            report = oracle.verify_enlarge_bijection(d, n)
            assert report["pass"] is True, report
            expected_mult = math.comb((d - 1) * (n + 1) + 1, d - 1)
            assert report["expected_multiplicity"] == expected_mult
        confirm = oracle.verify_enlarge_bijection(3, 3)
        assert confirm["inputs"] == 1980
        assert confirm["expected_multiplicity"] == 36
        assert elapsed_since(t0) < budget


def test_criterion_04_round_trip_at_scale(criterion):
    with criterion(4, "100 random round trips per arity at n = 10^4", budget=30.0) as budget:
        t0 = time.perf_counter()
        for d in (2, 3, 5):
            for block in range(10):
                k = make_kernel(d, seed=1000 * d + block)
                k.steps(10_000)
                tree = DaryTree.from_preorder_code(d, k.preorder_code())
                rng = SplitMix64(7000 + 10 * d + block)
                for _ in range(10):
                    x = EdgeMarkedTree(tree, tuple(sample_mark_set(rng, tree)))
                    a = 1 + rng.uniform_below(d)
                    back, back_a = reduce(enlarge(x, a))
                    assert back_a == a
                    assert back.key() == x.key()
        assert elapsed_since(t0) < budget


def test_criterion_05_rotation_principle(criterion):
    with criterion(
        5, "rotation classes: m members, one excursion, argmin rule", budget=30.0
    ) as budget:
        t0 = time.perf_counter()
        for m in range(1, 8):
            report = oracle.verify_rotation_lemma(m, 3)
            assert report["pass"] is True, report
        assert elapsed_since(t0) < budget


def test_criterion_06_cut_image_is_excursion(criterion):
    with criterion(6, "cut lands in the excursion-type forests, exhaustively"):
        for d, n in BIJECTION_SUITE:
            for x, a in oracle.enumerate_inputs(d, n):
                f, _ = cut(x, a)
                assert is_excursion_forest(f), (d, n, x.key(), a)


def test_criterion_07_one_step_pushforward(criterion):
    with criterion(
        7, "one-step pushforward exactly uniform at d=3, k <= 3", budget=60.0
    ) as budget:
        t0 = time.perf_counter()
        for k in range(4):
            hits = {}
            for x, a in oracle.enumerate_inputs(3, k):
                shape = tuple(enlarge(x, a).tree.to_preorder_code())
                hits[shape] = hits.get(shape, 0) + 1
            mass = math.comb(2 * (k + 1) + 1, 2)
            assert len(hits) == oracle.count_trees(3, k + 1)
            assert set(hits.values()) == {mass}, (k, sorted(set(hits.values())))
        assert elapsed_since(t0) < budget


def test_criterion_08_statistical_uniformity(criterion):
    with criterion(
        8, "chi-square p >= 0.001 over the documented seed grids", budget=120.0
    ) as budget:
        t0 = time.perf_counter()
        for d, n, samples, seeds in CHI_SQUARE_CONFIGS:
            failures = []
            for seed in seeds:
                report = oracle.chi_square_uniformity(d, n, samples, seed)
                if report.p_value < 0.001:
                    failures.append((seed, report.p_value))
            assert len(failures) <= 1, (d, n, failures)
        assert elapsed_since(t0) < budget


def test_criterion_09_binary_variants(criterion):
    with criterion(
        9, "both binary growth maps bijective, pairwise witness", budget=30.0
    ) as budget:
        t0 = time.perf_counter()
        for n in range(6):
            report = oracle.verify_binary_variants(n)
            assert report["pass"] is True, report
        assert oracle.verify_binary_variants(2)["witness"] is not None
        assert elapsed_since(t0) < budget


def test_criterion_10_cost_model(criterion):
    with criterion(
        10, "3*10^6 allocations, O(d) steps, O(1)-class doubling", budget=120.0
    ) as budget:
        # the budget is met only by the compiled kernel
        pytest.importorskip(
            "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
        )
        t0 = time.perf_counter()
        d, n = 3, 1_000_000

        def o1_ratio():
            # both sizes are read off one chain, at n and at 2n steps: a separate
            # run to 2n would repeat the first n steps exactly, so measuring them
            # once leaves one independent noisy sample fewer in the ratio
            kernel = make_kernel(d, seed=2718, kernel="c")
            w0 = time.perf_counter()
            o1, letters = [], []
            for steps in (n, 2 * n):
                kernel.steps(steps - kernel.n)
                o1.append(time.perf_counter() - w0 - kernel.lex_seconds)
                letters.append(kernel.lex_letters_compared)
                assert kernel.node_allocations == d * steps
                assert kernel.max_step_redirections <= 4 * d
                assert kernel.rng_draws / steps <= d + 0.1
            # lex counters are reported, not asserted linear
            assert letters[1] > letters[0]
            return o1[1] / o1[0]

        # one ratio is at the mercy of a burst of load on the machine; the
        # median of three chains' ratios is not
        ratios = [o1_ratio() for _ in range(3)]
        assert 1.8 <= statistics.median(ratios) <= 2.6, ratios
        assert elapsed_since(t0) < budget


def test_criterion_11_cli_determinism(criterion):
    with criterion(11, "grow output byte-identical across runs and kernels"):
        args = ["grow", "--d", "2", "--n", "1000", "--seed", "5", "--format", "code"]

        def run(extra_env=None):
            env = dict(os.environ)
            env.pop("DARY_SEED", None)
            env.update(extra_env or {})
            out = subprocess.run(
                [sys.executable, "-m", "darygrow.cli", *args],
                capture_output=True,
                env=env,
            )
            assert out.returncode == 0, out.stderr.decode()
            return out.stdout

        first = run()
        second = run()
        pure_python = run({"DARYGROW_PURE_PYTHON": "1"})
        assert first == second
        assert first == pure_python
