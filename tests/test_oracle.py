"""Counting, enumeration, verification and statistics oracles.

scipy is used here purely as a cross-check for the home-grown incomplete
gamma; the library itself never imports it.
"""

import hashlib
import itertools
import json
import math
import subprocess
import sys

import pytest

from darygrow import bijections, oracle
from darygrow.errors import SizeGuardError, UnderpoweredTestError
from darygrow.marks import EdgeMarkedTree, LeafMarkedTree
from darygrow.tree import DaryTree, shape_key
from test_acceptance import BIJECTION_SUITE

scipy_special = pytest.importorskip("scipy.special")


# exact tree counts per arity, n = 0, 1, 2, ...
KNOWN_COUNTS = {
    2: [1, 1, 2, 5, 14, 42, 132, 429],
    3: [1, 1, 3, 12, 55, 273, 1428],
    4: [1, 1, 4, 22, 140, 969],
    5: [1, 1, 5, 35, 285],
}


class TestCounting:
    @pytest.mark.parametrize("d", sorted(KNOWN_COUNTS))
    def test_known_values(self, d):
        got = [oracle.count_trees(d, n) for n in range(len(KNOWN_COUNTS[d]))]
        assert got == KNOWN_COUNTS[d]

    def test_specific_cells(self):
        assert oracle.count_trees(3, 2) == 3
        assert oracle.count_trees(4, 3) == 22

    def test_division_always_exact(self):
        for d in range(2, 9):
            for n in range(0, 40):
                a = oracle.count_trees(d, n)
                assert a == math.comb(d * n + 1, n) // (d * n + 1)
                assert math.comb(d * n + 1, n) % (d * n + 1) == 0

    def test_growth_identity(self):
        for d in range(2, 9):
            assert all(oracle.growth_identity_holds(d, n) for n in range(0, 51))

    def test_mark_set_count(self):
        # universe of dn + d - 1 edge slots, choose d - 1
        assert oracle.mark_set_count(3, 3) == math.comb(11, 2) == 55
        assert oracle.mark_set_count(2, 0) == 1


class TestEnumeration:
    @pytest.mark.parametrize(
        "d,upto", [(2, 6), (3, 4), (4, 3), (5, 2)]
    )
    def test_matches_counting(self, d, upto):
        for n in range(upto + 1):
            trees = oracle.enumerate_trees(d, n)
            assert len(trees) == oracle.count_trees(d, n)
            codes = [tuple(t.to_preorder_code()) for t in trees]
            assert len(set(codes)) == len(codes)
            assert codes == sorted(codes)  # canonical order

    def test_all_trees_valid(self):
        for t in oracle.enumerate_trees(3, 3):
            assert t.internal_count == 3

    def test_guard_trips(self):
        with pytest.raises(SizeGuardError):
            oracle.enumerate_trees(2, 60)

    def test_guard_override(self):
        n12 = oracle.enumerate_trees(2, 12, force=True)
        assert len(n12) == 208012

    def test_guard_counts_symbols_of_the_list(self, deadline):
        # 1,430,715 trees of 31 symbols each: under the object budget, but
        # the list would hold 4.4*10^7 symbols, so it is refused at once
        with deadline(1):
            with pytest.raises(SizeGuardError):
                oracle.enumerate_trees(3, 10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: oracle.enumerate_trees(2, 10**6),
            lambda: oracle.verify_enlarge_bijection(2, 10**6),
            lambda: next(oracle.enumerate_marked_trees(10**7, 1)),
            lambda: oracle.chi_square_uniformity(2, 10**6, samples=1, seed=0),
        ],
        ids=["trees", "bijection", "mark-sets", "chi-square"],
    )
    def test_guard_refuses_before_it_counts(self, call, deadline):
        # count_trees(2, 10**6) has 600,000 digits, and the mark sets of
        # d = 10^7 about 6*10^6: their logarithms refuse them unbuilt
        with deadline(1):
            with pytest.raises(SizeGuardError, match=r"of ~10\^\d+ objects"):
                call()

    def test_guard_admits_what_the_exact_count_admits(self):
        # the logarithm decides only counts a decade past the budget; near
        # it the exact count does, so the sizes admitted stay the same
        def refused(*args, **kwargs):
            try:
                oracle._guard(*args, **kwargs)
            except SizeGuardError:
                return True
            return False

        budget = oracle.MAX_OBJECTS
        for d in [*range(2, 13), 40, 300, 1000, 10**6, 10**7, 10**7 + 1]:
            for n in range(30):
                trees = oracle.count_trees(d, n)
                if trees > 10**30:
                    break
                assert refused(d, n, False) == (trees > budget), (d, n)
                symbols = trees * (d * n + 1)
                assert refused(d, n, False, times=d * n + 1) == (symbols > budget), (d, n)
                marks = (d * n + d - 1, d - 1)
                if oracle.log10_comb(*marks) < 30:
                    inputs = trees * oracle.mark_set_count(d, n) * d
                    assert refused(d, n, False, marks, d) == (inputs > budget), (d, n)
                assert not refused(d, n, True, marks, d)

    @pytest.mark.parametrize(
        "a", [0, 1, 2, 7, 40, 1000, 10**5, 10**9, 10**15, 10**30, 10**200]
    )
    def test_log10_comb(self, a):
        # lgamma where the three terms are comparable; b ln a where b is so
        # small beside a that their difference would cancel
        for b in {0, 1, 2, 3, 17, 200, a // 3, a // 2, a - 1, a}:
            if 0 <= b <= a and min(b, a - b) <= 200:
                exact = math.log10(math.comb(a, b))
                assert oracle.log10_comb(a, b) == pytest.approx(exact, rel=1e-6, abs=1e-9)
        assert oracle.log10_comb(10**400, 10**399) == math.inf  # past the float range

    def test_enumerate_inputs_counts(self):
        assert len(oracle.enumerate_inputs(3, 0)) == 3
        assert len(oracle.enumerate_inputs(2, 1)) == 6
        assert len(oracle.enumerate_inputs(3, 3)) == 1980

    def test_inputs_are_distinct(self):
        seen = {(x.key(), a) for x, a in oracle.enumerate_inputs(3, 2)}
        assert len(seen) == 252

    def test_enumerate_leaf_marked(self):
        # size-1 trees with d-1 marked leaves: binom(d, d-1) markings
        for d in (2, 3, 4):
            items = list(oracle.enumerate_leaf_marked(d, 1, d - 1))
            assert len(items) == d

    def test_forest_cardinality_chain(self):
        from darygrow.marks import is_excursion_forest

        # |F| = d * binom(dn+d-1, d-1) * a_n, and the excursion-type slice
        # is exactly one d-th of it
        for n in (0, 1, 2):
            forests = list(oracle.enumerate_forests(3, n))
            expected = 3 * math.comb(3 * n + 2, 2) * oracle.count_trees(3, n)
            assert len(forests) == expected
            assert len({f.key() for f in forests}) == expected
            excursions = [f for f in forests if is_excursion_forest(f)]
            assert len(excursions) * 3 == expected


class TestBijectionVerifier:
    @pytest.mark.parametrize("d,n", [(2, 0), (2, 3), (3, 2), (4, 1), (5, 0)])
    def test_passes(self, d, n):
        report = oracle.verify_enlarge_bijection(d, n)
        assert report["pass"] is True
        assert report["counterexample"] is None

    def test_reported_numbers_at_d3_n3(self):
        report = oracle.verify_enlarge_bijection(3, 3)
        assert report["inputs"] == 1980
        assert report["images"] == 1980
        assert report["expected_multiplicity"] == 36

    def test_multiplicity_at_d2_n4(self):
        report = oracle.verify_enlarge_bijection(2, 4)
        assert report["expected_multiplicity"] == 6
        assert report["pass"] is True

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            oracle.verify_enlarge_bijection(4, 6)

    def test_suite_reports_pinned(self):
        # criterion 3's 15 reports, byte for byte, as they were when reduce
        # still checked each forest's excursion type again
        lines = [
            json.dumps(oracle.verify_enlarge_bijection(d, n), sort_keys=True)
            for d, n in BIJECTION_SUITE
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "6deb82da56419742aa25613d59ccbf12fb76a0e2ac3af16f4fccb43641a59f60"
        )

    @pytest.mark.parametrize(
        "stage,kind,inputs_per_call",
        [
            ("reduce", "round_trip", 1),
            ("rotate", "collision", 1),
            ("cut", "cut_not_excursion", 3),
            ("hang", "collision", 1),
        ],
    )
    def test_broken_stage_fails(self, monkeypatch, stage, kind, inputs_per_call):
        # a verifier that checked nothing must not report pass.  The names
        # patched are those the verifier runs: the cut helper runs once per
        # marked tree, for its 3 inputs, and the turn and the hang once per
        # input
        name = STAGE_NAMES[stage]
        real = getattr(bijections, name)
        calls = []

        def broken(*args):
            calls.append(args)
            return BROKEN[stage](real, len(calls), *args)

        monkeypatch.setattr(bijections, name, broken)
        report = oracle.verify_enlarge_bijection(3, 2)
        assert report["pass"] is False
        assert report["counterexample"]["kind"] == kind
        assert 0 < report["inputs"] <= inputs_per_call * len(calls)

    def test_collision_names_the_other_input(self, monkeypatch):
        # no image is kept: the earlier input is what reduce returns, and it
        # enlarges to the same image
        real = bijections._turn
        monkeypatch.setattr(bijections, "_turn", lambda parts, a: real(parts, 1))
        bad = oracle.verify_enlarge_bijection(3, 2)["counterexample"]
        assert bad["kind"] == "collision"
        assert (bad["input"]["letter"], bad["other_input"]["letter"]) == (2, 1)
        assert dict(bad["other_input"], letter=2) == bad["input"]

    @pytest.mark.parametrize("field", ["code", "buds", "edges"])
    def test_reduce_answer_compared_field_by_field(self, monkeypatch, field):
        # on the 5th input reduce returns its answer with one field changed
        # and the letter right: a round trip failure, whichever field it is
        real, calls = bijections.reduce, []

        def broken(t):
            back, a = real(t)
            calls.append(t)
            if len(calls) == 5:
                other = {
                    "code": next(c for c in oracle.enumerate_codes(3, 2) if c != back.code),
                    "buds": back.buds + (1,),
                    "edges": back.edges + (1,),
                }
                fields = dict(code=back.code, buds=back.buds, edges=back.edges)
                fields[field] = other[field]
                back = EdgeMarkedTree.from_code(3, **fields)
            return back, a

        monkeypatch.setattr(bijections, "reduce", broken)
        report = oracle.verify_enlarge_bijection(3, 2)
        assert report["counterexample"]["kind"] == "round_trip"
        assert report["inputs"] == 5

    def test_image_reduce_refuses_is_a_round_trip(self, monkeypatch):
        # a hang that marks each image's root hands reduce a tree it
        # refuses: reported with the input and the error's text, not raised
        real = bijections._hang

        def marking_the_root(d, parts):
            t = real(d, parts)
            return LeafMarkedTree.from_code(d, t.code, (0,) + t.leaves[1:])

        monkeypatch.setattr(bijections, "_hang", marking_the_root)
        report = oracle.verify_enlarge_bijection(3, 1)
        assert report["pass"] is False
        bad = report["counterexample"]
        assert bad["kind"] == "round_trip"
        assert (report["inputs"], bad["input"]["letter"]) == (1, 1)
        assert bad["error"] == "marked node at position 0 is the root"

    def test_reduce_returning_no_input_is_a_round_trip(self, monkeypatch):
        # letter 0 names no input: nothing to re-enlarge, and no exception
        real = bijections.reduce
        monkeypatch.setattr(bijections, "reduce", lambda t: (real(t)[0], 0))
        bad = oracle.verify_enlarge_bijection(3, 2)["counterexample"]
        assert bad["kind"] == "round_trip"
        assert bad["returned"]["letter"] == 0


def _reduce_wrong_letter_once(real, call, t):
    back, a = real(t)
    return back, a % 3 + 1 if call == 5 else a


def _turn_ignoring_letter(real, call, parts, a):
    return real(parts, 1)


def _cut_swapping_ends(real, call, x):
    parts, counts = real(x)
    return [parts[-1], *parts[1:-1], parts[0]], [counts[-1], *counts[1:-1], counts[0]]


def _hang_moving_a_mark_once(real, call, d, parts):
    # on the 5th image, the first marked leaf moves to the first unmarked
    # leaf: still d - 1 marked leaves, so reduce returns another input
    t = real(d, parts)
    if call != 5:
        return t
    free = next(p for p, sym in enumerate(t.code) if not sym and p not in t.leaves)
    return LeafMarkedTree.from_code(d, t.code, tuple(sorted(t.leaves[1:] + (free,))))


BROKEN = {
    "reduce": _reduce_wrong_letter_once,
    "rotate": _turn_ignoring_letter,
    "cut": _cut_swapping_ends,
    "hang": _hang_moving_a_mark_once,
}
# the name in ``bijections`` through which the verifier runs each stage
STAGE_NAMES = {"reduce": "reduce", "rotate": "_turn", "cut": "_cut", "hang": "_hang"}


class TestRotationVerifier:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_passes(self, m):
        report = oracle.verify_rotation_lemma(m, 3)
        assert report["pass"] is True

    def test_wrong_shift_fails(self, monkeypatch):
        # the shift the bijections run is the one certified: one rotation
        # past it is caught
        from darygrow import walks

        real = walks.leaf_shift
        monkeypatch.setattr(walks, "leaf_shift", lambda c: (real(c) + 1) % len(c))
        report = oracle.verify_rotation_lemma(5, 3)
        assert report["pass"] is False
        assert report["counterexample"]["kind"] == "shift"

    def test_walk_totals(self):
        # stars-and-bars on increments+1: binom(8,4), and binom(12,6)-49
        assert oracle.verify_rotation_lemma(5, 4)["walks"] == 70
        assert oracle.verify_rotation_lemma(7, 3)["walks"] == 875

    def test_guard(self):
        # 5^11 increment tuples, past the budget
        with pytest.raises(SizeGuardError):
            oracle.verify_rotation_lemma(11, 3)

    def test_guard_decides_long_walks_without_the_power(self, deadline):
        # 2^23 tuples fit the budget and 2^24 do not; past that length the
        # power is never built, so 5^(10^8) is refused at once
        oracle.rotation_guard(23, 0)
        with deadline(1):
            for m, max_inc in ((24, 0), (10**8, 3)):
                with pytest.raises(SizeGuardError, match=rf"of {max_inc + 2}\^{m} objects"):
                    oracle.rotation_guard(m, max_inc)


class TestBinaryVariantVerifier:
    @pytest.mark.parametrize("n", range(0, 5))
    def test_passes(self, n):
        report = oracle.verify_binary_variants(n)
        assert report["pass"] is True

    def test_input_count_at_n2(self):
        assert oracle.verify_binary_variants(2)["inputs_per_map"] == 20

    def test_witness_recorded(self):
        report = oracle.verify_binary_variants(2)
        assert report["witness"] is not None

    def test_guard(self):
        # 742,900 trees of size 13 with one of 14 leaves marked
        with pytest.raises(SizeGuardError):
            oracle.verify_binary_variants(12)

    @pytest.mark.parametrize("name,kind", [("remy", "collision"), ("third", "image_mismatch")])
    def test_broken_map_fails(self, monkeypatch, name, kind):
        # a verifier that checked nothing must not report pass
        real = getattr(bijections, f"{name}_enlarge")
        monkeypatch.setattr(
            bijections, f"{name}_enlarge", lambda x, side: BROKEN_VARIANTS[name](real, x, side)
        )
        report = oracle.verify_binary_variants(2)
        assert report["pass"] is False
        bad = report["counterexample"]
        assert (bad["kind"], bad["map"]) == (kind, name)
        if kind == "collision":
            # the same marked tree grown to the other side
            assert bad["other_input"] == dict(bad["input"], letter=bijections.RIGHT)

    def test_missing_inputs_fail(self, monkeypatch):
        # every image a target and none hit twice, but two targets unhit
        real = oracle.enumerate_marked_trees
        monkeypatch.setattr(
            oracle,
            "enumerate_marked_trees",
            lambda d, n, force=False: itertools.islice(real(d, n, force), 1, None),
        )
        report = oracle.verify_binary_variants(2)
        assert report["counterexample"] == {
            "kind": "image_mismatch", "map": "remy", "images": 18, "expected": 20
        }


def _variant_ignoring_side(real, x, side):
    return real(x, bijections.RIGHT)


def _variant_marking_the_root(real, x, side):
    return LeafMarkedTree.from_code(2, real(x, side).code, (0,))


BROKEN_VARIANTS = {"remy": _variant_ignoring_side, "third": _variant_marking_the_root}


# a fresh interpreter runs the verifier and prints its peak RSS in KiB
PEAK_RSS = """
from darygrow import cli, oracle

assert oracle.{call}["pass"]
print(cli._peak_rss_kib())
"""


@pytest.mark.parametrize("call", ["verify_enlarge_bijection(2, 8)", "verify_binary_variants(8)"])
def test_verifier_memory_stays_near_the_import(call):
    # importing takes about 15 MB.  A map from every image to its input
    # peaks at about 37 MB (bijection) and 47 MB (variants); one count per
    # tree of size n+1, or one byte per target, stays near the import
    out = subprocess.run(
        [sys.executable, "-c", PEAK_RSS.format(call=call)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) / 1024 < 25


class TestGammaQ:
    """The p-value plumbing against scipy's gammaincc."""

    @pytest.mark.parametrize(
        "s,x",
        [
            (0.5, 0.1),
            (1.0, 1.0),
            (2.5, 0.3),
            (10.0, 9.5),
            (20.5, 31.4),
            (27.0, 27.0),
            (50.0, 40.0),
            (0.5, 200.0),
            (127.0, 90.0),
        ],
    )
    def test_matches_scipy(self, s, x):
        ours = oracle.regularized_gamma_q(s, x)
        ref = float(scipy_special.gammaincc(s, x))
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_edge_values(self):
        assert oracle.regularized_gamma_q(3.0, 0.0) == 1.0
        assert oracle.regularized_gamma_q(1.0, 800.0) == pytest.approx(0.0, abs=1e-12)

    def test_chi_square_p_value(self):
        # dof 0 is degenerate-by-construction: single class, always uniform
        assert oracle.chi_square_p_value(0.0, 0) == 1.0
        ref = float(scipy_special.gammaincc(2.0, 3.7 / 2.0))
        assert oracle.chi_square_p_value(3.7, 4) == pytest.approx(ref, abs=1e-12)


class TestChiSquare:
    def test_single_class_is_trivially_uniform(self):
        report = oracle.chi_square_uniformity(3, 1, samples=50, seed=1)
        assert report.classes == 1
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_underpowered_rejected(self):
        with pytest.raises(UnderpoweredTestError):
            oracle.chi_square_uniformity(3, 4, samples=100, seed=1)

    def test_underpowered_at_the_largest_admitted_class_count(self):
        # Catalan(15) = 9,694,845 fits the budget: the exact count admits
        # it, and ten samples are then too few
        with pytest.raises(UnderpoweredTestError, match="9694845 classes"):
            oracle.chi_square_uniformity(2, 15, 10, 0)

    def test_honest_run_passes(self):
        report = oracle.chi_square_uniformity(3, 3, samples=2000, seed=5)
        assert report.dof == 11
        assert report.samples == 2000
        assert report.p_value >= 0.001

    @staticmethod
    def rig(monkeypatch, observed):
        """Make the oracle's kernels return ``observed`` as their histogram."""

        class Stub:
            def histogram(self, n, chains):
                return observed

        monkeypatch.setattr(oracle, "make_kernel", lambda d, seed, kernel=None: Stub())

    def test_biased_histogram_fails(self, monkeypatch):
        # inject a histogram that piles everything on one class
        classes = oracle.enumerate_trees(3, 3)
        top = shape_key(classes[0].to_preorder_code())
        self.rig(monkeypatch, {top: 2000})
        report = oracle.chi_square_uniformity(3, 3, samples=2000, seed=5)
        # finite: the bias was measured, not an unknown shape reported
        assert math.isfinite(report.statistic)
        assert report.p_value < 1e-9

    def test_unknown_shape_is_fatal(self, monkeypatch):
        self.rig(monkeypatch, {(9, 9): 2000})
        report = oracle.chi_square_uniformity(3, 3, samples=2000, seed=5)
        assert report.statistic == math.inf
        assert report.p_value == 0.0

    def test_report_serializes(self):
        report = oracle.chi_square_uniformity(2, 3, samples=600, seed=3)
        obj = report.to_obj()
        assert obj["classes"] == 5
        assert set(obj) >= {"classes", "statistic", "dof", "p_value", "samples", "seed"}


class TestHeightStats:
    def test_degenerate_sizes(self):
        assert oracle.height_stats(2, 0, reps=3, seed=1)["mean"] == 0.0
        assert oracle.height_stats(2, 1, reps=3, seed=1)["mean"] == 1.0

    def test_sanity_corridor(self):
        stats = oracle.height_stats(3, 10000, reps=20, seed=123)
        assert 3 < stats["mean"] < 1000
        assert stats["min"] <= stats["mean"] <= stats["max"]
