"""Hand-traced vectors and round-trip properties for the growth maps.

The small exhaustive sweeps live in test_oracle / test_acceptance; here we
pin concrete inputs whose outputs were worked out by hand, then let
hypothesis batter the round trip on bigger random instances.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from darygrow.bijections import (
    LEFT,
    RIGHT,
    add_root,
    add_root_inv,
    cut,
    cut_inv,
    enlarge,
    enlarge_trace,
    reduce,
    remy_enlarge,
    rotate,
    rotate_inv,
    third_enlarge,
)
from darygrow.errors import (
    ArityError,
    CorruptForestError,
    DarygrowError,
    MarkCountError,
    NotExcursionError,
    RootSurgeryError,
)
from darygrow.marks import (
    Bud,
    EdgeMarkedTree,
    LeafMarkedTree,
    MarkedForest,
    edge_marked_from_obj,
    edge_marked_to_obj,
    is_excursion_forest,
    leaf_marked_to_obj,
    leaf_sequence,
)
from darygrow.oracle import (
    enumerate_forests,
    enumerate_inputs,
    enumerate_leaf_marked,
    enumerate_marked_trees,
)
from darygrow.sampler import SplitMix64, make_kernel, sample_mark_set
from darygrow.tree import DaryTree, new_root_tree
from test_acceptance import BIJECTION_SUITE


def tree(d, text):
    return DaryTree.from_code_text(d, text)


def edge_marked(d, text, buds=(), edges=()):
    return EdgeMarkedTree.from_words(tree(d, text), buds, edges)


def leaf_marked(d, text, leaves):
    return LeafMarkedTree.from_words(tree(d, text), leaves)


def singleton(d, marked=False):
    t = new_root_tree(d)
    return LeafMarkedTree(t, (t.root,) if marked else ())


# ----------------------------------------------------------------------
# cut


class TestCut:
    def test_all_buds_at_n0(self):
        x = edge_marked(3, "0", buds=[0, 1])
        for a in (1, 2, 3):
            f, out_a = cut(x, a)
            assert out_a == a  # letter passes through untouched
            assert leaf_sequence(f).values == (0, 0, 0, -1)
            assert [len(t.marked_leaves) for t in f.trees] == [1, 1, 0]
            assert all(t.tree.node_count == 1 for t in f.trees)

    def test_single_edge_mark_binary(self):
        x = edge_marked(2, "2 0 0", edges=[(1,)])
        f, _ = cut(x, 1)
        # detached subtree of node 1 lands at the largest position
        assert f.trees[1].key() == singleton(2).key()
        # the working tree keeps a marked stub leaf where node 1 was
        assert f.trees[0].key() == leaf_marked(2, "2 0 0", [(1,)]).key()
        assert leaf_sequence(f).values == (0, 0, -1)
        assert is_excursion_forest(f)

    def test_detaches_lex_largest_first(self):
        # two marked edges: (2,) must be detached before (1, 1)
        x = edge_marked(3, "3 3 0 0 0 0 0", edges=[(1, 1), (2,)])
        details = []
        f, _ = cut(x, 2, details=details)
        assert [step["edge"] for step in details] == ["2", "11"]
        assert [step["position"] for step in details] == [2, 1]
        assert is_excursion_forest(f)

    def test_nested_marks_detach_deepest_first(self):
        # (2, 1) is lex-larger than its ancestor (2,), so it detaches first;
        # its stub leaf then rides along inside the (2,) subtree
        x = edge_marked(3, "3 0 3 0 0 0 0", edges=[(2,), (2, 1)])
        details = []
        f, _ = cut(x, 1, details=details)
        assert [step["edge"] for step in details] == ["21", "2"]
        assert f.trees[2].key() == singleton(3).key()
        assert f.trees[1].mark_words() == ((1,),)  # stub, relabelled
        assert f.trees[0].mark_words() == ((2,),)  # stub left in the trunk

    def test_output_always_excursion(self):
        rng = SplitMix64(2024)
        for d in (2, 3, 4):
            k = make_kernel(d, 77 + d)
            k.steps(30)
            t = DaryTree.from_preorder_code(d, k.preorder_code())
            for _ in range(25):
                x = EdgeMarkedTree(t, tuple(sample_mark_set(rng, t)))
                f, _ = cut(x, 1 + rng.uniform_below(d))
                assert is_excursion_forest(f)

    def test_wrong_mark_count(self):
        with pytest.raises(MarkCountError):
            cut(edge_marked(3, "0", buds=[0]), 1)

    def test_forest_same_for_every_letter(self):
        # the premise on which the oracle cuts each marked tree only once
        for d, n in BIJECTION_SUITE:
            for x in enumerate_marked_trees(d, n):
                keys = {cut(x, a)[0].key() for a in range(1, d + 1)}
                assert len(keys) == 1, (d, n, x.key())


def random_leaf_marked(d, n, seed):
    """A grown tree with n internal nodes and d - 1 marked leaves."""
    k = make_kernel(d, seed + 31)
    k.steps(n)
    t = DaryTree.from_preorder_code(d, k.preorder_code())
    rng = SplitMix64(seed)
    leaves = sorted(t.leaf_ids())
    chosen = set()
    while len(chosen) < d - 1:
        chosen.add(leaves[rng.uniform_below(len(leaves))])
    return LeafMarkedTree(t, tuple(chosen))


# ----------------------------------------------------------------------
# rotate


def five_forest():
    """d=5 forest with 4 marks on the position-0 tree, rest singletons."""
    heavy = leaf_marked(5, "5 0 0 0 0 0", [(1,), (2,), (3,), (4,)])
    return MarkedForest((heavy,) + tuple(singleton(5) for _ in range(4)))


class TestRotate:
    def test_shift_by_two(self):
        f = five_forest()
        g = rotate(f, 2)
        expected = (f.trees[2], f.trees[3], f.trees[4], f.trees[0], f.trees[1])
        assert g.key() == MarkedForest(expected).key()

    def test_full_shift_is_identity(self):
        f = five_forest()
        assert rotate(f, 5).key() == f.key()

    def test_leaf_sequence_rotates_with_the_forest(self):
        f = five_forest()
        s = leaf_sequence(f)
        for a in range(1, 6):
            assert leaf_sequence(rotate(f, a)) == s.rot(a % 5)

    def test_letter_out_of_range(self):
        with pytest.raises(ArityError):
            rotate(five_forest(), 6)

    def test_inv_of_excursion_is_identity_with_letter_d(self):
        f = five_forest()  # leaf sequence (0,3,2,1,0,-1): an excursion
        g, a = rotate_inv(f)
        assert a == 5
        assert g.key() == f.key()

    def test_inv_round_trip_all_letters(self):
        f = five_forest()
        for a in range(1, 6):
            g, back_a = rotate_inv(rotate(f, a))
            assert (g.key(), back_a) == (f.key(), a)

    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in range(3)] + [(5, 0), (5, 1)]
    )
    def test_inv_lands_on_excursion(self, d, n):
        # the cycle lemma: rotating a sum -1 sequence to its first lowest
        # point gives excursion type, so reduce's cut_inv needs no check
        for f in enumerate_forests(d, n):
            for a in range(1, d + 1):
                assert is_excursion_forest(rotate_inv(rotate(f, a))[0]), f.key()

    @given(st.integers(2, 5), st.integers(1, 60), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_inv_lands_on_excursion_random(self, d, n, seed):
        f = add_root_inv(random_leaf_marked(d, n, seed))
        for a in range(1, d + 1):
            assert is_excursion_forest(rotate_inv(rotate(f, a))[0])


# ----------------------------------------------------------------------
# add_root


class TestAddRoot:
    def test_hangs_positions_in_order(self):
        f = MarkedForest((singleton(3, True), singleton(3, True), singleton(3)))
        out = add_root(f)
        assert out.key() == leaf_marked(3, "3 0 0 0", [(1,), (2,)]).key()

    def test_internal_count_grows_by_one(self):
        f = five_forest()
        assert add_root(f).tree.internal_count == sum(
            t.tree.internal_count for t in f.trees
        ) + 1

    def test_inv_decomposes_by_slot(self):
        out = add_root_inv(leaf_marked(3, "3 0 0 0", [(1,), (3,)]))
        assert [len(t.marked_leaves) for t in out.trees] == [1, 0, 1]
        assert all(t.tree.node_count == 1 for t in out.trees)

    def test_inv_rejects_bare_root(self):
        with pytest.raises(RootSurgeryError):
            add_root_inv(singleton(3, True))

    def test_inv_of_add_root(self):
        f = five_forest()
        assert add_root_inv(add_root(f)).key() == f.key()

    def test_inv_is_linear_in_arity(self, deadline):
        # d children and d - 1 marks: one pass over the sorted marks, where
        # a scan of every mark per child took seconds
        d = 10_000
        t = LeafMarkedTree.from_code(d, (d,) + (0,) * d, tuple(range(2, d + 1)))
        with deadline(1):
            out = add_root_inv(t)
        assert [len(c.leaves) for c in out.trees] == [0] + [1] * (d - 1)


# ----------------------------------------------------------------------
# enlarge / reduce


class TestEnlargeReduce:
    def test_seed_tree_letter_3(self):
        x = edge_marked(3, "0", buds=[0, 1])
        out = enlarge(x, 3)
        assert out.key() == leaf_marked(3, "3 0 0 0", [(1,), (2,)]).key()

    def test_seed_tree_letter_1(self):
        x = edge_marked(3, "0", buds=[0, 1])
        out = enlarge(x, 1)
        assert out.key() == leaf_marked(3, "3 0 0 0", [(1,), (3,)]).key()

    def test_reduce_recovers_seed(self):
        y = leaf_marked(3, "3 0 0 0", [(1,), (2,)])
        x, a = reduce(y)
        assert a == 3
        assert x.key() == edge_marked(3, "0", buds=[0, 1]).key()

    def test_letter_out_of_range(self):
        with pytest.raises(ArityError):
            enlarge(edge_marked(3, "0", buds=[0, 1]), 4)

    def test_reduce_non_excursion_never_happens_from_enlarge(self):
        # reduce must reject a hand-built forest that rotates badly; build a
        # leaf-marked tree whose root decomposition is already excursion type
        y = leaf_marked(2, "2 2 0 0 0", [(1, 1)])
        x, a = reduce(y)
        assert enlarge(x, a).key() == y.key()

    def test_trace_has_three_frames(self):
        x = edge_marked(3, "0", buds=[0, 1])
        out, frames = enlarge_trace(x, 3)
        assert [fr["map"] for fr in frames] == ["cut", "rotate", "add_root"]
        assert frames[0]["leaf_sequence"] == "0,0,0,-1"
        assert frames[1]["letter"] == 3
        assert out.key() == leaf_marked(3, "3 0 0 0", [(1,), (2,)]).key()

    @given(st.integers(2, 5), st.integers(1, 60), st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, d, n, seed):
        k = make_kernel(d, seed)
        k.steps(n)
        t = DaryTree.from_preorder_code(d, k.preorder_code())
        rng = SplitMix64(seed ^ 0xD1CE)
        x = EdgeMarkedTree(t, tuple(sample_mark_set(rng, t)))
        a = 1 + rng.uniform_below(d)
        y = enlarge(x, a)
        assert y.tree.internal_count == n + 1
        assert len(y.marked_leaves) == d - 1
        back, back_a = reduce(y)
        assert back_a == a
        assert back.key() == x.key()

    @given(st.integers(2, 4), st.integers(1, 40), st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_other_direction_round_trip(self, d, n, seed):
        # reduce then enlarge is also the identity
        y = random_leaf_marked(d, n, seed)
        x, a = reduce(y)
        assert enlarge(x, a).key() == y.key()


class TestReduceErrors:
    """Which error ``reduce`` raises for each kind of bad input."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_mark_count(self, d, extra):
        code = (d, d) + (0,) * (2 * d - 1)
        leaves = tuple(p for p, s in enumerate(code) if not s)[: d - 1 + extra]
        with pytest.raises(MarkCountError):
            reduce(LeafMarkedTree.from_code(d, code, leaves))

    def test_single_node(self):
        with pytest.raises(RootSurgeryError):
            reduce(singleton(3, True))

    @pytest.mark.parametrize(
        "d,code,leaves",
        [
            (2, (2, 2, 0, 0, 0), (1,)),  # the first child, not rotated
            (2, (2, 0, 2, 0, 0), (2,)),  # the last child, rotated to the front
            (3, (3, 3, 0, 0, 0, 0, 0), (1, 5)),  # beside a bud
        ],
    )
    def test_marked_internal_node(self, d, code, leaves):
        with pytest.raises(CorruptForestError):
            reduce(LeafMarkedTree.from_code(d, code, leaves))


class TestReduceIsTheStages:
    """``reduce`` runs the inverse stages on code parts; it must return and
    raise exactly what the public stages do, composed."""

    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in (2, 3, 4) for n in range(3)] + [(5, 0), (5, 1)]
    )
    def test_every_image(self, d, n):
        count = 0
        for t in enumerate_leaf_marked(d, n + 1, d - 1):
            x, a = reduce(t)
            y, b = cut_inv(*rotate_inv(add_root_inv(t)))
            assert (x.key(), a) == (y.key(), b), t.key()
            count += 1
        assert count == len(enumerate_inputs(d, n))

    @pytest.mark.parametrize(
        "t",
        [
            singleton(3, True),
            singleton(2),
            LeafMarkedTree.from_code(3, (3, 0, 0, 0), (1,)),
            LeafMarkedTree.from_code(3, (3, 0, 0, 0), (1, 2, 3)),
            LeafMarkedTree.from_code(2, (2, 2, 0, 0, 0), ()),
        ],
        ids=["single-node", "single-node-unmarked", "one-short", "one-over", "none"],
    )
    def test_same_error(self, t):
        with pytest.raises(DarygrowError) as fused:
            reduce(t)
        with pytest.raises(DarygrowError) as staged:
            cut_inv(*rotate_inv(add_root_inv(t)))
        assert type(fused.value) is type(staged.value)
        assert str(fused.value) == str(staged.value)
        assert isinstance(fused.value, (RootSurgeryError, MarkCountError))


# ----------------------------------------------------------------------
# cut_inv corner cases


class TestCutInv:
    def test_rejects_non_excursion(self):
        f = MarkedForest((singleton(3), singleton(3, True), singleton(3, True)))
        with pytest.raises(NotExcursionError):
            cut_inv(f, 1)

    def test_round_trips_the_cut_examples(self):
        for x, a in [
            (edge_marked(3, "0", buds=[0, 1]), 2),
            (edge_marked(2, "2 0 0", edges=[(1,)]), 1),
            (edge_marked(3, "3 3 0 0 0 0 0", edges=[(1, 1), (2,)]), 3),
        ]:
            f, fa = cut(x, a)
            back, back_a = cut_inv(f, fa)
            assert back_a == a
            assert back.key() == x.key()


# ----------------------------------------------------------------------
# binary variants


class TestBinaryVariants:
    def test_remy_bud_right(self):
        x = edge_marked(2, "0", buds=[0])
        out = remy_enlarge(x, RIGHT)
        assert out.key() == leaf_marked(2, "2 0 0", [(2,)]).key()

    def test_remy_bud_left(self):
        x = edge_marked(2, "0", buds=[0])
        out = remy_enlarge(x, LEFT)
        assert out.key() == leaf_marked(2, "2 0 0", [(1,)]).key()

    def test_remy_edge_splits_in_the_middle(self):
        x = edge_marked(2, "2 0 0", edges=[(1,)])
        out = remy_enlarge(x, RIGHT)
        # new node in the edge above node 1; old subtree on the left,
        # fresh marked leaf on the right
        assert out.key() == leaf_marked(2, "2 2 0 0 0", [(1, 2)]).key()

    def test_third_bud_matches_remy(self):
        x = edge_marked(2, "0", buds=[0])
        for a in (RIGHT, LEFT):
            assert third_enlarge(x, a).key() == remy_enlarge(x, a).key()

    def test_third_edge_at_root_creates_new_root(self):
        x = edge_marked(2, "2 0 0", edges=[(1,)])
        out = third_enlarge(x, RIGHT)
        assert out.tree.internal_count == 2
        assert out.key() == leaf_marked(2, "2 2 0 0 0", [(1, 1)]).key()

    def test_binary_only(self):
        x = edge_marked(3, "0", buds=[0, 1])
        with pytest.raises(ArityError):
            remy_enlarge(x, RIGHT)
        with pytest.raises(ArityError):
            third_enlarge(x, LEFT)

    def test_letter_must_be_binary(self):
        x = edge_marked(2, "0", buds=[0])
        with pytest.raises(ArityError):
            remy_enlarge(x, 1)

    def test_remy_multiplicity_at_n2(self):
        # every shape of size 3 shows up as image tree exactly 4 times
        hits = {}
        for x, a in enumerate_inputs(2, 2):
            side = RIGHT if a == 1 else LEFT
            out = remy_enlarge(x, side)
            shape = tuple(out.tree.to_preorder_code())
            hits[shape] = hits.get(shape, 0) + 1
        assert len(hits) == 5
        assert set(hits.values()) == {4}


# ----------------------------------------------------------------------
# the map itself, pinned
#
# Bijectivity alone would allow any relabelling of the images; these
# digests fix which image each input gets.  They were computed with the
# tree-surgery implementation that preceded the code-based one.


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "cells,count,digest",
    [
        (
            [(2, n) for n in range(5)],
            350,
            "c87e8be459c545d9f781393b6e56b92dd6e7ee95fe4444049315279aaa85a10a",
        ),
        (
            [(3, n) for n in range(3)],
            285,
            "e766e6ffc2ef90c812df45e23b2b7b3b21f8b2c0780ab16b5b49f5db43897156",
        ),
    ],
)
def test_enlarge_images_pinned(cells, count, digest):
    lines = []
    for d, n in cells:
        for x, a in enumerate_inputs(d, n):
            obj = edge_marked_to_obj(x)
            obj["letter"] = a
            obj["image"] = leaf_marked_to_obj(enlarge(x, a))
            lines.append(json.dumps(obj))
    lines.sort()  # independent of the enumeration order
    assert len(lines) == count
    assert sha256("\n".join(lines)) == digest


@pytest.mark.parametrize(
    "obj,a,digest",
    [
        (
            {"d": 3, "code": "0", "marks": [{"bud": 0}, {"bud": 1}]},
            3,
            "657fbc9407fb9b508fdd7ff40d4eb0f4825478ef8525be281eca67340608b179",
        ),
        (
            {"d": 2, "code": "2 0 2 0 0", "marks": [{"edge": "21"}]},
            2,
            "d6411d1a34f70f6d1d37713f56fe48fe74691fe06e011332e080b735338f06f9",
        ),
        (
            {"d": 3, "code": "3 0 3 0 0 0 0", "marks": [{"edge": "2"}, {"edge": "21"}]},
            1,
            "c2427e84cfd79a891413dec5fdbb700a7a67db0294350ee741e62d56314ed55e",
        ),
        (
            {
                "d": 4,
                "code": "4 4 0 0 0 0 0 4 0 0 0 0 0",
                "marks": [{"bud": 1}, {"edge": "12"}, {"edge": "3"}],
            },
            2,
            "db0eea3d5ca124d22f2967f86edabb63301cfd63b9163a41f0e3aa768a757f06",
        ),
        (
            {
                "d": 5,
                "code": "5 5 0 0 0 0 0 0 0 5 0 0 0 0 0 0",
                "marks": [{"edge": "1"}, {"edge": "13"}, {"edge": "14"}, {"edge": "3"}],
            },
            4,
            "e4246b39d6ce94ebf214870d5c5bff5bd7552242fa332f88d039e264c15c3752",
        ),
    ],
)
def test_trace_frames_pinned(obj, a, digest):
    # the bytes `darygrow trace` prints for this input and letter
    _, frames = enlarge_trace(edge_marked_from_obj(obj), a)
    assert sha256(json.dumps(frames, indent=2)) == digest
