import json

import pytest

from darygrow.errors import ArityError, MarkCountError, StaleNodeError
from darygrow.marks import (
    Bud,
    EdgeMark,
    EdgeMarkedTree,
    LeafMarkedTree,
    MarkedForest,
    edge_marked_from_obj,
    edge_marked_to_obj,
    forest_from_obj,
    forest_to_obj,
    is_excursion_forest,
    leaf_marked_from_obj,
    leaf_marked_to_obj,
    leaf_sequence,
    validate,
)
from darygrow.tree import DaryTree


def tree(d, text):
    return DaryTree.from_code_text(d, text)


@pytest.fixture
def cherry():
    """d=2 tree with one internal node under the root's second slot."""
    return tree(2, "2 0 2 0 0")


# ----------------------------------------------------------------------
# mark containers


def test_edge_marked_canonical_order(cherry):
    x = EdgeMarkedTree.from_words(cherry, bud_indices=[0], edge_words=[(2, 1)])
    y = EdgeMarkedTree(cherry, (EdgeMark(cherry.node_at((2, 1))), Bud(0)))
    # buds sort before edge marks regardless of construction order
    assert x.key() == y.key()
    assert x == y


def test_validate_flags_bud_out_of_range(cherry):
    x = EdgeMarkedTree(cherry, (Bud(1),))  # only b_0 exists at d=2
    assert any("bud index" in p for p in validate(x))


def test_validate_flags_duplicates(cherry):
    # containers are permissive; validate reports violations as data
    x = EdgeMarkedTree(cherry, (Bud(0), Bud(0)))
    problems = validate(x)
    assert any("duplicate" in p for p in problems)
    assert any("marks" in p for p in problems)  # count is off too


def test_validate_accepts_well_formed(cherry):
    assert validate(EdgeMarkedTree(cherry, (Bud(0),))) == []
    assert validate(LeafMarkedTree.from_words(cherry, [(1,)])) == []


def test_validate_rejects_internal_marked_leaf(cherry):
    bad = LeafMarkedTree(cherry, (cherry.node_at((2,)),))
    assert any("internal" in p for p in validate(bad))


def test_leaf_marked_orders_by_word(cherry):
    a = LeafMarkedTree.from_words(cherry, [(2, 2), (1,)])
    assert a.mark_words() == ((1,), (2, 2))


def test_marked_tree_is_a_value(cherry):
    # a marked tree holds its tree's code tuple; .tree wraps that same tuple
    x = EdgeMarkedTree.from_words(cherry, edge_words=[(2, 1)])
    assert x.code is cherry.code
    assert x.tree == cherry and x.tree.code is x.code
    assert x.marks == (EdgeMark(cherry.node_at((2, 1))),)
    assert x == EdgeMarkedTree.from_words(tree(2, "2 0 2 0 0"), edge_words=[(2, 1)])
    assert edge_marked_to_obj(x) == {"d": 2, "code": "2 0 2 0 0", "marks": [{"edge": "21"}]}


def test_mark_ids_are_range_checked(cherry):
    with pytest.raises(StaleNodeError):
        EdgeMarkedTree(cherry, (EdgeMark(cherry.node_count),))
    with pytest.raises(StaleNodeError):
        LeafMarkedTree(cherry, (-1,))


def test_keys_capture_shape_and_marks(cherry):
    a = EdgeMarkedTree.from_words(cherry, edge_words=[(2,)])
    b = EdgeMarkedTree.from_words(cherry, edge_words=[(2, 1)])
    assert a.key() != b.key()
    again = tree(2, "2 0 2 0 0")
    assert a.key() == EdgeMarkedTree.from_words(again, edge_words=[(2,)]).key()


# ----------------------------------------------------------------------
# forests and leaf sequences


def marked_singleton(d):
    t = DaryTree(d)
    return LeafMarkedTree(t, (t.root,))


def plain_singleton(d):
    return LeafMarkedTree(DaryTree(d), ())


def test_leaf_sequence_all_buds():
    f = MarkedForest((marked_singleton(3), marked_singleton(3), plain_singleton(3)))
    assert leaf_sequence(f).values == (0, 0, 0, -1)
    assert is_excursion_forest(f)


def test_leaf_sequence_dips_when_marks_lag():
    f = MarkedForest((plain_singleton(3), marked_singleton(3), marked_singleton(3)))
    assert leaf_sequence(f).values == (0, -1, -1, -1)
    assert not is_excursion_forest(f)


def test_leaf_sequence_with_multi_marked_tree():
    t = tree(3, "3 0 0 0")
    heavy = LeafMarkedTree.from_words(t, [(1,), (2,)])
    f = MarkedForest((heavy, plain_singleton(3), plain_singleton(3)))
    assert leaf_sequence(f).values == (0, 1, 0, -1)
    assert is_excursion_forest(f)


def test_total_marks_must_be_d_minus_1():
    f = MarkedForest((plain_singleton(3), plain_singleton(3), plain_singleton(3)))
    with pytest.raises(MarkCountError):
        leaf_sequence(f)


def test_forest_needs_d_trees():
    with pytest.raises(ArityError):
        MarkedForest((marked_singleton(3), marked_singleton(3)))


def test_forest_arity_mismatch():
    with pytest.raises(ArityError):
        MarkedForest((marked_singleton(2), marked_singleton(3)))


# ----------------------------------------------------------------------
# JSON round trips


def test_edge_marked_json(cherry):
    x = EdgeMarkedTree.from_words(cherry, bud_indices=[0], edge_words=[(2, 1)])
    obj = edge_marked_to_obj(x)
    assert obj == {"d": 2, "code": "2 0 2 0 0", "marks": [{"bud": 0}, {"edge": "21"}]}
    assert edge_marked_from_obj(obj).key() == x.key()
    # survives a serialization round trip too
    assert edge_marked_from_obj(json.loads(json.dumps(obj))).key() == x.key()


def test_leaf_marked_json(cherry):
    y = LeafMarkedTree.from_words(cherry, [(2, 2)])
    obj = leaf_marked_to_obj(y)
    assert obj == {"d": 2, "code": "2 0 2 0 0", "leaves": ["22"]}
    assert leaf_marked_from_obj(obj).key() == y.key()


def test_forest_json():
    f = MarkedForest((marked_singleton(3), marked_singleton(3), plain_singleton(3)))
    back = forest_from_obj(forest_to_obj(f))
    assert back.key() == f.key()


def test_from_obj_rejects_garbage():
    with pytest.raises((MarkCountError, KeyError, ValueError)):
        edge_marked_from_obj({"d": 2, "code": "2 0 0", "marks": [{"what": 1}]})
