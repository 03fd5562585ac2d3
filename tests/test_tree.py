import pytest
from hypothesis import given, settings, strategies as st

from darygrow.errors import (
    ArityError,
    MalformedCodeError,
    NotALeafError,
    RootSurgeryError,
    StaleNodeError,
)
from darygrow.tree import DaryTree, format_word, lex_compare, new_root_tree, parse_word


def grown(d, n, seed=0):
    """A pseudo-random tree built by repeated leaf expansion."""
    t = new_root_tree(d)
    state = seed & 0xFFFFFFFFFFFFFFFF
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        leaves = sorted(t.leaf_ids())
        t.expand_leaf(leaves[state % len(leaves)])
    return t


class TestBasics:
    def test_root_only(self):
        t = new_root_tree(3)
        assert t.node_count == 1
        assert t.leaf_count == 1
        assert t.internal_count == 0
        assert t.edge_count == 0
        assert t.is_leaf(t.root)
        assert t.parent(t.root) is None
        assert t.node_word(t.root) == ()

    def test_arity_floor(self):
        with pytest.raises(ArityError):
            new_root_tree(1)

    def test_expand_gives_d_children(self):
        t = new_root_tree(4)
        kids = t.expand_leaf(t.root)
        assert len(kids) == 4
        assert t.internal_count == 1
        assert t.leaf_count == 4
        assert [t.slot(c) for c in kids] == [1, 2, 3, 4]  # slots are word letters
        assert all(t.parent(c) == t.root for c in kids)

    def test_expand_non_leaf_rejected(self):
        t = new_root_tree(2)
        t.expand_leaf(t.root)
        with pytest.raises(NotALeafError):
            t.expand_leaf(t.root)

    def test_stale_ids_rejected(self):
        t = grown(2, 4)
        dead = max(t.node_ids()) + 17
        with pytest.raises(StaleNodeError):
            t.parent(dead)

    def test_size_identities(self):
        # |t| = dn+1, |leaves| = (d-1)n+1, |edges| = dn
        for d in (2, 3, 5):
            for n in (0, 1, 4, 9):
                t = grown(d, n, seed=d * 100 + n)
                assert t.node_count == d * n + 1
                assert t.leaf_count == (d - 1) * n + 1
                assert t.edge_count == d * n


class TestWords:
    def test_child_words(self):
        t = new_root_tree(3)
        kids = t.expand_leaf(t.root)
        assert [t.node_word(c) for c in kids] == [(1,), (2,), (3,)]
        grand = t.expand_leaf(kids[1])
        assert t.node_word(grand[2]) == (2, 3)

    def test_node_at_inverts_node_word(self):
        t = grown(3, 6, seed=5)
        for u in t.node_ids():
            assert t.node_at(t.node_word(u)) == u

    def test_format_parse(self):
        assert format_word(()) == ""
        assert format_word((2, 1, 3)) == "213"
        assert parse_word("213") == (2, 1, 3)
        # arities above 9 switch to dotted form
        assert format_word((2, 11, 3)) == "2.11.3"
        assert parse_word("2.11.3") == (2, 11, 3)

    @pytest.mark.parametrize(
        "a,b,sign",
        [
            ((), (1,), -1),  # prefix sorts first
            ((1,), (2,), -1),
            ((2, 1), (2, 1), 0),
            ((3,), (2, 9, 9), 1),
        ],
    )
    def test_lex_compare(self, a, b, sign):
        assert lex_compare(a, b) == sign
        assert lex_compare(b, a) == -sign


class TestPreorderCode:
    def test_known_codes(self):
        t = new_root_tree(2)
        assert t.to_preorder_code() == [0]
        t.expand_leaf(t.root)
        assert t.to_preorder_code() == [2, 0, 0]
        t.expand_leaf(t.node_at((2,)))
        assert t.to_preorder_code() == [2, 0, 2, 0, 0]

    def test_code_text_round_trip(self):
        t = grown(3, 5, seed=2)
        again = DaryTree.from_code_text(3, t.code_text())
        assert again == t

    @pytest.mark.parametrize("bad", ["2 0", "2 0 0 0", "3 0 0 0", "2 1 0 0 0", ""])
    def test_malformed_codes(self, bad):
        with pytest.raises(MalformedCodeError):
            DaryTree.from_code_text(2, bad)

    @given(st.integers(2, 5), st.integers(0, 25), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_code_round_trip(self, d, n, seed):
        t = grown(d, n, seed)
        back = DaryTree.from_preorder_code(d, t.to_preorder_code())
        assert back == t
        assert back.to_preorder_code() == t.to_preorder_code()


class TestSurgery:
    def test_detach_keeps_stub_leaf(self):
        t = grown(2, 5, seed=11)
        u = t.node_at((1,))
        before = t.node_count
        sub = t.detach_subtree(u)
        assert t.is_leaf(u)
        assert t.node_count + sub.node_count == before + 1  # u counted twice
        assert t.validate() == []
        assert sub.validate() == []

    def test_graft_restores(self):
        t = grown(3, 6, seed=3)
        original = t.copy()
        u = t.node_at((2,))
        sub = t.detach_subtree(u)
        t.graft(u, sub)
        assert t == original

    def test_detach_root_rejected(self):
        t = grown(2, 3, seed=7)
        with pytest.raises(RootSurgeryError):
            t.detach_subtree(t.root)

    def test_free_list_recycles_ids(self):
        t = grown(2, 8, seed=1)
        u = t.node_at((1,))
        t.detach_subtree(u)
        peak = max(t.node_ids())
        t.expand_leaf(u)
        assert max(t.node_ids()) <= peak + 3  # mostly recycled slots

    def test_preorder_follows_surgery(self):
        # preorder() is kept between calls; every change must drop it
        t = DaryTree.from_code_text(2, "2 2 0 0 2 0 0")
        assert t.code_text() == "2 2 0 0 2 0 0"
        u = t.node_at((1,))
        sub = t.detach_subtree(u)
        assert t.code_text() == "2 0 2 0 0"
        t.graft(u, sub)
        assert t.code_text() == "2 2 0 0 2 0 0"
        c = t.copy()
        c.expand_leaf(c.node_at((1, 1)))
        assert c.code_text() == "2 2 2 0 0 0 2 0 0"
        assert t.code_text() == "2 2 0 0 2 0 0"

    def test_copy_is_deep_and_id_stable(self):
        t = grown(3, 4, seed=9)
        c = t.copy()
        assert sorted(c.node_ids()) == sorted(t.node_ids())
        c.expand_leaf(sorted(c.leaf_ids())[0])
        assert c != t

    def test_equality_is_shape_based(self):
        a = new_root_tree(2)
        a.expand_leaf(a.root)
        b = new_root_tree(2)
        b.expand_leaf(b.root)
        assert a == b
        assert a != new_root_tree(3)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(new_root_tree(2))


def test_depth_and_height():
    t = new_root_tree(2)
    assert t.height() == 0
    t.expand_leaf(t.root)
    t.expand_leaf(t.node_at((2,)))
    t.expand_leaf(t.node_at((2, 1)))
    assert t.height() == 3
    assert t.depth(t.node_at((2, 1, 2))) == 3
    assert t.depth(t.root) == 0
