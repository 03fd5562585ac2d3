import pytest
from hypothesis import given, settings, strategies as st

from darygrow.errors import ArityError, MalformedCodeError, StaleNodeError
from darygrow.sampler import grow_to
from darygrow.tree import (
    DaryTree,
    _end,
    _walk,
    format_word,
    parse_word,
)


def grown(d, n, seed=0):
    """A pseudo-random tree: its code grown by repeatedly replacing a leaf's
    0 with d followed by d zeros."""
    code = [0]
    state = seed & 0xFFFFFFFFFFFFFFFF
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        leaves = [p for p, sym in enumerate(code) if not sym]
        p = leaves[state % len(leaves)]
        code[p : p + 1] = [d] + [0] * d
    return DaryTree.from_preorder_code(d, code)


class TestBasics:
    def test_root_only(self):
        t = DaryTree(3)
        assert t.node_count == 1
        assert t.leaf_count == 1
        assert t.internal_count == 0
        assert t.edge_count == 0
        assert t.is_leaf(t.root)
        assert t.parent(t.root) is None
        assert t.node_word(t.root) == ()

    def test_arity_floor(self):
        with pytest.raises(ArityError):
            DaryTree(1)

    def test_expand_gives_d_children(self):
        t = DaryTree(4, (4, 0, 0, 0, 0))  # the root expanded
        kids = [1, 2, 3, 4]
        assert t.internal_count == 1
        assert t.leaf_count == 4
        assert [t.slot(c) for c in kids] == [1, 2, 3, 4]  # slots are word letters
        assert all(t.parent(c) == t.root for c in kids)
        assert all(t.is_leaf(c) for c in kids)

    def test_stale_ids_rejected(self):
        t = grown(2, 4)
        for dead in (-1, t.node_count, t.node_count + 17):
            for query in (t.parent, t.slot, t.is_leaf, t.node_word, t.depth):
                with pytest.raises(StaleNodeError, match="does not name a node"):
                    query(dead)

    def test_size_identities(self):
        # |t| = dn+1, |leaves| = (d-1)n+1, |edges| = dn
        for d in (2, 3, 5):
            for n in (0, 1, 4, 9):
                t = grown(d, n, seed=d * 100 + n)
                assert t.node_count == d * n + 1
                assert t.leaf_count == (d - 1) * n + 1
                assert t.edge_count == d * n
                assert len(list(t.leaf_ids())) == t.leaf_count


class TestIds:
    @pytest.mark.parametrize("d,n,seed", [(2, 12, 1), (3, 8, 2), (5, 5, 3)])
    def test_ids_are_preorder_positions(self, d, n, seed):
        t = grown(d, n, seed)
        assert list(t.node_ids()) == list(range(t.node_count))
        words = [t.node_word(u) for u in t.node_ids()]
        assert all(a < b for a, b in zip(words, words[1:]))  # strictly increasing
        assert [t.is_leaf(u) for u in t.node_ids()] == [not s for s in t.code]
        assert [t.nonroot_node_at(r) for r in range(t.edge_count)] == list(
            range(1, t.node_count)
        )

    @pytest.mark.parametrize("d,n,seed", [(2, 12, 4), (3, 8, 5), (5, 5, 6)])
    def test_parent_and_slot_agree_with_words(self, d, n, seed):
        t = grown(d, n, seed)
        for u in range(1, t.node_count):
            p = t.parent(u)
            assert t.node_word(u) == t.node_word(p) + (t.slot(u),)
            assert not t.is_leaf(p)
            assert t.depth(u) == len(t.node_word(u))
        assert t.slot(t.root) == 0

    def test_edge_rank_range(self):
        t = grown(3, 2)
        with pytest.raises(IndexError):
            t.nonroot_node_at(t.edge_count)

    def test_attribute_assignment_fails(self):
        t = grown(2, 3)
        code = t.code
        with pytest.raises(AttributeError):
            t.code = (0,)
        with pytest.raises(AttributeError):
            t.d = 3
        with pytest.raises(AttributeError):
            t.extra = 1
        with pytest.raises(AttributeError):
            del t.code
        assert t.code is code and t.d == 2


class TestWords:
    def test_child_words(self):
        t = DaryTree(3, (3, 0, 0, 0))
        assert [t.node_word(c) for c in (1, 2, 3)] == [(1,), (2,), (3,)]
        t = DaryTree(3, (3, 0, 3, 0, 0, 0, 0))  # then its second child
        assert t.node_word(5) == (2, 3)
        assert t.node_at((3,)) == 6

    def test_node_at_inverts_node_word(self):
        t = grown(3, 6, seed=5)
        for u in t.node_ids():
            assert t.node_at(t.node_word(u)) == u
        for word in ((4,), (1, 1, 1, 1, 1, 1, 1, 1), (0,)):
            with pytest.raises(KeyError):
                t.node_at(word)

    def test_node_at_on_grown_trees(self):
        # deep trees with large sibling subtrees to skip
        for d in (2, 5):
            t, _ = grow_to(d, 2000, seed=11)
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
        # tuple order is the word order, and ids sort as their words do
        t = DaryTree(9, [9, 0, 9] + [0] * 8 + [9] + [0] * 16)  # (), (2,), (2, 9) expanded
        u, v = t.node_at(a), t.node_at(b)
        assert (a > b) - (a < b) == (u > v) - (u < v) == sign
        assert (b > a) - (b < a) == -sign


class TestPreorderCode:
    def test_known_codes(self):
        t = DaryTree(2)
        assert t.to_preorder_code() == [0]
        t = DaryTree.from_preorder_code(2, [2, 0, 0])
        assert t.code == (2, 0, 0)
        t = DaryTree.from_preorder_code(2, [2, 0, 2, 0, 0])
        assert t.to_preorder_code() == [2, 0, 2, 0, 0]
        assert t.node_at((2,)) == 2 and not t.is_leaf(2)

    def test_code_text_round_trip(self):
        t = grown(3, 5, seed=2)
        again = DaryTree.from_code_text(3, t.code_text())
        assert again == t

    @pytest.mark.parametrize("bad", ["2 0", "2 0 0 0", "3 0 0 0", "2 1 0 0 0", ""])
    def test_malformed_codes(self, bad):
        with pytest.raises(MalformedCodeError):
            DaryTree.from_code_text(2, bad)

    @pytest.mark.parametrize(
        "d,code,message",
        [
            (2, [2, 0], "code ended with 1 nodes pending"),
            (2, [2, 2, 0], "code ended with 2 nodes pending"),
            (2, [0, 5], "trailing symbol at position 1"),
            (2, [2, 0, 0, 0], "trailing symbol at position 3"),
            (2, [2, 1, 0, 0, 0], "symbol 1 at position 1 is neither 0 nor 2"),
            (2, [2, 0, 5], "symbol 5 at position 2 is neither 0 nor 2"),
            (10**9, [10**9, 0], "code ended with 999999999 nodes pending"),
            # an unhashable symbol is a bad symbol like any other
            (2, [[1]], r"symbol \[1\] at position 0 is neither 0 nor 2"),
            (2, [2, 0, [0]], r"symbol \[0\] at position 2 is neither 0 nor 2"),
            # a bad symbol after a complete prefix is a trailing symbol
            (2, [0, 7], "trailing symbol at position 1"),
            (2, [2, 0, 0, 7], "trailing symbol at position 3"),
            # read as a node, the bad symbol would close a prefix at 5
            (2, [2, 0, 1, 0, 0, 0], "symbol 1 at position 2 is neither 0 nor 2"),
        ],
    )
    def test_malformed_code_messages(self, d, code, message):
        # the first position where reading symbol by symbol goes wrong
        with pytest.raises(MalformedCodeError, match=f"^{message}$"):
            DaryTree.from_preorder_code(d, code)

    @given(st.integers(2, 5), st.integers(0, 25), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_code_round_trip(self, d, n, seed):
        t = grown(d, n, seed)
        back = DaryTree.from_preorder_code(d, t.to_preorder_code())
        assert back == t
        assert back.to_preorder_code() == t.to_preorder_code()


def comb(d, n, last):
    """The code of a comb of n internal nodes: each internal node's first
    (``last`` False) or last (``last`` True) child is internal."""
    if last:
        return ([d] + [0] * (d - 1)) * n + [0]
    return [d] * n + [0] * ((d - 1) * n + 1)


def walk_ends(d, code):
    """Every subtree end by its definition: where the walk first drops
    below its value at p."""
    walk = _walk(d, code)
    return [walk.index(walk[p] - 1, p + 1) for p in range(len(code))]


class TestSubtreeEnd:
    """``_end`` counts internal nodes; the walk defines where a subtree ends."""

    @given(st.sampled_from([2, 3, 5, 12, 300]), st.integers(0, 30), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_walk_on_random_trees(self, d, n, seed):
        code = grown(d, n, seed).code
        assert [_end(d, code, p) for p in range(len(code))] == walk_ends(d, code)

    @pytest.mark.parametrize("last", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("d", [2, 3, 5, 12, 300])
    def test_matches_the_walk_on_combs(self, d, last):
        code = tuple(comb(d, 40, last))
        DaryTree(d, code)  # a well-formed code
        assert [_end(d, code, p) for p in range(len(code))] == walk_ends(d, code)


class TestSurgery:
    """Subtree surgery on codes: the subtree at u is ``code[u:_end(d, code, u)]``."""

    def test_detach_keeps_stub_leaf(self):
        t = grown(2, 5, seed=11)
        u = t.node_at((1,))
        e = _end(2, t.code, u)
        rest = DaryTree(2, t.code[:u] + (0,) + t.code[e:])
        sub = DaryTree(2, t.code[u:e])
        assert rest.is_leaf(u)
        assert rest.node_count + sub.node_count == t.node_count + 1  # u counted twice

    def test_graft_restores(self):
        t = grown(3, 6, seed=3)
        u = t.node_at((2,))
        e = _end(3, t.code, u)
        rest, sub = t.code[:u] + (0,) + t.code[e:], t.code[u:e]
        assert DaryTree(3, rest[:u] + sub + rest[u + 1 :]) == t

    def test_equality_is_shape_based(self):
        a = DaryTree(2, [2, 0, 0])
        b = DaryTree.from_code_text(2, "2 0 0")
        assert a == b
        assert a != DaryTree(3)
        assert DaryTree(2) != DaryTree(3)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DaryTree(2))


def test_depth_and_height():
    assert DaryTree(2).height() == 0
    t = DaryTree(2, (2, 0, 2, 2, 0, 0, 0))  # root, (2,) and (2, 1) expanded
    assert t.height() == 3
    assert t.depth(t.node_at((2, 1, 2))) == 3
    assert t.depth(t.root) == 0
