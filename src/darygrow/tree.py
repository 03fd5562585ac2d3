"""Arena-backed d-ary trees.

A d-ary tree is a rooted plane tree in which every node has exactly ``d``
children or none.  Nodes live in an indexed arena: three parallel tables
hold the parent id, the child slot occupied in that parent, and the tuple
of child ids.  Freed slots are recycled through a free list so long-running
growth keeps a compact arena and a constant allocation count per step.

Nodes are addressed in two ways:

* by **id**, an integer index into the arena (cheap, not stable across
  copies that relabel), or
* by **word**, the sequence of child slots on the path from the root, the
  root being the empty word.  Words over the alphabet ``1..d`` are ordered
  lexicographically with the convention that a strict prefix sorts before
  any of its extensions.

Edges are identified with their child node throughout the package, so "the
edge at u" means the edge between ``u`` and its parent; the root names no
edge.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import (
    ArityError,
    MalformedCodeError,
    NotALeafError,
    RootSurgeryError,
    StaleNodeError,
)

Word = Tuple[int, ...]


def lex_compare(w1: Sequence[int], w2: Sequence[int]) -> int:
    """Compare two node words lexicographically.

    Returns -1, 0 or 1.  A strict prefix is strictly smaller than the word
    it prefixes; otherwise the first differing letter decides.  Python's
    tuple comparison implements exactly this order, so the function exists
    mostly to give the convention a name.
    """
    a, b = tuple(w1), tuple(w2)
    if a == b:
        return 0
    return -1 if a < b else 1


def shape_key(code: Sequence[int]) -> bytes:
    """Histogram key of a shape given by its preorder code: one byte per node,
    1 for an internal node and 0 for a leaf, the same for every arity."""
    return bytes(map(bool, code))


def format_word(word: Sequence[int]) -> str:
    """Render a node word as text: ``""`` for the root, ``"21"`` for (2, 1).

    Letters above 9 are joined with dots so the rendering stays unambiguous
    for large arities.
    """
    if any(letter > 9 for letter in word):
        return ".".join(str(letter) for letter in word)
    return "".join(str(letter) for letter in word)


def parse_word(text: str) -> Word:
    """Inverse of :func:`format_word`."""
    if not text:
        return ()
    if "." in text:
        return tuple(int(part) for part in text.split("."))
    return tuple(int(ch) for ch in text)


class DaryTree:
    """Mutable arity-``d`` plane tree in an indexed arena.

    Parameters
    ----------
    d : int
        Arity; every internal node has exactly ``d`` children.  Must be
        at least 2.

    Notes
    -----
    A freshly constructed tree has a single node, the root, which is a
    leaf.  Structural identities maintained at all times for a tree with
    ``n`` internal nodes: ``node_count == d*n + 1``,
    ``leaf_count == (d-1)*n + 1`` and ``edge_count == d*n``.

    Equality compares shape (arity plus preorder code), not arena layout.
    Instances are mutable and therefore unhashable; use
    :meth:`to_preorder_code` as a dictionary key instead.
    """

    __slots__ = ("d", "_parent", "_slot", "_children", "_free", "_root", "_internal", "_preorder")

    def __init__(self, d: int) -> None:
        if d < 2:
            raise ArityError(f"arity must be >= 2, got {d}")
        self.d = d
        self._parent: List[int] = [-1]
        self._slot: List[int] = [0]
        self._children: List[Optional[Tuple[int, ...]]] = [None]
        self._free: List[int] = []
        self._root = 0
        self._internal = 0
        self._preorder: Optional[Tuple[List[int], List[int]]] = None

    # ------------------------------------------------------------------
    # basic queries

    @property
    def root(self) -> int:
        return self._root

    @property
    def internal_count(self) -> int:
        """Number of internal nodes (``n``)."""
        return self._internal

    @property
    def node_count(self) -> int:
        return self.d * self._internal + 1

    @property
    def leaf_count(self) -> int:
        return (self.d - 1) * self._internal + 1

    @property
    def edge_count(self) -> int:
        return self.d * self._internal

    def is_live(self, u: int) -> bool:
        return 0 <= u < len(self._slot) and self._slot[u] >= 0

    def _check_live(self, u: int) -> None:
        if not self.is_live(u):
            raise StaleNodeError(u)

    def is_leaf(self, u: int) -> bool:
        self._check_live(u)
        return self._children[u] is None

    def parent(self, u: int) -> Optional[int]:
        """Parent id of ``u``, or None for the root."""
        self._check_live(u)
        p = self._parent[u]
        return None if p < 0 else p

    def slot(self, u: int) -> int:
        """Child slot (1..d) that ``u`` occupies in its parent; 0 for the root."""
        self._check_live(u)
        return self._slot[u]

    # ------------------------------------------------------------------
    # iteration

    def node_ids(self) -> Iterator[int]:
        """Live node ids in arena order (ascending id)."""
        for u, s in enumerate(self._slot):
            if s >= 0:
                yield u

    def leaf_ids(self) -> Iterator[int]:
        for u in self.node_ids():
            if self._children[u] is None:
                yield u

    def nonroot_node_at(self, rank: int) -> int:
        """Node id of the ``rank``-th non-root node in arena order.

        This fixes the rank-to-edge correspondence used by the sampler:
        ranks ``0 .. edge_count-1`` enumerate edges through the child node
        that names each edge.
        """
        if not 0 <= rank < self.edge_count:
            raise IndexError(f"edge rank {rank} outside [0, {self.edge_count})")
        if not self._free and len(self._slot) == self.node_count:
            # compact arena: live ids are exactly 0..node_count-1
            return rank if rank < self._root else rank + 1
        nonroot = (u for u in self.node_ids() if u != self._root)
        for i, u in enumerate(nonroot):
            if i == rank:
                return u
        raise AssertionError("unreachable: rank checked against edge_count")

    # ------------------------------------------------------------------
    # words

    def node_word(self, u: int) -> Word:
        """Slot path from the root down to ``u``; the root gives ()."""
        self._check_live(u)
        letters = []
        while self._parent[u] >= 0:
            letters.append(self._slot[u])
            u = self._parent[u]
        letters.reverse()
        return tuple(letters)

    def node_at(self, word: Sequence[int]) -> int:
        """Node id found by walking ``word`` from the root."""
        u = self._root
        for letter in word:
            kids = self._children[u]
            if kids is None or not 1 <= letter <= self.d:
                raise KeyError(f"no node at word {tuple(word)!r}")
            u = kids[letter - 1]
        return u

    def depth(self, u: int) -> int:
        return len(self.node_word(u))

    def height(self) -> int:
        """Length of the longest root-to-leaf path."""
        best = 0
        stack = [(self._root, 0)]
        while stack:
            u, h = stack.pop()
            kids = self._children[u]
            if kids is None:
                if h > best:
                    best = h
            else:
                stack.extend((c, h + 1) for c in kids)
        return best

    # ------------------------------------------------------------------
    # surgery
    #
    # An allocation takes the most recently freed id, or else the next id
    # past the end of the arena, and an expansion allocates its d children
    # in slot order.  Bulk surgery first walks the nodes it touches, then
    # writes the arena rows in one go, handing out exactly the ids that
    # expanding one leaf at a time would.

    def _take_ids(self, count: int) -> List[int]:
        """The ids of the next ``count`` allocations, in allocation order."""
        free = self._free
        k = min(count, len(free))
        ids = free[len(free) - k :]
        ids.reverse()
        del free[len(free) - k :]
        start = len(self._slot)
        ids.extend(range(start, start + count - k))
        return ids

    def _hang(self, owners: List[int], ids: List[int]) -> None:
        """Make ``ids[i*d:(i+1)*d]`` the children of ``owners[i]``.

        ``ids`` come from :meth:`_take_ids`: recycled ids first, then fresh
        ones past the end of the arena.
        """
        d = self.d
        parent, slot, children = self._parent, self._slot, self._children
        rows = [0] * len(ids)  # the parent of each id
        for s in range(d):
            rows[s::d] = owners
        slots = list(range(1, d + 1)) * len(owners)
        # recycled ids lie inside the arena, fresh ones past its end
        recycled = len(ids) - max(0, ids[-1] + 1 - len(slot)) if ids else 0
        for u, p, s in zip(ids[:recycled], rows, slots):
            parent[u] = p
            slot[u] = s
            children[u] = None
        parent.extend(rows[recycled:])
        slot.extend(slots[recycled:])
        children.extend([None] * (len(ids) - recycled))
        for o, kids in zip(owners, zip(*[iter(ids)] * d)):
            children[o] = kids
        self._internal += len(owners)
        self._preorder = None

    def expand_leaf(self, leaf: int) -> Tuple[int, ...]:
        """Turn ``leaf`` into an internal node with ``d`` fresh leaf children.

        Returns the new child ids in slot order.
        """
        self._check_live(leaf)
        if self._children[leaf] is not None:
            raise NotALeafError(f"node {leaf} is internal")
        self._hang([leaf], self._take_ids(self.d))
        return self._children[leaf]

    def _copy_subtree(self, u: int) -> Tuple["DaryTree", List[int]]:
        """Copy of the subtree at ``u`` plus the ids it covers, in visit order."""
        d = self.d
        children = self._children
        sub = DaryTree(d)
        owners: List[int] = []
        visited: List[int] = []
        here, there = [u], [sub.root]  # a stack of (id here, id there) pairs
        fresh = 1
        while here:
            v = here.pop()
            w = there.pop()
            visited.append(v)
            kids = children[v]
            if kids is not None:
                owners.append(w)
                here.extend(kids)
                there.extend(range(fresh, fresh + d))
                fresh += d
        sub._hang(owners, list(range(1, fresh)))
        return sub, visited

    def detach_subtree(self, u: int) -> "DaryTree":
        """Remove the subtree rooted at ``u`` and return it as a new tree.

        ``u`` itself stays behind as a leaf of this tree; the returned tree
        is an independent copy of the subtree with ``u`` relabelled to the
        root.  Detaching the root is undefined.
        """
        self._check_live(u)
        if u == self._root:
            raise RootSurgeryError("cannot detach the root")
        sub, visited = self._copy_subtree(u)
        slot, children = self._slot, self._children
        to_free = visited[1:]
        for v in to_free:
            slot[v] = -1
            children[v] = None
        self._free.extend(to_free)
        children[u] = None
        self._internal -= sub._internal
        self._preorder = None
        return sub

    def graft(self, leaf: int, sub: "DaryTree") -> None:
        """Replace ``leaf`` by a copy of ``sub``.

        Grafting a single-node tree is a no-op on the node set.  ``sub`` is
        not consumed; its nodes are copied in.
        """
        self._check_live(leaf)
        if sub.d != self.d:
            raise ArityError(f"arity mismatch: {self.d} vs {sub.d}")
        if self._children[leaf] is not None:
            raise NotALeafError(f"node {leaf} is internal")
        d = self.d
        sub_children = sub._children
        ids = self._take_ids(d * sub._internal)
        owners: List[int] = []
        there, here = [sub.root], [leaf]  # a stack of (id there, id here) pairs
        while there:
            kids = sub_children[there.pop()]
            v = here.pop()
            if kids is not None:
                taken = d * len(owners)
                owners.append(v)
                there.extend(kids)
                here.extend(ids[taken : taken + d])
        self._hang(owners, ids)

    # ------------------------------------------------------------------
    # serialization

    def preorder(self) -> Tuple[List[int], List[int]]:
        """The preorder code and the node ids in the same order: ``ids[i]``
        is the node whose child count is ``code[i]``.

        The two lists are kept until the tree changes, so that marking one
        tree many times walks it once; callers must not modify them.
        """
        if self._preorder is not None:
            return self._preorder
        d = self.d
        children = self._children
        code: List[int] = []
        ids: List[int] = []
        emit, emit_id = code.append, ids.append
        stack = [self._root]
        pop, push = stack.pop, stack.extend
        while stack:
            u = pop()
            emit_id(u)
            kids = children[u]
            if kids is None:
                emit(0)
            else:
                emit(d)
                push(kids[::-1])
        self._preorder = (code, ids)
        return self._preorder

    def to_preorder_code(self) -> List[int]:
        """Depth-first preorder child counts (each 0 or d)."""
        return list(self.preorder()[0])

    @classmethod
    def from_preorder_code(cls, d: int, code: Sequence[int]) -> "DaryTree":
        """Rebuild a tree from its preorder code.

        Raises
        ------
        MalformedCodeError
            If a symbol is neither 0 nor d, the code ends while nodes are
            still pending, or symbols remain after the tree is complete.
        """
        tree = cls(d)
        owners: List[int] = []
        pending = [tree.root]
        fresh = 1
        for pos, sym in enumerate(code):
            if not pending:
                raise MalformedCodeError(f"trailing symbol at position {pos}")
            u = pending.pop()
            if sym == d:
                owners.append(u)
                pending.extend(range(fresh + d - 1, fresh - 1, -1))
                fresh += d
            elif sym != 0:
                raise MalformedCodeError(
                    f"symbol {sym} at position {pos} is neither 0 nor {d}"
                )
        if pending:
            raise MalformedCodeError(f"code ended with {len(pending)} nodes pending")
        tree._hang(owners, list(range(1, fresh)))
        return tree

    def code_text(self) -> str:
        """Preorder code as space-separated ASCII decimals."""
        return " ".join(str(s) for s in self.to_preorder_code())

    @classmethod
    def from_code_text(cls, d: int, text: str) -> "DaryTree":
        try:
            code = [int(tok) for tok in text.split()]
        except ValueError as exc:
            raise MalformedCodeError(str(exc)) from None
        return cls.from_preorder_code(d, code)

    # ------------------------------------------------------------------
    # copying, equality, checking

    def copy(self) -> "DaryTree":
        """Deep copy preserving arena ids exactly."""
        dup = DaryTree.__new__(DaryTree)
        dup.d = self.d
        dup._parent = self._parent.copy()
        dup._slot = self._slot.copy()
        dup._children = self._children.copy()  # child tuples are immutable
        dup._free = self._free.copy()
        dup._root = self._root
        dup._internal = self._internal
        dup._preorder = self._preorder
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DaryTree):
            return NotImplemented
        return self.d == other.d and self.to_preorder_code() == other.to_preorder_code()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DaryTree(d={self.d}, internal={self._internal})"

    def validate(self) -> List[str]:
        """Structural self-check; returns a list of violation strings."""
        problems = []
        live = list(self.node_ids())
        roots = [u for u in live if self._parent[u] < 0]
        if roots != [self._root]:
            problems.append(f"root set {roots} != [{self._root}]")
        internal = 0
        for u in live:
            kids = self._children[u]
            if kids is None:
                continue
            internal += 1
            if len(kids) != self.d:
                problems.append(f"node {u} has {len(kids)} children")
                continue
            for s, c in enumerate(kids, start=1):
                if not self.is_live(c):
                    problems.append(f"child {c} of {u} not live")
                elif self._parent[c] != u or self._slot[c] != s:
                    problems.append(f"backlink of child {c} of {u} inconsistent")
        if internal != self._internal:
            problems.append(f"internal_count {self._internal} != counted {internal}")
        if len(live) != self.d * internal + 1:
            problems.append(f"node count {len(live)} != {self.d}*{internal}+1")
        return problems


def new_root_tree(d: int) -> DaryTree:
    """The single-node tree of arity ``d`` (the unique tree with n = 0)."""
    return DaryTree(d)


def from_preorder_code(d: int, code: Sequence[int]) -> DaryTree:
    return DaryTree.from_preorder_code(d, code)
