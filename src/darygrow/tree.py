"""Immutable d-ary trees held as their preorder code.

A d-ary tree is a rooted plane tree in which every node has exactly ``d``
children or none.  Its preorder code lists the child count of each node,
0 or ``d``, in depth-first preorder; a tree is that code and nothing else.

Nodes are addressed in two ways:

* by **id**, which is the node's position in the preorder code: the root
  is 0, and the first child of an internal node ``u`` is ``u + 1``, or
* by **word**, the sequence of child slots on the path from the root, the
  root being the empty word.  Words over the alphabet ``1..d`` are ordered
  lexicographically with the convention that a strict prefix sorts before
  any of its extensions; that order is preorder order, so ids sort as
  words do.

Edges are identified with their child node throughout the package, so "the
edge at u" means the edge between ``u`` and its parent; the root names no
edge.

The subtree at position p is the shortest slice ``code[p:p+L]`` with
L = d·k + 1, where k counts the internal nodes in the slice; :func:`_end`
finds it with ``tuple.count``, a window at a time, and no per-symbol
Python.  Equivalently, it ends where the Łukasiewicz walk (the running sum
of symbol - 1) first drops below its value at p; :func:`_walk` builds that
walk, the definition the tests compare :func:`_end` against.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ArityError, MalformedCodeError, StaleNodeError

Word = Tuple[int, ...]

# shape bytes translated at a time by format_shape
_BLOCK = 1 << 16


def shape_key(code: Sequence[int]) -> bytes:
    """Histogram key of a shape given by its preorder code: one byte per node,
    1 for an internal node and 0 for a leaf, the same for every arity."""
    return bytes(map(bool, code))


def format_shape(d: int, shape: bytes) -> bytearray:
    """The preorder code text of a shape as :func:`shape_key` gives it:
    ``0`` or ``d`` per node, space separated, in ASCII.  ``translate`` turns
    each byte into ``0`` or the first digit of ``d``, and a strided
    assignment puts the result at every other position of a run of spaces.
    When ``d`` has more digits, each block is built that way on its own and
    ``replace`` expands its first digit, which is never ``0`` and so
    matches no other byte, before the block is copied into a text allocated
    at its exact size."""
    sym = b"%d" % d
    table = bytes.maketrans(b"\0\1", b"0" + sym[:1])
    # n internal nodes make d * n + 1 nodes, and each adds len(sym) - 1 bytes
    size = 2 * len(shape) - 1 + (len(shape) - 1) // d * (len(sym) - 1)
    text = bytearray(b" ") * size
    # block by block, so that no translated copy of the whole shape is held
    at = 0
    for i in range(0, len(shape), _BLOCK):
        block = shape[i : i + _BLOCK].translate(table)
        if len(sym) == 1:
            text[2 * i : 2 * (i + _BLOCK) : 2] = block
        else:
            # the last block has no space after its last symbol
            part = bytearray(b" ") * (2 * len(block) - (i + _BLOCK >= len(shape)))
            part[::2] = block
            part = part.replace(sym[:1], sym)
            text[at : at + len(part)] = part
            at += len(part)
    return text


def format_paren(d: int, code: Sequence[int]) -> str:
    """Render a preorder code, or a shape, as ``(`` + children + ``)`` per
    internal node and ``o`` per leaf."""
    out = []
    stack = []  # children still to come, per open internal node
    for sym in code:
        if sym:
            out.append("(")
            stack.append(d)
        else:
            out.append("o")
            while stack:
                stack[-1] -= 1
                if stack[-1] == 0:
                    stack.pop()
                    out.append(")")
                else:
                    break
    return "".join(out)


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


def _walk(d: int, code: Sequence[int]) -> List[int]:
    """Łukasiewicz walk of a code: entry i is the sum of (symbol - 1) over
    the positions before i, so it has one entry more than the code.
    A symbol other than 0 and ``d`` raises KeyError."""
    steps = {0: -1, d: d - 1}
    return list(accumulate(map(steps.__getitem__, code), initial=0))


def _end(d: int, code: Sequence[int], p: int) -> int:
    """One past the last position of the subtree at position ``p``.

    Let k(L) count the internal nodes in ``code[p:p+L]`` and f(L) =
    d·k(L) + 1.  A slice of L nodes with k internal ones leaves f(L) - L
    nodes owed, so the subtree at p is the shortest slice with f(L) = L,
    and every shorter one has f(L) > L.  f never decreases as L grows.  So
    from L = 1 the iteration L <- f(L) climbs while L is short of the end,
    and cannot pass it: L <= end gives f(L) <= f(end) = end.  It stops at
    the first fixed point, the end.  Each round counts only the newly
    covered window, at C speed: its length less its zeros.  Zeros, not
    ``d`` symbols, because most nodes are leaves and ``0`` is one shared
    object, which ``tuple.count`` matches by identity before comparing.

    Any symbol other than 0 counts as internal.  Where the code runs out
    first, the result is d·K + 1 > len(code) past p, with K the nonzero
    symbols from p on.
    """
    k, seen, stop = 0, p, p + 1
    while seen < stop:
        window = code[seen:stop]
        k += len(window) - window.count(0)
        seen, stop = stop, p + d * k + 1
    return stop


class DaryTree:
    """Immutable arity-``d`` plane tree: ``d`` and the preorder code
    ``code``, a tuple.

    ``DaryTree(d)`` is the single-node tree and ``DaryTree(d, code)`` the
    tree with that code, checked as :meth:`from_preorder_code` checks it.
    A node id is a preorder position, ``0 .. node_count - 1``; any other
    id raises :class:`StaleNodeError`.  For a tree with ``n`` internal
    nodes, ``node_count == d*n + 1``, ``leaf_count == (d-1)*n + 1`` and
    ``edge_count == d*n``.

    Equality compares arity and code.  Instances are unhashable; use
    ``code`` as a dictionary key.  Parents, slots, depths and the subtree
    ends that :meth:`node_at` steps along come from one pass over the code,
    made on first use and kept.
    """

    __slots__ = ("d", "code", "_links")

    def __init__(self, d: int, code: Sequence[int] = (0,)) -> None:
        if d < 2:
            raise ArityError(f"arity must be >= 2, got {d}")
        code = tuple(code)
        _check_code(d, code)
        self._set(d, code)

    def _set(self, d: int, code: Tuple[int, ...]) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "_links", None)

    @classmethod
    def _wrap(cls, d: int, code: Tuple[int, ...]) -> "DaryTree":
        """The tree of a code known to be well formed, with no check."""
        tree = cls.__new__(cls)
        tree._set(d, code)
        return tree

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"DaryTree is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"DaryTree is immutable; cannot delete {name!r}")

    # ------------------------------------------------------------------
    # basic queries

    @property
    def root(self) -> int:
        return 0

    @property
    def internal_count(self) -> int:
        """Number of internal nodes (``n``)."""
        return (len(self.code) - 1) // self.d

    @property
    def node_count(self) -> int:
        return len(self.code)

    @property
    def leaf_count(self) -> int:
        return (self.d - 1) * self.internal_count + 1

    @property
    def edge_count(self) -> int:
        return len(self.code) - 1

    def check_node(self, u: int) -> int:
        """``u`` itself if it names a node of this tree, else StaleNodeError."""
        if not 0 <= u < len(self.code):
            raise StaleNodeError(
                f"{u} does not name a node; ids run 0 .. {len(self.code) - 1}"
            )
        return u

    def is_leaf(self, u: int) -> bool:
        return self.code[self.check_node(u)] == 0

    def _walked(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """Parent, slot, depth and subtree end (one past the subtree's last
        position) of every node, from one pass over the code and one back."""
        if self._links is None:
            d, size = self.d, len(self.code)
            parent, slot, depth = [-1] * size, [0] * size, [0] * size
            stack = []  # [id, children seen] of nodes with children to come
            for u, sym in enumerate(self.code):
                if stack:
                    top = stack[-1]
                    p = top[0]
                    s = top[1] = top[1] + 1
                    parent[u], slot[u], depth[u] = p, s, depth[p] + 1
                    if s == d:
                        stack.pop()
                if sym:
                    stack.append([u, 0])
            end = list(range(1, size + 1))  # a leaf's subtree is itself
            for u in range(size - 1, 0, -1):
                if slot[u] == d:  # a last child ends where its parent does
                    end[parent[u]] = end[u]
            object.__setattr__(self, "_links", (parent, slot, depth, end))
        return self._links

    def parent(self, u: int) -> Optional[int]:
        """Parent id of ``u``, or None for the root."""
        p = self._walked()[0][self.check_node(u)]
        return None if p < 0 else p

    def slot(self, u: int) -> int:
        """Child slot (1..d) that ``u`` occupies in its parent; 0 for the root."""
        return self._walked()[1][self.check_node(u)]

    # ------------------------------------------------------------------
    # iteration

    def node_ids(self) -> range:
        """Every node id, in preorder."""
        return range(len(self.code))

    def leaf_ids(self) -> Iterator[int]:
        return (u for u, sym in enumerate(self.code) if not sym)

    def nonroot_node_at(self, rank: int) -> int:
        """Node id of the ``rank``-th non-root node in preorder.

        This fixes the rank-to-edge correspondence used by the sampler:
        ranks ``0 .. edge_count-1`` enumerate edges through the child node
        that names each edge.
        """
        if not 0 <= rank < self.edge_count:
            raise IndexError(f"edge rank {rank} outside [0, {self.edge_count})")
        return rank + 1

    # ------------------------------------------------------------------
    # words

    def node_word(self, u: int) -> Word:
        """Slot path from the root down to ``u``; the root gives ()."""
        self.check_node(u)
        parent, slot = self._walked()[:2]
        letters = []
        while u > 0:
            letters.append(slot[u])
            u = parent[u]
        letters.reverse()
        return tuple(letters)

    def node_at(self, word: Sequence[int]) -> int:
        """Node id found by walking ``word`` from the root."""
        code, d = self.code, self.d
        end = self._walked()[3]
        u = 0
        for letter in word:
            if not code[u] or not 1 <= letter <= d:
                raise KeyError(f"no node at word {tuple(word)!r}")
            u += 1  # the first child; then skip the siblings before this one
            while letter > 1:
                u = end[u]
                letter -= 1
        return u

    def depth(self, u: int) -> int:
        return self._walked()[2][self.check_node(u)]

    def height(self) -> int:
        """Length of the longest root-to-leaf path."""
        return max(self._walked()[2])

    # ------------------------------------------------------------------
    # serialization

    def to_preorder_code(self) -> List[int]:
        """Depth-first preorder child counts (each 0 or d), as a new list."""
        return list(self.code)

    @classmethod
    def from_preorder_code(cls, d: int, code: Sequence[int]) -> "DaryTree":
        """The tree with this preorder code.

        Raises
        ------
        MalformedCodeError
            If a symbol is neither 0 nor d, the code ends while nodes are
            still pending, or symbols remain after the tree is complete.
        """
        return cls(d, code)

    def code_text(self) -> str:
        """Preorder code as space-separated ASCII decimals."""
        return format_shape(self.d, shape_key(self.code)).decode("ascii")

    @classmethod
    def from_code_text(cls, d: int, text: str) -> "DaryTree":
        try:
            code = [int(tok) for tok in text.split()]
        except ValueError as exc:
            raise MalformedCodeError(str(exc)) from None
        return cls(d, code)

    # ------------------------------------------------------------------
    # equality

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DaryTree):
            return NotImplemented
        return self.d == other.d and self.code == other.code

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DaryTree(d={self.d}, internal={self.internal_count})"


def _check_code(d: int, code: Tuple[int, ...]) -> None:
    """Raise MalformedCodeError unless ``code`` is the preorder code of a
    d-ary tree.  The error names the first position at which reading the
    code symbol by symbol goes wrong."""
    size = len(code)
    if code.count(d) + code.count(0) == size:
        bad = size
    else:
        bad = next(i for i, s in enumerate(code) if s != 0 and s != d)
    # _end reads no further than the end it returns, so an end up to
    # ``bad`` is the end of the valid prefix, and no prefix before ``bad``
    # is complete when the end lies past it
    end = _end(d, code, 0)
    if end < size and end <= bad:
        raise MalformedCodeError(f"trailing symbol at position {end}")
    if bad < size:
        raise MalformedCodeError(
            f"symbol {code[bad]} at position {bad} is neither 0 nor {d}"
        )
    if end > size:
        raise MalformedCodeError(f"code ended with {end - size} nodes pending")
