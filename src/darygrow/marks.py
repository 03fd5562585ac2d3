"""Marked trees and forests.

An edge-marked tree distinguishes d-1 elements of the edge universe
E(t) ∪ {b_0 .. b_{d-2}}: real edges are named by their child node, and the
buds b_i are virtual extra edge slots that make the universe size d*n + d - 1.
A leaf-marked tree distinguishes some of its leaves.  A marked forest is an
ordered d-tuple of leaf-marked trees; its leaf sequence is the walk whose
i-th increment is (marks in tree i) - 1.

Marked trees are immutable values: ``d``, the preorder code as a tuple,
and each mark as a preorder position (buds stay bud indices).  Lex order on
words is preorder order, so positions sort and compare as words would.
A node id of a ``DaryTree`` is its preorder position, so the ids in
``.marks`` / ``.marked_leaves`` are the positions themselves.

The values here are plain ``__slots__`` classes on ``_value``'s pattern,
not dataclasses, which would cost every import of this module about 11 ms
(see ``_value``).  ``Bud`` and ``EdgeMark`` are records: equal only within
their type (``Bud(0) != EdgeMark(0)``), hashable, and ``Bud`` ordered by
its index.  The marked trees and forests compare by ``key()`` and are not
hashable; ``key()`` is their hashable identity.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

from ._value import OrderedRecord, Record, Value
from .errors import ArityError, MalformedObjectError, MarkCountError
from .tree import DaryTree, Word, format_word, parse_word
from .walks import LukWalk


class Bud(OrderedRecord):
    """Virtual extra edge slot b_index, index in [0, d-2]."""

    __slots__ = ("index",)


class EdgeMark(Record):
    """A real edge, named by its child node id."""

    __slots__ = ("child",)


MarkTarget = Union[Bud, EdgeMark]

Code = Tuple[int, ...]  # a preorder code, or sorted preorder positions


class _CodeTree(Value):
    """The code form shared by both marked trees."""

    __slots__ = ("d", "code")

    @property
    def n(self) -> int:
        """Number of internal nodes."""
        return (len(self.code) - 1) // self.d

    @property
    def tree(self) -> DaryTree:
        """The tree as a ``DaryTree``, over the same code tuple."""
        return DaryTree._wrap(self.d, self.code)

    def words(self, positions: Sequence[int]) -> Tuple[Word, ...]:
        """The words of the nodes at these preorder positions."""
        tree = self.tree
        return tuple(map(tree.node_word, positions))


class EdgeMarkedTree(_CodeTree):
    """A tree together with d-1 marks over its edges and buds.

    ``buds`` holds the marked bud indices and ``edges`` the preorder
    positions of the marked edges' child nodes, both sorted, so two
    structurally equal objects compare equal regardless of construction
    order.  Containers are permissive; :func:`validate` reports bad marks.
    """

    __slots__ = ("buds", "edges")

    def __init__(self, tree: DaryTree, marks: Iterable[MarkTarget]) -> None:
        self.d, self.code = tree.d, tree.code
        marks = tuple(marks)
        self.buds = tuple(sorted(m.index for m in marks if isinstance(m, Bud)))
        edges = (tree.check_node(m.child) for m in marks if not isinstance(m, Bud))
        self.edges = tuple(sorted(edges))

    @classmethod
    def from_code(cls, d: int, code: Code, buds: Code, edges: Code) -> "EdgeMarkedTree":
        """The value with these fields, taken as given (tuples sorted)."""
        x = cls.__new__(cls)
        x.d, x.code, x.buds, x.edges = d, code, buds, edges
        return x

    @classmethod
    def from_words(
        cls,
        tree: DaryTree,
        bud_indices: Iterable[int] = (),
        edge_words: Iterable[Sequence[int]] = (),
    ) -> "EdgeMarkedTree":
        marks: List[MarkTarget] = [Bud(i) for i in bud_indices]
        marks.extend(EdgeMark(tree.node_at(w)) for w in edge_words)
        return cls(tree, marks)

    @property
    def marks(self) -> Tuple[MarkTarget, ...]:
        """The marks in canonical order: buds by index, then edges by word."""
        return (*map(Bud, self.buds), *map(EdgeMark, self.edges))

    def key(self):
        """Hashable canonical identity: (d, code, buds, edge positions)."""
        return (self.d, self.code, self.buds, self.edges)

    def __repr__(self) -> str:
        marks = len(self.buds) + len(self.edges)
        return f"EdgeMarkedTree(d={self.d}, n={self.n}, marks={marks})"


class LeafMarkedTree(_CodeTree):
    """A tree with a set of distinguished leaves (any number of them),
    held as their sorted preorder positions in ``leaves``."""

    __slots__ = ("leaves",)

    def __init__(self, tree: DaryTree, marked_leaves: Iterable[int]) -> None:
        self.d, self.code = tree.d, tree.code
        self.leaves = tuple(sorted({tree.check_node(u) for u in marked_leaves}))

    @classmethod
    def from_code(cls, d: int, code: Code, leaves: Code) -> "LeafMarkedTree":
        """The value with these fields, taken as given (leaves sorted)."""
        t = cls.__new__(cls)
        t.d, t.code, t.leaves = d, code, leaves
        return t

    @classmethod
    def from_words(
        cls, tree: DaryTree, leaf_words: Iterable[Sequence[int]]
    ) -> "LeafMarkedTree":
        return cls(tree, (tree.node_at(w) for w in leaf_words))

    @property
    def marked_leaves(self) -> Tuple[int, ...]:
        """Node ids of the marked leaves in ``.tree``, in word order."""
        return self.leaves

    def mark_words(self) -> Tuple[Word, ...]:
        return self.words(self.leaves)

    def key(self):
        return (self.d, self.code, self.leaves)

    def __repr__(self) -> str:
        return f"LeafMarkedTree(d={self.d}, n={self.n}, marks={len(self.leaves)})"


class MarkedForest(Value):
    """Ordered sequence of exactly d leaf-marked trees, positions 0 .. d-1."""

    __slots__ = ("trees",)

    def __init__(self, trees: Sequence[LeafMarkedTree]) -> None:
        self.trees: Tuple[LeafMarkedTree, ...] = tuple(trees)
        arities = [t.d for t in self.trees]
        if arities.count(len(arities)) != len(arities):
            raise ArityError(f"forest of {len(arities)} trees with arities {arities}")

    @classmethod
    def from_trees(cls, trees: Tuple[LeafMarkedTree, ...]) -> "MarkedForest":
        """The forest of this tuple, taken as given (every tree of arity
        ``len(trees)``): for a stage that just built every tree at that
        arity, or permuted an already checked forest."""
        f = cls.__new__(cls)
        f.trees = trees
        return f

    @property
    def d(self) -> int:
        return len(self.trees)

    def mark_counts(self) -> List[int]:
        return [len(t.leaves) for t in self.trees]

    def key(self):
        return tuple(t.key() for t in self.trees)

    def __repr__(self) -> str:
        return f"MarkedForest(d={self.d}, sizes={[t.n for t in self.trees]})"


def leaf_shift(counts: Sequence[int]) -> int:
    """The first lowest point, mod d, of the leaf sequence of a forest whose
    d positions carry these mark counts, after checking their total.  By the
    cycle lemma the forest turned to start there is excursion type, and the
    shift is 0 exactly when the forest already is."""
    d = len(counts)
    total = sum(counts)
    if total != d - 1:
        raise MarkCountError(f"forest carries {total} marks, need {d - 1}")
    level = low = r = 0
    for i, c in enumerate(counts, 1):
        level += c - 1
        if level < low:
            low, r = level, i
    return r % d


def leaf_sequence(f: MarkedForest) -> LukWalk:
    """The walk with one increment per forest position: marks - 1."""
    counts = f.mark_counts()
    leaf_shift(counts)  # checks the mark total
    return LukWalk.from_increments([c - 1 for c in counts])


def is_excursion_forest(f: MarkedForest) -> bool:
    """True iff the leaf sequence stays nonnegative until its final step."""
    return leaf_shift(f.mark_counts()) == 0


def mark_problems(x: EdgeMarkedTree) -> List[str]:
    """What is wrong with the marks of ``x``, its tree left unchecked."""
    d = x.d
    problems = []
    marks = len(x.buds) + len(x.edges)
    if marks != d - 1:
        problems.append(f"{marks} marks, expected {d - 1}")
    for kind, found in (("bud", x.buds), ("edge", x.edges)):
        if len(set(found)) != len(found):
            problems.append(f"duplicate {kind} mark")
    problems.extend(
        f"bud index {i} outside [0, {d - 2}]" for i in x.buds if not 0 <= i <= d - 2
    )
    if 0 in x.edges:
        problems.append("root names no edge")
    return problems


def validate(x: Union[EdgeMarkedTree, LeafMarkedTree, MarkedForest]) -> List[str]:
    """Check the type invariants of a marked object.

    Returns a list of human-readable violations, empty when the object is
    well formed.  Never raises; violations are data.
    """
    problems: List[str] = []
    if isinstance(x, EdgeMarkedTree):
        problems.extend(mark_problems(x))
    elif isinstance(x, LeafMarkedTree):
        problems.extend(
            f"marked node at position {p} is internal" for p in x.leaves if x.code[p]
        )
    elif isinstance(x, MarkedForest):
        if any(t.d != x.d for t in x.trees):
            problems.append("mixed arities in forest")
        for i, t in enumerate(x.trees):
            problems.extend(f"tree {i}: {p}" for p in validate(t))
    else:
        problems.append(f"unknown object {type(x).__name__}")
    return problems


# ----------------------------------------------------------------------
# debug serialization: {d, code, marks: [{bud: i} | {edge: word}], leaves: [words]}


def edge_marked_to_obj(x: EdgeMarkedTree) -> dict:
    marks = [{"bud": i} for i in x.buds]
    marks.extend({"edge": format_word(w)} for w in x.words(x.edges))
    return {"d": x.d, "code": x.tree.code_text(), "marks": marks}


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _check(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (a bool is no integer), else an error."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedObjectError(
            f"{what} must be {_JSON_TYPES[kind]}, not {type(value).__name__}"
        )
    return value


def _tree_from_obj(obj) -> DaryTree:
    _check(obj, dict, "a marked tree")
    d = _check(obj.get("d"), int, "d")
    return DaryTree.from_code_text(d, _check(obj.get("code"), str, "code"))


def edge_marked_from_obj(obj: dict) -> EdgeMarkedTree:
    tree = _tree_from_obj(obj)
    marks: List[MarkTarget] = []
    for entry in _check(obj.get("marks", []), list, "marks"):
        _check(entry, dict, "a mark")
        if "bud" in entry:
            marks.append(Bud(_check(entry["bud"], int, "a bud index")))
        else:
            word = parse_word(_check(entry.get("edge"), str, "an edge word"))
            marks.append(EdgeMark(tree.node_at(word)))
    return EdgeMarkedTree(tree, marks)


def leaf_marked_to_obj(x: LeafMarkedTree) -> dict:
    leaves = [format_word(w) for w in x.mark_words()]
    return {"d": x.d, "code": x.tree.code_text(), "leaves": leaves}


def leaf_marked_from_obj(obj: dict) -> LeafMarkedTree:
    tree = _tree_from_obj(obj)
    leaves = _check(obj.get("leaves", []), list, "leaves")
    return LeafMarkedTree.from_words(
        tree, [parse_word(_check(s, str, "a leaf word")) for s in leaves]
    )


def forest_to_obj(f: MarkedForest) -> dict:
    return {"d": f.d, "trees": [leaf_marked_to_obj(t) for t in f.trees]}


def forest_from_obj(obj: dict) -> MarkedForest:
    trees = _check(_check(obj, dict, "a forest").get("trees"), list, "trees")
    return MarkedForest([leaf_marked_from_obj(t) for t in trees])

