"""The growth bijection and its inverse, plus the two binary variants.

``enlarge`` maps a pair (edge-marked tree of size n, letter in 1..d) to a
leaf-marked tree of size n+1; ``reduce`` is its exact inverse.  The map is
built from three stages:

* ``cut`` breaks the marked tree into an ordered forest of d leaf-marked
  trees by repeatedly detaching the subtree under the lexicographically
  largest remaining marked edge; bud marks become root-marked singleton
  positions.  The forest is always excursion type, whatever the letter.
* ``rotate`` cyclically shifts the forest positions by the letter.
* ``add_root`` hangs the d forest positions under a fresh root.

Both directions run on (code, leaves, offset) parts, one per forest
position, and build only the tree they return: ``enlarge`` is ``_cut``,
``_turn`` and ``_hang``, and ``reduce`` is ``_split``, ``walks.leaf_shift``
and ``_graft``.  The six public stages wrap these helpers, so each rule
has one copy: ``_check_marks`` refuses bad marks (for the binary variants
too), ``_turn`` is the letter check, and the excursion check lives in
``cut_inv`` (see ``reduce``).

Every map works on preorder codes (see ``marks``) and builds new values.
The subtree at position p is the shortest slice ``code[p:p+L]`` with
L = d·k + 1 for its k internal nodes; ``tree._end`` finds it by counting
a window at a time, with no walk built.  Lex order on words is preorder
order; detaching, grafting and hanging subtrees are splices.
For the amortized O(1) growth loop see the kernel modules; this module is
the reference semantics those kernels are tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ArityError, CorruptForestError, MarkCountError, NotExcursionError, RootSurgeryError
)
from .marks import (
    Code, EdgeMarkedTree, LeafMarkedTree, MarkedForest, forest_to_obj, is_excursion_forest,
    leaf_marked_to_obj, leaf_sequence, mark_problems,
)
from .tree import _end, _walk, format_word
from .walks import leaf_shift

# the two binary letters used by the d=2 variants; kept distinct from the
# numeric letters 1..d on purpose
RIGHT = "r"
LEFT = "l"


def _check_marks(x: EdgeMarkedTree) -> None:
    """Refuse an edge-marked tree whose marks ``mark_problems`` faults."""
    problems = mark_problems(x)
    if problems:
        raise MarkCountError(problems[0])


def cut(x: EdgeMarkedTree, a: int, details: Optional[list] = None):
    """Break an edge-marked tree into an excursion-type marked forest: the
    forest of ``_cut``'s parts.  The letter ``a`` is not read, so the
    forest is the same for every letter; it is passed through so the
    composition with rotate reads naturally.  Returns ``(forest, a)``.

    Bud b_j yields a root-marked singleton at position j.  Then, while
    marked edges remain, the subtree under the lexicographically largest
    one is detached (together with the marked leaves it acquired so far),
    placed at the largest free position, and replaced in the working tree
    by a marked leaf.  The working tree itself takes the smallest free
    position last.  So each piece is the code slice of a marked subtree (or
    of the whole tree) with the marked subtrees inside it cut down to one
    marked leaf each, and the pieces in preorder take the free positions.
    """
    parts, _ = _cut(x)
    if details is not None:
        free = [j for j in range(x.d) if j not in x.buds]
        words = x.words(x.edges)
        for i in range(len(x.edges), 0, -1):
            edge = format_word(words[i - 1])
            details.append({"position": free[i], "edge": edge, "remaining": free[:i]})
    return _forest(x.d, parts), a


def _cut(x: EdgeMarkedTree) -> Tuple[List[tuple], List[int]]:
    """``cut``'s forest as parts (see ``_split``), each at offset 0, and the
    marks each part carries."""
    _check_marks(x)
    d, code = x.d, x.code
    spans = [(0, len(code))]
    # loops, not comprehensions (a call each), over the few marks: here, in _hang and _graft
    for p in x.edges:
        spans.append((p, _end(d, code, p) if code[p] else p + 1))  # a marked leaf is alone
    free = list(range(d))
    for j in x.buds:  # distinct and in range, checked above
        free.remove(j)
    parts, counts = [((0,), (0,), 0)] * d, [1] * d  # a bud: the marked single node
    for i, (s, e) in enumerate(spans):
        piece, leaves, at = [], [], s
        for h, h_end in spans[i + 1 :]:
            if h >= e:
                break
            if h < at:
                continue  # inside a subtree already cut out of this piece
            piece += code[at:h]
            leaves.append(len(piece))
            piece.append(0)
            at = h_end
        if leaves:
            piece += code[at:e]
        parts[free[i]] = (tuple(piece) if leaves else code[s:e], tuple(leaves), 0)
        counts[free[i]] = len(leaves)
    return parts, counts


def cut_inv(f: MarkedForest, a: int):
    """Reassemble an excursion-type forest into an edge-marked tree.

    Root-marked singleton positions turn back into buds.  The remaining
    trees are merged in increasing position order, each grafted at the
    lexicographically first marked leaf of the tree built so far; that
    leaf's edge becomes a mark and the grafted tree's marks replace it.

    Raises ``NotExcursionError`` for a forest that is not excursion type
    (and ``MarkCountError`` for a wrong mark total) before any graft;
    ``reduce``'s turned parts need no such check.
    """
    if not is_excursion_forest(f):  # raises MarkCountError for a wrong total
        raise NotExcursionError(
            f"leaf sequence {leaf_sequence(f).format()} is not an excursion"
        )
    return _graft(f.d, [(t.code, t.leaves, 0) for t in f.trees]), a


def _graft(d: int, parts: Sequence[tuple]) -> EdgeMarkedTree:
    """``cut_inv`` on the parts of a forest known to be excursion type.

    One pass sorts the buds out and grafts the rest: the first part that
    is no bud is the base, and each later one lands on its top live leaf.
    """
    # ``live`` holds the marked leaves not yet plugged into, the lex-first
    # on top.  A graft lands on the top leaf, so it moves every leaf below
    # it by the symbols it adds: each is kept less the growth ``grown`` when
    # it was pushed, and read back plus the growth since.
    buds, edges, live, grown, code = [], [], [], 0, None
    for j, (piece, marks, s) in enumerate(parts):
        if len(piece) == 1 and len(marks) == 1:
            buds.append(j)
            continue
        if code is None:
            code = list(piece)
            for p in reversed(marks):
                live.append(p - s)
            continue
        if not live:
            raise CorruptForestError("no marked leaf left to plug into")
        u = live.pop() + grown
        if code[u]:
            raise CorruptForestError(f"marked node at position {u} is internal")
        if len(piece) > 1:  # an unmarked leaf piece is the leaf it lands on
            code[u : u + 1] = piece
            grown += len(piece) - 1
            at = u - grown - s
            for p in reversed(marks):
                live.append(at + p)
        # later grafts land after u, so u keeps its position
        edges.append(u)
    if live:
        # counting forces zero leftovers: the grafts consume exactly the
        # marks the non-singleton trees carry beyond the bud marks
        raise CorruptForestError(f"{len(live)} marked leaves left over")
    return EdgeMarkedTree.from_code(d, tuple(code), tuple(buds), tuple(edges))


def rotate(f: MarkedForest, a: int) -> MarkedForest:
    """Shift forest positions: output position i holds input position (i+a) mod d."""
    return MarkedForest.from_trees(_turn(f.trees, a))


def _turn(parts: Sequence, a: int):
    """``rotate`` on a forest's d trees or parts; the one letter check."""
    d = len(parts)
    if not 1 <= a <= d:
        raise ArityError(f"letter {a} outside 1..{d}")
    s = a % d
    return parts[s:] + parts[:s]


def rotate_inv(f: MarkedForest) -> Tuple[MarkedForest, int]:
    """Undo rotate: find the unique shift that restores excursion type.

    Returns ``(excursion-type forest, letter)`` with the letter chosen so
    that ``rotate_inv(rotate(g, a)) == (g, a)`` for excursion-type g: the
    shift r in [0, d) recovered from the leaf sequence maps to letter d - r.
    """
    t = f.trees
    r = leaf_shift(f.mark_counts())
    return MarkedForest.from_trees(t[r:] + t[:r]), len(t) - r


def add_root(f: MarkedForest) -> LeafMarkedTree:
    """Hang the forest under a fresh root; position i becomes child i+1."""
    return _hang(f.d, [(t.code, t.leaves, 0) for t in f.trees])


def _hang(d: int, parts: Sequence[tuple]) -> LeafMarkedTree:
    """The inverse of ``_split``: the parts in order under a fresh root."""
    code, leaves = [d], []
    for piece, marks, s in parts:
        if marks:
            at = len(code) - s
            for p in marks:
                leaves.append(at + p)
        code += piece
    return LeafMarkedTree.from_code(d, tuple(code), tuple(leaves))


def add_root_inv(t: LeafMarkedTree) -> MarkedForest:
    """Split a tree at its root into the forest of ``_split``'s parts."""
    return _forest(t.d, _split(t.d, t.code, t.leaves)[0])


def _forest(d: int, parts: Sequence[tuple]) -> MarkedForest:
    """The forest of these parts."""
    of = LeafMarkedTree.from_code
    trees = [of(d, c, tuple([p - s for p in m]) if s else m) for c, m, s in parts]
    return MarkedForest.from_trees(tuple(trees))


def _split(d: int, code: Code, marks: Code) -> Tuple[List[tuple], List[int]]:
    """A tree's d root subtrees as (code, leaves, offset) parts, the leaves
    as positions in ``code``, and the marks each part carries; a marked
    root is CorruptForestError."""
    if len(code) == 1:
        raise RootSurgeryError("single-node tree has no root to remove")
    if marks and not marks[0]:
        raise CorruptForestError("marked node at position 0 is the root")
    parts: List[tuple] = []
    counts: List[int] = []
    s, lo = 1, 0
    # marks are sorted, so each child's follow the previous child's; each
    # child starts where the one before it ends, a leaf ends one further
    # on, and the last child takes the rest of the tree and marks
    for _ in range(d - 1):
        e = _end(d, code, s) if code[s] else s + 1
        hi = bisect_left(marks, e, lo)
        parts.append((code[s:e], marks[lo:hi], s))
        counts.append(hi - lo)
        s, lo = e, hi
    parts.append((code[s:], marks[lo:], s))
    counts.append(len(marks) - lo)
    return parts, counts


def enlarge(x: EdgeMarkedTree, a: int) -> LeafMarkedTree:
    """Grow by one internal node: add_root . rotate . cut, run as ``_cut``,
    ``_turn`` and ``_hang`` on the parts, with no forest built between."""
    return _hang(x.d, _turn(_cut(x)[0], a))


def reduce(t: LeafMarkedTree) -> Tuple[EdgeMarkedTree, int]:
    """Exact inverse of enlarge: cut_inv . rotate_inv . add_root_inv.

    ``_split`` cuts the code at the root into parts and counts their marks,
    ``leaf_shift`` checks the total and finds the first lowest point of the
    leaf sequence, and ``_graft`` grafts the parts turned there.  By the
    cycle lemma (Dvoretzky–Motzkin) that rotation of a walk summing to -1
    is excursion type, so no tree or forest is built for an excursion check.
    """
    d = t.d
    parts, counts = _split(d, t.code, t.leaves)
    r = leaf_shift(counts)
    return _graft(d, parts[r:] + parts[:r]), d - r


def enlarge_trace(x: EdgeMarkedTree, a: int):
    """Run enlarge stage by stage, returning (result, list of frames).

    Each frame records the state after one map, including leaf sequences,
    in plain JSON-ready dictionaries.
    """
    steps: list = []
    f, a = cut(x, a, details=steps)
    g = rotate(f, a)
    out = add_root(g)
    return out, [
        {"map": "cut", **_forest_frame(f), "details": steps},
        {"map": "rotate", "letter": a, **_forest_frame(g)},
        {"map": "add_root", "tree": leaf_marked_to_obj(out)},
    ]


def _forest_frame(f: MarkedForest) -> dict:
    return {"forest": forest_to_obj(f), "leaf_sequence": leaf_sequence(f).format()}


# ----------------------------------------------------------------------
# the two binary growth bijections (d = 2 only)


def _check_binary(x: EdgeMarkedTree, a: str) -> None:
    if x.d != 2:
        raise ArityError(f"binary variant needs d=2, got d={x.d}")
    if a not in (RIGHT, LEFT):
        raise ArityError(f"binary letter must be {RIGHT!r} or {LEFT!r}, got {a!r}")
    _check_marks(x)


def remy_enlarge(x: EdgeMarkedTree, a: str) -> LeafMarkedTree:
    """Grow a binary tree by splitting the marked edge (or adding a root).

    With an edge (u, parent) marked, a new node takes u's place; u hangs
    on one side of it and a fresh marked leaf on the other, side picked by
    the letter.  With the bud marked the same happens above the root.
    """
    _check_binary(x, a)
    code = x.code
    if x.buds:
        u, e = 0, len(code)  # the bud stands for the edge above the root
    else:
        u = x.edges[0]
        e = _end(2, code, u)
    if a == RIGHT:
        middle, marked = (2,) + code[u:e] + (0,), e + 1
    else:
        middle, marked = (2, 0) + code[u:e], u + 1
    return LeafMarkedTree.from_code(2, code[:u] + middle + code[e:], (marked,))


def third_enlarge(x: EdgeMarkedTree, a: str) -> LeafMarkedTree:
    """The other binary growth map: relocate the marked subtree upward.

    Bud case: same as remy_enlarge.  Edge case (u, p): the subtree at u is
    detached and u stays behind as the marked leaf; a new node v is spliced
    into the edge above p (a new root if p was the root) and the detached
    subtree hangs from v's new child on the side the letter picks.
    """
    _check_binary(x, a)
    if x.buds:
        return remy_enlarge(x, a)
    code = x.code
    u = x.edges[0]
    e = _end(2, code, u)
    # the parent is the last node before u whose walk value is not above u's
    walk = _walk(2, code[:u])
    p = next(i for i in range(u - 1, -1, -1) if walk[i] <= walk[u])
    p_end = _end(2, code, p)
    sub = code[u:e]
    rest = code[p:u] + (0,) + code[e:p_end]  # p's subtree, u left as a leaf
    if a == RIGHT:
        middle, marked = (2,) + rest + sub, u + 1
    else:
        middle, marked = (2,) + sub + rest, u + 1 + len(sub)
    return LeafMarkedTree.from_code(2, code[:p] + middle + code[p_end:], (marked,))
