"""The growth bijection and its inverse, plus the two binary variants.

``enlarge`` maps a pair (edge-marked tree of size n, letter in 1..d) to a
leaf-marked tree of size n+1; ``reduce`` is its exact inverse.  The map is
built from three stages:

* ``cut`` breaks the marked tree into an ordered forest of d leaf-marked
  trees by repeatedly detaching the subtree under the lexicographically
  largest remaining marked edge; bud marks become root-marked singleton
  positions.  The forest it produces is always excursion type, and the
  letter, which only ``rotate`` reads, cannot change it: so the exhaustive
  oracle cuts each marked tree once and rotates that forest by all d letters.
* ``rotate`` cyclically shifts the forest positions by the letter.
* ``add_root`` hangs the d forest positions under a fresh root.

``reduce`` undoes them in reverse on the child subtrees' codes and marks,
with no tree or forest built between: the root split is ``_split``, the
mark total check and the turn are ``marks.leaf_shift``, and the graft is
``_graft``; ``add_root_inv``, ``rotate_inv`` and ``cut_inv`` wrap them.
The excursion check lives in the public ``cut_inv`` alone (see ``reduce``).

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
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ArityError,
    CorruptForestError,
    MarkCountError,
    NotExcursionError,
    RootSurgeryError,
)
from .marks import (
    Code,
    EdgeMarkedTree,
    LeafMarkedTree,
    MarkedForest,
    forest_to_obj,
    is_excursion_forest,
    leaf_marked_to_obj,
    leaf_sequence,
    leaf_shift,
    mark_problems,
)
from .tree import _end, _walk, format_word

# the two binary letters used by the d=2 variants; kept distinct from the
# numeric letters 1..d on purpose
RIGHT = "r"
LEFT = "l"

def _check_letter(d: int, a: int) -> None:
    if not 1 <= a <= d:
        raise ArityError(f"letter {a} outside 1..{d}")


def cut(x: EdgeMarkedTree, a: int, details: Optional[list] = None):
    """Break an edge-marked tree into an excursion-type marked forest.

    The letter ``a`` is not read, so the forest is the same for every
    letter; it is passed through so the composition with rotate reads
    naturally.  Returns ``(forest, a)``.

    Bud b_j yields a root-marked singleton at position j.  Then, while
    marked edges remain, the subtree under the lexicographically largest
    one is detached (together with the marked leaves it acquired so far),
    placed at the largest free position, and replaced in the working tree
    by a marked leaf.  The working tree itself takes the smallest free
    position last.  So each piece is the code slice of a marked subtree (or
    of the whole tree) with the marked subtrees inside it cut down to one
    marked leaf each, and the pieces in preorder take the free positions.
    """
    problems = mark_problems(x)
    if problems:
        raise MarkCountError(problems[0])
    d = x.d
    code = x.code
    spans = [(0, len(code))]
    # a marked leaf's subtree is the leaf alone
    spans += [(p, _end(d, code, p) if code[p] else p + 1) for p in x.edges]
    free = [j for j in range(d) if j not in x.buds]  # buds checked above

    slots: List[LeafMarkedTree] = [None] * d  # type: ignore[list-item]
    bud = LeafMarkedTree.from_code(d, (0,), (0,))  # immutable, so shared
    for j in x.buds:
        slots[j] = bud
    for i, (s, e) in enumerate(spans):
        parts, leaves, size, at = [], [], 0, s
        for h, h_end in spans[i + 1 :]:
            if h >= e:
                break
            if h < at:
                continue  # inside a subtree already cut out of this piece
            size += h - at
            leaves.append(size)
            parts += (code[at:h], (0,))
            size += 1
            at = h_end
        piece = tuple(chain(*parts, code[at:e])) if parts else code[s:e]
        slots[free[i]] = LeafMarkedTree.from_code(d, piece, tuple(leaves))

    if details is not None:
        words = x.words(x.edges)
        for i in range(len(x.edges), 0, -1):
            edge = format_word(words[i - 1])
            details.append({"position": free[i], "edge": edge, "remaining": free[:i]})
    return MarkedForest.from_trees(tuple(slots)), a


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
    return _graft(f.d, [(t.code, t.leaves, 0) for t in f.trees], a)


def _graft(d: int, parts: Sequence[tuple], a: int):
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
            code, live = list(piece), [p - s for p in reversed(marks)]
            continue
        if not live:
            raise CorruptForestError("no marked leaf left to plug into")
        u = live.pop() + grown
        if code[u]:
            raise CorruptForestError(f"marked node at position {u} is internal")
        if len(piece) > 1:  # an unmarked leaf piece is the leaf it lands on
            code[u : u + 1] = piece
            grown += len(piece) - 1
            if marks:
                at = u - grown - s
                live += [at + p for p in reversed(marks)]
        # later grafts land after u, so u keeps its position
        edges.append(u)
    if live:
        # counting forces zero leftovers: the grafts consume exactly the
        # marks the non-singleton trees carry beyond the bud marks
        raise CorruptForestError(f"{len(live)} marked leaves left over")
    return EdgeMarkedTree.from_code(d, tuple(code), tuple(buds), tuple(edges)), a


def rotate(f: MarkedForest, a: int) -> MarkedForest:
    """Shift forest positions: output position i holds input position (i+a) mod d."""
    t = f.trees
    _check_letter(len(t), a)
    s = a % len(t)
    return MarkedForest.from_trees(t[s:] + t[:s])


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
    d = f.d
    code = [d]
    leaves: List[int] = []
    for t in f.trees:
        if t.leaves:
            base = len(code)
            leaves += [base + p for p in t.leaves]
        code += t.code
    return LeafMarkedTree.from_code(d, tuple(code), tuple(leaves))


def add_root_inv(t: LeafMarkedTree) -> MarkedForest:
    """Split a tree at its root into the forest of ``_split``'s parts."""
    d = t.d
    parts, _ = _split(d, t.code, t.leaves)
    trees = [LeafMarkedTree.from_code(d, c, tuple([p - s for p in m])) for c, m, s in parts]
    return MarkedForest.from_trees(tuple(trees))


def _split(d: int, code: Code, marks: Code) -> Tuple[List[tuple], List[int]]:
    """A tree's d root subtrees as (code, leaves, offset) parts, the leaves
    as positions in ``code``, and the marks each part carries."""
    if len(code) == 1:
        raise RootSurgeryError("single-node tree has no root to remove")
    parts: List[tuple] = []
    counts: List[int] = []
    s, lo = 1, bisect_left(marks, 1)
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
    """Grow by one internal node: add_root . rotate . cut."""
    _check_letter(x.d, a)
    f, a = cut(x, a)
    return add_root(rotate(f, a))


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
    return _graft(d, parts[r:] + parts[:r], d - r)


def enlarge_trace(x: EdgeMarkedTree, a: int):
    """Run enlarge stage by stage, returning (result, list of frames).

    Each frame records the state after one map, including leaf sequences,
    in plain JSON-ready dictionaries.
    """
    _check_letter(x.d, a)
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
    marks = len(x.buds) + len(x.edges)
    if marks != 1:
        raise MarkCountError(f"{marks} marks, need 1")


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
