"""Łukasiewicz walks, rotations, and excursion detection.

A walk of length m is a sequence of values s_0 .. s_m with s_0 = 0,
s_m = -1 and every increment at least -1.  An excursion stays nonnegative
until the final step.  Rotating the increment sequence cyclically permutes
a rotation class of m distinct walks, exactly one of which is an excursion;
that representative is located at the first argmin of the values.
:func:`leaf_shift` finds that argmin in one pass over the increments
plus one; it is the one shift the bijections run, and ``excursion_shift``
returns it, so the rotation verifier certifies it against ``is_excursion``
and ``first_argmin``, the definitions kept here beside it.

``LukWalk`` is a ``_value.Record``, not a dataclass, so importing this
module does not load ``dataclasses`` (see ``_value``).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence, Tuple

from ._value import Record
from .errors import MarkCountError


class LukWalk(Record):
    """Immutable Łukasiewicz walk, stored by its values s_0 .. s_m."""

    __slots__ = ("values",)

    def __init__(self, values: Tuple[int, ...]) -> None:
        if len(values) < 2 or values[0] != 0 or values[-1] != -1:
            raise ValueError(f"not a Lukasiewicz walk: {values}")
        if any(b - a < -1 for a, b in zip(values, values[1:])):
            raise ValueError(f"increment below -1 in {values}")
        super().__init__(values)

    @classmethod
    def from_increments(cls, increments: Sequence[int]) -> "LukWalk":
        values = [0]
        for step in increments:
            values.append(values[-1] + step)
        return cls(tuple(values))

    @property
    def length(self) -> int:
        return len(self.values) - 1

    def increments(self) -> Tuple[int, ...]:
        v = self.values
        return tuple(b - a for a, b in zip(v, v[1:]))

    def rot(self, r: int) -> "LukWalk":
        """Walk whose increments are this walk's increments shifted left by r."""
        m = self.length
        if not 0 <= r < m:
            raise ValueError(f"rotation {r} outside [0, {m})")
        inc = self.increments()
        return LukWalk.from_increments(inc[r:] + inc[:r])

    def is_excursion(self) -> bool:
        """True iff the walk first hits -1 at its very last step."""
        v = self.values
        return all(x >= 0 for x in v[:-1])

    def first_argmin(self) -> int:
        """Smallest index j with s_j = min(s)."""
        return self.values.index(min(self.values))

    def excursion_shift(self) -> int:
        """The unique r in [0, m) for which rot(r) is an excursion.

        Equals first_argmin modulo the length: rotating the increments so
        that the walk restarts right after its first minimum lifts the tail
        above zero and leaves the final step as the only visit to -1.  It
        is :func:`leaf_shift` of the increments plus one.
        """
        return leaf_shift([x + 1 for x in self.increments()])

    # --- text form: comma separated values, e.g. "0,1,0,0,0,-1" ---

    def format(self) -> str:
        return ",".join(str(x) for x in self.values)

    @classmethod
    def parse(cls, text: str) -> "LukWalk":
        return cls(tuple(int(tok) for tok in text.split(",")))

    def __repr__(self) -> str:
        return f"LukWalk({self.format()})"


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


def enumerate_walks(m: int, max_increment: int) -> Iterator[LukWalk]:
    """All walks of length m with increments in [-1, max_increment].

    The general space is infinite; capping the increments keeps it finite.
    Walks read off forests never exceed d - 1, so a cap of d - 1 covers
    every walk the bijections can produce.
    """
    if m < 1:
        raise ValueError("walk length must be >= 1")
    for inc in product(range(-1, max_increment + 1), repeat=m):
        if sum(inc) == -1:
            yield LukWalk.from_increments(inc)
