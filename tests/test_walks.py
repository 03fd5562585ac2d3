import pytest
from hypothesis import given, settings, strategies as st

from darygrow.errors import MarkCountError
from darygrow.walks import LukWalk, enumerate_walks, leaf_shift


def walk(*increments):
    return LukWalk.from_increments(increments)


def test_minimal_walk():
    w = walk(-1)
    assert w.length == 1
    assert w.values == (0, -1)
    assert w.is_excursion()


def test_validation():
    with pytest.raises(ValueError):
        LukWalk((0, 0))  # does not end at -1
    with pytest.raises(ValueError):
        LukWalk((1, 0, -1))  # does not start at 0
    with pytest.raises(ValueError):
        LukWalk((0, -2, -1))  # increment below -1


def test_excursion_detection():
    assert walk(1, 0, -1, -1).is_excursion()
    assert not walk(-1, 1, -1).is_excursion()  # dips early
    assert not walk(1, -1, -1, 0).is_excursion()  # touches -1 before the end


def test_first_argmin():
    # minimum value -1 first reached at the end
    assert walk(2, -1, -1, 0, -1).first_argmin() == 5
    # an early dip wins
    assert walk(-1, 1, -1).first_argmin() == 1


def test_rot_shifts_increments():
    w = walk(1, -1, 0, -1)
    assert w.rot(1).increments() == (-1, 0, -1, 1)
    assert w.rot(0) == w
    with pytest.raises(ValueError):
        w.rot(w.length)


def test_excursion_shift_lands_on_excursion():
    w = walk(-1, 2, -1, 0, -1)
    r = w.excursion_shift()
    assert r == 1
    assert w.rot(r).is_excursion()


def test_format_parse_round_trip():
    w = walk(1, 0, 0, 0, -1, -1)
    assert w.format() == "0,1,1,1,1,0,-1"
    assert LukWalk.parse(w.format()) == w


@pytest.mark.parametrize(
    "m,max_inc,total",
    [(1, 3, 1), (2, 3, 2), (3, 3, 6), (4, 3, 20), (5, 3, 70), (6, 3, 246), (7, 3, 875)],
)
def test_enumeration_counts(m, max_inc, total):
    walks = list(enumerate_walks(m, max_inc))
    assert len(walks) == total
    assert len(set(walks)) == total


def test_enumeration_binary_counts():
    # increments capped at +1: these are lattice bridges to -1
    sizes = [sum(1 for _ in enumerate_walks(m, 1)) for m in range(1, 7)]
    assert sizes == [1, 2, 6, 16, 45, 126]


class TestRotationPrinciple:
    """Each rotation class has exactly one excursion, at the first argmin."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_exactly_one_excursion_per_class(self, m):
        for w in enumerate_walks(m, 3):
            rots = [w.rot(r) for r in range(m)]
            assert len(set(rots)) == m
            assert sum(1 for s in rots if s.is_excursion()) == 1

    def test_argmin_locates_the_excursion(self):
        for w in enumerate_walks(6, 2):
            r = w.excursion_shift()
            assert w.rot(r).is_excursion()
            for other in range(6):
                if other != r:
                    assert not w.rot(other).is_excursion()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_leaf_shift_is_the_first_argmin(self, m):
        # leaf_shift reads the increments plus one, as mark counts
        for w in enumerate_walks(m, 3):
            assert leaf_shift([x + 1 for x in w.increments()]) == w.first_argmin() % m

    def test_leaf_shift_checks_the_total(self):
        with pytest.raises(MarkCountError, match="forest carries 3 marks, need 2"):
            leaf_shift([1, 1, 1])

    def test_one_shift_for_the_bijections(self):
        from darygrow import bijections, marks, oracle

        assert bijections.leaf_shift is marks.leaf_shift is oracle.leaf_shift is leaf_shift

    def test_excursion_argmin_is_length(self):
        # an excursion first attains its minimum at the very end
        for w in enumerate_walks(5, 3):
            if w.is_excursion():
                assert w.first_argmin() == w.length
                assert w.excursion_shift() == 0


@given(st.lists(st.integers(-1, 3), min_size=1, max_size=9), st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_rot_composition(increments, r):
    deficit = -1 - sum(increments)
    if deficit < -1:
        increments = increments + [-1] * (-deficit)  # pad with down-steps
    elif deficit != 0:
        increments = increments + [deficit]
    w = LukWalk.from_increments(tuple(increments))
    m = w.length
    rr = r % m
    assert w.rot(rr).rot((m - rr) % m) == w
