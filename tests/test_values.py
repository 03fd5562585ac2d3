"""Value semantics of the package's small records: ``Bud``, ``EdgeMark``,
``LukWalk``, ``OpCounters`` and ``ChiSquareReport``.

Each is an immutable value: equal only to a record of its own type with
equal fields, hashable, with a ``repr`` naming its fields; ``Bud`` alone is
ordered.  The counter record's field order is the ``COUNTERS`` tuple that
the compiled kernel's struct head is laid out by.
"""

import copy
import math
import pickle

import pytest

from darygrow import oracle
from darygrow.marks import Bud, EdgeMark
from darygrow.oracle import ChiSquareReport
from darygrow.sampler import COUNTERS, OpCounters, make_kernel
from darygrow.walks import LukWalk

REPORT_FIELDS = ("classes", "statistic", "dof", "p_value", "samples", "seed")


def samples():
    """Two equal instances and a different one, per record type."""
    return [
        (Bud(0), Bud(0), Bud(1)),
        (EdgeMark(3), EdgeMark(child=3), EdgeMark(4)),
        (LukWalk((0, 1, 0, -1)), LukWalk.parse("0,1,0,-1"), LukWalk((0, 0, -1))),
        (OpCounters(), OpCounters(0, 0, 0, 0, 0), OpCounters(rng_draws=1)),
        (
            ChiSquareReport(3, 1.5, 2, 0.25, 30, 7),
            ChiSquareReport(3, 1.5, 2, 0.25, 30, seed=7),
            ChiSquareReport(3, 1.5, 2, 0.25, 30, 8),
        ),
    ]


@pytest.mark.parametrize("a, same, other", samples(), ids=lambda x: type(x).__name__)
def test_equality_and_hash_by_fields(a, same, other):
    assert a == same and not a != same
    assert a != other and not a == other
    assert hash(a) == hash(same)
    assert len({a, same, other}) == 2
    assert {a: 1}[same] == 1


def test_equality_holds_only_within_a_type():
    assert Bud(0) != EdgeMark(0)
    assert EdgeMark(0) != Bud(0)
    assert Bud(0) != 0 and Bud(0) != (0,)
    assert OpCounters() != (0,) * 5
    assert OpCounters() != dict.fromkeys(COUNTERS, 0)
    assert LukWalk((0, -1)) != (0, -1)
    assert ChiSquareReport(3, 1.5, 2, 0.25, 30, 7) != (3, 1.5, 2, 0.25, 30, 7)
    assert len({Bud(0), EdgeMark(0)}) == 2


@pytest.mark.parametrize("a, same, other", samples(), ids=lambda x: type(x).__name__)
def test_immutable(a, same, other):
    for name in ("index", "child", "values", "rng_draws", "classes", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        del a.extra
    assert a == same


@pytest.mark.parametrize("a, same, other", samples(), ids=lambda x: type(x).__name__)
def test_pickle_and_copy_keep_the_value(a, same, other):
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is type(a) and b == a and hash(b) == hash(a)


def test_repr_names_the_fields():
    assert repr(Bud(0)) == "Bud(index=0)"
    assert repr(EdgeMark(12)) == "EdgeMark(child=12)"
    assert repr(LukWalk((0, 1, 0, -1))) == "LukWalk(0,1,0,-1)"
    assert repr(OpCounters(rng_draws=4)) == (
        "OpCounters(node_allocations=0, link_redirections=0, rng_draws=4,"
        " lex_letters_compared=0, max_step_redirections=0)"
    )
    assert repr(ChiSquareReport(3, 1.5, 2, 0.25, 30, 7)) == (
        "ChiSquareReport(classes=3, statistic=1.5, dof=2, p_value=0.25,"
        " samples=30, seed=7)"
    )


def test_bud_is_ordered_by_index():
    assert sorted([Bud(2), Bud(0), Bud(1)]) == [Bud(0), Bud(1), Bud(2)]
    assert Bud(0) < Bud(1) <= Bud(1) and Bud(2) > Bud(1) >= Bud(1)
    assert max(Bud(3), Bud(5)) == Bud(5)
    with pytest.raises(TypeError):
        Bud(0) < EdgeMark(1)
    with pytest.raises(TypeError):
        Bud(0) < 1


@pytest.mark.parametrize("a, same, other", samples()[1:], ids=lambda x: type(x).__name__)
def test_other_records_are_unordered(a, same, other):
    with pytest.raises(TypeError):
        a < other


def test_fields_by_position_or_name():
    assert Bud(index=2).index == 2 and EdgeMark(child=5).child == 5
    assert LukWalk(values=(0, -1)).values == (0, -1)
    with pytest.raises(TypeError):
        Bud()
    with pytest.raises(TypeError):
        Bud(0, 1)
    with pytest.raises(TypeError):
        Bud(0, index=0)
    with pytest.raises(TypeError):
        EdgeMark(node=1)
    with pytest.raises(TypeError):
        ChiSquareReport(3, 1.5, 2, 0.25, 30)
    with pytest.raises(ValueError):
        LukWalk((0, 0))


def test_counter_order_and_defaults():
    assert COUNTERS == (
        "node_allocations",
        "link_redirections",
        "rng_draws",
        "lex_letters_compared",
        "max_step_redirections",
    )
    counts = {name: 10 + i for i, name in enumerate(COUNTERS)}
    assert OpCounters(**counts) == OpCounters(10, 11, 12, 13, 14)
    assert [getattr(OpCounters(**counts), name) for name in COUNTERS] == [10, 11, 12, 13, 14]
    for name in COUNTERS:
        only = OpCounters(**{name: 3})
        assert [getattr(only, c) for c in COUNTERS] == [3 if c == name else 0 for c in COUNTERS]
    with pytest.raises(TypeError):
        OpCounters(bogus=1)
    with pytest.raises(TypeError):
        OpCounters(0, 0, 0, 0, 0, 0)


def test_kernel_counters_snapshot():
    kernel = make_kernel(3, 5)
    kernel.steps(40)
    snapshot = kernel.counters
    assert snapshot == OpCounters(*(getattr(kernel, c) for c in COUNTERS))
    kernel.steps(1)
    assert snapshot != kernel.counters  # a copy, not a view
    assert snapshot.node_allocations == 3 * 40


def test_chi_square_report_to_obj():
    report = ChiSquareReport(3, 1.5, 2, 0.25, 30, 7)
    obj = report.to_obj()
    assert list(obj) == list(REPORT_FIELDS)
    assert obj == dict(zip(REPORT_FIELDS, (3, 1.5, 2, 0.25, 30, 7)))
    assert type(obj) is dict
    obj["pass"] = True  # a fresh dict: the caller may extend it
    assert "pass" not in report.to_obj()

    real = oracle.chi_square_uniformity(3, 3, 200, seed=11)
    obj = real.to_obj()
    assert list(obj) == list(REPORT_FIELDS)
    assert obj["classes"] == oracle.count_trees(3, 3) == 12
    assert obj["dof"] == 11 and obj["samples"] == 200 and obj["seed"] == 11
    assert obj["statistic"] == real.statistic and obj["p_value"] == real.p_value
    assert math.isfinite(obj["statistic"]) and 0 <= obj["p_value"] <= 1
