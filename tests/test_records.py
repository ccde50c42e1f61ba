"""Value semantics of the package's record types.

Each record compares and hashes on its fields, prints the same ``repr``,
refuses attribute assignment, and survives ``copy`` and ``pickle``.
``PartialPartition`` and ``ArcSet`` also validate on construction, and
the memos they carry are no part of their value.
"""
import copy
import pickle

import pytest

from crossmap.arcs import CLASSICAL, ENHANCED, Arc, ArcSet, arcs_enhanced
from crossmap.counting import IdentityReport, verify_eigensequence, verify_identity
from crossmap.crossings import CROSSING, NESTING, CrossingWitness
from crossmap.errors import OutOfRange
from crossmap.oeis import RefSequence, SequenceDiff
from crossmap.partition import PartialPartition

def one_field_changed(values, others):
    """``values`` with each field in turn replaced by its entry in ``others``."""
    return [values[:i] + (o,) + values[i + 1 :] for i, o in enumerate(others)]


#: (constructor, field values, variants that differ from them, repr).  A
#: partition's n and an arc set's mode cannot change alone and stay valid.
RECORDS = [
    (
        PartialPartition,
        (3, (1, 0, 1)),
        [(3, (1, 1, 1)), (2, (1, 0))],
        "PartialPartition(n=3, labels=(1, 0, 1))",
    ),
    (
        ArcSet,
        (ENHANCED, (Arc(1, 3), Arc(2, 2))),
        [(CLASSICAL, (Arc(1, 3), Arc(2, 4))), (ENHANCED, (Arc(1, 3),))],
        "ArcSet(mode='enhanced', arcs=(Arc(left=1, right=3), Arc(left=2, right=2)))",
    ),
    (
        CrossingWitness,
        (NESTING, CLASSICAL, (Arc(1, 4), Arc(2, 3))),
        one_field_changed(
            (NESTING, CLASSICAL, (Arc(1, 4), Arc(2, 3))),
            (CROSSING, ENHANCED, (Arc(1, 3), Arc(2, 4))),
        ),
        "CrossingWitness(kind='nesting', mode='classical', "
        "arcs=(Arc(left=1, right=4), Arc(left=2, right=3)))",
    ),
    (
        IdentityReport,
        (3, 2, 5, [1, 2, 2], 5, True, 5, None),
        one_field_changed(
            (3, 2, 5, [1, 2, 2], 5, True, 5, None),
            (None, 1, 4, [1, 3], 4, False, None, {"triangle": True}),
        ),
        "IdentityReport(k=3, n=2, lhs=5, rhs_terms=[1, 2, 2], rhs=5, holds=True, "
        "rhs_direct=5, routes=None)",
    ),
    (
        RefSequence,
        ("A000108", 0, (1, 1, 2)),
        one_field_changed(("A000108", 0, (1, 1, 2)), ("A001006", 1, (1, 2))),
        "RefSequence(id='A000108', offset=0, values=(1, 1, 2))",
    ),
    (
        SequenceDiff,
        (3, ((2, 5, 2),)),
        one_field_changed((3, ((2, 5, 2),)), (4, ())),
        "SequenceDiff(compared=3, mismatches=((2, 5, 2),))",
    ),
]
IDS = [r[0].__name__ for r in RECORDS]
UNHASHABLE = {IdentityReport}  # it holds a list and a dict


@pytest.mark.parametrize("cls, values, variants, text", RECORDS, ids=IDS)
class TestValue:
    def test_equal_on_fields(self, cls, values, variants, text):
        assert cls(*values) == cls(*values)
        assert not cls(*values) != cls(*values)
        for changed in variants:
            assert cls(*values) != cls(*changed), changed
        assert cls(*values) != object()

    def test_hash_is_the_field_tuple_hash(self, cls, values, variants, text):
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(cls(*values))
        else:
            assert hash(cls(*values)) == hash(values)
            assert len({cls(*values), cls(*values), cls(*variants[0])}) == 2

    def test_repr(self, cls, values, variants, text):
        assert repr(cls(*values)) == text

    def test_fields_cannot_be_assigned(self, cls, values, variants, text):
        record = cls(*values)
        first = text.partition("(")[2].partition("=")[0]
        with pytest.raises(AttributeError):
            setattr(record, first, variants[0][0])
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, first)
        assert record == cls(*values)

    def test_copy_and_pickle(self, cls, values, variants, text):
        record = cls(*values)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "cls, first, items",
    [(PartialPartition, 3, [1, 0, 1]), (ArcSet, ENHANCED, [Arc(1, 3), Arc(2, 2)])],
    ids=["PartialPartition", "ArcSet"],
)
def test_sequence_field_is_stored_as_a_tuple(cls, first, items):
    record = cls(first, items)
    twin = cls(first, tuple(items))
    assert record == twin
    assert hash(record) == hash(twin)
    items.append(items[-1])
    assert record == twin and repr(record) == repr(twin)

def test_produced_reports_keep_their_repr():
    assert repr(verify_identity(3, 2)) == RECORDS[3][3]
    assert repr(verify_eigensequence(1)) == (
        "IdentityReport(k=None, n=1, lhs=2, rhs_terms=[1, 1], rhs=2, holds=True, "
        "rhs_direct=None, routes={'triangle': True, 'enumeration': True, 'bijection': True})"
    )


@pytest.mark.parametrize(
    "cls, name",
    [(PartialPartition, "n"), (PartialPartition, "labels"), (ArcSet, "mode"), (ArcSet, "arcs")],
)
def test_assignment_message(cls, name):
    record = cls(*RECORDS[IDS.index(cls.__name__)][1])
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)


@pytest.mark.parametrize(
    "n, labels, message",
    [
        (21, (), "n must be in 0..20, got 21"),
        (-1, (), "n must be in 0..20, got -1"),
        (2, (1,), "label array has length 1, expected 2"),
        (2, (-1, 0), "negative label at position 1"),
        (2, (2, 1), "label 2 at position 1 breaks restricted growth"),
        (3, (1, 3, 2), "label 3 at position 2 breaks restricted growth"),
    ],
)
def test_partial_partition_validation(n, labels, message):
    with pytest.raises(OutOfRange) as err:
        PartialPartition(n, labels)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "mode, arcs, message",
    [
        ("x", (), "unknown arc mode 'x'"),
        (CLASSICAL, (Arc(3, 4), Arc(1, 2)), "arcs must be sorted by distinct left endpoints"),
        (CLASSICAL, (Arc(1, 2), Arc(1, 3)), "arcs must be sorted by distinct left endpoints"),
        (CLASSICAL, (Arc(1, 4), Arc(2, 4)), "right endpoints must be distinct"),
        (ENHANCED, (Arc(0, 2),), "bad arc Arc(left=0, right=2)"),
        (ENHANCED, (Arc(3, 2),), "bad arc Arc(left=3, right=2)"),
        (CLASSICAL, (Arc(2, 2),), "classical arc sets cannot contain loops"),
    ],
)
def test_arc_set_validation(mode, arcs, message):
    with pytest.raises(OutOfRange) as err:
        ArcSet(mode, arcs)
    assert str(err.value) == message


def test_arc_set_memo_is_not_a_field():
    a = ArcSet(ENHANCED, (Arc(1, 3), Arc(2, 2)))
    a._walks["key"] = "walk"
    assert a._walks == {"key": "walk"}
    assert a == ArcSet(ENHANCED, (Arc(1, 3), Arc(2, 2)))
    with pytest.raises(AttributeError):
        a._walks = {}


def test_partition_arc_memo_is_not_a_field():
    p = PartialPartition(3, (1, 0, 1))
    bare = PartialPartition(3, (1, 0, 1))
    a = arcs_enhanced(p)
    assert arcs_enhanced(p) is a and p._enhanced is a
    assert getattr(bare, "_enhanced", None) is None
    assert p == bare and hash(p) == hash(bare) and repr(p) == repr(bare)
    assert pickle.dumps(p) == pickle.dumps(bare)
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and getattr(twin, "_enhanced", None) is None
    with pytest.raises(AttributeError):
        p._enhanced = None
