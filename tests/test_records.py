"""The result and input records keep their value semantics.

``Verdict``, ``DistanceCertificate``, ``Tube``, ``LevelPosition``,
``SurgeryTrace`` and ``ExampleRecord`` are ``NamedTuple``s; ``Triangulation``,
``ArcWord``, ``ArcSequence`` and ``ShadowPairInput`` are immutable classes
that check their fields on construction.  For each: equal fields give equal records
and equal hashes, fields cannot be assigned or deleted, ``repr`` names the
class, and ``pickle`` and ``copy`` give an equal record.  The checking
classes run their checks again on every copy.
"""

import copy
import pickle

import pytest

from arcdist import BaseMismatch, InconsistentWord, InvalidSequence, PreconditionError, Triangulation
from arcdist.arc import ArcWord, random_arc
from arcdist.corpus import load_bundled_examples
from arcdist.distance import ShadowPairInput, Verdict, classify
from arcdist.leveling import ArcSequence, arcs_to_leveling
from arcdist.realization import Realization, _prepare, self_intersection
from arcdist.surgery import path_between, surgery_step

SEEDS = (31002, 31003)  # a genus-1 pair at distance >= 3


def _records(base):
    """Per record type, a function building a fresh record, equal on every call."""
    v, w = (lambda: random_arc(base, SEEDS[0], 30)), (lambda: random_arc(base, SEEDS[1], 30))
    return {
        "Triangulation": lambda: base.flip(3),
        "ArcWord": v,
        "ArcSequence": lambda: path_between(v(), w()),
        "ShadowPairInput": lambda: ShadowPairInput(base, (v(),), (w(),)),
        "Verdict": lambda: Verdict("bounds", lower=3, upper=5),
        "DistanceCertificate": lambda: classify(v(), w()),
        "Tube": lambda: arcs_to_leveling(path_between(v(), w())).tubes[0],
        "LevelPosition": lambda: arcs_to_leveling(path_between(v(), w())),
        "SurgeryTrace": lambda: surgery_step(v(), w()),
        "ExampleRecord": lambda: load_bundled_examples()[0],
    }


NAMES = sorted(_records(None))


def _fields(record):
    return getattr(record, "_fields", None) or type(record).__slots__


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records(g1, name):
    make = _records(g1)[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    if name == "ExampleRecord":  # its expected verdict is a dict, as it always was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(g1, name):
    record = _records(g1)[name]()
    field = _fields(record)[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_the_class_and_its_fields(g1, name):
    record = _records(g1)[name]()
    text = repr(record)
    assert text.startswith(f"{name}(")
    assert all(f"{field}=" in text for field in _fields(record))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_pickle_and_copy_give_an_equal_record(g1, name, clone):
    record = _records(g1)[name]()
    assert clone(record) == record


def test_checking_classes_refuse_bad_fields(g1, g2):
    v, w = random_arc(g1, SEEDS[0], 30), random_arc(g1, SEEDS[1], 30)
    with pytest.raises(InconsistentWord):
        ArcWord(v.base, v.start, v.crossings + (v.crossings[-1],), v.end)
    with pytest.raises(InconsistentWord):
        ArcWord(v.base, v.start, tuple(float(c) for c in v.crossings), v.end)
    with pytest.raises(InvalidSequence):
        ArcSequence(g1, (v, w))
    with pytest.raises(PreconditionError):
        ShadowPairInput(g1, (), (w,))
    with pytest.raises(BaseMismatch):
        ShadowPairInput(g2, (v,), (w,))


def test_shadow_lists_are_stored_as_tuples(g1):
    """Lists given to ``ShadowPairInput`` are stored as tuples: the record
    hashes, equals the one built from tuples, and cannot change after its
    checks ran when the caller's lists do."""
    v, w = random_arc(g1, SEEDS[0], 30), random_arc(g1, SEEDS[1], 30)
    v_side, w_side = [v], [w]
    shadows = ShadowPairInput(g1, v_side, w_side)
    assert shadows == ShadowPairInput(g1, (v,), (w,))
    assert hash(shadows) == hash(ShadowPairInput(g1, (v,), (w,)))
    v_side.append(w)
    w_side.clear()
    assert shadows.v_side == (v,) and shadows.w_side == (w,)
    assert ArcSequence(g1, [v]).arcs == (v,)


def test_copies_are_built_by_the_checking_constructor(g1, monkeypatch):
    """``__reduce__`` hands the fields back to the class, so unpickling and
    copying run the constructor's checks; a word that fails them cannot be
    copied into existence."""
    v = random_arc(g1, SEEDS[0], 30)
    assert v.__reduce__() == (ArcWord, (v.base, v.start, v.crossings, v.end))
    calls = []
    new = ArcWord.__new__

    def counted(cls, *args):
        calls.append(args)
        return new(cls, *args)

    monkeypatch.setattr(ArcWord, "__new__", counted)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert clone(v) == v
    assert len(calls) == 3


CHECKING = ("Triangulation", "ArcWord", "ArcSequence", "ShadowPairInput")


@pytest.mark.parametrize("name", CHECKING)
def test_calling_init_again_changes_nothing(g1, name):
    """A checking record is built once, by the checks in its ``__new__``:
    ``__init__`` called again with another record's fields leaves its
    fields, its hash and a table's id as they were."""
    record = _records(g1)[name]()
    v, w = random_arc(g1, SEEDS[0], 30), random_arc(g1, SEEDS[1], 30)
    other = {
        "Triangulation": g1,
        "ArcWord": w,
        "ArcSequence": ArcSequence(g1, (w,)),
        "ShadowPairInput": ShadowPairInput(g1, (w,), (v,)),
    }[name]
    assert other != record

    def observed():
        table_id = record.triangulation_id() if name == "Triangulation" else None
        return record._values(record), hash(record), table_id

    before = observed()
    record.__init__(*other._values(other))
    assert observed() == before


def test_a_table_cannot_be_edited(g1):
    """No field or table of a ``Triangulation`` can change after its
    analysis: its cached hash and id stay those of a valid table."""
    t = g1.flip(3)
    before = (t.to_json_dict(), hash(t), t.triangulation_id())
    with pytest.raises(AttributeError):
        t.genus = 3
    with pytest.raises(AttributeError):
        t.triangles = t.triangles[:2]
    with pytest.raises(AttributeError):
        del t.triangles
    with pytest.raises(TypeError):
        t._side_of[1] = None
    with pytest.raises(TypeError):
        t._vertex_of_corner[0] ^= 1
    assert (t.to_json_dict(), hash(t), t.triangulation_id()) == before


def test_table_copies_run_the_analysis_again(g1, monkeypatch):
    """A table pickles and copies as its fields, genus, triangles and P1
    anchor, so every copy is analysed by the constructor."""
    t = g1.flip(3)
    assert t.__reduce__() == (Triangulation, (t.genus, t.triangles, t.p1_corner))
    calls = []
    analyze = Triangulation._analyze

    def counted(self, *args):
        calls.append(args)
        return analyze(self, *args)

    monkeypatch.setattr(Triangulation, "_analyze", counted)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        c = clone(t)
        assert c == t and hash(c) == hash(t) and c.triangulation_id() == t.triangulation_id()
        assert (c._side_of, c._vertex_of_corner) == (t._side_of, t._vertex_of_corner)
    assert len(calls) == 3


def test_realizing_a_word_leaves_its_record_unchanged(g1):
    """A realization caches each word's own work on the ``ArcWord``, in a
    slot that is no field: equality, hashing, ``repr``, the pickled bytes
    and every copy read the same before and after, for the words and for
    the records holding them.  A copy starts without the cache and builds
    its own."""
    v, w = random_arc(g1, SEEDS[0], 30), random_arc(g1, SEEDS[1], 30)
    seq = path_between(v, w)
    records = (v, w, seq, ShadowPairInput(g1, (v,), (w,)))
    twins = (random_arc(g1, SEEDS[0], 30), random_arc(g1, SEEDS[1], 30))

    def observed():
        out = []
        for r in records:
            clones = (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r)))
            out.append((repr(r), hash(r), pickle.dumps(r), r.__reduce__(), [c == r for c in clones]))
        return out + [v == twins[0], w == twins[1], hash(v) == hash(twins[0])]

    before = observed()
    prepared = {id(a): _prepare(a) for a in seq.arcs}
    Realization(v, w)
    self_intersection(w)
    assert all(_prepare(a) is prepared[id(a)] for a in seq.arcs)  # built once, then kept
    assert observed() == before
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        c = clone(v)
        assert c == v and c._prep is None
        assert _prepare(c) == _prepare(v) and _prepare(c) is not _prepare(v)
