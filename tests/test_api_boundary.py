"""The Python API refuses arguments outside its domain with an ``ArcdistError``.

Edge indices, ``random_arc``'s seed and step count, the length and depth
bounds of ``enumerate_arcs`` and ``bounded_search``, the genus of
``build_standard_triangulation``, and a table's genus, labels and
``p1_corner`` are fed negative, out-of-range, float, boolean and
wrong-length values.  Each call gives the result the equal plain int gives,
or raises an ``ArcdistError`` subclass (a table is refused with
``InvalidTriangulation`` listing its violations): never a bare ``KeyError``
or ``TypeError``, and never an answer about another edge.  Booleans pass
as 0 and 1.  Shadow lists and arc sequences are fed values that are no
sequences and members that are no arcs, and refuse them in the same way.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcdist import (
    P1,
    ArcdistError,
    InvalidSequence,
    InvalidTriangulation,
    PreconditionError,
    build_standard_triangulation,
)
from arcdist.arc import edge_word, enumerate_arcs, random_arc, transport, transport_inverse
from arcdist.distance import ShadowPairInput, bounded_search
from arcdist.leveling import ArcSequence, validate_sequence
from arcdist.surface import Corner, Triangulation

G2 = build_standard_triangulation(2)
ROWS = G2.triangles
ARC = random_arc(G2, 0, 5)
MOVED = transport(ARC, 3)  # ARC over G2.flip(3)
MAX_STEPS = 12

ENTRY_POINTS = {
    "flip": (G2.flip, G2.n_edges),
    "is_flippable": (G2.is_flippable, G2.n_edges),
    "edge_endpoints": (G2.edge_endpoints, G2.n_edges),
    "edge_word": (lambda e: edge_word(G2, e), G2.n_edges),
    "transport": (lambda e: transport(ARC, e), G2.n_edges),
    "transport_inverse": (lambda e: transport_inverse(MOVED, G2, e), G2.n_edges),
    "random_arc": (lambda steps: random_arc(G2, 0, steps), MAX_STEPS + 1),
}

SCALARS = st.one_of(
    st.integers(-2 * G2.n_edges, 2 * G2.n_edges),
    st.integers(min_value=-(1 << 70), max_value=-1),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.text(max_size=2),
)
ARGUMENTS = st.one_of(SCALARS, st.tuples(SCALARS), st.lists(st.integers(0, 3), max_size=3))


def _outcome(call, x):
    """What ``call(x)`` returns, or the type of the ``ArcdistError`` it raises."""
    try:
        return call(x)
    except ArcdistError as ex:
        return type(ex)


def _is_plain_int(x) -> bool:
    return type(x) in (int, bool)


def _built(genus, triangles, **kwargs):
    """The table ``Triangulation`` builds, or the problems it is refused with."""
    try:
        return Triangulation(genus, triangles, **kwargs)
    except InvalidTriangulation as ex:
        return ex.problems


# what each entry point gives for every plain int in its domain, 0..n-1
EXPECTED = {name: [_outcome(call, e) for e in range(n)] for name, (call, n) in ENTRY_POINTS.items()}


def test_the_plain_int_answers_are_right():
    """The table the property compares against, checked apart from the calls."""
    for e in range(G2.n_edges):
        s = e + 1
        flippable = not any(s in row and -s in row for row in ROWS)
        assert EXPECTED["is_flippable"][e] is flippable
        assert isinstance(EXPECTED["flip"][e], Triangulation) is flippable
        assert isinstance(EXPECTED["transport_inverse"][e], type) is (e != 3)
    assert EXPECTED["transport_inverse"][3] == ARC
    assert EXPECTED["random_arc"][5] == ARC


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(ENTRY_POINTS)), x=ARGUMENTS)
@example(name="flip", x=-2)
@example(name="flip", x=-1)
@example(name="flip", x=12)
@example(name="flip", x=1.0)
@example(name="flip", x=True)
@example(name="is_flippable", x=-3)
@example(name="is_flippable", x=99)
@example(name="transport", x=-3)
@example(name="transport", x=99)
@example(name="edge_word", x=-9)
@example(name="edge_word", x=99)
@example(name="edge_endpoints", x=-3)
@example(name="random_arc", x=2.5)
@example(name="random_arc", x=-1)
def test_edge_indices_and_step_counts_are_checked(name, x):
    call, n = ENTRY_POINTS[name]
    got = _outcome(call, x)
    if _is_plain_int(x) and 0 <= x < n:
        assert got == EXPECTED[name][int(x)]
    else:
        assert isinstance(got, type) and issubclass(got, ArcdistError), (name, x, got)


CORNERS = st.one_of(
    st.tuples(SCALARS, SCALARS),
    st.tuples(st.integers(-1, len(ROWS)), st.integers(-1, 3)),
    st.tuples(st.booleans(), st.booleans()),
    ARGUMENTS.filter(lambda x: x is not None),
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corner=CORNERS)
@example(corner=(0.0, 1))
@example(corner=(1,))
@example(corner=(0, 1, 2))
@example(corner=(True, 2))
def test_p1_corner_is_checked(corner):
    """A corner that is not a pair of integers inside the table is a
    ``p1 corner:`` violation; a valid one anchors P1 where it says.  The
    loader builds the same table or refuses it with the same problems."""
    t = _built(2, ROWS, p1_corner=corner)
    valid = (
        isinstance(corner, (tuple, list))
        and len(corner) == 2
        and all(map(_is_plain_int, corner))
        and 0 <= corner[0] < len(ROWS)
        and 0 <= corner[1] < 3
    )
    if valid:
        anchor = Corner(int(corner[0]), int(corner[1]))
        assert t == Triangulation(2, ROWS, p1_corner=anchor)
        assert t.vertex_of(anchor) == P1
    else:
        assert [v for v in t if v.startswith("p1 corner:")] == t != []
    if isinstance(corner, (tuple, list)):
        doc = {"genus": 2, "triangles": [list(r) for r in ROWS], "p1_corner": corner}
        try:
            loaded = Triangulation.from_json_dict(doc)
        except InvalidTriangulation as ex:
            loaded = ex.problems
        assert loaded == _built(2, ROWS, p1_corner=tuple(corner))  # the loader passes a tuple on


# operation arguments: each call, and which plain ints are in its domain; the
# ints drawn stay small, so every call in the domain is cheap
OTHER = random_arc(G2, 1, 3)
OPERATIONS = {
    "enumerate_arcs": (lambda n: enumerate_arcs(G2, n), lambda n: n >= 0),
    "bounded_search max_len": (lambda n: bounded_search(ARC, OTHER, n, 1), lambda n: n >= 1),
    "bounded_search max_depth": (lambda n: bounded_search(ARC, OTHER, 1, n), lambda n: n >= 1),
    "random_arc seed": (lambda seed: random_arc(G2, seed, 3), lambda seed: True),
    "build_standard_triangulation": (build_standard_triangulation, lambda g: g >= 1),
}
SMALL_INTS = range(-3, 3)
OPERATION_EXPECTED = {name: {n: _outcome(call, n) for n in SMALL_INTS} for name, (call, _) in OPERATIONS.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(OPERATIONS)),
    x=st.one_of(st.integers(SMALL_INTS.start, SMALL_INTS.stop - 1), SCALARS.filter(lambda x: not _is_plain_int(x))),
)
@example(name="enumerate_arcs", x="2")
@example(name="bounded_search max_len", x=None)
@example(name="random_arc seed", x=[1])
@example(name="random_arc seed", x=1.5)
@example(name="build_standard_triangulation", x=1.5)
@example(name="build_standard_triangulation", x=None)
@example(name="build_standard_triangulation", x="2")
@example(name="build_standard_triangulation", x=0)
def test_operation_arguments_are_checked(name, x):
    call, in_domain = OPERATIONS[name]
    got = _outcome(call, x)
    if _is_plain_int(x) and in_domain(x):
        assert got == OPERATION_EXPECTED[name][int(x)]
    else:
        assert isinstance(got, type) and issubclass(got, ArcdistError), (name, x, got)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(genus=SCALARS)
@example(genus=2.5)
@example(genus="2")
@example(genus=True)
def test_genus_is_checked(genus):
    """A genus that is not an integer is a ``genus:`` violation; no float
    or string is read as the standard table's genus."""
    t = _built(genus, ROWS)
    if _is_plain_int(genus):
        assert isinstance(t, Triangulation) is (genus == 2)
    else:
        assert t == [f"genus: {genus!r} is not an integer"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(row=st.integers(0, len(ROWS) - 1), pos=st.integers(0, 2), label=SCALARS)
@example(row=0, pos=0, label=5.4)
@example(row=0, pos=0, label=float(ROWS[0][0]))
@example(row=1, pos=2, label=str(ROWS[1][2]))
@example(row=2, pos=1, label=-(1 << 70))
def test_labels_are_checked(row, pos, label):
    """A label that is not an integer is a ``labels:`` violation, never
    truncated to the integer it is near; a huge one is refused at once."""
    rows = [list(r) for r in ROWS]
    rows[row][pos] = label
    t = _built(2, rows)
    if _is_plain_int(label):
        assert isinstance(t, Triangulation) is (label == ROWS[row][pos])
    else:
        assert t == ["labels: a triangle holds a label that is not an integer"]


def test_rows_that_are_no_sequences_are_a_shape_violation():
    """A table given no rows, or rows that are not sequences, is refused
    with a ``shape:`` violation, as any other malformed table is: an
    ``InvalidTriangulation``, never a bare ``TypeError``."""
    for triangles in ([5, 6], None):
        assert _built(2, triangles) == ["shape: triangles must be triples of nonzero signed labels"]


@pytest.mark.parametrize(
    "v_side, w_side, message",
    [
        ((ARC, 3), (OTHER,), "shadow lists must hold arcs, not int"),
        ((ARC,), [OTHER, None], "shadow lists must hold arcs, not NoneType"),
        ((ARC,), "ab", "shadow lists must hold arcs, not str"),
        (5, (OTHER,), "shadow lists must be sequences of arcs"),
        ((ARC,), None, "shadow lists must be sequences of arcs"),
    ],
)
def test_shadow_lists_of_no_arcs_are_refused(v_side, w_side, message):
    """A shadow list that is no sequence, or holds a member that is no
    arc, is refused with a ``PreconditionError`` naming it: never a bare
    ``AttributeError`` or ``TypeError``."""
    with pytest.raises(PreconditionError) as refused:
        ShadowPairInput(G2, v_side, w_side)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "arcs, problems",
    [
        ((ARC, 3), ["index 1: int is not an arc"]),
        ([None, ARC], ["index 0: NoneType is not an arc"]),
        ([ARC, "ab", 2.0], ["index 1: str is not an arc", "index 2: float is not an arc"]),
        (5, ["sequence: int is not a sequence of arcs"]),
        (None, ["sequence: NoneType is not a sequence of arcs"]),
    ],
)
def test_sequences_of_no_arcs_are_refused(arcs, problems):
    """``ArcSequence`` reports a member that is no arc, or a value that is
    no sequence, through ``validate_sequence``: the error is an
    ``InvalidSequence`` listing each violation, and ``validate_sequence``
    gives the same list for a plain ``(base, arcs)`` pair."""
    with pytest.raises(InvalidSequence) as refused:
        ArcSequence(G2, arcs)
    assert refused.value.problems == problems
    assert validate_sequence((G2, arcs)) == problems
