"""The Python API refuses arguments outside its domain with an ``ArcdistError``.

Edge indices, ``random_arc``'s step count and ``p1_corner`` are fed
negative, out-of-range, float, boolean and wrong-length values.  Each call
gives the result the equal plain int gives, or raises an ``ArcdistError``
subclass: never a bare ``KeyError`` or ``TypeError``, and never an answer
about another edge.  Booleans pass as 0 and 1.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcdist import ArcdistError, InvalidTriangulation, P1, build_standard_triangulation
from arcdist.arc import edge_word, random_arc, transport, transport_inverse
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
    ``p1 corner:`` violation; a valid one anchors P1 where it says."""
    t = Triangulation(2, ROWS, p1_corner=corner)
    valid = (
        isinstance(corner, (tuple, list))
        and len(corner) == 2
        and all(map(_is_plain_int, corner))
        and 0 <= corner[0] < len(ROWS)
        and 0 <= corner[1] < 3
    )
    if valid:
        anchor = Corner(int(corner[0]), int(corner[1]))
        assert t.is_valid and t == Triangulation(2, ROWS, p1_corner=anchor)
        assert t.vertex_of(anchor) == P1
    else:
        assert [v for v in t.validate() if v.startswith("p1 corner:")] == t.validate() != []
    if isinstance(corner, (tuple, list)):
        doc = {"genus": 2, "triangles": [list(r) for r in ROWS], "p1_corner": corner}
        try:
            assert Triangulation.from_json_dict(doc) == t and valid
        except InvalidTriangulation:
            assert not valid
