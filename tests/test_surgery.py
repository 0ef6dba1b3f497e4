import pytest

from arcdist import PreconditionError, build_standard_triangulation
from arcdist.arc import edge_word
from arcdist.leveling import validate_sequence
from arcdist.overlay import Realization, intersection
from arcdist.serialize import verify_document
from arcdist.surgery import path_between, surgery_step

from conftest import reference_crossings, seeded_pairs


def test_surgery_requires_crossing(g1):
    v = edge_word(g1, 2)
    w = edge_word(g1, 3)
    with pytest.raises(PreconditionError):
        surgery_step(v, w)


def test_surgery_postconditions(g1, g2):
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"surgery-{base.genus}", 40, require_crossing=True):
            k = intersection(v, w)
            trace = surgery_step(v, w)
            assert intersection(trace.w, trace.w_prime) == 0
            assert intersection(trace.v, trace.w_prime) < k
            assert trace.intersections_before == k


@pytest.mark.parametrize("genus, steps", [(1, 18), (2, 60), (3, 120), (4, 160)])
def test_surgery_splices_at_the_last_crossing_along_v(genus, steps):
    """The trace's crossing is ``(v_seg, w_seg, tri)`` of the last crossing
    along v, as the brute-force all-pairs reference ranks them."""
    base = build_standard_triangulation(genus)
    for v, w in seeded_pairs(base, f"splice-{genus}", 10, max_steps=steps, require_crossing=True):
        v_seg, w_seg, tri, _, _ = reference_crossings(Realization(v, w))[-1]
        assert surgery_step(v, w).crossing == (v_seg, w_seg, tri)


def test_surgery_single_crossing_clears(g1):
    for v, w in seeded_pairs(g1, "one-crossing", 60, require_crossing=True):
        if intersection(v, w) != 1:
            continue
        trace = surgery_step(v, w)
        assert trace.intersections_after == 0


def test_surgery_trace_serializes_and_verifies(g1):
    for v, w in seeded_pairs(g1, "trace-io", 5, require_crossing=True):
        doc = surgery_step(v, w).to_json_dict()
        assert verify_document(doc) == []


def test_path_trivial_cases(g1):
    v = edge_word(g1, 2)
    w = edge_word(g1, 3)
    assert path_between(v, v).edge_count == 0
    p = path_between(v, w)
    assert p.edge_count == 1
    assert p.arcs == (w, v)


def test_path_bound_and_descent(g1, g2):
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"path-{base.genus}", 40):
            k = intersection(v, w)
            seq = path_between(v, w)
            assert seq.edge_count <= k + 1
            assert validate_sequence(seq) == []
            assert seq.arcs[0] == w and seq.arcs[-1] == v
            # strict descent of intersections with v until zero
            values = [intersection(v, u) for u in seq.arcs]
            for a, b in zip(values, values[1:]):
                if a > 0:
                    assert b < a
            assert values[-1] == 0


def test_path_deterministic(g1):
    for v, w in seeded_pairs(g1, "det", 6, require_crossing=True):
        assert path_between(v, w) == path_between(v, w)
