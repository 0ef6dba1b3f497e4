import pytest

from arcdist import PreconditionError
from arcdist.arc import edge_word
from arcdist.distance import ShadowPairInput
from arcdist.leveling import (
    ArcSequence,
    arcs_to_leveling,
    level_number_report,
    leveling_to_arc_sequence,
    sequence_to_level_certificate,
    validate_sequence,
)
from arcdist.overlay import intersection
from arcdist.serialize import verify_document
from arcdist.surgery import path_between

from conftest import seeded_pairs


def test_validate_sequence_accepts_paths(g1):
    for v, w in seeded_pairs(g1, "vseq", 10):
        seq = path_between(v, w)
        assert validate_sequence(seq) == []


def test_validate_sequence_detects_crossing(g1):
    for v, w in seeded_pairs(g1, "vseq-bad", 30, require_crossing=True):
        problems = validate_sequence((g1, (v, w)))
        assert problems and "index 1" in problems[0]
        with pytest.raises(PreconditionError):
            ArcSequence(g1, (v, w))
        break


def test_singleton_sequence_ok(g1):
    seq = ArcSequence(g1, (edge_word(g1, 2),))
    assert validate_sequence(seq) == []
    assert seq.edge_count == 0


def test_one_level_position(g1):
    v, w = edge_word(g1, 2), edge_word(g1, 3)
    seq = ArcSequence(g1, (v, w))
    pos = arcs_to_leveling(seq)
    assert pos.n_levels == 1
    assert pos.tubes == ()
    assert pos.ambient_genus == g1.genus
    assert pos.levels == ((("arc", 0, 1), ("arc", 1, 1)),)  # the whole knot on one surface copy
    assert leveling_to_arc_sequence(pos) == seq


def test_leveling_round_trip_on_paths(g1, g2):
    done = 0
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"lev-{base.genus}", 30):
            seq = path_between(v, w)
            if seq.edge_count < 1:
                continue
            pos = arcs_to_leveling(seq)
            assert pos.n_levels == seq.edge_count
            assert pos.ambient_genus == base.genus * pos.n_levels
            assert len(pos.tubes) == pos.n_levels - 1
            back = leveling_to_arc_sequence(pos)
            assert back == seq
            done += 1
    assert done >= 40


def test_cycle_closes_once(g1):
    for v, w in seeded_pairs(g1, "cycle", 12, require_crossing=True):
        seq = path_between(v, w)
        pos = arcs_to_leveling(seq)
        n = pos.n_levels
        assert len(pos.cycle) == (2 if n == 1 else 6 * n - 4)
        for i, piece in enumerate(pos.cycle):
            assert piece[4] == pos.cycle[(i + 1) % len(pos.cycle)][3]


def test_proposition_bound(g1, g2):
    # disjoint shadows meet only at the two endpoints: bound 1
    v, w = edge_word(g1, 2), edge_word(g1, 3)
    assert intersection(v, w) + 1 == 1
    assert path_between(v, w).edge_count <= 1
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"prop-{base.genus}", 30):
            assert path_between(v, w).edge_count <= intersection(v, w) + 1


def test_level_certificate_verifies(g1):
    for v, w in seeded_pairs(g1, "levcert", 8):
        seq = path_between(v, w)
        if seq.edge_count < 1:
            continue
        doc = sequence_to_level_certificate(seq)
        assert verify_document(doc) == []


def test_level_report_trivial_and_exact(g1):
    v = edge_word(g1, 2)
    rep = level_number_report(ShadowPairInput(g1, (v,), (v,)))
    assert rep["level_number"] == {"kind": "trivial"}
    assert "level_certificate" not in rep

    w = edge_word(g1, 3)
    rep = level_number_report(ShadowPairInput(g1, (v,), (w,)))
    assert rep["level_number"] == {"kind": "exact", "value": 1}
    assert rep["level_certificate"]["level_position"]["n_levels"] == 1
    assert verify_document(rep) == []


def test_level_report_matches_distance(g1):
    for v, w in seeded_pairs(g1, "levrep", 6, require_crossing=True):
        rep = level_number_report(ShadowPairInput(g1, (v,), (w,)))
        level = rep["level_number"]
        if level["kind"] == "exact":
            assert rep["level_certificate"]["level_position"]["n_levels"] == level["value"]
        else:
            assert rep["level_certificate"]["level_position"]["n_levels"] == level["upper"]
        assert verify_document(rep) == []
