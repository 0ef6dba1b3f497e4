import json

import pytest

from arcdist import PreconditionError
from arcdist.arc import edge_word, random_arc
from arcdist.distance import (
    ShadowPairInput,
    bounded_search,
    classify,
    common_neighbor_scan,
    pair_set_distance,
    verify_certificate,
)
from arcdist.leveling import validate_sequence
from arcdist.overlay import intersection
from arcdist.serialize import dumps, load_distance_certificate, verify_document

from conftest import seeded_pairs


def test_exact_zero(g1):
    v = edge_word(g1, 2)
    cert = classify(v, v)
    assert cert.verdict.as_tuple() == (0, 0)
    assert verify_certificate(cert) == []


def test_exact_one(g1):
    cert = classify(edge_word(g1, 2), edge_word(g1, 3))
    assert cert.verdict.as_tuple() == (1, 1)
    assert verify_certificate(cert) == []


def test_exact_two_has_verified_witness(g1, g2):
    seen = 0
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"d2-{base.genus}", 25, require_crossing=True):
            cert = classify(v, w)
            if cert.verdict.as_tuple() != (2, 2):
                continue
            u = cert.witness
            assert intersection(u, v) == 0 and intersection(u, w) == 0
            assert u != v and u != w
            assert cert.intersection_vw > 0
            assert verify_certificate(cert) == []
            seen += 1
    assert seen >= 10


def test_bounds_beyond_two(g1):
    # long walks produce filling pairs with no common complement face
    found = 0
    for seed in (31002, 31010, 31014):
        v = random_arc(g1, seed, 30)
        w = random_arc(g1, seed + 1, 30)
        if intersection(v, w) == 0:
            continue
        cert = classify(v, w)
        if cert.verdict.kind != "bounds":
            continue
        found += 1
        assert cert.verdict.lower == 3
        assert cert.verdict.upper >= 3
        assert cert.path is not None
        assert verify_certificate(cert) == []
    assert found >= 1


def test_a_bounds_path_is_validated_once_by_its_checker(g1, monkeypatch):
    """classify proves each hop by a surgery postcondition and stores the
    path as plain evidence; verify_certificate validates it once."""
    calls = []

    def counted(seq):
        calls.append(seq)
        return validate_sequence(seq)

    monkeypatch.setattr("arcdist.leveling.validate_sequence", counted)
    monkeypatch.setattr("arcdist.distance.validate_sequence", counted)
    cert = classify(random_arc(g1, 31002, 30), random_arc(g1, 31003, 30))
    assert cert.verdict.kind == "bounds"
    assert isinstance(cert.path, tuple)
    assert (cert.path[0], cert.path[-1]) == (cert.w, cert.v)
    assert calls == []
    assert verify_certificate(cert) == []
    assert len(calls) == 1


def test_criterion_agrees_with_neighbor_scan(g1, g2):
    """The overlay-face distance-2 decision against an exhaustive scan."""
    for base, scan_len in ((g1, 6), (g2, 4)):
        for v, w in seeded_pairs(base, f"crit-{base.genus}", 20, max_steps=8, require_crossing=True):
            cert = classify(v, w)
            is_two = cert.verdict.as_tuple() == (2, 2)
            u = common_neighbor_scan(v, w, scan_len)
            if u is not None:
                assert is_two, "scan found a witness the criterion missed"
            elif is_two:
                # witness exists but may be longer than the scan bound
                assert len(cert.witness) > scan_len


def test_bounded_search_disjoint_pair(g1):
    v, w = edge_word(g1, 2), edge_word(g1, 3)
    seq = bounded_search(v, w, max_len=1, max_depth=1)
    assert seq is not None and seq.edge_count == 1


def test_bounded_search_is_sound(g1):
    exact_seen = 0
    for v, w in seeded_pairs(g1, "search", 100, max_steps=8):
        cert = classify(v, w)
        seq = bounded_search(v, w, max_len=4, max_depth=4)
        if seq is None:
            continue
        assert seq.arcs[0] == w and seq.arcs[-1] == v
        if cert.verdict.kind == "exact":
            assert seq.edge_count >= cert.verdict.value
            exact_seen += 1
    assert exact_seen >= 50


def test_bounded_search_rejects_bad_bounds(g1):
    with pytest.raises(PreconditionError):
        bounded_search(edge_word(g1, 2), edge_word(g1, 3), 0, 3)


def test_classify_search_can_tighten_bound(g1):
    for seed in (31002, 31010, 31014):
        v = random_arc(g1, seed, 30)
        w = random_arc(g1, seed + 1, 30)
        if intersection(v, w) == 0:
            continue
        plain = classify(v, w)
        if plain.verdict.kind != "bounds":
            continue
        with_search = classify(v, w, max_len=4, max_depth=4)
        assert with_search.verdict.upper <= plain.verdict.upper
        assert verify_certificate(with_search) == []
        break


def test_pair_set_distance_reductions(g1):
    v = edge_word(g1, 2)
    w = edge_word(g1, 3)
    assert pair_set_distance(ShadowPairInput(g1, (v,), (v,))).verdict.as_tuple() == (0, 0)
    assert pair_set_distance(ShadowPairInput(g1, (v,), (w,))).verdict.as_tuple() == classify(v, w).verdict.as_tuple()


def test_pair_set_distance_minimizes(g1):
    far_v = random_arc(g1, 31002, 30)
    far_w = random_arc(g1, 31003, 30)
    near = edge_word(g1, 2)
    other = edge_word(g1, 3)
    cert = pair_set_distance(ShadowPairInput(g1, (far_v, near), (far_w, other)))
    assert cert.verdict.as_tuple() == (1, 1)
    assert cert.v == near and cert.w == other


def test_pair_set_distance_rejects_empty(g1):
    with pytest.raises(PreconditionError):
        ShadowPairInput(g1, (), (edge_word(g1, 2),))


def test_certificate_round_trip_and_tamper_detection(g1):
    for v, w in seeded_pairs(g1, "certio", 8):
        cert = classify(v, w)
        doc = json.loads(dumps(cert.to_json_dict()))
        again = load_distance_certificate(doc)
        assert verify_certificate(again) == []
        # tamper with the verdict
        bad = json.loads(dumps(cert.to_json_dict()))
        if bad["verdict"]["kind"] == "exact":
            bad["verdict"]["value"] = (bad["verdict"]["value"] + 1) % 3
        else:
            bad["verdict"]["upper"] += 1
        assert verify_document(bad) != []
