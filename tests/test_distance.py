import json

import pytest

from arcdist import PreconditionError, VerificationError, distance, surgery
from arcdist.arc import edge_word, random_arc
from arcdist.cli import main
from arcdist.distance import (
    ShadowPairInput,
    bounded_search,
    classify,
    pair_set_distance,
    verify_certificate,
)
from arcdist.leveling import level_number_report, validate_sequence
from arcdist.overlay import OverlayFace, Realization, _OverlayBuilder, complement_components, intersection
from arcdist.serialize import dumps, load_distance_certificate, verify_document, write_doc
from arcdist.surgery import path_between

from conftest import common_neighbor_scan, seeded_pairs, self_crossing_word


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


def test_verify_certificate_reports_a_non_embedded_witness(g1):
    """A vertex of the arc complex is an embedded arc, so an exact-2
    certificate whose witness crosses itself is refused."""
    v, w = next(
        (v, w)
        for v, w in seeded_pairs(g1, "d2-1", 25, require_crossing=True)
        if classify(v, w).verdict.as_tuple() == (2, 2)
    )
    cert = classify(v, w)._replace(witness=self_crossing_word(g1))
    assert "exact(2): witness is not embedded" in verify_certificate(cert)


def test_classify_refuses_a_witness_that_fails_to_verify(g1, monkeypatch):
    """The routed witness of an exact-2 verdict is disjoint from both arcs
    on a working engine; an ``intersection`` that reports a crossing stands
    in for a misrouted witness, and ``classify`` raises rather than
    certify it."""
    v, w = next(
        (v, w)
        for v, w in seeded_pairs(g1, "d2-1", 25, require_crossing=True)
        if classify(v, w).verdict.as_tuple() == (2, 2)
    )
    monkeypatch.setattr(distance, "intersection", lambda a, b: 1)
    with pytest.raises(VerificationError, match="^distance-2 witness failed to verify$"):
        classify(v, w)


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


def test_engine_paths_check_each_hop_once(g1, monkeypatch):
    """Each hop of a surgery path is proven by its step's postcondition, and
    nothing validates the path again: ``path_between`` and
    ``level_number_report`` make one ``intersection`` call per surgery step
    (its w.w' = 0) and call no ``validate_sequence``.  The pair is one of
    the seed-1 ``classify-g1`` pool (29 and 46 letters), whose 9-hop path
    takes 8 surgery steps; validating it again would cost 9 more
    ``intersection`` calls.  (bounded_search is pinned by
    test_classify_search_validates_no_sequence.)"""
    counts = {"intersection": 0, "validate_sequence": 0, "surgery step": 0}

    def counting(key, function):
        def counted(*args):
            counts[key] += 1
            return function(*args)

        return counted

    for module in ("surgery", "leveling", "distance"):
        monkeypatch.setattr(f"arcdist.{module}.intersection", counting("intersection", intersection))
    for module in ("leveling", "distance"):
        monkeypatch.setattr(f"arcdist.{module}.validate_sequence", counting("validate_sequence", validate_sequence))
    monkeypatch.setattr("arcdist.surgery._surgery", counting("surgery step", surgery._surgery))

    v, w = random_arc(g1, 151724219, 35), random_arc(g1, 934543371, 48)
    assert len(path_between(v, w)) == 10
    assert counts == {"intersection": 8, "validate_sequence": 0, "surgery step": 8}
    counts.update(dict.fromkeys(counts, 0))
    report = level_number_report(ShadowPairInput(g1, (v,), (w,)))
    assert report["level_number"] == {"kind": "bounds", "lower": 3, "upper": 9}
    assert counts == {"intersection": 8, "validate_sequence": 0, "surgery step": 8}


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


def _one_pair_per_verdict(g1):
    """A genus-1 pair for each verdict ``classify`` gives."""
    two = next(
        (v, w)
        for v, w in seeded_pairs(g1, "d2-1", 25, require_crossing=True)
        if classify(v, w).verdict.as_tuple() == (2, 2)
    )
    return {
        "exact(0)": (edge_word(g1, 2), edge_word(g1, 2)),
        "exact(1)": (edge_word(g1, 2), edge_word(g1, 3)),
        "exact(2)": two,
        "bounds": (random_arc(g1, 31002, 30), random_arc(g1, 31003, 30)),
    }


@pytest.mark.parametrize("max_len, max_depth", [(0, 1), (1, 0), (-5, -1)])
def test_non_positive_search_bounds_are_refused_whatever_the_verdict(g1, max_len, max_depth):
    """The bounds are read before any work, so a verdict settled before the
    search (equal or disjoint arcs, a distance-2 witness) lets no bad bound
    through."""
    for v, w in _one_pair_per_verdict(g1).values():
        with pytest.raises(PreconditionError, match="search bounds must be positive"):
            classify(v, w, max_len=max_len, max_depth=max_depth)
        with pytest.raises(PreconditionError, match="search bounds must be positive"):
            bounded_search(v, w, max_len, max_depth)


def test_verify_certificate_checks_checked_distance_two(g1):
    """classify writes ``checked_distance_two`` as exactly "the arcs cross",
    so a flipped flag is refused on every verdict kind, in the record and in
    its JSON document."""
    for kind, (v, w) in _one_pair_per_verdict(g1).items():
        cert = classify(v, w)
        verdict = cert.verdict
        assert (f"exact({verdict.value})" if verdict.kind == "exact" else "bounds") == kind
        assert verify_certificate(cert) == []
        flag = not cert.checked_distance_two
        expected = [f"evidence: checked_distance_two is {flag}, recomputed intersection {cert.intersection_vw}"]
        assert verify_certificate(cert._replace(checked_distance_two=flag)) == expected
        doc = json.loads(dumps(cert.to_json_dict()))
        doc["evidence"]["checked_distance_two"] = flag
        assert verify_document(doc) == expected


def test_classify_rejects_a_lone_search_bound(g1):
    v, w = random_arc(g1, 31010, 30), random_arc(g1, 31011, 30)
    assert classify(v, w).verdict.kind == "bounds"
    for bound in ({"max_len": 4}, {"max_depth": 4}):
        with pytest.raises(PreconditionError, match="search bounds"):
            classify(v, w, **bound)
        with pytest.raises(PreconditionError, match="search bounds"):
            classify(v, v, **bound)


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


def test_no_run_time_path_builds_the_face_tracer(g1, tmp_path, monkeypatch, capsys):
    """The sign-vector pass decides distance 2, runs the minimality checks
    and routes the exact-2 witness; the face tracer is only a test
    reference, built by no run-time path: classify, verify_certificate,
    level_number_report and check-cert, on a bounds and an exact-2 pair."""
    v2, w2 = next(
        (v, w)
        for v, w in seeded_pairs(g1, "d2-1", 25, require_crossing=True)
        if classify(v, w).verdict.as_tuple() == (2, 2)
    )
    built = []
    init = _OverlayBuilder.__init__

    def counted(self, real):
        built.append(real)
        init(self, real)

    monkeypatch.setattr(_OverlayBuilder, "__init__", counted)
    bounds = (random_arc(g1, 31002, 30), random_arc(g1, 31003, 30))
    for (v, w), verdict in ((bounds, (3, 5)), ((v2, w2), (2, 2))):
        cert = classify(v, w)
        assert cert.verdict.as_tuple() == verdict
        assert verify_certificate(cert) == []
        write_doc(tmp_path / "report.json", level_number_report(ShadowPairInput(g1, (v,), (w,))))
        assert main(["check-cert", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out == "verified: arcdist.level_report/1\n" * 2
    assert built == []


def test_run_time_builds_no_component_records(g1, monkeypatch):
    """classify and verify_certificate take only the route from the
    sign-vector pass, which checks minimality on per-root counts, so neither
    builds an OverlayFace record, on an exact-2 pair or a bounds pair;
    complement_components, which returns the records, still builds them."""
    v2, w2 = next(
        (v, w)
        for v, w in seeded_pairs(g1, "d2-1", 25, require_crossing=True)
        if classify(v, w).verdict.as_tuple() == (2, 2)
    )
    built = []
    init = OverlayFace.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OverlayFace, "__init__", counted)
    bounds = (random_arc(g1, 31002, 30), random_arc(g1, 31003, 30))
    for (v, w), verdict in ((bounds, (3, 5)), ((v2, w2), (2, 2))):
        cert = classify(v, w)
        assert cert.verdict.as_tuple() == verdict
        assert verify_certificate(cert) == []
    assert built == []
    components, _ = complement_components(Realization(v2, w2))
    assert built == list(components)


def test_classify_search_validates_no_sequence(g1, monkeypatch):
    """The search's own intersection test proves each hop, so classify
    validates nothing, even when it discards the path it found, and
    bounded_search builds its ArcSequence without validating it again."""
    calls = []

    def counted(seq):
        calls.append(seq)
        return validate_sequence(seq)

    monkeypatch.setattr("arcdist.leveling.validate_sequence", counted)
    monkeypatch.setattr("arcdist.distance.validate_sequence", counted)
    v, w = random_arc(g1, 31010, 30), random_arc(g1, 31011, 30)
    cert = classify(v, w, max_len=4, max_depth=4)
    assert cert.verdict.kind == "bounds"
    assert cert.search_note.startswith("search within")
    assert calls == []
    assert bounded_search(v, w, max_len=4, max_depth=4) is not None
    assert calls == []


def test_search_note_names_the_bounds_as_integers(g1):
    """The certificate's search note names the bounds the search ran with,
    read as integers: ``max_len=True`` is searched, and written, as 1."""
    v, w = random_arc(g1, 31002, 30), random_arc(g1, 31003, 30)
    cert = classify(v, w, max_len=True, max_depth=1)
    assert cert.search_note == "search within max_len=1, max_depth=1 did not improve the bound"
    assert classify(v, w, max_len=1, max_depth=True) == cert
    with pytest.raises(PreconditionError, match="max_depth 1.5 is not an integer"):
        classify(v, v, max_len=1, max_depth=1.5)
