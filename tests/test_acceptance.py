"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
seeded corpora are fixed; tolerances are exact (zero discrepancies) except
where a wall-clock budget is stated.
"""

import time

import pytest

from arcdist import Triangulation, build_standard_triangulation
from arcdist.arc import random_arc
from arcdist.corpus import run_examples
from arcdist.distance import ShadowPairInput, classify
from arcdist.leveling import arcs_to_leveling, level_number_report, leveling_to_arc_sequence
from arcdist.overlay import intersection, intersection_via_flips
from arcdist.serialize import dumps, load_doc, verify_document
from arcdist.surgery import path_between, surgery_step

from conftest import common_neighbor_scan


def _report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def _pairs(base, tag, count, steps_cycle=(6, 10, 14, 18, 22), require_crossing=False):
    import random as _r

    rng = _r.Random(tag)
    out = []
    attempt = 0
    while len(out) < count:
        seed = rng.randrange(1 << 30)
        steps = steps_cycle[attempt % len(steps_cycle)]
        attempt += 1
        v = random_arc(base, seed, steps)
        w = random_arc(base, seed + 1, steps)
        if require_crossing and intersection(v, w) == 0:
            continue
        out.append((v, w))
    return out


@pytest.fixture(scope="module")
def crossing_corpus():
    out = {}
    for g in (1, 2):
        base = build_standard_triangulation(g)
        out[g] = (base, _pairs(base, f"acc-crossing-{g}", 300, require_crossing=True))
    return out


def test_criterion_1_triangulation_laws():
    start = time.time()
    ok = True
    for g in (1, 2, 3, 4):
        t = build_standard_triangulation(g)
        ok &= Triangulation.from_json_dict(t.to_json_dict()) == t
        ok &= (2, t.n_edges, t.n_triangles) == (2, 6 * g, 4 * g)
        ok &= len(t.corners_at(0)) > 0 and len(t.corners_at(1)) > 0
    elapsed = time.time() - start
    _report(1, ok and elapsed < 1.0, f"standard tables g=1..4 validate with (V,E,F)=(2,6g,4g) in {elapsed:.2f}s (< 1s)")


def test_criterion_2_intersection_dual_oracle():
    start = time.time()
    mismatches = 0
    total = 0
    for g in (1, 2):
        base = build_standard_triangulation(g)
        for v, w in _pairs(base, f"acc-oracle-{g}", 300):
            if intersection(v, w) != intersection_via_flips(v, w):
                mismatches += 1
            total += 1
    elapsed = time.time() - start
    _report(
        2,
        mismatches == 0 and elapsed < 120,
        f"taut overlay count equals the flip-transport oracle on {total} pairs "
        f"(g=1,2), {mismatches} discrepancies, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_lemma_postconditions(crossing_corpus):
    failures = 0
    total = 0
    for g, (base, pairs) in crossing_corpus.items():
        for v, w in pairs:
            k = intersection(v, w)
            trace = surgery_step(v, w)
            if intersection(trace.w, trace.w_prime) != 0 or intersection(v, trace.w_prime) >= k:
                failures += 1
            total += 1
    _report(3, failures == 0, f"w.w'=0 and w'.v<w.v on {total}/{total} crossing pairs ({failures} failures)")


def test_criterion_4_theorem_bound(crossing_corpus):
    failures = 0
    total = 0
    for g, (base, pairs) in crossing_corpus.items():
        for v, w in pairs:
            k = intersection(v, w)
            seq = path_between(v, w)
            ok = seq.edge_count <= k + 1
            ok &= all(intersection(seq.arcs[i], seq.arcs[i + 1]) == 0 for i in range(len(seq.arcs) - 1))
            if not ok:
                failures += 1
            total += 1
    _report(4, failures == 0, f"path length <= i(v,w)+1 with disjointness re-verified on {total} pairs ({failures} failures)")


def test_criterion_5_example_values():
    rows = run_examples()
    by_name = {r["name"]: r for r in rows}
    ok = by_name["trivial-knot"]["got"] == {"kind": "exact", "value": 0}
    torus = [r for name, r in by_name.items() if name.startswith("torus-knot")]
    ok &= len(torus) >= 2 and all(r["got"] == {"kind": "exact", "value": 1} for r in torus)
    ok &= by_name["figure-eight"]["got"] == {"kind": "exact", "value": 2}
    ok &= all(r["passed"] for r in rows)
    _report(
        5,
        ok,
        "trivial -> exact(0), torus knots -> exact(1), figure-eight -> exact(2), exact integer matches",
    )


def test_criterion_6_theorem_equality_data_level(crossing_corpus):
    round_trip_failures = 0
    cert_failures = 0
    sequences = 0
    certs = 0
    for g, (base, pairs) in crossing_corpus.items():
        mixed = pairs[:60] + _pairs(base, f"acc-mixed-{g}", 15)  # disjoint pairs give d = 1
        for v, w in mixed:
            seq = path_between(v, w)
            if seq.edge_count < 1:
                continue
            sequences += 1
            pos = arcs_to_leveling(seq)
            back = leveling_to_arc_sequence(pos)
            if back != seq or pos.ambient_genus != base.genus * pos.n_levels:
                round_trip_failures += 1
            cert = classify(v, w)
            if cert.verdict.kind == "exact" and cert.verdict.value >= 1:
                rep = level_number_report(ShadowPairInput(base, (v,), (w,)))
                certs += 1
                lc = rep.get("level_certificate")
                if (
                    lc is None
                    or lc["level_position"]["n_levels"] != cert.verdict.value
                    or lc["level_position"]["ambient_genus"] != base.genus * cert.verdict.value
                    or verify_document(rep) != []
                ):
                    cert_failures += 1
    ok = sequences >= 100 and round_trip_failures == 0 and cert_failures == 0 and certs > 0
    _report(
        6,
        ok,
        f"leveling round trip identity on {sequences} sequences (>=100), "
        f"{certs} exact d>=1 verdicts produced validating d-level certificates with genus(G)=g*n",
    )


def test_criterion_7_proposition_bound(crossing_corpus):
    violations = 0
    total = 0
    for g, (base, pairs) in crossing_corpus.items():
        for v, w in pairs:
            n_points = intersection(v, w) + 2
            if path_between(v, w).edge_count > n_points - 1:
                violations += 1
            total += 1
    _report(7, violations == 0, f"level upper bound <= n-1 where n = i(v,w)+2 on {total} pairs ({violations} violations)")


def test_criterion_8_distance_two_cross_check():
    start = time.time()
    disagreements = 0
    total = 0
    for g, scan_len in ((1, 6), (2, 4)):
        base = build_standard_triangulation(g)
        pairs = _pairs(base, f"acc-crit8-{g}", 100, steps_cycle=(4, 6, 8), require_crossing=True)
        for v, w in pairs:
            cert = classify(v, w)
            criterion_two = cert.verdict.as_tuple() == (2, 2)
            u = common_neighbor_scan(v, w, scan_len)
            if u is not None and not criterion_two:
                disagreements += 1  # search found a witness the criterion denied
            if criterion_two and u is None and len(cert.witness) <= scan_len:
                disagreements += 1  # criterion's own witness was inside the bounds
            total += 1
    elapsed = time.time() - start
    _report(
        8,
        disagreements == 0 and elapsed < 300,
        f"overlay-face decision agrees with witness search on {total} pairs, "
        f"{disagreements} disagreements, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_9_certificate_integrity(tmp_path, crossing_corpus):
    checked = 0
    failures = 0
    base, pairs = crossing_corpus[1]
    for i, (v, w) in enumerate(pairs[:25]):
        cert = classify(v, w)
        path = tmp_path / f"cert{i}.json"
        path.write_text(dumps(cert.to_json_dict()))
        if verify_document(load_doc(path)) != []:
            failures += 1
        checked += 1
        rep = level_number_report(ShadowPairInput(base, (v,), (w,)))
        rpath = tmp_path / f"report{i}.json"
        rpath.write_text(dumps(rep))
        if verify_document(load_doc(rpath)) != []:
            failures += 1
        checked += 1
    for i, (v, w) in enumerate(pairs[:10]):
        doc = surgery_step(v, w).to_json_dict()
        spath = tmp_path / f"trace{i}.json"
        spath.write_text(dumps(doc))
        if verify_document(load_doc(spath)) != []:
            failures += 1
        checked += 1
    _report(9, failures == 0, f"{checked} emitted certificates re-verified from their serialized form alone")
