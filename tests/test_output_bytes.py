"""Byte contract: certificates and emitted example files are pinned by digest.

``DIGEST`` covers the canonical bytes of ``classify(...).to_json_dict()``
on seeded crossing pairs of genus 1 and 2, then every file written by
``arcdist examples --emit``.  ``LONG_DIGEST`` covers the certificates of
crossing pairs from long flip walks at genus 3 and 4, exact-2 witnesses
among them.  ``LEVEL_DIGEST`` covers level positions of three levels and
more: the level reports of bounds pairs at genus 1 and 2, and the level
certificates of surgery paths at genus 3 and 4.  ``SEARCH_DIGEST`` covers
``bounded_search`` at three pairs of bounds, ``classify`` with search bounds
and ``path_between`` on seeded pairs of genus 1 and 2.  A refactor that changes any verdict, certificate or output
byte changes a digest; a deliberate format change updates it here, in
review.
"""

import hashlib
import os
import random
from collections import Counter

from arcdist import build_standard_triangulation
from arcdist.arc import random_arc
from arcdist.cli import main
from arcdist.distance import ShadowPairInput, bounded_search, classify
from arcdist.leveling import level_number_report, sequence_to_level_certificate
from arcdist.overlay import intersection
from arcdist.serialize import dumps
from arcdist.surgery import path_between

from conftest import seeded_pairs

DIGEST = "e0eece70024441ee93314b45e15b92dc93506d2a3c06314460d5127964535848"
LONG_DIGEST = "945be88f7d3c5f6686e8aeaa284847ac3a5945c09e6d11c739798b339cb2707b"
LEVEL_DIGEST = "59bdab44c337fb245c9821f610fa7a53d36ea21e4416ac0b5553eb1f134d3ed0"
SEARCH_DIGEST = "1e1c02f673e1294b65a1eeab9e29a1a828e2186b7d68cb446ef4d28c68b514ce"


def test_output_bytes_are_pinned(tmp_path, g1, g2):
    h = hashlib.sha256()
    for base, count in ((g1, 30), (g2, 20)):
        for v, w in seeded_pairs(base, f"byte-contract-{base.genus}", count, max_steps=30, require_crossing=True):
            h.update(dumps(classify(v, w).to_json_dict()).encode())
    emit = tmp_path / "emitted"
    assert main(["examples", "--emit", str(emit)]) == 0
    for name in sorted(os.listdir(emit)):
        h.update(name.encode() + b"\n")
        h.update((emit / name).read_bytes())
    assert h.hexdigest() == DIGEST


def _long_crossing_pairs(base, tag, count, steps):
    """Crossing pairs of arcs from ``steps``-flip walks, seeded from the tag."""
    rng = random.Random(tag)
    out = []
    while len(out) < count:
        seed = rng.randrange(1 << 30)
        v, w = random_arc(base, seed, steps), random_arc(base, seed + 1, steps)
        if intersection(v, w) > 0:
            out.append((v, w))
    return out


def test_genus_three_and_four_output_bytes_are_pinned():
    h = hashlib.sha256()
    verdicts = Counter()
    for genus, steps in ((3, 120), (4, 200)):
        base = build_standard_triangulation(genus)
        for v, w in _long_crossing_pairs(base, f"byte-contract-long-{genus}", 20, steps):
            cert = classify(v, w)
            verdicts[genus, cert.verdict.kind == "exact"] += 1
            h.update(dumps(cert.to_json_dict()).encode())
    assert all(verdicts[genus, exact] for genus in (3, 4) for exact in (True, False))
    assert h.hexdigest() == LONG_DIGEST


def test_level_position_bytes_are_pinned():
    h = hashlib.sha256()
    most_levels = Counter()
    for genus, steps in ((1, 30), (2, 60)):
        base = build_standard_triangulation(genus)
        for v, w in _long_crossing_pairs(base, f"byte-contract-level-{genus}", 30, steps):
            report = level_number_report(ShadowPairInput(base, (v,), (w,)))
            if report["level_number"]["kind"] == "bounds":
                n = report["level_certificate"]["level_position"]["n_levels"]
                most_levels[genus] = max(most_levels[genus], n)
                h.update(dumps(report).encode())
    for genus, steps in ((3, 120), (4, 200)):
        base = build_standard_triangulation(genus)
        for v, w in _long_crossing_pairs(base, f"byte-contract-level-{genus}", 10, steps):
            seq = path_between(v, w)
            most_levels[genus] = max(most_levels[genus], seq.edge_count)
            h.update(dumps(sequence_to_level_certificate(seq)).encode())
    assert all(most_levels[genus] >= 3 for genus in (1, 2, 3, 4))
    assert h.hexdigest() == LEVEL_DIGEST


def test_search_and_path_bytes_are_pinned():
    """Crossing pairs from short walks, where the search finds paths of two
    and three edges or none and improves some surgery bounds, and a few
    seeded pairs that may be equal or disjoint."""
    h = hashlib.sha256()
    seen = Counter()
    for genus, steps in ((1, 30), (2, 40)):
        base = build_standard_triangulation(genus)
        pairs = _long_crossing_pairs(base, f"byte-contract-search-{genus}", 40, steps)
        pairs += seeded_pairs(base, f"byte-contract-search-{genus}", 5)
        for v, w in pairs:
            for max_len, max_depth in ((2, 2), (3, 3), (4, 2)):
                seq = bounded_search(v, w, max_len, max_depth)
                seen[genus, None if seq is None else seq.edge_count] += 1
                h.update(b"none\n" if seq is None else dumps(seq.to_json_dict()).encode())
            cert = classify(v, w, 4, 3)
            seen[genus, cert.search_note] += 1
            h.update(dumps(cert.to_json_dict()).encode())
            h.update(dumps(path_between(v, w).to_json_dict()).encode())
    improved = "search improved the bound within max_len=4, max_depth=3"
    kept = "search within max_len=4, max_depth=3 did not improve the bound"
    assert all(seen[genus, key] for genus in (1, 2) for key in (None, 2, 3, improved, kept))
    assert h.hexdigest() == SEARCH_DIGEST
