"""Wider-net checks: higher genus, bigger enumerations, format round trips."""

import copy
import itertools
import json
import tracemalloc
from functools import cmp_to_key

import pytest

from arcdist import build_standard_triangulation, realization
from arcdist.arc import enumerate_arcs, random_arc, transport
from arcdist.distance import classify
from arcdist.leveling import arcs_to_leveling, leveling_to_arc_sequence
from arcdist.overlay import Realization, build_overlay, intersection, intersection_via_flips, self_intersection
from arcdist.serialize import dumps
from arcdist.surface import edge_of
from arcdist.surgery import path_between

from conftest import seeded_arcs_of_length, seeded_pairs


@pytest.fixture(scope="module")
def g3():
    return build_standard_triangulation(3)


def test_dual_oracle_genus3(g3):
    for v, w in seeded_pairs(g3, "g3-oracle", 40):
        assert intersection(v, w) == intersection_via_flips(v, w)


def test_classification_genus3(g3):
    for v, w in seeded_pairs(g3, "g3-classify", 10, require_crossing=True):
        cert = classify(v, w)
        if cert.verdict.kind == "exact" and cert.verdict.value == 2:
            assert intersection(cert.witness, v) == 0
            assert intersection(cert.witness, w) == 0


def test_path_and_leveling_genus4():
    g4 = build_standard_triangulation(4)
    for v, w in seeded_pairs(g4, "g4", 6, max_steps=8):
        seq = path_between(v, w)
        assert seq.edge_count <= intersection(v, w) + 1
        if seq.edge_count >= 1:
            pos = arcs_to_leveling(seq)
            assert pos.ambient_genus == 4 * pos.n_levels


def test_all_length6_pairs_against_flip_oracle(g1):
    """Every pair of enumerated words through length 6 on the torus."""
    arcs = enumerate_arcs(g1, 6)
    assert len(arcs) == 36  # the embedded words thin out fast
    for v, w in itertools.combinations(arcs, 2):
        a = intersection(v, w)
        assert a == intersection_via_flips(v, w)
        build_overlay(v, w)  # bigon and euler self-checks run inside


def test_order_is_transport_stable_per_edge(g1):
    """Edge orders must be intrinsic: transported pairs keep their counts
    even when the order flips mid-stretch (the conflicted case)."""
    for v, w in seeded_pairs(g1, "stretchy", 20, require_crossing=True):
        i0 = intersection(v, w)
        for e in range(g1.n_edges):
            if g1.is_flippable(e):
                assert intersection(transport(v, e), transport(w, e)) == i0


def _walk_ray(base, word, index, into_positive):
    """Reference ray of one strand, walked one crossing at a time.

    Yields the rank of each turn along the entry side: 0 when the ray
    leaves through side k+2 (hugging the tail of entry side k), 2 through
    side k+1, and finally 1 where it ends at the far corner.
    """
    c = word.crossings[index]
    if (c > 0) != into_positive:  # crossing +f leaves T(+f): its +f ray walks backward
        entry, values = base.side_corner(-c), word.crossings[index + 1 :]
    else:
        entry, values = base.side_corner(c), [-x for x in reversed(word.crossings[:index])]
    for nv in values:
        here = base.side_corner(nv)
        assert here.tri == entry.tri, "ray left its triangle"
        rel = (here.pos - entry.pos) % 3
        assert rel != 0, "ray backtracked"
        yield 0 if rel == 2 else 2
        entry = base.side_corner(-nv)
    yield 1


def _compare_walks(base, arcs, p, q, into_positive):
    """(sign, steps): which ray lies nearer the tail, and the edges the two
    cross side by side first; sign 0 when both end at the corner together."""
    steps = 0
    for a, b in zip(
        _walk_ray(base, arcs[p.owner], p.index, into_positive),
        _walk_ray(base, arcs[q.owner], q.index, into_positive),
    ):
        if a != b:
            return (-1 if a < b else 1), steps
        if a == 1:
            return 0, steps
        steps += 1


def _total_order_pairs(g1, g2):
    pairs = []
    for base in (g1, g2):
        pairs += seeded_pairs(base, f"total-{base.genus}", 15, require_crossing=True)
    for genus in (3, 4):
        base = build_standard_triangulation(genus)
        pairs += seeded_pairs(base, f"total-{genus}", 4, max_steps=22, require_crossing=True)
    arcs = seeded_arcs_of_length(g1, "total-long", 6, 24, 64)
    pairs += list(zip(arcs[::2], arcs[1::2]))
    return pairs


def test_strand_order_is_a_total_order(g1, g2):
    """Every pair in the produced edge orders must agree with a plain ray
    walk under the nearest-divergence rule; a lurking non-transitivity
    would show up here as a sorted list contradicting one of its own
    pairs."""
    for v, w in _total_order_pairs(g1, g2):
        base, arcs = v.base, (v, w)
        orders = Realization(v, w).edge_order
        expected = sorted(
            (edge_of(c), o, i) for o, word in enumerate(arcs) for i, c in enumerate(word.crossings)
        )
        assert sorted((e, st.owner, st.index) for e, sts in orders.items() for st in sts) == expected
        for e, strands in orders.items():
            for i in range(len(strands)):
                for j in range(i + 1, len(strands)):
                    p, q = strands[i], strands[j]
                    d_plus, n_plus = _compare_walks(base, arcs, p, q, True)
                    d_minus, n_minus = _compare_walks(base, arcs, p, q, False)
                    if d_plus == 0 and d_minus == 0:
                        continue  # identical words; nesting handled separately
                    if d_plus == 0:
                        verdict = -d_minus
                    elif d_minus == 0:
                        verdict = d_plus
                    elif d_plus == -d_minus:
                        verdict = d_plus
                    else:
                        verdict = d_plus if n_plus <= n_minus else -d_minus
                    assert verdict == -1, (e, p, q)


def test_realization_work_is_linear_in_word_length(g1, monkeypatch):
    """Once each word is prepared, building one realization compares a v
    strand with a w strand at most |v| + |w| times: one merge of the two
    words' sorted runs per edge, never a sort of both words' strands."""
    arcs = seeded_arcs_of_length(g1, "work-bound", 8, 24, 64)
    pairs = [(v, w) for v, w in itertools.combinations(arcs, 2) if len(v) + len(w) >= 80]
    assert len(pairs) >= 5
    for a in arcs:
        self_intersection(a)  # prepares the word: its own strands sorted once
    calls = [0]
    compare = realization._compare

    def counting(*rays):
        calls[0] += 1
        return compare(*rays)

    monkeypatch.setattr(realization, "_compare", counting)
    for v, w in pairs:
        calls[0] = 0
        Realization(v, w)
        assert 0 < calls[0] <= len(v) + len(w), (len(v), len(w), calls[0])


def test_merged_edge_order_equals_a_full_sort():
    """Merging the two words' sorted runs on each edge gives the order that
    one comparator sort of both words' strands gives: on seeded genus 1-4
    pairs, on edges both words cross, and on equal words, as one object
    and as two, whose parallel copies take the tie-break."""
    shared = equal = 0
    for genus, steps in ((1, 30), (2, 40), (3, 40), (4, 60)):
        base = build_standard_triangulation(genus)
        pairs = seeded_pairs(base, f"merge-{genus}", 12, max_steps=steps, require_crossing=True)
        pairs += [(v, v) for v, _ in pairs[:2]] + [(copy.copy(w), w) for _, w in pairs[:2]]
        for v, w in pairs:
            rays = [realization._rays(a, *realization._prepare(a)[3:5]) for a in (v, w)]  # its turn strings

            def cmp(p, q):
                d = realization._compare(*rays[p.owner](p.index), *rays[q.owner](q.index))
                if d == 0:  # fully parallel: the same crossing of equal words; w's copy to one side
                    assert (p.owner, p.index, p.value) == (1 - q.owner, q.index, q.value)
                    d = (p.owner - q.owner) * (1 if p.value > 0 else -1)
                return d

            real = Realization(v, w)
            for e, strands in real.edge_order.items():
                mixed = sorted(strands, key=lambda st: (st.owner, st.index))
                assert sorted(mixed, key=cmp_to_key(cmp)) == strands
                shared += len({st.owner for st in strands}) == 2
            equal += v == w
    assert shared >= 100 and equal == 16


def test_realization_memory_is_linear_in_word_length(g1):
    """The tracemalloc peak of realizing a genus-1 pair, each word's
    preparation included, grows by at most 3x when the long word doubles
    (1,808 -> 3,555 letters; i(v, w) 2,820 -> 5,664).  Keeping both rays of
    every strand as byte copies grows it quadratically (3.7x here)."""
    w = random_arc(g1, 25531405, 94)
    peaks = []
    for seed, steps in ((156232071, 99), (934630942, 93)):
        v = random_arc(g1, seed, steps)
        v, w = copy.copy(v), copy.copy(w)  # fresh words: their preparation is measured too
        tracemalloc.start()
        try:
            real = Realization(v, w)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert real.count() > len(v)
    assert [len(v), len(w)] == [3555, 26]
    assert peaks[1] <= 3 * peaks[0], peaks


def test_level_position_json_round_trip(g1):
    for v, w in seeded_pairs(g1, "lpjson", 6, require_crossing=True):
        seq = path_between(v, w)
        pos = arcs_to_leveling(seq)
        doc = pos.to_json_dict()
        assert json.loads(dumps(doc)) == doc
        assert leveling_to_arc_sequence(pos) == seq


def test_render_sequence_and_bounds_certificate(tmp_path, g1):
    from arcdist.render import render_document

    v = random_arc(g1, 31002, 30)
    w = random_arc(g1, 31003, 30)
    seq = path_between(v, w)
    files = render_document(json.loads(dumps(seq.to_json_dict())), tmp_path)
    assert files == ["sequence.svg"]
    cert = classify(v, w)
    files = render_document(json.loads(dumps(cert.to_json_dict())), tmp_path)
    assert files == ["pair.svg"]


def test_pair_figure_puts_strands_at_their_realized_slots(g1):
    """In the figure of a pair, each strand point of v and w sits at
    (rank + 1) / (m + 1) along its side, with its rank and the edge's m
    strands taken from Realization(v, w): the two arcs share each edge's
    slots in the realized order, never two at one spot."""
    import re

    from arcdist.render import _COLORS, render_arcs_svg

    number = r"(-?[\d.]+)"
    checked = 0
    for s in range(24):
        v, w = random_arc(g1, s, 20), random_arc(g1, s + 1000, 20)
        if v == w:
            continue
        real = Realization(v, w)
        svg = render_arcs_svg([v, w])
        cells = [
            [tuple(map(float, p.split(","))) for p in pts.split()]
            for pts in re.findall(r'<polygon points="([^"]+)"', svg)
        ]
        for owner, color in enumerate(_COLORS[:2]):
            pattern = f'<line x1="{number}" y1="{number}" x2="{number}" y2="{number}" stroke="{color}" stroke-width="1.8"/>'
            lines = re.findall(pattern, svg)
            assert len(lines) == len(real.segments[owner])
            for seg, line in zip(real.segments[owner], lines):
                x1, y1, x2, y2 = map(float, line)
                for (pos, rank), x, y in ((seg.a, x1, y1), (seg.b, x2, y2)):
                    if rank < 0:
                        continue
                    m = len(real.edge_order[edge_of(g1.triangles[seg.tri][pos])])
                    (tx, ty), (hx, hy) = cells[seg.tri][pos], cells[seg.tri][(pos + 1) % 3]
                    f = (rank + 1) / (m + 1)
                    assert abs(x - (tx + (hx - tx) * f)) < 0.15 and abs(y - (ty + (hy - ty) * f)) < 0.15
                    checked += 1
    assert checked > 100
