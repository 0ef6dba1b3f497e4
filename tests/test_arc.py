import hashlib
import inspect
import itertools
import random
import re
import textwrap

import pytest

from arcdist import (
    BaseMismatch,
    Corner,
    InconsistentWord,
    P1,
    P2,
    PreconditionError,
    UnflippableEdge,
    build_standard_triangulation,
)
from arcdist import arc as arc_module
from arcdist.arc import (
    ArcWord,
    edge_word,
    enumerate_arcs,
    random_arc,
    straighten_to_edge,
    tighten,
    transport,
    transport_inverse,
)
from arcdist.overlay import intersection, intersection_via_flips, self_intersection
from arcdist.surface import Triangulation, edge_of, flip_walk

from conftest import seeded_arcs


def test_edge_words_are_canonical(g1):
    for e in g1.connector_edges():
        a = edge_word(g1, e)
        assert len(a) == 0
        assert g1.vertex_of(a.start) == P1
        assert g1.vertex_of(a.end) == P2
        assert a.end.pos == (a.start.pos + 1) % 3


def test_tighten_idempotent_on_reduced(g1, g2):
    for base in (g1, g2):
        for a in seeded_arcs(base, f"tighten-{base.genus}", 40):
            assert tighten(base, a.start, a.crossings, a.end) == a


def test_tighten_removes_inserted_spurs(g1, g2):
    rng = random.Random(20240)
    rounds = 0
    for base in (g1, g2):
        arcs = seeded_arcs(base, f"spurs-{base.genus}", 50)
        for a in arcs:
            for _ in range(5):
                word = list(a.crossings)
                # insert a spur: cross a side of the current triangle and come back
                pos = rng.randrange(len(word) + 1)
                tri = a.start.tri if pos == 0 else base.side_corner(-word[pos - 1]).tri
                side = base.side(Corner(tri, rng.randrange(3)))
                word[pos:pos] = [side, -side]
                assert tighten(base, a.start, word, a.end) == a
                rounds += 1
    assert rounds == 500


def test_tighten_unwinds_endpoint_spin(g1):
    # rotating the start germ around P1 inserts a corner bigon; tightening
    # must return the original word
    for a in seeded_arcs(g1, "spin", 25):
        t, p = a.start
        base_side = g1.side(Corner(t, p))
        opp = g1.side_corner(-base_side)
        spun_start = Corner(opp.tri, (opp.pos + 1) % 3)
        word = (-base_side,) + a.crossings
        assert tighten(g1, spun_start, word, a.end) == a


def test_tighten_rejects_inconsistent_words(g1):
    with pytest.raises(InconsistentWord):
        tighten(g1, Corner(0, 1), (99,), Corner(0, 0))
    with pytest.raises(InconsistentWord):
        tighten(g1, Corner(0, 1), (-4, -4), Corner(0, 0))  # second crossing not in reached triangle


def test_non_integer_labels_and_corners_are_inconsistent_words(g1):
    """A float label is not truncated and a float corner field is not an
    index: both refuse with ``InconsistentWord`` naming the place, from the
    constructor and from tighten.  Booleans are integers and pass."""
    a = next(x for x in seeded_arcs(g1, "labels", 20) if len(x) >= 3)
    start, word, end = tuple(a.start), list(a.crossings), tuple(a.end)
    for build in (ArcWord, tighten):
        for i in (0, len(word) - 1):
            bad = word.copy()
            bad[i] += 0.4 if bad[i] > 0 else -0.4
            with pytest.raises(InconsistentWord, match=f"crossing {i}: bad label"):
                build(g1, start, bad, end)
            bad[i] = str(word[i])
            with pytest.raises(InconsistentWord, match=f"crossing {i}: bad label"):
                build(g1, start, bad, end)
        for corner in ((float(start[0]), start[1]), (start[0],), (start[0], start[1], 0), None):
            with pytest.raises(InconsistentWord, match="start corner"):
                build(g1, corner, word, end)
        with pytest.raises(InconsistentWord, match="end corner"):
            build(g1, start, word, (end[0], float(end[1])))
    flags = tuple(bool(x) if x in (0, 1) else x for x in start + end)
    assert any(type(x) is bool for x in flags)
    assert ArcWord(g1, flags[:2], word, flags[2:]) == a == tighten(g1, flags[:2], word, flags[2:])


def test_tighten_checks_each_word_once(g1, g2, monkeypatch):
    arcs = seeded_arcs(g1, "check-once", 10) + seeded_arcs(g2, "check-once", 10)
    check = arc_module._check_word
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(arc_module, "_check_word", counted)
    for a in arcs:
        assert tighten(a.base, a.start, a.crossings, a.end) == a
    assert len(calls) == len(arcs)


def test_tighten_keeps_its_refusals(g1, g2):
    """The result skips the second consistency walk, not the reduction or
    P1/P2 checks: a word from P2, a word to P1 and an inconsistent word are
    still refused."""
    refused = 0
    for base in (g1, g2):
        for a in seeded_arcs(base, f"refusals-{base.genus}", 20):
            if not a.crossings:
                continue
            backwards = tuple(-c for c in reversed(a.crossings))
            with pytest.raises(InconsistentWord, match="start corner .* is not at P1"):
                tighten(base, a.end, backwards, a.start)
            for pos in range(3):
                end = Corner(a.end.tri, pos)
                if base.vertex_of(end) == P1:
                    with pytest.raises(InconsistentWord, match="end corner .* is not at P2"):
                        tighten(base, a.start, a.crossings, end)
                    refused += 1
            with pytest.raises(InconsistentWord, match="crossing 1"):
                tighten(base, a.start, a.crossings[:1] + a.crossings[:1], a.end)
    assert refused > 10


def test_arcword_constructor_enforces_reduction(g1):
    with pytest.raises(InconsistentWord):
        ArcWord(g1, Corner(0, 1), (-4, 4), Corner(0, 0))


def test_tighten_confluence_random_orders(g1):
    # insert several spurs at random places; reduction must converge to the
    # same canonical word no matter where the garbage sits
    rng = random.Random(7)
    for a in seeded_arcs(g1, "confluence", 20):
        for _ in range(10):
            word = list(a.crossings)
            for _ in range(4):
                pos = rng.randrange(len(word) + 1)
                tri = a.start.tri if pos == 0 else g1.side_corner(-word[pos - 1]).tri
                side = g1.side(Corner(tri, rng.randrange(3)))
                word[pos:pos] = [side, -side]
            assert tighten(g1, a.start, word, a.end) == a


def _reduce_in_random_order(base, start, word, end, rng):
    """Independent reducer: apply one applicable move at a time, chosen at
    random, until none remains; checks confluence against tighten's fixed
    strategy."""
    word = list(word)
    while True:
        moves = []
        for i in range(len(word) - 1):
            if word[i + 1] == -word[i]:
                moves.append(("backtrack", i))
        if word:
            t, p = start
            if word[0] in (base.side(Corner(t, p)), base.side(Corner(t, (p + 2) % 3))):
                moves.append(("start", None))
            entered = base.side_corner(-word[-1])
            t, p = end
            if entered in (Corner(t, p), Corner(t, (p + 2) % 3)):
                moves.append(("end", None))
        if not moves:
            return start, tuple(word), end
        kind, i = moves[rng.randrange(len(moves))]
        if kind == "backtrack":
            del word[i : i + 2]
        elif kind == "start":
            first = word.pop(0)
            t, p = start
            opp = base.side_corner(-first)
            start = Corner(opp.tri, (opp.pos + 1) % 3) if first == base.side(Corner(t, p)) else Corner(opp.tri, opp.pos)
        else:
            last = word.pop()
            entered = base.side_corner(-last)
            t, p = end
            back = base.side_corner(last)
            end = Corner(back.tri, (back.pos + 1) % 3) if entered == Corner(t, p) else Corner(back.tri, back.pos)


def test_confluence_against_independent_reducer(g1, g2):
    rng = random.Random(4242)
    trials = 0
    for base in (g1, g2):
        for a in seeded_arcs(base, f"confl2-{base.genus}", 25):
            # bury the word under spurs and an endpoint spin, then reduce in
            # random move order and by tighten; both must land on a
            for _ in range(6):
                word = list(a.crossings)
                start = a.start
                for _ in range(3):
                    pos = rng.randrange(len(word) + 1)
                    tri = start.tri if pos == 0 else base.side_corner(-word[pos - 1]).tri
                    side = base.side(Corner(tri, rng.randrange(3)))
                    word[pos:pos] = [side, -side]
                s0, w0, e0 = _reduce_in_random_order(base, start, word, a.end, rng)
                reduced = tighten(base, s0, w0, e0)  # only zero-length canonicalization left
                assert (s0, w0, e0) == (reduced.start, reduced.crossings, reduced.end) or len(w0) == 0
                assert tighten(base, start, word, a.end) == a
                assert reduced == a
                trials += 1
    assert trials == 300


def test_transport_unmoved_arc(g1):
    # an arc not crossing the flipped edge and not ending in the quad keeps
    # its crossing list
    a = edge_word(g1, 2)  # lives in triangles 0 and 3
    moved = transport(a, 4)  # flip a spoke away from it, quad = triangles 1, 2
    assert moved.crossings == ()


def test_transport_round_trip_single_flips(g1, g2):
    for base in (g1, g2):
        for a in seeded_arcs(base, f"roundtrip-{base.genus}", 25):
            for e in range(base.n_edges):
                if not base.is_flippable(e):
                    continue
                back = transport_inverse(transport(a, e), base, e)
                assert back == a


def test_transport_round_trip_walks(g1, g2):
    rng = random.Random(99)
    done = 0
    for base in (g1, g2):
        for a in seeded_arcs(base, f"walks-{base.genus}", 100):
            chain, flips = flip_walk(base, rng, rng.randrange(5, 21))
            word = a
            for e in flips:
                word = transport(word, e)
            for i in range(len(flips) - 1, -1, -1):
                word = transport_inverse(word, chain[i], flips[i])
            assert word == a
            done += 1
    assert done == 200


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_transport_round_trips_every_short_arc(genus):
    """Every arc of length <= 3, every flippable edge, on the standard table
    and two walked ones: the corner cases of the quad rewrite (zero-crossing
    words, words that start or end at a diagonal endpoint, quads whose
    outer sides are glued to each other) are all among them."""
    standard = build_standard_triangulation(genus)
    rng = random.Random(f"quad-rewrite-{genus}")
    trips = zero = at_apex = 0
    for base in (standard, *(flip_walk(standard, random.Random(seed), 8)[0][-1] for seed in (1, 2))):
        arcs = enumerate_arcs(base, 3)
        pairs = [tuple(rng.sample(arcs, 2)) for _ in range(3)]
        overlay = [intersection(a, b) for a, b in pairs]
        for e in range(base.n_edges):
            if not base.is_flippable(e):
                continue
            for a in arcs:
                assert transport_inverse(transport(a, e), base, e) == a
                trips += 1
                zero += not a.crossings
                at_apex += bool(a.crossings) and edge_of(a.crossings[-1]) == e
            assert [intersection(transport(a, e), transport(b, e)) for a, b in pairs] == overlay
    assert trips > 200 and zero > 0 and at_apex > 0


def test_transport_errors(g1):
    a = seeded_arcs(g1, "transport-errors", 1)[0]
    moved = transport(a, 0)
    with pytest.raises(BaseMismatch):
        transport_inverse(moved, g1, 1)  # flipping edge 1 of g1 does not give moved.base
    with pytest.raises(BaseMismatch):
        transport_inverse(moved, moved.base, 0)
    walked = flip_walk(g1, random.Random(3), 10)[0][-1]
    e = next(e for e in range(walked.n_edges) if not walked.is_flippable(e))
    b = enumerate_arcs(walked, 2)[-1]
    with pytest.raises(UnflippableEdge):
        transport(b, e)
    with pytest.raises(UnflippableEdge):
        transport_inverse(b, walked, e)


def test_random_arc_deterministic_and_embedded(g1, g2):
    for base in (g1, g2):
        assert random_arc(base, 42, 9) == random_arc(base, 42, 9)
        for seed in range(500):
            a = random_arc(base, seed, 2 + seed % 11)
            assert self_intersection(a) == 0
            assert tighten(base, a.start, a.crossings, a.end) == a


def test_random_arc_output_is_pinned():
    """Seeded arcs are data: certificates, corpora and benchmark digests are
    built from them, so the walk and the pull-back must not change them."""
    digest = hashlib.sha256()
    for genus in (1, 2, 3, 4):
        base = build_standard_triangulation(genus)
        for seed in range(50):
            for steps in (0, 1, 5, 20, 45, 80):
                a = random_arc(base, seed, steps)
                digest.update(repr((tuple(a.start), a.crossings, tuple(a.end))).encode())
                digest.update(b";")
    assert digest.hexdigest() == "d08367203774a27b2f65d71985aa57a4898661fe508982e33f5de4aca1a8cc40"


def test_random_arc_long_pull_backs_are_pinned():
    """Genus 3-4 walks of 200 steps pull back words of up to 974 letters,
    far longer than the 80-step pin above reaches."""
    digest = hashlib.sha256()
    for genus in (3, 4):
        base = build_standard_triangulation(genus)
        for seed in range(20):
            a = random_arc(base, seed, 200)
            digest.update(repr((tuple(a.start), a.crossings, tuple(a.end))).encode())
            digest.update(b";")
    assert digest.hexdigest() == "55c08b368a2501b5f6136e4b06f9de1df1d792e3fad56c48e53b382e15e4e498"


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_random_arc_builds_one_record_and_checks_every_step(genus, monkeypatch):
    """The pull-back carries a bare word and builds one ``ArcWord`` at the
    end.  Every step is checked by its own quad rewrite, over that step's
    table, which checks only what it edits; ``_check_word`` walks the
    result's word once.  ``transport``, ``transport_inverse`` and
    ``straighten_to_edge`` likewise walk their one result once."""
    base = build_standard_triangulation(genus)
    make, check, rewrite = ArcWord._make, arc_module._check_word, arc_module._quad_rewrite
    made, checked, rewritten = [], [], []
    monkeypatch.setattr(ArcWord, "_make", classmethod(lambda cls, *args: made.append(args) or make(*args)))
    monkeypatch.setattr(arc_module, "_check_word", lambda table, *word: checked.append(table) or check(table, *word))
    monkeypatch.setattr(arc_module, "_quad_rewrite", lambda old, new, *word: rewritten.append(new) or rewrite(old, new, *word))
    e = next(e for e in range(base.n_edges) if base.is_flippable(e))
    for seed in range(5):
        for steps in (0, 1, 7, 30, 80):
            for record in (made, checked, rewritten):
                record.clear()
            a = random_arc(base, seed, steps)
            assert len(made) == 1
            tables, _ = flip_walk(base, random.Random(seed), steps)
            assert rewritten == [*reversed(tables[:-1])]
            assert checked == [base]
            assert a.base == base
            checked.clear()
            moved = transport(a, e)
            assert checked == [moved.base]
            checked.clear()
            assert transport_inverse(moved, base, e) == a
            assert checked == [base]
            checked.clear()
            rewritten.clear()
            flips, _ = straighten_to_edge(a)
            assert len(checked) == 1 and len(rewritten) == len(flips)


def _inject_into_quad_rewrite(monkeypatch, old, new):
    """Patch ``_quad_rewrite`` with the source text ``old`` replaced by
    ``new``: a defect injected into the rewrite, whose checks stay as they
    are."""
    source = textwrap.dedent(inspect.getsource(arc_module._quad_rewrite))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), arc_module.__file__, "exec"), vars(arc_module).copy(), namespace)
    monkeypatch.setattr(arc_module, "_quad_rewrite", namespace["_quad_rewrite"])


def _rewritten_steps(base, tag):
    """``(arc, e, new table, raw word)`` for seeded arcs over ``base`` and
    every flippable ``e``, the raw word from the real ``_quad_rewrite``."""
    out = []
    for a in seeded_arcs(base, tag, 30):
        for e in range(base.n_edges):
            if base.is_flippable(e):
                new = base.flip(e)
                out.append((a, e, new, arc_module._quad_rewrite(base, new, e, a.start, a.crossings, a.end)[1]))
    return out


def test_a_step_refuses_a_wrong_inserted_diagonal(g2, monkeypatch):
    """A rewrite that inserts the other side of the new diagonal leaves the
    next letter outside the triangle it enters: the step itself refuses,
    with ``_check_word``'s message for that letter."""
    cases = []
    for a, e, new, word in _rewritten_steps(g2, "wrong-diagonal"):
        i = next((i for i, c in enumerate(word) if edge_of(c) == e), len(word))
        if i < len(word) - 1:  # the first inserted diagonal has a letter after it
            d, c = word[i], word[i + 1]
            refusal = f"crossing {i + 1}: side {c} is in triangle {new._side_of[c].tri}, arc is in {new._side_of[d].tri}"
            cases.append((a, e, new, refusal))
    assert len(cases) > 20
    _inject_into_quad_rewrite(monkeypatch, "d = s if here == plus_tri else -s", "d = -s if here == plus_tri else s")
    for a, e, new, refusal in cases:
        with pytest.raises(InconsistentWord, match=f"^{re.escape(refusal)}$"):
            arc_module._step(g2, new, e, a.start, a.crossings, a.end)


def test_a_step_refuses_a_dropped_closing_diagonal(g2, monkeypatch):
    """A rewrite that leaves out the closing diagonal ends in the wrong
    triangle: the step itself refuses, with ``_check_word``'s end-corner
    message."""
    cases = []
    for a, e, new, word in _rewritten_steps(g2, "closing-diagonal"):
        if word and edge_of(word[-1]) == e:  # an inserted closing diagonal
            cases.append((a, e, new, new._side_of[word[-1]].tri))
    assert len(cases) > 20
    _inject_into_quad_rewrite(monkeypatch, "        here = diagonal(here)\n        if end.tri", "        pass\n        if end.tri")
    for a, e, new, last in cases:
        with pytest.raises(InconsistentWord, match=rf"^end corner Corner\(tri=(\d+), pos=\d\) is in triangle \1, arc ends in {last}$"):
            arc_module._step(g2, new, e, a.start, a.crossings, a.end)


@pytest.mark.parametrize("genus", [1, 2])
def test_a_step_refuses_a_zero_crossing_word_with_equal_corners(genus, monkeypatch):
    """A rewrite that sends a corner on the old diagonal to the head corner
    of its outer side, not the corner after it, gives some edge words two
    equal corners: the step itself refuses them, before the moves would
    read the word as a loop."""
    base = build_standard_triangulation(genus)
    _inject_into_quad_rewrite(monkeypatch, "return corners[3 * head.tri + (head.pos + 1) % 3]", "return head")
    refusals = []
    for f in base.connector_edges():
        a = edge_word(base, f)
        for e in range(base.n_edges):
            try:
                arc_module._step(base, base.flip(e), e, a.start, a.crossings, a.end)
            except InconsistentWord as ex:
                refusals.append(str(ex))
    assert len(refusals) >= 4 and set(refusals) == {"zero-crossing word with equal corners"}


@pytest.mark.parametrize("steps", [0, 1, 7, 30])
def test_random_arc_flips_once_per_step(g2, monkeypatch, steps):
    flip = Triangulation.flip
    calls = []

    def counted(self, e):
        calls.append(e)
        return flip(self, e)

    monkeypatch.setattr(Triangulation, "flip", counted)
    random_arc(g2, 123, steps)
    assert len(calls) == steps


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_random_arc_builds_no_corner_per_step(genus, built_corners):
    """The walk's flips and the pull-back's rewrites and tightens take their
    corners from the tables' shared tuple, so a long walk builds no more
    ``Corner`` objects than a short one."""
    base = build_standard_triangulation(genus)
    counts = {}
    for seed in range(5):
        for steps in (5, 80):
            built_corners.clear()
            random_arc(base, seed, steps)
            counts[seed, steps] = len(built_corners)
    assert all(counts[seed, 5] == counts[seed, 80] for seed in range(5)), counts


def test_random_arc_zero_steps_is_an_edge(g1):
    a = random_arc(g1, 5, 0)
    assert len(a) == 0


def test_enumerate_arcs_small(g1):
    zero = enumerate_arcs(g1, 0)
    assert len(zero) == len(g1.connector_edges())
    out = enumerate_arcs(g1, 4)
    assert len(out) == len(set(out))
    assert all(tighten(g1, a.start, a.crossings, a.end) == a for a in out)
    assert out == sorted(out, key=ArcWord.sort_key)


def test_enumerate_matches_brute_force(g1):
    """Independent oracle: tighten every locally consistent word and filter."""
    brute = set()
    max_len = 4
    for start in g1.corners_at(P1):
        stack = [()]
        while stack:
            word = stack.pop()
            tri = g1.side_corner(-word[-1]).tri if word else start.tri
            for pos in range(3):
                end = Corner(tri, pos)
                if g1.vertex_of(end) != P2:
                    continue
                try:
                    a = tighten(g1, start, word, end)
                except InconsistentWord:
                    continue
                if len(a) <= max_len and self_intersection(a) == 0:
                    brute.add(a)
            if len(word) < max_len:
                for k in range(3):
                    stack.append(word + (g1.side(Corner(tri, k)),))
    assert brute == set(enumerate_arcs(g1, max_len))


def test_straighten_to_edge(g1, g2):
    for base in (g1, g2):
        for a in seeded_arcs(base, f"straighten-{base.genus}", 30):
            flips, e = straighten_to_edge(a)
            moved = a
            for f in flips:
                moved = transport(moved, f)
            assert len(moved) == 0
            assert edge_of(moved.base.side(moved.start)) == e


def test_straighten_one_crossing_arcs_exhaustively(g1):
    for a in enumerate_arcs(g1, 1):
        if len(a) != 1:
            continue
        flips, e = straighten_to_edge(a)
        assert len(flips) >= 1


def _straighten_by_transport(a):
    """The straightening loop over public ``transport``: a reference for
    :func:`straighten_to_edge`, which carries a bare word instead."""
    word, flips = a, []
    while len(word) > 0:
        assert len(flips) < 40 * (len(a) + 2)
        base = word.base
        e = edge_of(word.crossings[0])
        assert base.is_flippable(e)  # an embedded arc never starts across a folded edge
        flips.append(e)
        word = transport(word, e)
    return flips, edge_of(word.base.side(word.start))


def test_straightening_refuses_a_non_embedded_arc_before_any_flip(monkeypatch):
    """A word whose first crossing is a folded edge crosses itself: both the
    straightening and the flip oracle refuse it before they flip anything."""
    t = Triangulation(1, [(1, 2, -2), (-1, -6, 5), (3, 4, 6), (-3, -4, -5)], p1_corner=(0, 0))
    a = ArcWord(t, Corner(0, 0), (2, 1, -6, 3, -5, -1), Corner(0, 2))
    assert not t.is_flippable(edge_of(a.crossings[0])) and self_intersection(a) == 2
    flip = Triangulation.flip
    calls = []
    monkeypatch.setattr(Triangulation, "flip", lambda self, e: calls.append(e) or flip(self, e))
    for straighten in (straighten_to_edge, lambda a: intersection_via_flips(a, a)):
        with pytest.raises(PreconditionError, match="straighten_to_edge: the arc is not embedded"):
            straighten(a)
    assert calls == []


def _slow_step(every):
    """A ``_step`` that returns its word unchanged, but for its last letter
    dropped on every ``every``-th call (never, for ``every=0``): the first
    letter, so the flipped edge, never changes."""
    calls = itertools.count(1)

    def step(old, new, e, start, word, end):
        return start, word[:-1] if every and next(calls) % every == 0 else word, end

    return step


def _straighteners():
    """``straighten_to_edge`` and the flip oracle, which straightens its first arc."""
    return (straighten_to_edge, lambda a: intersection_via_flips(a, a))


def test_straightening_refuses_a_run_without_a_new_minimum(monkeypatch):
    """The window of the straightening's work budget: a step that makes no
    progress is refused after 4·E + 1 flips without a new minimum length,
    long before the total budget of 40·(n + 2) flips."""
    base = build_standard_triangulation(2)
    a = next(a for a in seeded_arcs(base, "stall", 40) if len(a) >= 5)
    window = 4 * base.n_edges
    for straighten in _straighteners():
        monkeypatch.setattr(arc_module, "_step", _slow_step(0))
        refusal = f"straighten_to_edge: no new minimum length in {window + 1} flips (length {len(a)} after {window + 1} flips)"
        with pytest.raises(PreconditionError, match=f"^{re.escape(refusal)}$"):
            straighten(a)


def test_straightening_refuses_a_run_over_its_flip_budget(monkeypatch):
    """The total of the straightening's work budget: a step that drops a
    letter every 4·E flips keeps making new minima inside the window, and
    is refused after 40·(n + 2) flips.  At genus 2 (E = 12) that is reached
    by words of more than 10 letters; at genus 1 the window binds first
    (see the docstring)."""
    base = build_standard_triangulation(2)
    a = next(a for a in (random_arc(base, seed, 40) for seed in itertools.count()) if len(a) > 10)
    window, cap = 4 * base.n_edges, 40 * (len(a) + 2)
    assert window * len(a) > cap  # the word would empty only after the budget
    for straighten in _straighteners():
        monkeypatch.setattr(arc_module, "_step", _slow_step(window))
        refusal = f"straighten_to_edge: over its budget of {cap} flips (length {len(a) - cap // window})"
        with pytest.raises(PreconditionError, match=f"^{re.escape(refusal)}$"):
            straighten(a)


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_the_flip_oracle_flips_each_table_once(genus, monkeypatch):
    """The flip oracle carries ``w`` over the tables that straighten ``v``:
    it flips exactly as often as the straightening alone does."""
    base = build_standard_triangulation(genus)
    pairs = [(random_arc(base, seed, 40), random_arc(base, seed + 100, 40)) for seed in range(6)]
    straightened = [len(straighten_to_edge(v)[0]) for v, _ in pairs]
    flip = Triangulation.flip
    calls = []
    monkeypatch.setattr(Triangulation, "flip", lambda self, e: calls.append(e) or flip(self, e))
    for (v, w), flips in zip(pairs, straightened):
        calls.clear()
        assert intersection_via_flips(v, w) == intersection(v, w)
        assert len(calls) == flips
    assert sum(straightened) > 0


def _folded_tables(genus):
    """The first two 25-step walks from the standard table that hold a
    self-folded triangle, each also relabelled so that the other marked
    point is its inner vertex."""
    base = build_standard_triangulation(genus)
    walked = (flip_walk(base, random.Random(seed), 25)[0][-1] for seed in itertools.count())
    folded = (t for t in walked if not all(map(t.is_flippable, range(t.n_edges))))
    out = []
    for t in itertools.islice(folded, 2):
        out += [t, Triangulation(genus, t.triangles, p1_corner=t.corners_at(P2)[0])]
    return out


@pytest.mark.parametrize("genus", [1, 2])
def test_no_embedded_arc_starts_across_a_folded_edge(genus):
    """Why the straightening never meets an unflippable first edge: with
    either marked point inside the self-folded triangle, no enumerated or
    random arc starts across the folded edge, though arcs do cross it, and
    both oracles agree on pairs of these arcs."""
    tables = _folded_tables(genus)
    assert [len(t.corners_at(P1)) == 1 for t in tables].count(True) == 2  # each vertex inner once per walk
    rng = random.Random(f"folded-{genus}")
    for t in tables:
        folded = {e for e in range(t.n_edges) if not t.is_flippable(e)}
        arcs = enumerate_arcs(t, 7) + [random_arc(t, seed, 5 + seed % 36) for seed in range(300)]
        assert not [a for a in arcs if a.crossings and edge_of(a.crossings[0]) in folded]
        assert any(edge_of(c) in folded for a in arcs for c in a.crossings)
        for _ in range(100):
            v, w = rng.sample(arcs, 2)
            assert intersection(v, w) == intersection_via_flips(v, w)


@pytest.mark.parametrize("genus, long_walk", [(1, 60), (2, 120), (3, 200), (4, 200)])
def test_straighten_to_edge_matches_a_transport_loop(genus, long_walk):
    base = build_standard_triangulation(genus)
    lengths = []
    for seed in range(12):
        for steps in (10, 40, long_walk):
            a = random_arc(base, seed, steps)
            assert straighten_to_edge(a) == _straighten_by_transport(a)
            lengths.append(len(a))
    assert min(lengths) == 0 and max(lengths) > 100


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_the_flip_oracle_neither_transports_nor_tightens(genus, monkeypatch):
    """Straightening carries a bare word and the flip oracle carries ``w``
    with ``_carry``: neither runs public ``transport`` or ``tighten``, which
    would build a checked ``ArcWord`` per flip."""
    from arcdist import realization

    calls = []
    for module in (arc_module, realization):
        for name in ("transport", "transport_inverse", "tighten"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    base = build_standard_triangulation(genus)
    flips = 0
    for seed in range(6):
        v, w = random_arc(base, seed, 40), random_arc(base, seed + 100, 40)
        flips += len(straighten_to_edge(v)[0])
        realization.intersection_via_flips(v, w)
    assert flips > 0 and calls == []
