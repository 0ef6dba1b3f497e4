import copy
import hashlib
import itertools
import random
from collections import Counter

import pytest

from arcdist import (
    BaseMismatch,
    InconsistentWord,
    VerificationError,
    build_standard_triangulation,
    overlay,
    realization,
)
from arcdist import arc as arc_module
from arcdist.arc import edge_word, enumerate_arcs, random_arc, transport
from arcdist.distance import classify
from arcdist.overlay import (
    Realization,
    _OverlayBuilder,
    build_overlay,
    complement_components,
    intersection,
    intersection_via_flips,
    self_intersection,
)
from arcdist.arc import ArcWord
from arcdist.surface import Corner, edge_of, flip_walk

from conftest import (
    Segment,
    interleaved,
    reference_crossings,
    seeded_arcs,
    seeded_pairs,
    self_crossing_word,
    strand_order,
)


def brute_min_intersection(v, w):
    """Minimum interior crossings over every strand ordering keeping both
    arcs free of self-crossings; an oracle independent of the unzipping."""
    base = v.base
    strands = {}
    for o, word in ((0, v), (1, w)):
        for i, c in enumerate(word.crossings):
            strands.setdefault(edge_of(c), []).append((o, i, c))
    edges = sorted(strands)
    best = None
    for combo in itertools.product(*[itertools.permutations(range(len(strands[e]))) for e in edges]):
        rank = {}
        for e, perm in zip(edges, combo):
            m = len(strands[e])
            for pos, idx in enumerate(perm):
                o, i, _ = strands[e][idx]
                rank[(o, i)] = (pos, m)

        def rank_of(o, i, value):
            r, m = rank[(o, i)]
            return r if value > 0 else m - 1 - r

        def segs(word, o):
            out = []
            n = len(word.crossings)
            for j in range(n + 1):
                if j == 0:
                    tri, a = word.start.tri, (word.start.pos, -1)
                else:
                    c = word.crossings[j - 1]
                    sc = base.side_corner(-c)
                    tri, a = sc.tri, (sc.pos, rank_of(o, j - 1, -c))
                if j == n:
                    b = (word.end.pos, -1)
                else:
                    c = word.crossings[j]
                    b = (base.side_corner(c).pos, rank_of(o, j, c))
                out.append(Segment(o, j, tri, a, b))
            return out

        sv, sw = segs(v, 0), segs(w, 1)

        def count(g1, g2, same):
            total = 0
            for i1, s1 in enumerate(g1):
                for i2, s2 in enumerate(g2):
                    if same and i2 <= i1:
                        continue
                    if s1.tri == s2.tri and interleaved(s1, s2):
                        total += 1
            return total

        if count(sv, sv, True) or count(sw, sw, True):
            continue
        cross = count(sv, sw, False)
        if best is None or cross < best:
            best = cross
    return best


def test_triple_agreement_all_short_pairs(g1):
    arcs = enumerate_arcs(g1, 5)
    for v, w in itertools.combinations(arcs, 2):
        a = intersection(v, w)
        assert a == intersection_via_flips(v, w)
        assert a == brute_min_intersection(v, w)
        assert a == intersection(w, v)


def test_triple_agreement_short_pairs_genus2(g2):
    arcs = enumerate_arcs(g2, 3)
    for v, w in itertools.combinations(arcs[:28], 2):
        a = intersection(v, w)
        assert a == intersection_via_flips(v, w)
        assert a == brute_min_intersection(v, w)


@pytest.mark.parametrize("genus", [3, 4])
def test_both_oracles_agree_on_long_genus_3_and_4_pairs(genus):
    """Pairs of 200-step arcs: words of up to 974 letters crossing up to
    4,468 times, far past the short pairs above."""
    base = build_standard_triangulation(genus)
    counts = []
    for seed in range(0, 24, 2):
        v, w = random_arc(base, seed, 200), random_arc(base, seed + 1, 200)
        counts.append(intersection(v, w))
        assert intersection_via_flips(v, w) == counts[-1]
    assert counts == {
        3: [176, 354, 621, 21, 52, 83, 4468, 17, 14, 579, 406, 844],
        4: [18, 32, 55, 14, 23, 60, 36, 5, 6, 0, 19, 111],
    }[genus]


def test_self_pairing_is_zero(g1, g2):
    for base in (g1, g2):
        for seed in range(10):
            a = random_arc(base, 500 + seed, 10)
            assert intersection(a, a) == 0
            assert build_overlay(a, a).crossings == 0


def test_disjoint_edges(g1):
    words = [edge_word(g1, e) for e in g1.connector_edges()]
    for v, w in itertools.combinations(words, 2):
        assert intersection(v, w) == 0


def test_base_mismatch_rejected(g1, g2):
    v, w = edge_word(g1, 2), edge_word(g2, 4)
    for check in (intersection, intersection_via_flips, classify, Realization):
        with pytest.raises(BaseMismatch, match="arcs live over different triangulations"):
            check(v, w)


def test_representation_independence(g1, g2):
    rng = random.Random(321)
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"repind-{base.genus}", 12):
            i0 = intersection(v, w)
            cv, cw = v, w
            for e in flip_walk(base, rng, 6)[1]:
                cv, cw = transport(cv, e), transport(cw, e)
            assert intersection(cv, cw) == i0


def brute_min_self(word):
    """Minimum self-crossings over every strand ordering (oracle)."""
    base = word.base
    strands = {}
    for i, c in enumerate(word.crossings):
        strands.setdefault(edge_of(c), []).append((0, i, c))
    edges = sorted(strands)
    best = None
    for combo in itertools.product(*[itertools.permutations(range(len(strands[e]))) for e in edges]):
        rank = {}
        for e, perm in zip(edges, combo):
            m = len(strands[e])
            for pos, idx in enumerate(perm):
                _, i, _ = strands[e][idx]
                rank[(0, i)] = (pos, m)

        def rank_of(o, i, value):
            r, m = rank[(o, i)]
            return r if value > 0 else m - 1 - r

        segs = []
        n = len(word.crossings)
        for j in range(n + 1):
            if j == 0:
                tri, a = word.start.tri, (word.start.pos, -1)
            else:
                c = word.crossings[j - 1]
                sc = base.side_corner(-c)
                tri, a = sc.tri, (sc.pos, rank_of(0, j - 1, -c))
            if j == n:
                b = (word.end.pos, -1)
            else:
                c = word.crossings[j]
                b = (base.side_corner(c).pos, rank_of(0, j, c))
            segs.append(Segment(0, j, tri, a, b))
        total = 0
        for i1, s1 in enumerate(segs):
            for s2 in segs[i1 + 1 :]:
                if s1.tri == s2.tri and interleaved(s1, s2):
                    total += 1
        if best is None or total < best:
            best = total
    return best


def test_self_intersection_doubled_word(g1):
    # the same reduced loop pattern traversed twice, pinned from a search
    # over short words: each pass crosses the other
    from arcdist.arc import ArcWord
    from arcdist.surface import Corner

    single = ArcWord(g1, Corner(0, 1), (-4, -5, -1), Corner(0, 0))
    doubled = ArcWord(g1, Corner(0, 1), (-4, -5, -1, -4, -5, -1), Corner(0, 0))
    assert self_intersection(single) == 1
    assert self_intersection(doubled) == 2
    assert brute_min_self(doubled) == 2


def test_self_intersection_matches_brute_force(g1):
    """All reduced words up to length 5, embedded or not, against the oracle."""
    from arcdist.arc import ArcWord
    from arcdist.surface import Corner, P1, P2

    words = []
    for start in g1.corners_at(P1):
        first = g1.side(Corner(start.tri, (start.pos + 1) % 3))
        stack = [(first,)]
        while stack:
            w = stack.pop()
            entered = g1.side_corner(-w[-1])
            end = Corner(entered.tri, (entered.pos + 2) % 3)
            if g1.vertex_of(end) == P2:
                words.append(ArcWord(g1, start, w, end))
            if len(w) < 5:
                for kk in (1, 2):
                    stack.append(w + (g1.side(Corner(entered.tri, (entered.pos + kk) % 3)),))
    assert len(words) > 50
    for a in words:
        assert self_intersection(a) == brute_min_self(a)


def test_overlay_crossing_count_matches_intersection(g1, g2):
    # the overlay also runs its bigon-freeness self-checks on every pair
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"ovl-{base.genus}", 150):
            ov = build_overlay(v, w)
            assert ov.crossings == intersection(v, w)


def test_parallel_map_matches_sequential(g1):
    """Pure operations: a thread-pooled map returns identical results."""
    from concurrent.futures import ThreadPoolExecutor

    pairs = seeded_pairs(g1, "parmap", 24)
    sequential = [intersection(v, w) for v, w in pairs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda p: intersection(*p), pairs))
    assert parallel == sequential


def test_overlay_euler_characteristic(g1, g2):
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"chi-{base.genus}", 15):
            ov = build_overlay(v, w)
            assert ov.euler_characteristic == 2 - 2 * base.genus
            # complement components glue back to the surface:
            # V - E + F over the whole overlay equals chi of the surface,
            # and each component with chi = 1 is a disc
            for comp in ov.components:
                assert comp.euler_characteristic <= 1


def test_overlay_disjoint_pair_faces(g1):
    v = edge_word(g1, 2)
    w = edge_word(g1, 3)
    ov = build_overlay(v, w)
    assert ov.crossings == 0
    assert len(ov.components) >= 1


def test_overlay_face_marked_incidence(g1):
    # every marked point lies on some component's closure
    for v, w in seeded_pairs(g1, "faces", 10):
        ov = build_overlay(v, w)
        seen = set()
        for comp in ov.components:
            seen |= comp.marked_points
        assert seen == {0, 1}


def _traced_and_signed(v, w):
    """The face tracer's components and distance-2 answer next to the
    sign-vector pass's, for one realized pair."""
    real = Realization(v, w)
    traced = _OverlayBuilder(real).summarize().components
    signed, route = complement_components(real)
    yes = any(len(comp.marked_points) == 2 for comp in signed)
    assert yes == (route is not None)
    traced_yes = any(len(comp.marked_points) == 2 for comp in traced)
    return Counter(traced), Counter(signed), traced_yes, yes


def _long_pairs(base, tag, steps, wanted):
    """Crossing pairs from long flip walks, drawn until ``wanted`` of them
    are not at distance 2 (at genus 3-4 short walks give almost none)."""
    rng = random.Random(tag)
    out, no = [], 0
    while no < wanted:
        seed = rng.randrange(1 << 30)
        v, w = random_arc(base, seed, steps), random_arc(base, seed + 1, steps)
        if intersection(v, w) == 0:
            continue
        real = Realization(v, w)
        no += complement_components(real)[1] is None
        out.append((v, w))
        assert len(out) <= 8 * wanted, "long walks stopped giving non-distance-2 pairs"
    return out


@pytest.mark.parametrize("genus, steps", [(1, 30), (2, 120), (3, 120), (4, 200)])
def test_sign_vector_components_match_the_face_tracer(genus, steps):
    """The sign-vector pass and the face tracer agree on the components (as
    multisets of records) and on the distance-2 answer, with both answers
    present at every genus, crossing pairs at genus 3-4 included."""
    base = build_standard_triangulation(genus)
    pairs = seeded_pairs(base, f"signs-{genus}", 100) + _long_pairs(base, f"signs-long-{genus}", steps, 2)
    answers = Counter()
    for v, w in pairs:
        traced, signed, traced_yes, yes = _traced_and_signed(v, w)
        assert signed == traced
        assert yes == traced_yes
        answers[yes, intersection(v, w) > 0] += 1
    assert answers[True, True] and answers[False, True]


def test_sign_vector_components_of_equal_words(g1, g2):
    """Equal words drawn twice, length 0 included: the copies run parallel,
    and at shared corners only the owner tie-break tells them apart."""
    words = [random_arc(base, 900 + seed, 30) for base in (g1, g2) for seed in range(4)]
    for base in (g1, g2, build_standard_triangulation(3)):
        words += enumerate_arcs(base, 1)
    assert any(len(a) == 0 for a in words) and any(len(a) > 8 for a in words)
    for a in words:
        traced, signed, traced_yes, yes = _traced_and_signed(a, a)
        assert signed == traced
        assert yes == traced_yes


SIGN_VECTOR_DIGEST = "8130296803c9e6ea233eef18fd5fdc83a71cf0723dca1f66ec091e5eddb895fd"


def test_sign_vector_pass_output_is_pinned():
    """The pass's output, byte for byte: each pair's route and its sorted
    component records, over seeded crossing pairs at genus 1-4 from short
    and long flip walks, pairs not at distance 2 included.  A rewrite of
    the pass that changes a record, a route or a route's tie-break changes
    the digest."""
    h = hashlib.sha256()
    routed = Counter()
    for genus, steps in ((1, 30), (2, 120), (3, 120), (4, 200)):
        base = build_standard_triangulation(genus)
        pairs = seeded_pairs(base, f"pass-pin-{genus}", 12, max_steps=30, require_crossing=True)
        pairs += _long_pairs(base, f"pass-pin-long-{genus}", steps, 2)
        for v, w in pairs:
            components, route = complement_components(Realization(v, w))
            records = sorted(
                (c.faces, c.euler_characteristic, c.boundary_crossings, sorted(c.marked_points), c.is_disc)
                for c in components
            )
            if route is not None:
                route = (tuple(route[0]), route[1], tuple(route[2]))
            h.update(repr((route, records)).encode() + b"\n")
            routed[genus, route is not None] += 1
    assert all(routed[genus, yes] for genus in (1, 2, 3, 4) for yes in (True, False))
    assert h.hexdigest() == SIGN_VECTOR_DIGEST


def test_a_realization_stores_its_strand_order_and_end_codes(g1, g2):
    """``edge_order`` and ``ends`` are built with the realization, not on
    first read, so a caller that reads them after construction does no
    realization work.  Every strand of both words is listed once on its
    edge, and every segment has its triangle and two end codes; a code
    that is 0 mod ``S`` is a corner, which only the start and end are."""
    for base in (g1, g2):
        for v, w in seeded_pairs(base, f"stored-{base.genus}", 6, require_crossing=True):
            real = Realization(v, w)
            assert {"edge_order", "ends", "S"} <= vars(real).keys()
            n, values = len(v), v.crossings + w.crossings
            assert sorted(x for xs in real.edge_order.values() for x in xs) == list(range(n + len(w)))
            assert all(edge_of(values[x]) == e for e, xs in real.edge_order.items() for x in xs)
            for word, ends in zip((v, w), real.ends):
                assert len(ends) == len(word) + 1
                codes = [(j, end, code) for j, (_, a, b) in enumerate(ends) for end, code in (("a", a), ("b", b))]
                assert [(j, end) for j, end, code in codes if code % real.S == 0] == [(0, "a"), (len(word), "b")]


def test_minimality_checks_catch_a_swapped_strand(g1, monkeypatch):
    """Swapping two adjacent strands of different arcs on one edge, where
    that adds crossings, leaves a bigon or half-bigon: both the sign-vector
    pass and the face tracer must refuse the realization, alike."""
    order_edges = realization._order_edges
    seen = Counter()
    for v, w in seeded_pairs(g1, "swap", 12, max_steps=30, require_crossing=True):
        k = intersection(v, w)
        for e, strands in strand_order(Realization(v, w)).items():
            for i in range(len(strands) - 1):
                if strands[i].owner == strands[i + 1].owner:
                    continue

                def swapped(arcs, preps, e=e, i=i):
                    out = order_edges(arcs, preps)
                    out[e][i], out[e][i + 1] = out[e][i + 1], out[e][i]
                    return out

                monkeypatch.setattr(realization, "_order_edges", swapped)
                real = Realization(v, w)
                if real.count() > k:
                    with pytest.raises(VerificationError) as signed:
                        complement_components(real)
                    with pytest.raises(VerificationError) as traced:
                        build_overlay(v, w)
                    assert str(signed.value) == str(traced.value)
                    seen[str(signed.value)] += 1
                monkeypatch.setattr(realization, "_order_edges", order_edges)
    assert seen.keys() == {"overlay: bigon between the arcs survived", "overlay: endpoint half-bigon survived"}


def test_glued_intervals_refuse_sides_with_unequal_strand_counts(g1):
    """Both sides of an edge carry its strands, so glued sides hold equal
    counts; a count table that differs across one edge is refused."""
    strands = [[0, 0, 0] for _ in range(g1.n_triangles)]
    assert len(overlay._glued_intervals(g1, strands)) == g1.n_edges
    strands[0][0] = 1
    with pytest.raises(VerificationError, match="^overlay: glued sides disagree on strand count$"):
        overlay._glued_intervals(g1, strands)


def test_sign_vector_pass_refuses_a_strand_its_chords_do_not_end_on(g1):
    """Every strand point on an edge holds one chord end; an edge order with
    one strand more than the chords ending there is refused."""
    v, w = seeded_pairs(g1, "swap", 1, max_steps=30, require_crossing=True)[0]
    real = Realization(v, w)
    e, strands = next(iter(real.edge_order.items()))
    real.edge_order = {**real.edge_order, e: [*strands, strands[0]]}
    with pytest.raises(VerificationError, match="^overlay: chord ends do not match the strands on the edges$"):
        overlay.marked_route(real)


def test_sign_vector_pass_refuses_a_wrong_euler_characteristic(g1, monkeypatch):
    """A pass that loses the last run of glued intervals counts too few
    glued pairs, so the surface's Euler characteristic misses 2 - 2g and
    the minimality check refuses it before any per-component check."""
    v, w = seeded_pairs(g1, "swap", 1, max_steps=30, require_crossing=True)[0]
    glued = overlay._glued_intervals
    monkeypatch.setattr(overlay, "_glued_intervals", lambda base, strands: glued(base, strands)[:-1])
    with pytest.raises(VerificationError, match=r"^overlay: global euler characteristic \d+ != 0$"):
        overlay.marked_route(Realization(v, w))


def _partners_from(crossings, real):
    """Each segment's crossed segments, in order from its end a, read off
    ``(v_seg, w_seg, tri, v_rank, w_rank)`` records sorted along v: along
    v as listed, along w by ``w_rank``."""
    across_v = [[] for _ in real.ends[0]]
    across_w = [[] for _ in real.ends[1]]
    for v_seg, w_seg, *_ in crossings:
        across_v[v_seg].append(w_seg)
    for v_seg, w_seg, *_ in sorted(crossings, key=lambda x: x[4]):
        across_w[w_seg].append(v_seg)
    return across_v, across_w


def _check_against_the_reference(real):
    """The realization's partners and count equal those the brute-force
    reference gives, segment pair by segment pair."""
    crossings = reference_crossings(real)
    assert real.partners == _partners_from(crossings, real)
    assert real.count() == len(crossings)


@pytest.mark.parametrize("genus, steps, count", [(1, 18, 40), (2, 60, 25), (3, 120, 15), (4, 160, 15)])
def test_crossings_match_the_all_pairs_reference(genus, steps, count):
    """One interval test per segment pair, ranked from the recorded ends,
    gives the reference's partners in order, and its count: on crossing
    pairs, and on each of their arcs paired with itself."""
    base = build_standard_triangulation(genus)
    pairs = seeded_pairs(base, f"ranks-{genus}", count, max_steps=steps, require_crossing=True)
    for v, w in pairs + [(a, a) for pair in pairs for a in pair]:
        real = Realization(v, w)
        _check_against_the_reference(real)


def test_crossings_match_the_all_pairs_reference_on_long_and_self_crossing_words(g1):
    """Long genus-1 pairs with i(v, w) in the hundreds, and self-crossing
    words paired with themselves, where the two copies do cross."""
    rng = random.Random("ranks-long")
    counts = []
    for _ in range(6):
        seed = rng.randrange(1 << 30)
        real = Realization(random_arc(g1, seed, 90), random_arc(g1, seed + 1, 90))
        _check_against_the_reference(real)
        counts.append(real.count())
    assert max(counts) >= 100
    doubled = ArcWord(g1, Corner(0, 1), (-4, -5, -1, -4, -5, -1), Corner(0, 0))
    for a in (self_crossing_word(g1), doubled):
        real = Realization(a, a)
        assert real.count() == 2 * self_intersection(a) > 0
        _check_against_the_reference(real)


class _Level(bytes):
    """A turn string whose every suffix and mirror image reads the same, so
    any two rays compare as running parallel to the end."""

    def __getitem__(self, _):
        return self

    def translate(self, *_):
        return self

    def __add__(self, _):
        return self


def test_strand_order_refuses_distinct_strands_that_compare_fully_parallel(g1, monkeypatch):
    """Only a word paired with itself may have two strands that run parallel
    on both sides to the end, and then only the same crossing of each copy;
    any other such pair means the turn strings are wrong."""
    once = next(a for a in enumerate_arcs(g1, 2) if len(a) == 2)  # crosses two distinct edges
    twice = next(a for a in seeded_arcs(g1, "parallel", 40) if len({edge_of(c) for c in a.crossings}) < len(a))
    read_word = realization._read_word
    monkeypatch.setattr(realization, "_read_word", lambda word: (*read_word(word)[:2], _Level(b"\x01")))
    assert Realization(once, once).count() == 0  # only copies of one crossing meet: legal
    for v, w in ((twice, twice), (once, twice), (twice, once)):
        with pytest.raises(VerificationError, match="distinct strands compared as fully parallel"):
            Realization(v, w)


def test_each_word_is_read_at_most_once_per_word_object(g1, g2, monkeypatch):
    """``ArcWord(...)`` walks its word once.  The realization layer reads a
    word object at most once, whichever of ``self_intersection`` and
    ``Realization`` meets it first and however often; a copy of the word
    is a new object with its own cache, read once more."""
    check_word, read_word = arc_module._check_word, realization._read_word
    checks, reads = [], []
    monkeypatch.setattr(arc_module, "_check_word", lambda *args: checks.append(args) or check_word(*args))
    monkeypatch.setattr(realization, "_read_word", lambda word: reads.append(word) or read_word(word))
    for base in (g1, g2):
        arcs = seeded_arcs(base, "read-once", 8)
        for a in arcs:
            checks.clear()
            assert ArcWord(base, a.start, a.crossings, a.end) == a
            assert len(checks) == 1
        reads.clear()
        for v, w in zip(arcs, arcs[1:]):
            Realization(v, w)
            Realization(w, v)
        for a in arcs:
            self_intersection(a)
        assert [id(a) for a in reads] == list(dict.fromkeys(map(id, arcs)))
        reads.clear()
        copies = [copy.copy(a) for a in arcs]
        for a, b in zip(arcs, copies):
            self_intersection(b)
            Realization(a, b)
        assert [id(a) for a in reads] == list(map(id, copies))


def _unchecked(word: ArcWord, **fields) -> ArcWord:
    """``word`` with some fields replaced, built without the constructor's checks."""
    out = object.__new__(ArcWord)
    for name in ("base", "start", "crossings", "end"):
        object.__setattr__(out, name, fields.get(name, getattr(word, name)))
    return out


def test_a_word_whose_chain_breaks_is_refused_where_it_breaks(g1):
    """Words that skip the constructor's checks and break the chain of
    triangles at the start, in the middle or at the end, or backtrack,
    are refused by the realization with a message naming the break."""
    a = next(x for x in seeded_arcs(g1, "broken-chain", 20) if len(x) >= 3)
    entered = g1.side_corner(-a.crossings[0]).tri
    stray = next(s for s in range(1, g1.n_edges + 1) if g1.side_corner(s).tri != entered)

    def elsewhere(corner):
        return Corner((corner.tri + 1) % g1.n_triangles, corner.pos)

    cases = [
        (_unchecked(a, start=elsewhere(a.start)), "segment chain broke"),
        (_unchecked(a, crossings=(a.crossings[0], stray, *a.crossings[2:])), "ray left its triangle"),
        (_unchecked(a, end=elsewhere(a.end)), "segment chain broke"),
        (_unchecked(a, crossings=(a.crossings[0], -a.crossings[0], *a.crossings)), "ray backtracked"),
        (_unchecked(a, crossings=(), end=elsewhere(a.start)), "segment chain broke"),
    ]
    for broken, message in cases:
        for check in (self_intersection, lambda b: Realization(b, a), lambda b: Realization(a, b)):
            with pytest.raises(InconsistentWord, match=message):
                check(broken)


class _BothSides(int):
    """A boundary code that compares as both before and after any other."""

    def __lt__(self, other):
        return True

    __gt__ = __le__ = __ge__ = __lt__


def test_separation_check_catches_an_inconsistent_boundary_code(g1, monkeypatch):
    """A w chord that one test finds inside a v chord must separate the v
    chord's ends in turn.  For any strict order of the boundary points that
    holds, and a plain strand swap is left to the overlay's minimality
    checks; a segment end placed on both sides of its neighbours breaks
    it, and the realization refuses the pair."""
    ends_of = realization._ends
    refused = 0
    for v, w in seeded_pairs(g1, "separate", 6, max_steps=30, require_crossing=True):
        for prep in map(realization._prepare, (v, w)):
            for i in range(len(prep[0])):  # each segment

                def misplaced(of, slots, S, prep=prep, i=i):
                    ends = ends_of(of, slots, S)
                    if of is prep:
                        t, a, b = ends[i]
                        ends[i] = (t, _BothSides(a), b)
                    return ends

                monkeypatch.setattr(realization, "_ends", misplaced)
                try:
                    Realization(v, w)
                except VerificationError as ex:
                    assert str(ex) == "crossing chord does not separate the segment ends"
                    refused += 1
    assert refused >= 10
