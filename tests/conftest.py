import functools
import json
import random
from importlib import resources
from typing import NamedTuple

import pytest

from arcdist import build_standard_triangulation
from arcdist.arc import ArcWord, random_arc
from arcdist.overlay import intersection
from arcdist.surface import P1, Corner


@pytest.fixture(scope="session")
def g1():
    return build_standard_triangulation(1)


@pytest.fixture(scope="session")
def g2():
    return build_standard_triangulation(2)


@pytest.fixture
def built_corners(monkeypatch):
    """The arguments of every ``Corner`` built while the test runs."""
    new = Corner.__new__
    built = []

    def counted(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Corner, "__new__", counted)
    return built


def self_crossing_word(g1):
    """A genus-1 word with one self-crossing: a reduced word, but no vertex
    of the arc complex."""
    return ArcWord(g1, Corner(0, 1), (-4, -5, -6, -2), Corner(1, 0))


class Strand(NamedTuple):
    """Crossing ``index`` of arc ``owner`` (0 for v, 1 for w) on its edge,
    with its signed label ``value``."""

    owner: int
    index: int
    value: int


def strand_order(real):
    """``real.edge_order`` with each strand, listed as i for v's crossing i
    and len(v) + j for w's crossing j, decoded to a ``Strand``."""
    n, values = len(real.v), real.v.crossings + real.w.crossings
    return {
        e: [Strand(int(x >= n), x - n if x >= n else x, values[x]) for x in xs] for e, xs in real.edge_order.items()
    }


class Segment(NamedTuple):
    """Segment ``index`` of arc ``owner`` in triangle ``tri``, its ends a and
    b as boundary coordinates (pos, rank); rank -1 marks the corner itself."""

    owner: int
    index: int
    tri: int
    a: tuple
    b: tuple


def segments_of(real):
    """Each arc's segments, decoded from the end codes ``pos * S + rank + 1``
    of ``real.ends``."""

    def coord(code):
        pos, slot = divmod(code, real.S)
        return pos, slot - 1

    return tuple(
        [Segment(o, j, t, coord(a), coord(b)) for j, (t, a, b) in enumerate(ends)] for o, ends in enumerate(real.ends)
    )


def interleaved(s1: Segment, s2: Segment) -> bool:
    """Reference crossing test for two chords of one triangle."""
    pts = {s1.a, s1.b, s2.a, s2.b}
    if len(pts) < 4:  # shared boundary point: meeting, not a crossing
        return False
    # boundary coordinates are ordered linearly from corner 0, so the chords
    # cross iff exactly one end of s2 lies strictly between the ends of s1
    lo, hi = min(s1.a, s1.b), max(s1.a, s1.b)
    return (lo < s2.a < hi) != (lo < s2.b < hi)


def _position_from(seg, other):
    """Reference place where ``other`` crosses ``seg``, measured from seg.a."""
    lo, hi = min(seg.a, seg.b), max(seg.a, seg.b)
    [p] = [p for p in (other.a, other.b) if lo < p < hi]
    return p if seg.a < seg.b else tuple(-x for x in p)


def reference_crossings(real):
    """Every v/w segment pair of a realization tested with ``interleaved``,
    each crossing ranked along both segments by ``_position_from``, as
    ``(v_seg, w_seg, tri, v_rank, w_rank)`` sorted along v."""
    v_segs, w_segs = segments_of(real)
    raw = [(vs, ws) for vs in v_segs for ws in w_segs if vs.tri == ws.tri and interleaved(vs, ws)]
    ranks = []
    for mine in (0, 1):
        groups = {}
        for pair in raw:
            seg, other = pair[mine], pair[1 - mine]
            groups.setdefault(seg.index, []).append((_position_from(seg, other), pair[0].index, pair[1].index))
        rank = {}
        for group in groups.values():
            for r, (_, i, j) in enumerate(sorted(group)):
                rank[i, j] = r
        ranks.append(rank)
    out = [(vs.index, ws.index, vs.tri, ranks[0][vs.index, ws.index], ranks[1][vs.index, ws.index]) for vs, ws in raw]
    return sorted(out, key=lambda x: (x[0], x[3]))


def canonical_form(t) -> tuple:
    """Encoding of a valid table up to orientation-preserving relabelling
    fixing P1.

    Breadth-first from every corner at P1; triangles and edges are
    renumbered in discovery order, edge signs normalized to the first
    traversal direction, and the least encoding over all starts is returned.
    """

    def encode_from(start):
        edge_map = {}  # old signed -> new signed
        queue = [(start.tri, start.pos)]
        seen = {start.tri}
        out = []
        while queue:
            ti, rot = queue.pop(0)
            row = []
            for k in range(3):
                s = t.triangles[ti][(rot + k) % 3]
                if s not in edge_map:
                    new = len(edge_map) // 2 + 1
                    edge_map[s] = new
                    edge_map[-s] = -new
                row.append(edge_map[s])
            out.append(tuple(row))
            for k in range(3):
                opp = t.side_corner(-t.triangles[ti][(rot + k) % 3])
                if opp.tri not in seen:
                    seen.add(opp.tri)
                    queue.append((opp.tri, opp.pos))
        return tuple(out)

    return min(encode_from(start) for start in t.corners_at(P1))


def is_isomorphic(t1, t2) -> bool:
    return t1.genus == t2.genus and canonical_form(t1) == canonical_form(t2)


def seeded_pairs(base, tag, count, max_steps=18, require_crossing=False):
    """Deterministic arc pairs; seeds derive from the tag so suites don't collide."""
    rng = random.Random(tag)
    out = []
    attempt = 0
    while len(out) < count:
        seed = rng.randrange(1 << 30)
        steps = 4 + (attempt % 5) * (max_steps - 4) // 4
        v = random_arc(base, seed, steps)
        w = random_arc(base, seed + 1, steps)
        attempt += 1
        if require_crossing and intersection(v, w) == 0:
            continue
        out.append((v, w))
    return out


def seeded_arcs(base, tag, count, max_steps=14):
    rng = random.Random(tag)
    return [
        random_arc(base, rng.randrange(1 << 30), 3 + i % max_steps)
        for i in range(count)
    ]


def seeded_arcs_of_length(base, tag, count, lo, hi):
    """Distinct deterministic arcs with word length in ``lo..hi``.

    Draws flip walks until enough words land in the range: word length, not
    step count, is what the realization's cost depends on.
    """
    rng = random.Random(tag)
    out = []
    while len(out) < count:
        a = random_arc(base, rng.randrange(1 << 30), rng.randint(30, 50))
        if lo <= len(a) <= hi and a not in out:
            out.append(a)
    return out


@functools.cache
def inlined_schema(tag):
    """The shipped schema whose ``$id`` is ``tag``, every ``$ref`` replaced
    by the schema it names, for an off-the-shelf JSON Schema validator.

    Schema ids are plain format tags, not URIs, so cross-schema references
    are substituted directly (the reference graph is acyclic).
    """
    folder = resources.files("arcdist.data").joinpath("schemas")
    store = {s["$id"]: s for s in (json.loads(f.read_text()) for f in folder.iterdir() if f.name.endswith(".json"))}

    def inline(node):
        if isinstance(node, dict):
            ref = node.get("$ref")
            if ref in store:
                return inline({k: v for k, v in store[ref].items() if k not in ("$schema", "$id")})
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(x) for x in node]
        return node

    return inline(store[tag])
