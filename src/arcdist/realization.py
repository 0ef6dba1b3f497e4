"""Minimal-position realization of arcs and pairwise intersection counting.

This module is the realization layer: turn strings, strand order along
each edge, in-triangle segments, ``Realization``, and the two intersection
oracles (``intersection`` and ``intersection_via_flips``) plus
``self_intersection``.  The overlay cell complex built on top of a
realization lives in :mod:`arcdist.overlay`, which re-exports the public
names defined here.

Two reduced words are realized simultaneously by fixing, along every
triangulation edge, the linear order of the points where they cross it.
Followed from a crossing into the triangle on either side of its edge, a
strand makes a sequence of turns (leave by the side nearer the tail of the
entry side, or nearer its head) and finally ends at the far corner.  The
turn at a crossing depends only on the word, so each word is read once
into a forward and a backward turn string, both ending in a terminator,
and every strand's ray on each side of its edge is a suffix of one of
them.  Two strands are ordered by comparing those suffixes: the first
differing turn is where they part ways.  When the two sides of the edge
disagree, the strands cross once in their shared stretch, and the side
with the shorter common prefix (the nearer divergence) decides.  Once
every edge is ordered, in-triangle chords cross exactly when their
boundary endpoints interleave, and the total count is the geometric
intersection number of the two isotopy classes.

Correctness of this bookkeeping is deliberately not trusted on its own:
``intersection_via_flips`` recomputes the same number by straightening one
arc to a triangulation edge and counting the other word's crossings with
it, and the two are compared pair-by-pair in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import BaseMismatch, InconsistentWord, VerificationError
from .surface import Corner, edge_of
from .arc import ArcWord


# ----------------------------------------------------------------------
# strand ordering


_END = 1  # turn code of a ray that ends at the far corner of its triangle
_MIRROR = bytes.maketrans(b"\x00\x02", b"\x02\x00")  # a turn walked backward


def _word_corners(base, word: ArcWord) -> list[tuple[Corner, Corner]]:
    """Per crossing c: the corner of side c (the triangle the arc leaves)
    and of side -c (the triangle it enters)."""
    return [(base.side_corner(c), base.side_corner(-c)) for c in word.crossings]


def _turns(corners) -> bytes:
    """Forward turn string of a word: the code of each turn, then ``_END``.

    After entering a triangle through side k, the arc leaves through side
    k+2, hugging the tail of side k (code 0), or side k+1, hugging its head
    (code 2).  The ray's end at the far corner sorts between them (code 1).
    """
    codes = bytearray()
    for (_, entered), (leaving, _) in zip(corners, corners[1:]):
        if leaving.tri != entered.tri:
            raise InconsistentWord("ray left its triangle")
        rel = (leaving.pos - entered.pos) % 3
        if rel == 0:
            raise InconsistentWord("ray backtracked; word was not reduced")
        codes.append(0 if rel == 2 else 2)
    codes.append(_END)
    return bytes(codes)


def _lcp(a: bytes, b: bytes) -> int:
    """Common prefix length of two different turn strings: the edges the
    two rays cross side by side before they part."""
    n = 0
    while a[n] == b[n]:
        n += 1
    return n


@dataclass(frozen=True)
class _Strand:
    owner: int
    index: int
    value: int  # signed crossing label


def _order_edges(arcs, corners) -> dict[int, list[_Strand]]:
    """Linear order of both arcs' strands along each edge (+side tail->head).

    The ray of a strand on either side of its edge walks the rest of the
    word, forward or backward, so its turn codes are a suffix of the word's
    forward turn string or of its backward one (the forward codes reversed
    with left and right swapped).  Two rays into the same triangle compare
    as those suffixes compare: the first differing code is where they part
    ways, and equal suffixes run parallel until both end at the far corner.
    The common prefix length counts the edges the rays cross side by side;
    it is computed only when the two sides of the edge disagree, where the
    side that parts sooner decides.
    """
    per_edge: dict[int, list] = {}
    for owner, word in enumerate(arcs):
        if word is None:
            continue
        fwd = _turns(corners[owner])
        bwd = fwd[-2::-1].translate(_MIRROR) + fwd[-1:]
        n = len(word.crossings)
        for i, c in enumerate(word.crossings):
            ahead, behind = fwd[i:], bwd[n - 1 - i :]
            # crossing +f leaves the triangle of side +f, so its +side ray walks backward
            plus, minus = (ahead, behind) if c < 0 else (behind, ahead)
            per_edge.setdefault(edge_of(c), []).append((plus, minus, _Strand(owner, i, c)))

    def cmp(a, b) -> int:
        """Order of two strands along their edge, positive-side tail to head.

        When the divergences on the two sides disagree, the strands must
        cross once inside the shared stretch: each edge of the stretch then
        takes its order from the nearer divergence (the shorter common
        prefix), which flips the order exactly once, at the middle.
        """
        p_plus, p_minus, p = a
        q_plus, q_minus, q = b
        d_plus = (p_plus > q_plus) - (p_plus < q_plus)
        # measured along the negative side, so negated where it is used
        d_minus = (p_minus > q_minus) - (p_minus < q_minus)
        if d_plus == 0 and d_minus == 0:
            # fully parallel: only identical words, aligned index and
            # direction; push owner 1 consistently to one side of owner 0
            if p.owner == q.owner or p.index != q.index or p.value != q.value:
                raise VerificationError("distinct strands compared as fully parallel")
            side = 1 if p.value > 0 else -1
            return side * (p.owner - q.owner)
        if d_plus == 0:
            return -d_minus
        if d_minus == 0:
            return d_plus
        if d_plus == -d_minus:
            return d_plus
        return d_plus if _lcp(p_plus, q_plus) <= _lcp(p_minus, q_minus) else -d_minus

    return {
        e: [st for _, _, st in sorted(group, key=cmp_to_key(cmp))] for e, group in per_edge.items()
    }


def _rank_lookup(edge_order):
    """rank_of(owner, index, value): a strand's slot along the side ``value``.

    Slots count from the tail of that side, so the two sides of one edge
    number the same strands in opposite directions.
    """
    ranks = {}
    for strands in edge_order.values():
        m = len(strands)
        for r, st in enumerate(strands):
            ranks[(st.owner, st.index)] = (r, m)

    def rank_of(owner, index, value):
        r, m = ranks[(owner, index)]
        return r if value > 0 else m - 1 - r

    return rank_of


# ----------------------------------------------------------------------
# segments and interleave counting


@dataclass(frozen=True)
class _Segment:
    owner: int
    index: int  # anchors index..index+1 of the owning word
    tri: int
    a: tuple  # boundary coordinate (pos, rank); rank -1 marks the corner itself
    b: tuple


def _segments_of(word: ArcWord, owner: int, corners, rank_of) -> list[_Segment]:
    n = len(word.crossings)
    segs = []
    for j in range(n + 1):
        if j == 0:
            tri = word.start.tri
            a = (word.start.pos, -1)
        else:
            entered = corners[j - 1][1]
            tri = entered.tri
            a = (entered.pos, rank_of(owner, j - 1, -word.crossings[j - 1]))
        if j == n:
            if word.end.tri != tri:
                raise InconsistentWord("segment chain broke")
            b = (word.end.pos, -1)
        else:
            leaving = corners[j][0]
            if leaving.tri != tri:
                raise InconsistentWord("segment chain broke")
            b = (leaving.pos, rank_of(owner, j, word.crossings[j]))
        segs.append(_Segment(owner, j, tri, a, b))
    return segs


def _interleaved(s1: _Segment, s2: _Segment) -> bool:
    pts = {s1.a, s1.b, s2.a, s2.b}
    if len(pts) < 4:  # shared boundary point: meeting, not a crossing
        return False
    # boundary coordinates are ordered linearly from corner 0, so the chords
    # cross iff exactly one end of s2 lies strictly between the ends of s1
    lo, hi = min(s1.a, s1.b), max(s1.a, s1.b)
    return (lo < s2.a < hi) != (lo < s2.b < hi)


@dataclass(frozen=True)
class _Crossing:
    v_seg: int
    w_seg: int
    tri: int
    v_rank: int = 0  # order along the v segment, filled in by the realization
    w_rank: int = 0


class Realization:
    """Both arcs pinned in minimal position; built once per pair and shared
    by the count, the overlay and the surgery step at that pair."""

    def __init__(self, v: ArcWord, w: ArcWord):
        if v.base != w.base:
            raise BaseMismatch("arcs live over different triangulations")
        self.base = v.base
        self.v, self.w = v, w
        self.arcs = (v, w)
        corners = tuple(_word_corners(self.base, word) for word in self.arcs)
        self.edge_order = _order_edges(self.arcs, corners)
        self._rank_of = _rank_lookup(self.edge_order)
        self.segments = tuple(
            _segments_of(word, o, corners[o], self._rank_of) for o, word in enumerate(self.arcs)
        )
        self.crossings = self._find_crossings()

    def _find_crossings(self):
        by_tri: dict[int, list[_Segment]] = {}
        for seg in self.segments[1]:
            by_tri.setdefault(seg.tri, []).append(seg)
        raw = []
        for vseg in self.segments[0]:
            for wseg in by_tri.get(vseg.tri, ()):
                if _interleaved(vseg, wseg):
                    raw.append((vseg, wseg))
        # order the crossings along each participating segment
        along_v = self._rank_along(raw, 0)
        along_w = self._rank_along(raw, 1)
        out = []
        for vseg, wseg in raw:
            out.append(
                _Crossing(
                    vseg.index,
                    wseg.index,
                    vseg.tri,
                    along_v[(vseg.index, wseg.index)],
                    along_w[(vseg.index, wseg.index)],
                )
            )
        return tuple(sorted(out, key=lambda x: (x.v_seg, x.v_rank)))

    def _rank_along(self, raw, which):
        ranks = {}
        groups: dict[int, list[tuple[_Segment, _Segment]]] = {}
        for vseg, wseg in raw:
            mine = (vseg, wseg)[which]
            groups.setdefault(mine.index, []).append((vseg, wseg))
        for _, pairs in groups.items():
            mine = (pairs[0][0], pairs[0][1])[which]
            order = []
            for vseg, wseg in pairs:
                other = (wseg, vseg)[which]
                order.append((self._position_from(mine, other), (vseg.index, wseg.index)))
            order.sort()
            for r, (_, key) in enumerate(order):
                ranks[key] = r
        return ranks

    @staticmethod
    def _position_from(seg: _Segment, other: _Segment) -> tuple:
        """Sort key for where ``other`` crosses ``seg``, measured from seg.a.

        The crossing chords of a segment are pairwise disjoint, so their
        order along it matches the boundary order of their endpoints on the
        side of seg.a.
        """
        lo, hi = min(seg.a, seg.b), max(seg.a, seg.b)
        inner = [p for p in (other.a, other.b) if lo < p < hi]
        if len(inner) != 1:
            raise VerificationError("crossing chord does not separate the segment ends")
        p = inner[0]
        return p if seg.a < seg.b else tuple(-x for x in p)

    def count(self) -> int:
        """i(v, w); 0 for equal words, whose copies are nested side by side."""
        return len(self.crossings)


# ----------------------------------------------------------------------
# public intersection operations


def intersection(v: ArcWord, w: ArcWord) -> int:
    """Minimal number of interior transverse crossings of the two classes."""
    if v.base != w.base:
        raise BaseMismatch("arcs live over different triangulations")
    if v == w:
        return 0
    return Realization(v, w).count()


def self_intersection(word: ArcWord) -> int:
    """Minimal self-crossings of a reduced word; 0 exactly when embedded."""
    corners = _word_corners(word.base, word)
    rank_of = _rank_lookup(_order_edges((word, None), (corners, None)))
    segs = _segments_of(word, 0, corners, rank_of)
    by_tri: dict[int, list[_Segment]] = {}
    for seg in segs:
        by_tri.setdefault(seg.tri, []).append(seg)
    total = 0
    for group in by_tri.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if _interleaved(group[i], group[j]):
                    total += 1
    return total


def intersection_via_flips(v: ArcWord, w: ArcWord) -> int:
    """Independent oracle: straighten ``v`` to an edge, count ``w`` across it.

    Transports both words along the same flip sequence; the taut image of
    ``w`` crosses the straightened edge once per essential intersection.
    """
    from .arc import straighten_to_edge, transport

    if v.base != w.base:
        raise BaseMismatch("arcs live over different triangulations")
    flips, e = straighten_to_edge(v)
    moved = w
    for f in flips:
        moved = transport(moved, f)
    return sum(1 for c in moved.crossings if edge_of(c) == e)
