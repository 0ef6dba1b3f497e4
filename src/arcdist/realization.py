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
into its corners (where each crossing leaves and enters a triangle) and
its forward turn string, and that read checks the chain of triangles.
Reversed and mirrored, the forward string gives the backward one; both
end in a terminator, and every strand's ray on each side of its edge is
a suffix of one of them.  Two strands are ordered by comparing those
suffixes: the first differing turn is where they part ways.  When the two
sides of the edge disagree, the strands cross once in their shared
stretch, and the side with the shorter common prefix (the nearer
divergence) decides.  That order gives each strand its slot on both sides
of its edge.  In-triangle chords then cross exactly when their boundary
endpoints interleave, and the total count is the geometric intersection
number of the two isotopy classes: one interval test per pair of segments
in a triangle.  Sorting the chord ends found inside each segment ranks
its crossings and lists its partners, which the overlay, surgery and
figures read as they are.

Correctness of this bookkeeping is deliberately not trusted on its own:
``intersection_via_flips`` recomputes the same number by straightening one
arc to a triangulation edge and counting the other word's crossings with
it, and the two are compared pair-by-pair in the test suite.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import NamedTuple

from .errors import BaseMismatch, InconsistentWord, VerificationError
from .surface import Corner, edge_of
from .arc import ArcWord, straighten_to_edge, transport


# ----------------------------------------------------------------------
# strand ordering


_END = 1  # turn code of a ray that ends at the far corner of its triangle
_MIRROR = bytes.maketrans(b"\x00\x02", b"\x02\x00")  # a turn walked backward


def _read_word(word: ArcWord) -> tuple[list[Corner], list[Corner], bytes]:
    """Per crossing c, the corner of side c (the triangle the arc leaves)
    and of side -c (the triangle it enters); and the forward turn string,
    the code of each turn, then ``_END``.  The chain of triangles from the
    start corner to the end corner is checked here, once.

    After entering a triangle through side k, the arc leaves through side
    k+2, hugging the tail of side k (code 0), or side k+1, hugging its head
    (code 2).  The ray's end at the far corner sorts between them (code 1).
    """
    side_corner = word.base.side_corner
    leaving = [side_corner(c) for c in word.crossings]
    entering = [side_corner(-c) for c in word.crossings]
    codes = bytearray()
    for entered, exited in zip(entering, leaving[1:]):
        if exited.tri != entered.tri:
            raise InconsistentWord("ray left its triangle")
        rel = (exited.pos - entered.pos) % 3
        if rel == 0:
            raise InconsistentWord("ray backtracked; word was not reduced")
        codes.append(0 if rel == 2 else 2)
    codes.append(_END)
    first = leaving[0].tri if leaving else word.end.tri
    last = entering[-1].tri if entering else word.start.tri
    if first != word.start.tri or last != word.end.tri:
        raise InconsistentWord("segment chain broke")
    return leaving, entering, bytes(codes)


def _lcp(a: bytes, b: bytes) -> int:
    """Common prefix length of two different turn strings: the edges the
    two rays cross side by side before they part."""
    n = 0
    while a[n] == b[n]:
        n += 1
    return n


class _Strand(NamedTuple):
    owner: int
    index: int
    value: int  # signed crossing label


def _order_edges(arcs, reads) -> dict[int, list[_Strand]]:
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
    for owner, (word, (_, _, fwd)) in enumerate(zip(arcs, reads)):
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


def _strand_slots(edge_order, arcs):
    """Per word, two lists: each crossing's slot on the side it leaves by
    and on the side it enters by.

    Slots count from the tail of their side, so the two sides of one edge
    number the same strands in opposite directions.
    """
    slots = tuple(([0] * len(word), [0] * len(word)) for word in arcs)
    for strands in edge_order.values():
        last = len(strands) - 1
        for r, (owner, index, value) in enumerate(strands):
            leave, enter = slots[owner]
            plus, minus = (leave, enter) if value > 0 else (enter, leave)
            plus[index], minus[index] = r, last - r
    return slots


# ----------------------------------------------------------------------
# segments and interleave counting


class _Segment(NamedTuple):
    owner: int
    index: int  # anchors index..index+1 of the owning word
    tri: int
    a: tuple  # boundary coordinate (pos, rank); rank -1 marks the corner itself
    b: tuple


def _segments_of(word: ArcWord, owner: int, read, slots) -> list[_Segment]:
    """Segment j runs from the corner crossing j-1 enters by (or the start)
    to the corner crossing j leaves by (or the end); ``read`` checked that
    both lie in one triangle."""
    leaving, entering, _ = read
    leave, enter = slots
    ends = zip([word.start, *entering], [-1, *enter], [*leaving, word.end], [*leave, -1])
    return [_Segment(owner, j, a.tri, (a.pos, ra), (b.pos, rb)) for j, (a, ra, b, rb) in enumerate(ends)]


def _by_triangle(segs) -> dict[int, list]:
    """Per triangle, each segment with its ends in boundary order ``(lo, hi)``."""
    out: dict[int, list] = {}
    for s in segs:
        a, b = s.a, s.b
        out.setdefault(s.tri, []).append((s, a, b) if a < b else (s, b, a))
    return out


class _Crossing(NamedTuple):
    v_seg: int
    w_seg: int
    tri: int
    v_rank: int  # order along the v segment, from its end a
    w_rank: int  # order along the w segment, from its end a


class Realization:
    """Both arcs pinned in minimal position; built once per pair and shared
    by the count, the overlay and the surgery step at that pair.

    Boundary coordinates are ordered linearly from corner 0 of a triangle,
    so two chords there cross exactly when their ends interleave: one
    interval test per v/w segment pair.  A crossing's place along each
    chord is the other chord's end that lies inside it, so the crossings of
    a segment are ranked by sorting those recorded ends from its end a.

    ``slots[o]`` holds word o's slot of each crossing on the side it leaves
    by and on the side it enters by; ``partners[o][j]`` the other arc's
    segments that segment j of arc o crosses, in order from its end a.
    """

    def __init__(self, v: ArcWord, w: ArcWord):
        if v.base != w.base:
            raise BaseMismatch("arcs live over different triangulations")
        self.base = v.base
        self.v, self.w = v, w
        self.arcs = (v, w)
        reads = tuple(map(_read_word, self.arcs))
        self.edge_order = _order_edges(self.arcs, reads)
        self.slots = _strand_slots(self.edge_order, self.arcs)
        self.segments = tuple(map(_segments_of, self.arcs, (0, 1), reads, self.slots))
        self.crossings, self.partners = self._find_crossings()

    def _find_crossings(self):
        """Every crossing once, sorted along v, with its ranks along both
        segments, and each segment's partners.  A w chord that crosses a v
        chord must also separate the v chord's ends; checked on every hit."""
        by_tri = _by_triangle(self.segments[1])
        found = []  # (v segment, w segment, triangle, rank along v), sorted along v
        on_w: dict[int, list] = {}  # w segment -> (v end inside it, crossing number)
        across_v = []
        for vs in self.segments[0]:
            a, b = vs.a, vs.b
            lo, hi = (a, b) if a < b else (b, a)
            hits = []
            for ws, wlo, whi in by_tri.get(vs.tri, ()):
                if lo < wlo < hi < whi:
                    inside = wlo
                elif wlo < lo < whi < hi:
                    inside = whi
                else:
                    continue
                a_in = wlo < a < whi
                if a_in == (wlo < b < whi):
                    raise VerificationError("crossing chord does not separate the segment ends")
                hits.append((inside, ws.index, a if a_in else b))
            hits.sort(reverse=a > b)
            across_v.append([w_seg for _, w_seg, _ in hits])
            for r, (_, w_seg, v_end) in enumerate(hits):
                on_w.setdefault(w_seg, []).append((v_end, len(found)))
                found.append((vs.index, w_seg, vs.tri, r))
        w_rank = [0] * len(found)
        w_segs = self.segments[1]
        across_w = [[] for _ in w_segs]
        for w_seg, ends in on_w.items():
            ends.sort(reverse=w_segs[w_seg].a > w_segs[w_seg].b)
            across = across_w[w_seg]
            for r, (_, k) in enumerate(ends):
                w_rank[k] = r
                across.append(found[k][0])
        crossings = tuple(_Crossing(*x, w_rank[k]) for k, x in enumerate(found))
        return crossings, (across_v, across_w)

    def count(self) -> int:
        """i(v, w); 0 for equal words, whose copies are nested side by side."""
        return len(self.crossings)


# ----------------------------------------------------------------------
# public intersection operations


def intersection(v: ArcWord, w: ArcWord) -> int:
    """Minimal number of interior transverse crossings of the two classes."""
    if v == w:
        return 0
    return Realization(v, w).count()


def self_intersection(word: ArcWord) -> int:
    """Minimal self-crossings of a reduced word; 0 exactly when embedded."""
    read = _read_word(word)
    [slots] = _strand_slots(_order_edges((word,), (read,)), (word,))
    total = 0
    for group in _by_triangle(_segments_of(word, 0, read, slots)).values():
        for i, (_, lo, hi) in enumerate(group):
            for _, wlo, whi in group[i + 1 :]:
                if lo < wlo < hi < whi or wlo < lo < whi < hi:
                    total += 1
    return total


def intersection_via_flips(v: ArcWord, w: ArcWord) -> int:
    """Independent oracle: straighten ``v`` to an edge, count ``w`` across it.

    Transports both words along the same flip sequence; the taut image of
    ``w`` crosses the straightened edge once per essential intersection.
    """
    if v.base != w.base:
        raise BaseMismatch("arcs live over different triangulations")
    flips, e = straighten_to_edge(v)
    moved = w
    for f in flips:
        moved = transport(moved, f)
    return sum(1 for c in moved.crossings if edge_of(c) == e)
