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
entry side, or nearer its head) and finally ends at the far corner, so its
ray on each side of its edge is a suffix of the word's forward or backward
turn string.  Two strands are ordered by comparing those suffixes: the
first differing turn is where they part ways.  When the two sides of the
edge disagree, the strands cross once in their shared stretch, and the
side with the shorter common prefix (the nearer divergence) decides.
Each word is prepared once, and the result kept on the word: its corners,
its turn strings (the read checks the chain of triangles) and, per edge,
its own strands in order.  A pair then merges the two words' runs on each
edge, and that order gives each strand its slot on both sides of its edge.
In-triangle chords cross exactly when their boundary endpoints interleave,
and the total count is the geometric intersection number of the two
isotopy classes.  Each segment's crossings are kept once, as its partners
(the other arc's segments it crosses, sorted from its end a by the chord
ends found inside it).  A realization builds each of these facts once, in
one encoding, which the overlay, surgery and figures read.

Correctness of this bookkeeping is deliberately not trusted on its own:
``intersection_via_flips`` recomputes the same number by straightening one
arc to a triangulation edge and counting the other word's crossings with
it, and the two are compared pair-by-pair in the test suite.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cmp_to_key

from .errors import BaseMismatch, InconsistentWord, VerificationError
from .surface import Corner, edge_of
from .arc import ArcWord, _carry, straighten_to_edge


# ----------------------------------------------------------------------
# strand ordering


_END = 1  # turn code of a ray that ends at the far corner of its triangle
_MIRROR = bytes.maketrans(b"\x00\x02", b"\x02\x00")  # a turn walked backward


def _read_word(word: ArcWord) -> tuple[list[Corner], list[Corner], bytes]:
    """Per segment j, the corner of its end a (the start, or the side -c by
    which crossing c = j-1 enters a triangle) and of its end b (the side c
    by which crossing c = j leaves one, or the end); and the forward turn
    string, the code of each turn, then ``_END``.  The chain of triangles
    from the start corner to the end corner is checked here, once.

    After entering a triangle through side k, the arc leaves through side
    k+2, hugging the tail of side k (code 0), or side k+1, hugging its head
    (code 2).  The ray's end at the far corner sorts between them (code 1).
    """
    side_of, n = word.base._side_of, len(word.crossings)  # the constructor checked every label
    a_ends = [word.start, *(side_of[-c] for c in word.crossings)]
    b_ends = [*(side_of[c] for c in word.crossings), word.end]
    codes = bytearray()
    for entered, exited in zip(a_ends[1:n], b_ends[1:n]):
        if exited.tri != entered.tri:
            raise InconsistentWord("ray left its triangle")
        rel = (exited.pos - entered.pos) % 3
        if rel == 0:
            raise InconsistentWord("ray backtracked; word was not reduced")
        codes.append(0 if rel == 2 else 2)
    codes.append(_END)
    if a_ends[0].tri != b_ends[0].tri or a_ends[n].tri != b_ends[n].tri:
        raise InconsistentWord("segment chain broke")
    return a_ends, b_ends, bytes(codes)


def _prepare(word: ArcWord) -> tuple:
    """One word's own share of every realization, built once per word
    object and kept on it: per segment its triangle and the positions of its
    ends a and b; the forward turn string and the backward one (reversed,
    each turn mirrored, then ``_END``); and per edge the word's crossings
    there, in strand order.  No ray is kept, so it is linear in the word."""
    prep = getattr(word, "_prep", None)  # unset on a word built without the constructor
    if prep is None:
        a_ends, b_ends, fwd = _read_word(word)
        bwd = fwd[-2::-1].translate(_MIRROR) + fwd[-1:]
        runs: dict[int, list[int]] = {}
        for i, c in enumerate(word.crossings):
            runs.setdefault(edge_of(c), []).append(i)
        prep = [c.tri for c in a_ends], [c.pos for c in a_ends], [c.pos for c in b_ends], fwd, bwd, runs
        rays = _rays(word, fwd, bwd)
        for run in runs.values():
            run.sort(key=cmp_to_key(lambda i, j: _compare(*rays(i), *rays(j)) or _parallel(word, word, i, j)))
        object.__setattr__(word, "_prep", prep)
    return prep


def _rays(word: ArcWord, fwd: bytes, bwd: bytes):
    """Crossing index -> its rays on the + and - sides of its edge.  Each
    walks the rest of the word, forward or backward, so it is a suffix of
    one turn string, sliced only when asked for."""
    crossings, last = word.crossings, len(word.crossings) - 1

    def rays(i):
        # crossing +f leaves the triangle of side +f, so its +side ray walks backward
        return (fwd[i:], bwd[last - i :]) if crossings[i] < 0 else (bwd[last - i :], fwd[i:])

    return rays


def _lcp(a: bytes, b: bytes) -> int:
    """Common prefix length of two different turn strings: the edges the
    two rays cross side by side before they part."""
    n = 0
    while a[n] == b[n]:
        n += 1
    return n


def _compare(p_plus: bytes, p_minus: bytes, q_plus: bytes, q_minus: bytes) -> int:
    """Order of two strands along their edge, positive-side tail to head,
    from their rays on both sides; 0 when they run fully parallel.  When
    the two sides disagree, the strands cross once inside the shared
    stretch: each edge of it takes its order from the nearer divergence
    (the shorter common prefix), which flips the order once, at the middle."""
    d_plus = (p_plus > q_plus) - (p_plus < q_plus)
    # measured along the negative side, so negated where it is used
    d_minus = (p_minus > q_minus) - (p_minus < q_minus)
    if d_plus == 0:
        return -d_minus
    if d_minus == 0 or d_plus == -d_minus:
        return d_plus
    return d_plus if _lcp(p_plus, q_plus) <= _lcp(p_minus, q_minus) else -d_minus


def _parallel(v: ArcWord, w: ArcWord, p: int, q: int) -> int:
    """Order of v's strand p and w's strand q, which run fully parallel: only
    the same crossing of equal words may; w's copy goes to one side of v's."""
    if p != q or v.crossings[p] != w.crossings[q]:
        raise VerificationError("distinct strands compared as fully parallel")
    return -1 if v.crossings[p] > 0 else 1


def _order_edges(arcs, preps) -> dict[int, list[int]]:
    """Both arcs' strands along each edge (+side tail->head), v's crossing i
    listed as i and w's crossing j as len(v) + j: one merge of the two
    sorted runs, at most n + m - 1 comparisons of a v with a w strand."""
    v, w = arcs
    (*_, fwd_v, bwd_v, runs_v), (*_, fwd_w, bwd_w, runs_w) = preps
    ray_v, ray_w, n = _rays(v, fwd_v, bwd_v), _rays(w, fwd_w, bwd_w), len(v)
    order = {}
    for e in {**runs_v, **runs_w}:
        a, b = runs_v.get(e, ()), runs_w.get(e, ())
        merged = order[e] = []
        i = j = 0
        rp = rq = None  # the two heads' rays, sliced once per head
        while i < len(a) and j < len(b):
            p, q = a[i], b[j]
            rp, rq = rp or ray_v(p), rq or ray_w(q)
            if (_compare(*rp, *rq) or _parallel(v, w, p, q)) < 0:
                merged.append(p)
                i, rp = i + 1, None
            else:
                merged.append(n + q)
                j, rq = j + 1, None
        merged += a[i:]
        merged += [n + q for q in b[j:]]
    return order


def _slots(order, values) -> tuple[list[int], list[int]]:
    """Each crossing's slot on the side it leaves by and on the side it
    enters by, from each edge's strands in order (indices into ``values``);
    counted from the tail of each side, so the two sides run opposite."""
    leave, enter = [0] * len(values), [0] * len(values)
    for strands in order:
        last = len(strands) - 1
        for r, x in enumerate(strands):
            plus, minus = (leave, enter) if values[x] > 0 else (enter, leave)
            plus[x], minus[x] = r, last - r
    return leave, enter


# ----------------------------------------------------------------------
# segments and interleave counting


def _ends(prep: tuple, slots, S: int) -> list[tuple[int, int, int]]:
    """Per segment, its triangle and the codes ``pos * S + rank + 1`` of its
    ends a and b; with every rank below ``S - 1`` they order as the
    ``(pos, rank)`` coordinates do."""
    (tris, a_pos, b_pos, *_), (leave, enter) = prep, slots
    a = [p * S + r + 1 for p, r in zip(a_pos, [-1, *enter])]
    b = [p * S + r + 1 for p, r in zip(b_pos, [*leave, -1])]
    return list(zip(tris, a, b))


def _cross(v_ends, w_ends) -> tuple[list[list[int]], list[list[int]]]:
    """Each segment's crossing partners: per v segment, the w segments it
    crosses, and per w segment, the v segments it crosses, each in order
    from the segment's end a.

    In a triangle, a w chord crosses a v chord when one of its ends lies
    strictly inside the v chord's span, found by bisecting the sorted w
    ends, and the other strictly outside.  It must then also separate the v
    chord's ends, which is checked on every hit.  A crossing's place along
    either chord is the other chord's end inside it, so a w segment's
    partners are sorted by the v ends found inside it.
    """
    chords: dict[int, list] = {}  # triangle -> both ends of each w chord as (code, other end, segment)
    for k, (t, a, b) in enumerate(w_ends):
        chords.setdefault(t, []).extend(((a, b, k), (b, a, k)))
    codes = {}
    for t, points in chords.items():
        points.sort()
        codes[t] = [x for x, _, _ in points]
    across_v, across_w = [], [[] for _ in w_ends]  # across_w first holds (v end inside, v segment)
    for j, (t, a, b) in enumerate(v_ends):
        lo, hi = (a, b) if a < b else (b, a)
        at, points = codes.get(t, ()), chords.get(t, ())
        hits = []  # w segments in boundary order
        for inside, other, k in points[bisect_right(at, lo) : bisect_left(at, hi)]:
            if lo <= other <= hi:
                continue
            wlo, whi = (inside, other) if inside < other else (other, inside)
            a_in = wlo < a < whi
            if a_in == (wlo < b < whi):
                raise VerificationError("crossing chord does not separate the segment ends")
            hits.append(k)
            across_w[k].append((a if a_in else b, j))
        if a > b:
            hits.reverse()
        across_v.append(hits)
    for k, (_, a, b) in enumerate(w_ends):
        if across_w[k]:
            across_w[k] = [j for _, j in sorted(across_w[k], reverse=a > b)]
    return across_v, across_w


class Realization:
    """Both arcs pinned in minimal position; built once per pair and shared
    by the count, the overlay and the surgery step at that pair.

    Boundary coordinates are ordered linearly from corner 0 of a triangle,
    so two chords there cross exactly when their ends interleave.

    ``edge_order`` is :func:`_order_edges`'s.  ``ends[o][j]`` is segment j
    of word o, from the corner crossing j-1 enters by (or the start) to the
    one crossing j leaves by (or the end), as ``(tri, a, b)`` with end codes
    ``pos * S + rank + 1``; a code that is 0 mod ``S`` is the corner itself.
    ``partners[o][j]`` holds the other arc's segments that segment j of arc
    o crosses, in order from its end a; they are the only crossing data
    kept, with their number for :meth:`count`.
    """

    def __init__(self, v: ArcWord, w: ArcWord):
        if v.base != w.base:
            raise BaseMismatch("arcs live over different triangulations")
        self.base = v.base
        self.v, self.w = v, w
        preps = _prepare(v), _prepare(w)
        self.edge_order = _order_edges((v, w), preps)
        leave, enter = _slots(self.edge_order.values(), v.crossings + w.crossings)
        n = len(v)
        self.S = S = n + len(w) + 1
        slots = (leave[:n], enter[:n]), (leave[n:], enter[n:])
        self.ends = tuple(map(_ends, preps, slots, (S, S)))
        self.partners = _cross(*self.ends)
        self._count = sum(map(len, self.partners[0]))

    def count(self) -> int:
        """i(v, w); 0 for equal words, whose copies are nested side by side."""
        return self._count


# ----------------------------------------------------------------------
# public intersection operations


def intersection(v: ArcWord, w: ArcWord) -> int:
    """Minimal number of interior transverse crossings of the two classes."""
    return Realization(v, w).count()


def self_intersection(word: ArcWord) -> int:
    """Minimal self-crossings of a reduced word; 0 exactly when embedded."""
    prep = _prepare(word)
    ends = _ends(prep, _slots(prep[-1].values(), word.crossings), len(word) + 1)
    return sum(map(len, _cross(ends, ends)[0])) // 2  # each crossing is met from both of its chords


def intersection_via_flips(v: ArcWord, w: ArcWord) -> int:
    """Independent oracle: straighten ``v`` to an edge, count ``w`` across it.

    ``_carry`` takes ``w`` over the tables that straighten ``v``, reusing
    the straightening's flips; its taut image crosses the straightened
    edge once per essential intersection.
    """
    if v.base != w.base:
        raise BaseMismatch("arcs live over different triangulations")
    rewrites = []
    _, e = straighten_to_edge(v, rewrites)
    moved = _carry(w.base, w.start, w.crossings, w.end, rewrites)
    return sum(1 for c in moved.crossings if edge_of(c) == e)
