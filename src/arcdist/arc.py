"""Arcs from P1 to P2 as canonical reduced crossing words.

A crossing word lists the signed labels of the triangulation sides an arc
crosses, in order.  Crossing value ``s`` means: leave the triangle holding
side ``s`` through that side, entering the triangle holding ``-s``.

Reduced (taut) words satisfy, and :func:`tighten` enforces:

* no immediate backtrack ``s, -s`` (an arc/edge bigon inside one triangle);
* the first crossing is the side opposite the start corner, and the last
  crossing enters through the side opposite the end corner (a violation is
  a corner bigon at the endpoint, removed by pivoting the endpoint across
  the offending edge);
* a word with no crossings runs parallel to a triangulation edge; the
  canonical representative is written in the triangle where the edge is
  directed from P1 to P2 (``end.pos == start.pos + 1``).

Every vertex passage is essential (both vertices are marked), so reduced
words are canonical: equal isotopy classes have equal words.  This is the
standard normal-position uniqueness for ideal triangulations; the test
suite checks it behaviourally (random rewriting orders, flip round trips).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BaseMismatch,
    InconsistentWord,
    PreconditionError,
    UnflippableEdge,
)
from .surface import P1, P2, Corner, Triangulation, edge_of


@dataclass(frozen=True)
class ArcWord:
    """A canonical reduced crossing word from P1 to P2 over ``base``.

    Instances are validated on construction; use :func:`tighten` to build
    one from a raw locally-consistent word.
    """

    base: Triangulation
    start: Corner
    crossings: tuple[int, ...]
    end: Corner

    def __post_init__(self):
        object.__setattr__(self, "start", Corner(*self.start))
        object.__setattr__(self, "end", Corner(*self.end))
        object.__setattr__(self, "crossings", tuple(int(c) for c in self.crossings))
        _check_word(self.base, self.start, self.crossings, self.end)
        if not _is_reduced(self.base, self.start, self.crossings, self.end):
            raise InconsistentWord("word is not reduced; use tighten() to canonicalize")
        if self.base.vertex_of(self.start) != P1:
            raise InconsistentWord(f"start corner {self.start} is not at P1")
        if self.base.vertex_of(self.end) != P2:
            raise InconsistentWord(f"end corner {self.end} is not at P2")

    def __len__(self):
        return len(self.crossings)

    def sort_key(self):
        return (len(self.crossings), self.start, self.crossings, self.end)

    def to_json_dict(self) -> dict:
        return {
            "format": "arcdist.arc/1",
            "base_id": self.base.triangulation_id(),
            "start_corner": list(self.start),
            "crossings": [{"edge": edge_of(c), "side": 1 if c > 0 else -1} for c in self.crossings],
            "end_corner": list(self.end),
        }

    @classmethod
    def from_json_dict(cls, d: dict, base: Triangulation) -> "ArcWord":
        if d.get("base_id") != base.triangulation_id():
            raise BaseMismatch(
                f"arc references base {d.get('base_id')!r} but was loaded against {base.triangulation_id()!r}"
            )
        crossings = [c["side"] * (c["edge"] + 1) for c in d["crossings"]]
        return cls(base, Corner(*d["start_corner"]), tuple(crossings), Corner(*d["end_corner"]))


# ----------------------------------------------------------------------
# raw-word checking and tightening


def _check_word(base: Triangulation, start: Corner, crossings, end: Corner):
    """Local consistency: consecutive crossings share a triangle."""
    base._require_valid()
    if not (0 <= start.tri < base.n_triangles and 0 <= start.pos < 3):
        raise InconsistentWord(f"start corner {start} out of range")
    if not (0 <= end.tri < base.n_triangles and 0 <= end.pos < 3):
        raise InconsistentWord(f"end corner {end} out of range")
    tri = start.tri
    for i, c in enumerate(crossings):
        if c == 0 or edge_of(c) >= base.n_edges:
            raise InconsistentWord(f"crossing {i}: bad label {c}")
        here = base.side_corner(c)
        if here.tri != tri:
            raise InconsistentWord(f"crossing {i}: side {c} is in triangle {here.tri}, arc is in {tri}")
        tri = base.side_corner(-c).tri
    if tri != end.tri:
        raise InconsistentWord(f"end corner {end} is in triangle {end.tri}, arc ends in {tri}")
    if not crossings and start.pos == end.pos:
        raise InconsistentWord("zero-crossing word with equal corners")


def _is_reduced(base: Triangulation, start: Corner, crossings, end: Corner) -> bool:
    for i in range(len(crossings) - 1):
        if crossings[i + 1] == -crossings[i]:
            return False
    if crossings:
        if crossings[0] != base.side(Corner(start.tri, (start.pos + 1) % 3)):
            return False
        if -crossings[-1] != base.side(Corner(end.tri, (end.pos + 1) % 3)):
            return False
    else:
        if end.pos != (start.pos + 1) % 3:
            return False
    return True


def tighten(base: Triangulation, start: Corner, crossings, end: Corner) -> ArcWord:
    """Canonical reduced word of the isotopy class of a raw crossing word.

    The input must be locally consistent; anything else raises
    ``InconsistentWord``.  Idempotent on already-reduced words.
    """
    start, end = Corner(*start), Corner(*end)
    word = list(crossings)
    _check_word(base, start, word, end)

    changed = True
    while changed:
        changed = False
        # backtracks: crossing an edge and coming straight back
        i = 0
        while i < len(word) - 1:
            if word[i + 1] == -word[i]:
                del word[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        # corner bigon at the start: first crossing uses a side touching P1
        while word:
            first = word[0]
            t, p = start
            if first == base.side(Corner(t, p)):
                opp = base.side_corner(-first)
                start = Corner(opp.tri, (opp.pos + 1) % 3)
            elif first == base.side(Corner(t, (p + 2) % 3)):
                opp = base.side_corner(-first)
                start = Corner(opp.tri, opp.pos)
            else:
                break
            del word[0]
            changed = True
        # corner bigon at the end: last crossing enters via a side touching P2
        while word:
            last = word[-1]
            entered = base.side_corner(-last)
            t, p = end
            if entered == Corner(t, p):  # P2 is the tail of the entered side
                back = base.side_corner(last)
                end = Corner(back.tri, (back.pos + 1) % 3)
            elif entered == Corner(t, (p + 2) % 3):  # P2 is its head
                back = base.side_corner(last)
                end = Corner(back.tri, back.pos)
            else:
                break
            del word[-1]
            changed = True

    if not word:
        if end.pos == (start.pos + 2) % 3:
            # parallel to side base[end.tri][end.pos], traversed P2->P1 there;
            # rewrite in the partner triangle where it runs P1->P2
            s = base.side(end)
            opp = base.side_corner(-s)
            start = Corner(opp.tri, opp.pos)
            end = Corner(opp.tri, (opp.pos + 1) % 3)
        if start.pos == end.pos:
            raise InconsistentWord("word tightened to a loop at one marked point")
    return ArcWord(base, start, tuple(word), end)


# ----------------------------------------------------------------------
# transport across a flip
#
# Quad of edge e before the flip, with old +e running q2->q0 (see
# surface.flip for the picture): t1 = (+e, A, B), t2 = (-e, C, D); after
# the flip the new +e runs q3->q1 and sits at position 0 of both
# t_a := (+e, B, C) and t_b := (-e, D, A).  Transport keeps every crossing
# of an edge other than e verbatim, drops old +-e crossings, and inserts
# new-diagonal crossings exactly where a run through the quad connects the
# two new triangles.  Corner anchors inside the quad are remapped:
#
#   old corner at q0 (merge):  (t1, pos(A))  or (t2, pos(-e))  -> (t_b, 2)
#   old corner at q2 (merge):  (t1, pos(+e)) or (t2, pos(C))   -> (t_a, 2)
#   old corner at q1 (split):  (t1, pos(B)) -> (t_a, 1) or (t_b, 0)
#   old corner at q3 (split):  (t2, pos(D)) -> (t_a, 0) or (t_b, 1)
#
# where the split choice follows the first/last crossing of the word (a
# reduced word leaves a diagonal endpoint across the diagonal).


def transport(arc: ArcWord, e: int) -> ArcWord:
    """The same isotopy class written over ``arc.base.flip(e)``."""
    base = arc.base
    new_base = base.flip(e)
    return _rewrite_across_flip(arc, base, new_base, e)


def transport_inverse(arc: ArcWord, previous: Triangulation, e: int) -> ArcWord:
    """Undo ``transport(-, e)``: rewrite ``arc`` over the pre-flip base.

    ``previous.flip(e)`` must equal ``arc.base``.  Implemented by a second
    forward flip followed by the pure double-flip relabelling back onto
    ``previous`` (see ``Triangulation.double_flip_side_map``).
    """
    if previous.flip(e) != arc.base:
        raise BaseMismatch("previous.flip(e) does not give the arc's base")
    twice = arc.base.flip(e)
    moved = _rewrite_across_flip(arc, arc.base, twice, e)
    smap = previous.double_flip_side_map(e)

    def corner(c: Corner) -> Corner:
        s = smap(twice.side(c))
        home = previous.side_corner(s)
        return Corner(home.tri, home.pos)

    word = [smap(c) for c in moved.crossings]
    return tighten(previous, corner(moved.start), word, corner(moved.end))


def _rewrite_across_flip(arc: ArcWord, base: Triangulation, new_base: Triangulation, e: int) -> ArcWord:
    s = e + 1
    c_pos, c_neg = base.side_corner(s), base.side_corner(-s)
    t1, t2 = c_pos.tri, c_neg.tri
    if t1 == t2:
        raise UnflippableEdge(f"edge {e}: both sides lie in triangle {t1}")
    side_a = base.side(Corner(t1, (c_pos.pos + 1) % 3))
    side_b = base.side(Corner(t1, (c_pos.pos + 2) % 3))
    side_c = base.side(Corner(t2, (c_neg.pos + 1) % 3))
    side_d = base.side(Corner(t2, (c_neg.pos + 2) % 3))
    ta, tb = t1, t2  # flip puts (+e, B, C) at t1's index and (-e, D, A) at t2's

    quad_tris = {t1, t2}
    in_quad = lambda tri: tri in quad_tris
    new_tri_of_side = {side_a: tb, side_b: ta, side_c: ta, side_d: tb}

    def diag_cross(state):
        return s if state == ta else -s

    word = list(arc.crossings)
    start, end = arc.start, arc.end
    out = []
    state = None  # new-quad triangle holding the arc point after the last event

    # -- start corner ---------------------------------------------------
    new_start = None
    if in_quad(start.tri):
        if not word:
            return _transport_zero_length(arc, base, new_base, e, t1, t2, c_pos, c_neg, ta, tb)
        q = _old_quad_corner(base, start, t1, t2, c_pos, c_neg)
        if q == "q0":
            new_start, state = Corner(tb, 2), tb
        elif q == "q2":
            new_start, state = Corner(ta, 2), ta
        elif q == "q1":
            if word[0] != s:
                raise InconsistentWord("reduced word must leave the diagonal endpoint across it")
            word.pop(0)
            if not word:
                # whole arc was the single diagonal crossing: parallel to new e
                return tighten(new_base, Corner(tb, 0), (), Corner(tb, 1))
            nxt = word[0]
            if nxt == side_c:
                new_start, state = Corner(ta, 1), ta
            elif nxt == side_d:
                new_start, state = Corner(tb, 0), tb
            else:
                raise InconsistentWord("inconsistent run out of the quad")
        else:  # q3
            if word[0] != -s:
                raise InconsistentWord("reduced word must leave the diagonal endpoint across it")
            word.pop(0)
            if not word:
                return tighten(new_base, Corner(ta, 0), (), Corner(ta, 1))
            nxt = word[0]
            if nxt == side_a:
                new_start, state = Corner(tb, 1), tb
            elif nxt == side_b:
                new_start, state = Corner(ta, 0), ta
            else:
                raise InconsistentWord("inconsistent run out of the quad")
    else:
        new_start = start

    # -- end corner preprocessing ----------------------------------------
    end_q = None
    if in_quad(end.tri):
        end_q = _old_quad_corner(base, end, t1, t2, c_pos, c_neg)
        if end_q == "q1":
            if not word or word[-1] != -s:
                raise InconsistentWord("reduced word must reach the diagonal endpoint across it")
            word.pop()
        elif end_q == "q3":
            if not word or word[-1] != s:
                raise InconsistentWord("reduced word must reach the diagonal endpoint across it")
            word.pop()

    # -- crossings -------------------------------------------------------
    for c in word:
        if edge_of(c) == e:
            continue  # internal quad move; resolved by entry/exit anchors
        if state is not None:
            target = new_tri_of_side.get(c)
            if target is None:
                raise InconsistentWord("exited the quad through a non-quad side")
            if target != state:
                out.append(diag_cross(state))
                state = target
        out.append(c)
        landing = base.side_corner(-c).tri
        state = new_tri_of_side.get(-c) if in_quad(landing) else None

    # -- end corner -------------------------------------------------------
    if end_q is None:
        new_end = end
    elif end_q == "q0":
        if state is None:
            raise InconsistentWord("word ends in the quad without entering it")
        if state != tb:
            out.append(diag_cross(state))
        new_end = Corner(tb, 2)
    elif end_q == "q2":
        if state is None:
            raise InconsistentWord("word ends in the quad without entering it")
        if state != ta:
            out.append(diag_cross(state))
        new_end = Corner(ta, 2)
    elif end_q == "q1":
        new_end = Corner(ta, 1) if state == ta else Corner(tb, 0)
    else:  # q3
        new_end = Corner(ta, 0) if state == ta else Corner(tb, 1)

    return tighten(new_base, new_start, out, new_end)


def _old_quad_corner(base: Triangulation, corner: Corner, t1, t2, c_pos, c_neg) -> str:
    """Name the quad corner (q0..q3) held by an old corner of t1 or t2."""
    if corner.tri == t1:
        rel = (corner.pos - c_pos.pos) % 3
        return {0: "q2", 1: "q0", 2: "q1"}[rel]
    rel = (corner.pos - c_neg.pos) % 3
    return {0: "q0", 1: "q2", 2: "q3"}[rel]


def _transport_zero_length(arc, base, new_base, e, t1, t2, c_pos, c_neg, ta, tb):
    """Zero-crossing word whose triangle is inside the quad."""
    s_par = base.side(arc.start)  # the side the arc parallels, directed P1->P2
    if edge_of(s_par) == e:
        # parallel to the flipped diagonal: afterwards it crosses the new one
        start_q = _old_quad_corner(base, arc.start, t1, t2, c_pos, c_neg)
        if start_q == "q2":
            return tighten(new_base, Corner(ta, 2), (e + 1,), Corner(tb, 2))
        return tighten(new_base, Corner(tb, 2), (-(e + 1),), Corner(ta, 2))
    home = new_base.side_corner(s_par)
    return tighten(new_base, home, (), Corner(home.tri, (home.pos + 1) % 3))


# ----------------------------------------------------------------------
# generation


def edge_word(base: Triangulation, e: int) -> ArcWord:
    """The canonical zero-crossing word parallel to connector edge ``e``."""
    head_tail = base.edge_endpoints(e)
    if head_tail[0] == head_tail[1]:
        raise PreconditionError(f"edge {e} does not join P1 to P2")
    s = e + 1 if head_tail[0] == P1 else -(e + 1)
    c = base.side_corner(s)
    return ArcWord(base, c, (), Corner(c.tri, (c.pos + 1) % 3))


def random_arc(base: Triangulation, seed: int, steps: int) -> ArcWord:
    """Seeded random embedded arc: flip walk, pick a connector, pull back.

    Deterministic per (seed, steps); output is reduced and embedded by
    construction (it is a transported triangulation edge).
    """
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    rng = random.Random(seed)
    chain = [base]
    flips = []
    cur = base
    for _ in range(steps):
        choices = [e for e in range(cur.n_edges) if cur.is_flippable(e)]
        e = rng.choice(choices)
        flips.append(e)
        cur = cur.flip(e)
        chain.append(cur)
    connectors = cur.connector_edges()  # nonempty: the 1-skeleton is connected
    word = edge_word(cur, rng.choice(connectors))
    for i in range(steps - 1, -1, -1):
        word = transport_inverse(word, chain[i], flips[i])
    return word


def enumerate_arcs(base: Triangulation, max_len: int) -> list[ArcWord]:
    """All canonical embedded words with at most ``max_len`` crossings.

    Deterministic order (by length, then start corner, then word).  Words
    are generated reduced; embeddedness is filtered via self-intersection.
    """
    from .realization import self_intersection

    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    found = [edge_word(base, e) for e in base.connector_edges()]
    for start in base.corners_at(P1):
        first = base.side(Corner(start.tri, (start.pos + 1) % 3))
        stack = [(first,)]
        while stack:
            word = stack.pop()
            entered = base.side_corner(-word[-1])
            end = Corner(entered.tri, (entered.pos + 2) % 3)
            if base.vertex_of(end) == P2:
                cand = ArcWord(base, start, word, end)
                if self_intersection(cand) == 0:
                    found.append(cand)
            if len(word) < max_len:
                for k in (1, 2):
                    stack.append(word + (base.side(Corner(entered.tri, (entered.pos + k) % 3)),))
    return sorted(found, key=ArcWord.sort_key)


# ----------------------------------------------------------------------
# straightening: flip until an arc becomes a triangulation edge


def straighten_to_edge(arc: ArcWord, cap: int | None = None) -> tuple[list[int], int]:
    """Flip sequence turning ``arc`` into a triangulation edge.

    Strategy: flip the edge of the arc's first crossing whenever it is
    flippable -- a reduced word leaves its start corner across the opposite
    side, so the start corner is a diagonal endpoint of the quad and that
    flip removes the first crossing.  When the first edge is unflippable (a
    self-glued triangle) the fallback rotates the start triangle by
    flipping its third side.  A later passage through the quad can recreate
    a crossing, so the length need not drop on every single flip; the guard
    requires a new minimum length within a checkpoint window and the
    zero-crossing postcondition certifies the result.

    Returns ``(flips, edge)`` with the transported word parallel to
    ``edge`` in the final triangulation.
    """
    word = arc
    flips: list[int] = []
    if cap is None:
        cap = 40 * (len(arc) + 2)
    window = 4 * arc.base.n_edges
    best = len(word)
    since_best = 0
    while len(word) > 0:
        if len(flips) >= cap or since_best > window:
            raise PreconditionError(
                f"straighten_to_edge: stalled after {len(flips)} flips (length {len(word)})"
            )
        base = word.base
        e = edge_of(word.crossings[0])
        if not base.is_flippable(e):
            t = word.start.tri
            others = [edge_of(base.side(Corner(t, k))) for k in range(3)]
            flippable = [x for x in others if base.is_flippable(x)]
            if not flippable:
                raise PreconditionError("straighten_to_edge: start triangle has no flippable side")
            e = flippable[0]
        flips.append(e)
        word = transport(word, e)
        if len(word) < best:
            best = len(word)
            since_best = 0
        else:
            since_best += 1
    return flips, edge_of(word.base.side(word.start))
