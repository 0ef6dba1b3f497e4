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
from operator import index

from .errors import BaseMismatch, InconsistentWord, PreconditionError
from .surface import P1, P2, Corner, Triangulation, _integer, _Record, edge_of, flip_walk


class ArcWord(_Record):
    """A canonical reduced crossing word from P1 to P2 over ``base``.

    Instances are validated on construction; use :func:`tighten` to build
    one from a raw locally-consistent word.
    """

    _fields = ("base", "start", "crossings", "end")
    __slots__ = (*_fields, "_prep")  # _prep: the realization layer's cache of this word's own work

    def __new__(cls, base: Triangulation, start: Corner, crossings: tuple[int, ...], end: Corner):
        return cls._from_consistent(base, *_check_word(base, start, crossings, end))

    # spelled out, crossings first: the search compares and hashes words; attrgetter is slower
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.crossings != other.crossings:
            return False
        return (self.base, self.start, self.end) == (other.base, other.start, other.end)

    def __hash__(self):
        return hash((self.base, self.start, self.crossings, self.end))

    @classmethod
    def _from_consistent(cls, base: Triangulation, start: Corner, crossings, end: Corner) -> "ArcWord":
        """The instance of a locally consistent word, once it is checked to be
        reduced and to run from P1 to P2: ``__new__`` has run ``_check_word``
        on it, or :func:`tighten` on the raw word, whose moves keep a word
        consistent."""
        if not _is_reduced(base, start, crossings, end):
            raise InconsistentWord("word is not reduced; use tighten() to canonicalize")
        # start and end are corners of the table, checked by _check_word
        vertex = base._vertex_of_corner
        if vertex[3 * start.tri + start.pos] != P1:
            raise InconsistentWord(f"start corner {start} is not at P1")
        if vertex[3 * end.tri + end.pos] != P2:
            raise InconsistentWord(f"end corner {end} is not at P2")
        return cls._make(base, start, tuple(crossings), end, None)

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
        return cls(base, d["start_corner"], tuple(crossings), d["end_corner"])


# ----------------------------------------------------------------------
# raw-word checking and tightening


def _table_corner(base: Triangulation, name: str, corner) -> Corner:
    """``corner`` as ``base``'s own ``Corner``, after checking that it is a
    pair of integers inside the table."""
    try:
        tri, pos = map(index, corner)
    except (TypeError, ValueError):
        raise InconsistentWord(f"{name} corner {corner!r} is not a pair of integers") from None
    if not (0 <= tri < len(base.triangles) and 0 <= pos < 3):
        raise InconsistentWord(f"{name} corner {Corner(tri, pos)} out of range")
    return base._corners[3 * tri + pos]


def _check_word(base: Triangulation, start, crossings, end) -> tuple[Corner, list[int], Corner]:
    """Local consistency: integer labels, and consecutive crossings share a
    triangle.

    After the corner checks, one walk reads each label as an int (a float
    or a string raises ``InconsistentWord`` naming its position), checks
    its range and chains it.  Returns the start corner, the labels as a new
    list and the end corner, the corners as the table's own objects.
    """
    start, end = _table_corner(base, "start", start), _table_corner(base, "end", end)
    n_edges, side_of = base.n_edges, base._side_of
    tri = start.tri
    word = []
    for i, c in enumerate(crossings):
        try:
            c = index(c)
        except TypeError:
            raise InconsistentWord(f"crossing {i}: bad label {c!r}") from None
        if c == 0 or abs(c) > n_edges:
            raise InconsistentWord(f"crossing {i}: bad label {c}")
        here = side_of[c]
        if here.tri != tri:
            raise InconsistentWord(f"crossing {i}: side {c} is in triangle {here.tri}, arc is in {tri}")
        tri = side_of[-c].tri
        word.append(c)
    if tri != end.tri:
        raise InconsistentWord(f"end corner {end} is in triangle {end.tri}, arc ends in {tri}")
    if not word and start.pos == end.pos:
        raise InconsistentWord("zero-crossing word with equal corners")
    return start, word, end


def _is_reduced(base: Triangulation, start: Corner, crossings, end: Corner) -> bool:
    for i in range(len(crossings) - 1):
        if crossings[i + 1] == -crossings[i]:
            return False
    if crossings:
        triangles = base.triangles
        if crossings[0] != triangles[start.tri][(start.pos + 1) % 3]:
            return False
        if -crossings[-1] != triangles[end.tri][(end.pos + 1) % 3]:
            return False
    else:
        if end.pos != (start.pos + 1) % 3:
            return False
    return True


def tighten(base: Triangulation, start: Corner, crossings, end: Corner) -> ArcWord:
    """Canonical reduced word of the isotopy class of a raw crossing word.

    The input must be locally consistent, with integer labels and corner
    fields; anything else raises ``InconsistentWord``.  Idempotent on
    already-reduced words.

    ``_check_word`` runs once, on the raw word; the moves keep a word
    consistent, so the result is built without walking it again.  The
    result's reduction and P1/P2 corner checks still run.
    """
    return ArcWord._from_consistent(base, *_moves(base, *_check_word(base, start, crossings, end)))


def _moves(base: Triangulation, start: Corner, word: list[int], end: Corner) -> tuple[Corner, list[int], Corner]:
    """Remove backtracks and endpoint corner bigons from a word that
    ``_check_word`` has passed, editing ``word`` in place, each move once:
    the backtrack scan steps back after a deletion, so it leaves the word
    freely reduced; deleting an end letter makes no new adjacent pair; and
    each strip reads only its own end.  Returns the reduced ``(start, word,
    end)``, the zero-crossing case in its canonical triangle; a word that
    tightens to a loop at one marked point raises ``InconsistentWord``.
    """
    triangles, side_of, corners = base.triangles, base._side_of, base._corners

    # backtracks: crossing an edge and coming straight back
    i = 0
    while i < len(word) - 1:
        if word[i + 1] == -word[i]:
            del word[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    # corner bigon at the start: first crossing uses a side touching P1
    while word:
        first = word[0]
        t, p = start
        if first == triangles[t][p]:
            opp = side_of[-first]
            start = corners[3 * opp.tri + (opp.pos + 1) % 3]
        elif first == triangles[t][(p + 2) % 3]:
            start = side_of[-first]
        else:
            break
        del word[0]
    # corner bigon at the end: last crossing enters via a side touching P2
    while word:
        last = word[-1]
        entered = side_of[-last]
        t, p = end
        if entered == end:  # P2 is the tail of the entered side
            back = side_of[last]
            end = corners[3 * back.tri + (back.pos + 1) % 3]
        elif entered == corners[3 * t + (p + 2) % 3]:  # P2 is its head
            end = side_of[last]
        else:
            break
        del word[-1]

    if not word:
        if end.pos == (start.pos + 2) % 3:
            # parallel to side base[end.tri][end.pos], traversed P2->P1 there;
            # rewrite in the partner triangle where it runs P1->P2
            start = side_of[-triangles[end.tri][end.pos]]
            end = corners[3 * start.tri + (start.pos + 1) % 3]
        if start.pos == end.pos:
            raise InconsistentWord("word tightened to a loop at one marked point")
    return start, word, end


# ----------------------------------------------------------------------
# transport across a flip
#
# Both directions rewrite an arc onto a table that differs from its base
# only in the two triangles of edge e's quad (same indices), where e is the
# other diagonal.  The four outer quad sides keep their labels, so:
#
# * crossings of e are dropped;
# * while the arc is in the quad, one crossing of the new diagonal (the
#   side of e in the arc's current new triangle) is added whenever the next
#   side, or the end corner, lies in the other new triangle;
# * a quad corner moves to the tail, in the new table, of the outer side it
#   is the tail of (on a side of e: the head of the outer side it is the
#   head of); every other corner stays;
# * the moves remove the corner bigon left when a diagonal endpoint lands
#   in the wrong new triangle.
#
# _step is the one way a bare (start, crossings, end) crosses a flip:
# _quad_rewrite, then the moves.  Its input is always consistent (an
# ArcWord's fields, an edge word or the last step's output), so the
# rewrite checks only the stretch it edits and no step walks the whole
# word again.  _carry runs _step over many flips and builds one ArcWord,
# whose constructor runs every check once; transport and
# transport_inverse are one-flip _carry calls, and straighten_to_edge,
# which picks each flip from the last word, runs _step and builds one
# ArcWord at the end.


def transport(arc: ArcWord, e: int) -> ArcWord:
    """The same isotopy class written over ``arc.base.flip(e)``."""
    return _carry(arc.base, arc.start, arc.crossings, arc.end, [(arc.base, arc.base.flip(e), e)])


def transport_inverse(arc: ArcWord, previous: Triangulation, e: int) -> ArcWord:
    """Undo ``transport(-, e)``: rewrite ``arc`` over the pre-flip base.

    ``previous.flip(e)`` must equal ``arc.base``; that is checked by
    flipping ``previous`` (``BaseMismatch`` otherwise), and the result, an
    ``ArcWord`` over ``previous``, runs every check of the constructor.
    """
    if previous.flip(e) != arc.base:
        raise BaseMismatch("previous.flip(e) does not give the arc's base")
    return _carry(arc.base, arc.start, arc.crossings, arc.end, [(arc.base, previous, e)])


def _quad_rewrite(old: Triangulation, new: Triangulation, e: int, start: Corner, crossings, end: Corner):
    """The raw ``(start, crossings, end)`` over ``new`` of a consistent word
    over ``old``, the two tables differing only in ``e``'s quad; not yet
    reduced.

    The result is consistent over ``new``: outside the quad the letters
    chain as they did over ``old``, and what the rewrite edits is checked
    as it goes.  After each inserted diagonal the next letter, or the end
    corner, must lie in the triangle the diagonal enters, and a
    zero-crossing word must have two corners; a failure raises
    ``InconsistentWord`` with ``_check_word``'s message.
    """
    old_rows, old_side_of = old.triangles, old._side_of
    new_side_of, corners = new._side_of, new._corners
    s = e + 1
    quad = (old_side_of[s].tri, old_side_of[-s].tri)
    plus_tri = new_side_of[s].tri  # the new diagonal's +side; its -side is in the other

    def corner(c: Corner) -> Corner:
        if c.tri not in quad:
            return c
        row = old_rows[c.tri]
        outer = row[c.pos]
        if outer != s and outer != -s:
            return new_side_of[outer]
        head = new_side_of[row[(c.pos + 2) % 3]]
        return corners[3 * head.tri + (head.pos + 1) % 3]

    def diagonal(here: int) -> int:
        """Cross the new diagonal out of triangle ``here``; the triangle entered."""
        d = s if here == plus_tri else -s
        out.append(d)
        return new_side_of[-d].tri

    start, end = corner(start), corner(end)
    here = start.tri if start.tri in quad else None  # new triangle, while in the quad
    out = []
    for c in crossings:
        if c == s or c == -s:
            continue
        if here is not None and new_side_of[c].tri != here:
            here = diagonal(here)
            if new_side_of[c].tri != here:
                raise InconsistentWord(
                    f"crossing {len(out)}: side {c} is in triangle {new_side_of[c].tri}, arc is in {here}"
                )
        out.append(c)
        landing = new_side_of[-c].tri
        here = landing if landing in quad else None
    if here is not None and end.tri != here:
        here = diagonal(here)
        if end.tri != here:
            raise InconsistentWord(f"end corner {end} is in triangle {end.tri}, arc ends in {here}")
    if not out and start.pos == end.pos:
        raise InconsistentWord("zero-crossing word with equal corners")
    return start, out, end


def _step(old: Triangulation, new: Triangulation, e: int, start: Corner, crossings, end: Corner):
    """A consistent word over ``old`` written over ``new`` and tightened:
    :func:`_quad_rewrite`, which checks what it edits, then the moves."""
    return _moves(new, *_quad_rewrite(old, new, e, start, crossings, end))


def _carry(base: Triangulation, start: Corner, crossings, end: Corner, rewrites) -> ArcWord:
    """The word ``(start, crossings, end)`` over ``base``, carried across
    ``rewrites`` and built as one ``ArcWord`` over the last table.

    The word must be consistent over ``base`` (an ``ArcWord``'s fields, or
    an edge word): no step walks it whole.  Each rewrite is ``(table, next
    table, e)``: the word is over ``table``, which differs from ``next
    table`` only in ``e``'s quad, and the first ``table`` is ``base``.  The
    constructor's checks, ``_check_word`` included, run once, on the
    result.
    """
    table = base
    for old, table, e in rewrites:
        start, crossings, end = _step(old, table, e, start, crossings, end)
    return ArcWord(table, start, crossings, end)


# ----------------------------------------------------------------------
# generation


def edge_word(base: Triangulation, e: int) -> ArcWord:
    """The canonical zero-crossing word parallel to connector edge ``e``."""
    start, end = _edge_corners(base, e)
    return ArcWord(base, start, (), end)


def _edge_corners(base: Triangulation, e: int) -> tuple[Corner, Corner]:
    """The start and end corners of :func:`edge_word`'s word for ``e``."""
    head_tail = base.edge_endpoints(e)
    if head_tail[0] == head_tail[1]:
        raise PreconditionError(f"edge {e} does not join P1 to P2")
    s = e + 1 if head_tail[0] == P1 else -(e + 1)
    c = base.side_corner(s)
    return c, Corner(c.tri, (c.pos + 1) % 3)


def random_arc(base: Triangulation, seed: int, steps: int) -> ArcWord:
    """Seeded random embedded arc: flip walk, pick a connector, pull back.

    Deterministic per (seed, steps); output is reduced and embedded by
    construction (it is a transported triangulation edge).

    The walk is :func:`arcdist.surface.flip_walk`, one flip per step.  The
    connector's edge word is pulled back as a bare word by :func:`_carry`,
    onto the tables the walk built, so it makes no check flip.  Each step
    checks only the stretch its quad rewrite edits, and the one ``ArcWord``
    built, over ``base``, runs every check of the constructor once.
    """
    seed, steps = _integer("seed", seed), _integer("steps", steps)
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    rng = random.Random(seed)
    tables, flips = flip_walk(base, rng, steps)
    connectors = tables[-1].connector_edges()  # nonempty: the 1-skeleton is connected
    start, end = _edge_corners(tables[-1], rng.choice(connectors))
    # tables[i + 1] is tables[i].flip(flips[i]), so transport_inverse's
    # check would only repeat that flip
    rewrites = ((tables[i + 1], tables[i], flips[i]) for i in range(steps - 1, -1, -1))
    return _carry(tables[-1], start, (), end, rewrites)


def enumerate_arcs(base: Triangulation, max_len: int) -> list[ArcWord]:
    """All canonical embedded words with at most ``max_len`` crossings.

    Deterministic order (by length, then start corner, then word).  Words
    are generated reduced; embeddedness is filtered via self-intersection.
    """
    from .realization import self_intersection

    max_len = _integer("max_len", max_len)
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


def straighten_to_edge(arc: ArcWord, _rewrites: list | None = None) -> tuple[list[int], int]:
    """Flip sequence turning ``arc`` into a triangulation edge.

    Strategy: flip the edge of the arc's first crossing -- a reduced word
    leaves its start corner across the opposite side, so the start corner
    is a diagonal endpoint of the quad and that flip removes the first
    crossing.  That edge is flippable unless the arc crosses itself, which
    is refused at once: an unflippable edge is the folded edge of a
    self-folded triangle, whose inner vertex has one corner.  If that is P1,
    the start corner faces the flippable loop side; if it is P2, the word
    ends through the loop side into the inner corner, a chord whose ends
    interleave with those of a first chord from an outer corner across the
    folded edge.  The word crosses each flip bare, by :func:`_step`; the
    final zero-crossing word is built as one ``ArcWord``, with every check,
    and certifies the result.

    A later passage through the quad can recreate a crossing, so the
    length need not drop on every flip.  The work is bounded by a budget
    of flips, checked before each one: 40·(n + 2) in all for an n-letter
    arc, and 4·E (E edges) without a new minimum length.  Going over
    either raises ``PreconditionError``.  The total binds only above genus
    1: a genus-g table has E = 6g edges, and the window alone stops a run
    within n·(4·E + 1) flips (at most n new minima, each within 4·E + 1
    flips of the last), which is below 40·(n + 2) when E = 6.

    Returns ``(flips, edge)`` with the transported word parallel to
    ``edge`` in the final triangulation.  When ``_rewrites`` is a list,
    each flip's ``(table, next table, e)`` is appended to it, for
    :func:`arcdist.realization.intersection_via_flips` to carry a second
    word over the same tables.
    """
    table, start, word, end = arc.base, arc.start, arc.crossings, arc.end
    flips: list[int] = []
    cap = 40 * (len(word) + 2)
    window = 4 * table.n_edges
    best = len(word)
    since_best = 0
    while word:
        if len(flips) >= cap:
            raise PreconditionError(
                f"straighten_to_edge: over its budget of {cap} flips (length {len(word)})"
            )
        if since_best > window:
            raise PreconditionError(
                f"straighten_to_edge: no new minimum length in {since_best} flips"
                f" (length {len(word)} after {len(flips)} flips)"
            )
        e = edge_of(word[0])
        if not table.is_flippable(e):
            raise PreconditionError(
                "straighten_to_edge: the arc is not embedded"
                f" (its first crossing is on folded edge {e} after {len(flips)} flips)"
            )
        flips.append(e)
        old, table = table, table.flip(e)
        if _rewrites is not None:
            _rewrites.append((old, table, e))
        start, word, end = _step(old, table, e, start, word, end)
        if len(word) < best:
            best = len(word)
            since_best = 0
        else:
            since_best += 1
    return flips, edge_of(table.side(ArcWord(table, start, word, end).start))
