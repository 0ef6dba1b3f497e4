"""Ideal triangulations of the closed genus-g surface with two marked points.

Encoding conventions, used everywhere in this package:

* Edges are numbered ``0..E-1``.  The two directed versions of edge ``e``
  are the nonzero integers ``+(e+1)`` and ``-(e+1)`` ("signed labels").
* A triangulation is a list of triangles, each a triple of signed labels
  read counterclockwise.  Every edge appears exactly once with each sign
  over the whole table; this is precisely consistent orientation of the
  glued surface.
* Side ``k`` of a triangle runs from corner ``k`` to corner ``k+1 (mod 3)``,
  so corner ``k`` is the tail of side ``k`` and the head of side ``k-1``.
  The side not touching corner ``k`` is side ``k+1``.
* The two directed copies of an edge are glued head-to-tail (the gluing
  reverses direction), which is what makes all triangles counterclockwise.

The marked points are the two vertex classes obtained by corner tracing.
``P1`` is distinguished by an anchor corner so that serialized data is
unambiguous; arcs in this package always run from P1 to P2.

A table that breaks any of these laws is refused when it is built, and a
``Triangulation`` is an immutable record of its genus, triangles and P1
anchor, so every table that exists is valid, and its queries and the arcs
over it check nothing about the table.  ``_Record``, the immutable base
class of the package's checking records, lives here, in the lowest layer.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import compress
from operator import attrgetter, index
from typing import NamedTuple

from .errors import InvalidTriangulation, PreconditionError, UnflippableEdge

P1 = 0
P2 = 1


class Corner(NamedTuple):
    """A triangle corner: ``pos`` is the tail position of side ``pos``."""

    tri: int
    pos: int


def edge_of(label: int) -> int:
    """Edge index of a signed label."""
    return abs(label) - 1


def _integer(name: str, x) -> int:
    """``x`` read with ``operator.index``; ``PreconditionError`` otherwise."""
    try:
        return index(x)
    except TypeError:
        raise PreconditionError(f"{name} {x!r} is not an integer") from None


class _Record:
    """An immutable record whose fields are its ``_fields`` (by default its
    ``__slots__``), checked and set by the subclass's ``__init__``.  Pickling
    and copying call the constructor again, so its checks run on every
    copy; a slot that is no field is private state, which a copy rebuilds."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


def _rotation(triangles, side_of, corners, first: Corner) -> list[Corner]:
    """The corners at ``first``'s vertex in rotation order, ``first`` first.

    From corner (t, k), crossing the outgoing side t[k] lands on the corner
    at the same vertex in the neighbouring triangle: the head of the glued
    side.
    """
    c = first
    out = [c]
    while True:
        opp = side_of[-triangles[c.tri][c.pos]]
        c = corners[3 * opp.tri + (opp.pos + 1) % 3]
        if c == first:
            return out
        out.append(c)


class Triangulation(_Record):
    """An oriented two-vertex ideal triangulation: an immutable record of
    ``genus``, ``triangles`` and the P1 anchor ``p1_corner``.

    The constructor analyses the table and raises ``InvalidTriangulation``
    when it glues into no two-vertex surface of the given genus; the
    exception's ``problems`` lists every violated invariant, in the order
    the analysis finds them.  An instance is therefore always valid.
    """

    _fields = ("genus", "triangles", "p1_corner")
    __slots__ = ("genus", "triangles", "_corners", "_side_of", "_vertex_of_corner", "_hash", "_id")

    def __init__(self, genus, triangles, p1_corner=None):
        problems = self._analyze(genus, triangles, p1_corner)
        if problems:
            raise InvalidTriangulation(problems)

    # ------------------------------------------------------------------
    # construction-time analysis
    #
    # A table stores the fields genus and triangles and three tuples, all
    # written by ``_set``, which the analysis and ``flip`` both call.
    # ``_corners[3*tri + pos]`` is Corner(tri, pos), built once by the
    # constructor: every Corner the table hands out is one of these, and a
    # flip passes the same tuple on, so all tables of a flip walk share one
    # set of Corners and a flip builds none.  ``_side_of[s]`` is the Corner
    # holding signed label s; the tuple has 2E+1 slots, so Python's negative
    # indexing places -s at slot 2E+1-s, and slot 0 is unused.
    # ``_vertex_of_corner[3*tri + pos]`` is P1 or P2; the P1 anchor is the
    # first corner at P1.  The queries check the range themselves, because a
    # bare index would wrap silently; the arc layer reads the three directly
    # in its inner loops, after checking its own labels and corners.
    # ``_hash`` and ``_id`` are filled on first use.  The analysis returns
    # every violation it finds and sets the state only for a valid table.

    def _set(self, genus, triangles, corners, side_of, vertex):
        set_genus, set_triangles, set_corners, set_side_of, set_vertex = _STATE_SETTERS
        set_genus(self, genus)
        set_triangles(self, triangles)
        set_corners(self, corners)
        set_side_of(self, side_of)
        set_vertex(self, vertex)

    def _analyze(self, genus, triangles, p1_corner):
        try:
            triangles = tuple(map(tuple, triangles))
        except TypeError:  # no rows, or a row that is no sequence
            return ["shape: triangles must be triples of nonzero signed labels"]
        try:
            genus = index(genus)
        except TypeError:
            return [f"genus: {genus!r} is not an integer"]
        try:
            triangles = tuple(tuple(map(index, t)) for t in triangles)
        except TypeError:
            return ["labels: a triangle holds a label that is not an integer"]
        violations = []
        if genus < 1:
            violations.append("genus: must be >= 1")
        labels = [s for t in triangles for s in t]
        if any(len(t) != 3 for t in triangles) or 0 in labels:
            return violations + ["shape: triangles must be triples of nonzero signed labels"]

        n_edges = max((edge_of(s) for s in labels), default=-1) + 1
        if 2 * n_edges > len(labels):  # some edge is missing; do not walk a huge label's range
            n = len(labels)
            return violations + [f"edge degree: a label names edge {n_edges - 1}, but {n} sides make {n // 2} edges"]
        counts = {}
        for s in labels:
            counts[s] = counts.get(s, 0) + 1
        for e in range(n_edges):
            pos, neg = counts.get(e + 1, 0), counts.get(-(e + 1), 0)
            if pos + neg != 2:
                violations.append(f"edge degree: edge {e} has {pos + neg} sides (expected 2)")
            elif pos != 1:
                violations.append(f"orientation: edge {e} appears twice with the same sign")

        if violations:
            return violations

        f = len(triangles)
        corners = tuple(Corner(t, k) for t in range(f) for k in range(3))
        side_of = [None] * (2 * n_edges + 1)
        for i, s in enumerate(labels):
            side_of[s] = corners[i]

        # Connectivity of the glued surface via triangle adjacency.
        if triangles:
            seen = {0}
            stack = [0]
            while stack:
                ti = stack.pop()
                for s in triangles[ti]:
                    tj = side_of[-s].tri
                    if tj not in seen:
                        seen.add(tj)
                        stack.append(tj)
            if len(seen) != f:
                violations.append("connectivity: surface is disconnected")

        classes = []  # the corner orbits, each traced from its least untraced corner
        todo = set(corners)
        while todo:
            classes.append(_rotation(triangles, side_of, corners, min(todo)))
            todo.difference_update(classes[-1])
        if len(classes) != 2:
            violations.append(f"vertex count: corner tracing yields {len(classes)} classes (expected 2)")
        v, e = len(classes), n_edges
        if v - e + f != 2 - 2 * genus:
            violations.append(f"euler: V-E+F = {v - e + f} but 2-2g = {2 - 2 * genus}")

        if violations:
            return violations

        if p1_corner is None:
            p1_corner = Corner(0, 0)
        else:
            try:
                p1_corner = Corner(*map(index, p1_corner))
            except TypeError:
                return [f"p1 corner: {p1_corner!r} is not a pair of integers"]
        if not (0 <= p1_corner.tri < f and 0 <= p1_corner.pos < 3):
            return [f"p1 corner: {p1_corner} is not a corner of the table"]
        vertex = [0] * (3 * f)
        for ci, cls in enumerate(classes):
            for c in cls:
                vertex[3 * c.tri + c.pos] = ci
        if vertex[3 * p1_corner.tri + p1_corner.pos] != P1:
            vertex = [1 - x for x in vertex]
        self._set(genus, triangles, corners, tuple(side_of), tuple(vertex))
        return []

    # ------------------------------------------------------------------
    # queries

    @property
    def n_edges(self) -> int:
        return 3 * len(self.triangles) // 2

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def p1_corner(self) -> Corner:
        """The first corner at P1, which the JSON form stores as the anchor."""
        return self._corners[self._vertex_of_corner.index(P1)]

    def _corner_index(self, corner) -> int:
        """``3 * tri + pos`` for a corner inside the table, or ``KeyError``."""
        try:
            tri, pos = map(index, corner)
        except (TypeError, ValueError):
            raise KeyError(corner) from None
        if 0 <= tri < len(self.triangles) and 0 <= pos < 3:
            return 3 * tri + pos
        raise KeyError(corner)

    def side(self, corner: Corner) -> int:
        """Signed label of side ``corner.pos`` of triangle ``corner.tri``."""
        tri, pos = divmod(self._corner_index(corner), 3)
        return self.triangles[tri][pos]

    def _edge(self, e) -> int:
        """``e`` as an edge index of this table, or ``PreconditionError``.

        A bare index would wrap: ``-(e+1)`` is a signed label too.
        """
        e = _integer("edge", e)
        if not 0 <= e < self.n_edges:
            raise PreconditionError(f"edge {e} is not in 0..{self.n_edges - 1}")
        return e

    def side_corner(self, label: int) -> Corner:
        """The (triangle, position) holding a signed label."""
        n = self.n_edges
        try:
            if -n <= label <= n and label:
                return self._side_of[label]
        except TypeError:  # not an integer; costs nothing on the way to a result
            pass
        raise KeyError(label)

    def vertex_of(self, corner: Corner) -> int:
        """P1 or P2 for a corner."""
        return self._vertex_of_corner[self._corner_index(corner)]

    def corners_around(self, corner: Corner) -> list[Corner]:
        """The corners at ``corner``'s vertex in rotation order, ``corner`` first."""
        return _rotation(self.triangles, self._side_of, self._corners, self._corners[self._corner_index(corner)])

    def corners_at(self, vertex: int) -> list[Corner]:
        return [c for c, x in zip(self._corners, self._vertex_of_corner) if x == vertex]

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """(tail vertex, head vertex) of the positive side of edge ``e``."""
        c = self._side_of[self._edge(e) + 1]
        return self.vertex_of(c), self.vertex_of(Corner(c.tri, (c.pos + 1) % 3))

    def connector_edges(self) -> list[int]:
        """Edges joining P1 to P2, in increasing order."""
        vertex = self._vertex_of_corner
        out = []
        for e, (tri, pos) in enumerate(self._side_of[1 : self.n_edges + 1]):
            if vertex[3 * tri + pos] != vertex[3 * tri + (pos + 1) % 3]:
                out.append(e)
        return out

    def is_flippable(self, e: int) -> bool:
        s = self._edge(e) + 1
        return self._side_of[s].tri != self._side_of[-s].tri

    # ------------------------------------------------------------------
    # the flip
    #
    #          q3                               q3
    #          o                                o
    #         / \           flip e             /|\
    #      C /   \ B       ------->         C / | \ B
    #       /     \                          /  |  \
    #   q0 o---e---o q2                  q0 o   e   o q2
    #       \     /                          \  |  /
    #      D \   / A                        D \ | / A
    #         \ /                              \|/
    #          o                                o
    #          q1                               q1
    #
    # Old +e runs q2->q0 in t1 = (+e, A, B); old -e runs q0->q2 in
    # t2 = (-e, C, D).  New +e runs q3->q1, placed at position 0:
    # t1 := (+e, B, C) and t2 := (-e, D, A).  Old t1's corners at positions
    # a1, a1+1, a1+2 are X and Y (the tail and head of old +e) and Z (t1's
    # apex); W is old t2's apex.  New t1's corners are (W, Z, X), new t2's
    # are (Z, W, Y).

    def flip(self, e: int) -> "Triangulation":
        """Replace edge ``e`` by the opposite diagonal of its quad.

        The new diagonal keeps the label ``e`` and sits at position 0 of
        both rewritten triangles, which keep their indices.  Flipping ``e``
        again restores the surface but not the stored table (the diagonal's
        direction and the triangles' rotations differ), so
        :func:`arcdist.arc.transport_inverse` rewrites an arc onto the
        table it came from rather than flipping twice.

        ``e`` must be an edge index, ``0 <= e < n_edges``; anything else
        raises ``PreconditionError``.  Booleans pass as 0 and 1, as they do
        for crossing labels.

        Only the two triangles of the quad change.  The new table shares
        every other triangle and the ``Corner`` tuple with this one, builds
        no ``Corner``, and rewrites the six side and corner entries of the
        quad.  Its P1/P2 labels need no check, because this table is valid:

        * Every side keeps its two endpoint labels.  With x, y, z, w the
          labels of X, Y, Z, W: B runs z->x, C runs x->w, D runs w->y and
          A runs y->z before and after, and the new diagonal runs w->z
          (its -side z->w).
        * So each glued pair still agrees, head to tail: a rewritten side's
          partner either lies outside the quad, unchanged, or inside it,
          rewritten with its own endpoints kept.
        * Both new triangles together still hold x, y, z and w, and the
          corners outside the quad keep theirs, so no marked point
          disappears.  V-E+F is unchanged, so corner tracing still yields
          two classes; labels constant on each and both present are the
          two classes, with P1 where it was.
        """
        e = self._edge(e)
        s = e + 1
        side_of = self._side_of
        c_pos, c_neg = side_of[s], side_of[-s]
        t1, t2 = c_pos.tri, c_neg.tri
        if t1 == t2:
            raise UnflippableEdge(f"edge {e}: both sides lie in triangle {t1}")
        a1, a2 = c_pos.pos, c_neg.pos
        old1, old2 = self.triangles[t1], self.triangles[t2]
        side_a, side_b = old1[(a1 + 1) % 3], old1[(a1 + 2) % 3]
        side_c, side_d = old2[(a2 + 1) % 3], old2[(a2 + 2) % 3]
        vertex = self._vertex_of_corner
        x, y, z = vertex[3 * t1 + a1], vertex[3 * t1 + (a1 + 1) % 3], vertex[3 * t1 + (a1 + 2) % 3]
        w = vertex[3 * t2 + (a2 + 2) % 3]

        tris = list(self.triangles)
        tris[t1] = (s, side_b, side_c)
        tris[t2] = (-s, side_d, side_a)
        corners = self._corners
        side_of = list(side_of)
        side_of[s], side_of[side_b], side_of[side_c] = corners[3 * t1 : 3 * t1 + 3]
        side_of[-s], side_of[side_d], side_of[side_a] = corners[3 * t2 : 3 * t2 + 3]
        vertex = list(vertex)
        vertex[3 * t1], vertex[3 * t1 + 1], vertex[3 * t1 + 2] = w, z, x
        vertex[3 * t2], vertex[3 * t2 + 1], vertex[3 * t2 + 2] = z, w, y

        flipped = Triangulation.__new__(Triangulation)
        flipped._set(self.genus, tuple(tris), corners, tuple(side_of), tuple(vertex))
        return flipped

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        return {
            "format": "arcdist.triangulation/1",
            "genus": self.genus,
            "triangles": [list(t) for t in self.triangles],
            "p1_corner": list(self.p1_corner),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Triangulation":
        return cls(d["genus"], d["triangles"], p1_corner=tuple(d["p1_corner"]))

    def triangulation_id(self) -> str:
        """Content hash used to tie arcs and certificates to their base.

        Computed on first use, then kept.
        """
        try:
            return self._id
        except AttributeError:
            blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_id", hashlib.sha256(blob.encode()).hexdigest()[:16])
            return self._id

    # ------------------------------------------------------------------

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values(self)))
            return self._hash

    def __repr__(self):
        return f"Triangulation(genus={self.genus}, triangles={self.n_triangles}, p1_corner={tuple(self.p1_corner)})"


# The slots' own setters, by which ``_set`` writes past ``_Record.__setattr__``;
# they cost less than ``object.__setattr__`` by name, on every flip.
_STATE_SETTERS = tuple(
    Triangulation.__dict__[name].__set__ for name in ("genus", "triangles", "_corners", "_side_of", "_vertex_of_corner")
)


def build_standard_triangulation(g: int) -> Triangulation:
    """The fixed coned-polygon triangulation of the genus-g surface.

    Take the 4g-gon with boundary word ``A1 B1 A1^-1 B1^-1 ... Ag Bg Ag^-1
    Bg^-1`` (all polygon corners identify to the rim point P1) and cone it
    from a center point P2.  Edges: rim edges ``0..2g-1`` (edge ``2i`` is
    ``Ai``, edge ``2i+1`` is ``Bi``), spokes ``2g..6g-1`` (spoke ``2g+k``
    joins P2 to polygon corner ``k``).  Triangle ``k`` is::

        ( +(spoke k),  w_k,  -(spoke k+1 mod 4g) )

    where ``w_k`` is the k-th letter of the boundary word.  This table is
    stable across releases; certificates reference it by content hash.

    ``g`` must be an integer ``>= 1``; anything else raises
    ``PreconditionError``.
    """
    g = _integer("genus", g)
    if g < 1:
        raise PreconditionError(f"genus must be >= 1, got {g}")
    word = []
    for i in range(g):
        a, b = 2 * i + 1, 2 * i + 2  # 1-based signed labels of rim edges
        word += [a, b, -a, -b]
    tris = []
    for k in range(4 * g):
        spoke = 2 * g + k + 1
        spoke_next = 2 * g + (k + 1) % (4 * g) + 1
        tris.append((spoke, word[k], -spoke_next))
    return Triangulation(g, tris, p1_corner=Corner(0, 1))


def flip_walk(t: Triangulation, rng: random.Random, steps: int) -> tuple[list[Triangulation], list[int]]:
    """``steps`` random flips drawn from ``rng``; returns (tables, flips).

    ``tables[0] is t`` and ``tables[i + 1]`` is ``tables[i].flip(flips[i])``.
    Each step picks with ``rng.choice`` among the flippable edges in edge
    order.  One flag per edge is kept in step, refreshed only on the two
    rewritten triangles: an edge is unflippable when both its sides lie in
    one triangle, so only edges with a side in the quad can change.
    """
    tables = [t]
    flips = []
    flippable = [t.is_flippable(e) for e in range(t.n_edges)]
    for _ in range(steps):
        e = rng.choice(list(compress(range(len(flippable)), flippable)))
        flips.append(e)
        t = t.flip(e)
        tables.append(t)
        for c in (t._side_of[e + 1], t._side_of[-(e + 1)]):
            row = t.triangles[c.tri]
            for s in row:
                flippable[abs(s) - 1] = -s not in row
    return tables, flips
