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
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import compress
from operator import index
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


class Triangulation:
    """An oriented two-vertex ideal triangulation, immutable after construction.

    The constructor accepts any table of signed triples; structural problems
    are reported by :meth:`validate` rather than raised, so that the
    validator can be pointed at broken data.  Operations that need a valid
    table (``flip``, corner queries, ...) raise ``InvalidTriangulation``.
    """

    __slots__ = (
        "genus",
        "triangles",
        "_p1_anchor",
        "_n_labels",
        "_corners",
        "_side_of",
        "_vertex_of_corner",
        "_violations",
        "_hash",
        "_id",
    )

    def __init__(self, genus, triangles, p1_corner=None):
        self.genus = genus
        self.triangles = triangles
        self._n_labels = 0
        self._corners = None
        self._side_of = None
        self._vertex_of_corner = None
        self._id = None
        self._hash = None
        self._p1_anchor = None
        self._violations = []  # corners_around reads it while the analysis rotates around vertices
        self._violations = self._analyze(p1_corner)

    # ------------------------------------------------------------------
    # construction-time analysis
    #
    # A valid table keeps one tuple and two flat lists.
    # ``_corners[3*tri + pos]`` is Corner(tri, pos), built once by the
    # constructor: every Corner the table hands out is one of these, and a
    # flip passes the same tuple on, so all tables of a flip walk share one
    # set of Corners and a flip builds none.  ``_side_of[s]`` is the Corner
    # holding signed label s; the list has 2E+1 slots, so Python's negative
    # indexing places -s at slot 2E+1-s, and slot 0 is unused.
    # ``_vertex_of_corner[3*tri + pos]`` is P1 or P2.  The queries check the
    # range themselves, because a bare list index would wrap silently; the
    # arc layer reads the three directly in its inner loops, after checking
    # its own labels and corners.

    def _analyze(self, p1_corner):
        try:
            self.triangles = tuple(map(tuple, self.triangles))
        except TypeError:  # no rows, or a row that is no sequence
            self.triangles = ()
            return ["shape: triangles must be triples of nonzero signed labels"]
        try:
            self.genus = index(self.genus)
        except TypeError:
            return [f"genus: {self.genus!r} is not an integer"]
        try:
            self.triangles = tuple(tuple(map(index, t)) for t in self.triangles)
        except TypeError:
            return ["labels: a triangle holds a label that is not an integer"]
        violations = []
        if self.genus < 1:
            violations.append("genus: must be >= 1")
        labels = [s for t in self.triangles for s in t]
        if any(len(t) != 3 for t in self.triangles) or 0 in labels:
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

        f = len(self.triangles)
        corners = self._corners = tuple(Corner(t, k) for t in range(f) for k in range(3))
        self._side_of = [None] * (2 * n_edges + 1)
        for i, s in enumerate(labels):
            self._side_of[s] = corners[i]

        # Connectivity of the glued surface via triangle adjacency.
        if self.triangles:
            seen = {0}
            stack = [0]
            while stack:
                ti = stack.pop()
                for s in self.triangles[ti]:
                    tj = self._side_of[-s].tri
                    if tj not in seen:
                        seen.add(tj)
                        stack.append(tj)
            if len(seen) != len(self.triangles):
                violations.append("connectivity: surface is disconnected")

        classes = list(self._corner_orbits())
        if len(classes) != 2:
            violations.append(f"vertex count: corner tracing yields {len(classes)} classes (expected 2)")
        e = n_edges
        v = len(classes)
        if v - e + f != 2 - 2 * self.genus:
            violations.append(
                f"euler: V-E+F = {v - e + f} but 2-2g = {2 - 2 * self.genus}"
            )

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
        self._vertex_of_corner = vertex
        self._p1_anchor = corners[vertex.index(P1)]
        self._n_labels = n_edges  # the lookups answer from here on
        return []

    def _corner_orbits(self):
        """Partition corners into vertex classes by rotating around vertices."""
        todo = set(self._corners)
        while todo:
            orbit = self.corners_around(min(todo))
            todo.difference_update(orbit)
            yield orbit

    # ------------------------------------------------------------------
    # queries

    @property
    def n_edges(self) -> int:
        return 3 * len(self.triangles) // 2

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def validate(self) -> list[str]:
        """Every violated invariant, as data; the table is valid iff empty."""
        return list(self._violations)

    @property
    def is_valid(self) -> bool:
        return not self._violations

    def _require_valid(self):
        if self._violations:
            raise InvalidTriangulation("; ".join(self._violations))

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
        try:
            e = index(e)
        except TypeError:
            raise PreconditionError(f"edge {e!r} is not an integer") from None
        if not 0 <= e < self._n_labels:
            self._require_valid()
            raise PreconditionError(f"edge {e} is not in 0..{self._n_labels - 1}")
        return e

    def side_corner(self, label: int) -> Corner:
        """The (triangle, position) holding a signed label."""
        n = self._n_labels  # 0 on an invalid table
        try:
            if -n <= label <= n and label:
                return self._side_of[label]
        except TypeError:  # not an integer; costs nothing on the way to a result
            pass
        self._require_valid()
        raise KeyError(label)

    def vertex_of(self, corner: Corner) -> int:
        """P1 or P2 for a corner."""
        self._require_valid()
        return self._vertex_of_corner[self._corner_index(corner)]

    def corners_around(self, corner: Corner) -> list[Corner]:
        """The corners at ``corner``'s vertex in rotation order, ``corner`` first.

        From corner (t, k), crossing the outgoing side t[k] lands on the
        corner at the same vertex in the neighbouring triangle: the head of
        the glued side.
        """
        self._require_valid()
        triangles, side_of, corners = self.triangles, self._side_of, self._corners
        c = first = corners[self._corner_index(corner)]
        out = [c]
        while True:
            opp = side_of[-triangles[c.tri][c.pos]]
            c = corners[3 * opp.tri + (opp.pos + 1) % 3]
            if c == first:
                return out
            out.append(c)

    def corners_at(self, vertex: int) -> list[Corner]:
        self._require_valid()
        return [c for c, x in zip(self._corners, self._vertex_of_corner) if x == vertex]

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """(tail vertex, head vertex) of the positive side of edge ``e``."""
        c = self._side_of[self._edge(e) + 1]
        return self.vertex_of(c), self.vertex_of(Corner(c.tri, (c.pos + 1) % 3))

    def connector_edges(self) -> list[int]:
        """Edges joining P1 to P2, in increasing order."""
        self._require_valid()
        vertex = self._vertex_of_corner
        out = []
        for e, (tri, pos) in enumerate(self._side_of[1 : self._n_labels + 1]):
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
        quad; its P1/P2 labels are read off the quad's corners, each
        rewritten side's tail checked against the head of its glued
        partner, and both labels must remain.
        """
        e = self._edge(e)
        s = e + 1
        c_pos, c_neg = self._side_of[s], self._side_of[-s]
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
        side_of = self._side_of.copy()
        side_of[s], side_of[side_b], side_of[side_c] = corners[3 * t1 : 3 * t1 + 3]
        side_of[-s], side_of[side_d], side_of[side_a] = corners[3 * t2 : 3 * t2 + 3]
        vertex = vertex.copy()
        vertex[3 * t1 : 3 * t1 + 3] = (w, z, x)
        vertex[3 * t2 : 3 * t2 + 3] = (z, w, y)
        for label, tail in ((s, w), (side_b, z), (side_c, x), (-s, z), (side_d, w), (side_a, y)):
            tri, pos = side_of[-label]
            if vertex[3 * tri + (pos + 1) % 3] != tail:
                raise InvalidTriangulation("vertex transport: inconsistent votes")
        if P1 not in vertex or P2 not in vertex:
            raise InvalidTriangulation("vertex transport: votes do not cover both marked points")

        flipped = Triangulation.__new__(Triangulation)
        flipped.genus = self.genus
        flipped.triangles = tuple(tris)
        flipped._n_labels = self._n_labels
        flipped._corners = corners
        flipped._side_of = side_of
        flipped._vertex_of_corner = vertex
        flipped._p1_anchor = corners[vertex.index(P1)]
        flipped._violations = []
        flipped._hash = flipped._id = None
        return flipped

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        self._require_valid()
        return {
            "format": "arcdist.triangulation/1",
            "genus": self.genus,
            "triangles": [list(t) for t in self.triangles],
            "p1_corner": list(self._p1_anchor),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Triangulation":
        t = cls(d["genus"], d["triangles"], p1_corner=tuple(d["p1_corner"]))
        if not t.is_valid:
            raise InvalidTriangulation("; ".join(t._violations))
        return t

    def triangulation_id(self) -> str:
        """Content hash used to tie arcs and certificates to their base.

        Computed on first use, then kept.
        """
        if self._id is None:
            blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
            self._id = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._id

    # ------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Triangulation)
            and self.genus == other.genus
            and self.triangles == other.triangles
            and self._p1_anchor == other._p1_anchor
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.genus, self.triangles, self._p1_anchor))
        return self._hash

    def __repr__(self):
        return f"Triangulation(genus={self.genus}, triangles={self.n_triangles})"


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
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    word = []
    for i in range(g):
        a, b = 2 * i + 1, 2 * i + 2  # 1-based signed labels of rim edges
        word += [a, b, -a, -b]
    tris = []
    for k in range(4 * g):
        spoke = 2 * g + k + 1
        spoke_next = 2 * g + (k + 1) % (4 * g) + 1
        tris.append((spoke, word[k], -spoke_next))
    t = Triangulation(g, tris, p1_corner=Corner(0, 1))
    if not t.is_valid:
        raise InvalidTriangulation("; ".join(t.validate()))
    return t


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


def random_flip_walk(t: Triangulation, seed: int, steps: int) -> tuple[Triangulation, list[int]]:
    """Apply ``steps`` seeded random flips; returns (result, flip sequence).

    The walk is :func:`flip_walk` drawing from ``random.Random(seed)``.
    """
    tables, flips = flip_walk(t, random.Random(seed), steps)
    return tables[-1], flips
