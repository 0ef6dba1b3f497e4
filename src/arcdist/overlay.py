"""Minimal-position realization of arcs and pairwise intersection counting.

Two reduced words are realized simultaneously by fixing, along every
triangulation edge, the linear order of the points where they cross it.
The order of two strands is decided by unzipping: follow both of them into
the triangle on each side of the edge until they part ways; which way a
strand turns (or whether it terminates at the far corner) fixes its
position.  Once every edge is ordered, in-triangle chords cross exactly
when their boundary endpoints interleave, and the total count is the
geometric intersection number of the two isotopy classes.

Correctness of this bookkeeping is deliberately not trusted on its own:
``intersection_via_flips`` recomputes the same number by straightening one
arc to a triangulation edge and counting the other word's crossings with
it, and the two are compared pair-by-pair in the test suite.

The same realization induces a cell decomposition of the surface (the
overlay): faces are the complement components of the two arcs, computed by
gluing per-triangle arrangements across the edges.  The overlay certifies
minimality (no bigons or endpoint half-bigons survive) and drives the
distance-2 criterion in :mod:`arcdist.distance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import BaseMismatch, InconsistentWord, VerificationError
from .surface import P1, Corner, edge_of
from .arc import ArcWord


# ----------------------------------------------------------------------
# strand ordering


class _Ray:
    """One side of a strand: the walk away from an edge crossing.

    ``values`` are the upcoming crossing values in walk order and ``entry``
    is the corner (t, k) whose side the walk just crossed into triangle t.
    """

    __slots__ = ("base", "entry", "values", "idx")

    def __init__(self, base, entry, values):
        self.base = base
        self.entry = entry
        self.values = values
        self.idx = 0

    def target(self):
        """('corner', 0, 0) or ('side', rel, value) in the current triangle."""
        t, k = self.entry
        if self.idx >= len(self.values):
            return ("corner", 0, 0)
        nv = self.values[self.idx]
        here = self.base.side_corner(nv)
        if here.tri != t:
            raise InconsistentWord("ray left its triangle")
        rel = (here.pos - k) % 3
        if rel == 0:
            raise InconsistentWord("ray backtracked; word was not reduced")
        return ("side", rel, nv)

    def advance(self):
        nv = self.values[self.idx]
        self.idx += 1
        opp = self.base.side_corner(-nv)
        self.entry = Corner(opp.tri, opp.pos)


_RANK = {2: 0, 1: 2}  # exit side k+2 hugs the tail of side k, exit side k+1 the head


def _ray_rank(tgt):
    kind, rel, _ = tgt
    return 1 if kind == "corner" else _RANK[rel]


def _cmp_rays(ra: _Ray, rb: _Ray) -> tuple[int, int]:
    """Order along the shared entry side (tail to head), plus steps walked.

    Returns (sign, steps): sign 0 means the rays stay parallel until both
    terminate; steps counts the shared edges crossed before diverging.
    """
    steps = 0
    while True:
        ta, tb = ra.target(), rb.target()
        if ta[0] == "side" and tb[0] == "side" and ta[1] == tb[1]:
            ra.advance()
            rb.advance()
            steps += 1
            continue
        rka, rkb = _ray_rank(ta), _ray_rank(tb)
        if rka == rkb:  # both terminate at the far corner together
            return 0, steps
        return (-1 if rka < rkb else 1), steps


@dataclass(frozen=True)
class _Strand:
    owner: int
    index: int
    value: int  # signed crossing label


def _strand_ray(base, arcs, st: _Strand, into_positive: bool) -> _Ray:
    """The ray of a strand into the triangle holding the +/- side of its edge."""
    word = arcs[st.owner]
    c = st.value
    forward = (c > 0) != into_positive  # crossing +f leaves T(+f): its +f ray walks backward
    if forward:
        values = word.crossings[st.index + 1 :]
        entry = base.side_corner(-c)
    else:
        values = tuple(-x for x in reversed(word.crossings[: st.index]))
        entry = base.side_corner(c)
    return _Ray(base, entry, values)


def _order_edges(base, arcs) -> dict[int, list[_Strand]]:
    """Linear order of both arcs' strands along each edge (+side tail->head)."""
    per_edge: dict[int, list[_Strand]] = {}
    for owner, word in enumerate(arcs):
        if word is None:
            continue
        for i, c in enumerate(word.crossings):
            per_edge.setdefault(edge_of(c), []).append(_Strand(owner, i, c))

    def cmp(p: _Strand, q: _Strand) -> int:
        """Order of two strands along their edge, positive-side tail to head.

        The rays on each side of the edge are compared until the strands
        part ways.  When the two divergences disagree, the strands must
        cross once inside the shared stretch: each edge of the stretch then
        takes its order from the nearer divergence, which flips the order
        exactly once, at the middle.
        """
        if p is q or (p.owner == q.owner and p.index == q.index):
            return 0
        d_plus, n_plus = _cmp_rays(
            _strand_ray(base, arcs, p, True), _strand_ray(base, arcs, q, True)
        )
        d_minus, n_minus = _cmp_rays(
            _strand_ray(base, arcs, p, False), _strand_ray(base, arcs, q, False)
        )
        # d_minus is measured along the negative side, so negate it here
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
        return d_plus if n_plus <= n_minus else -d_minus

    return {e: sorted(strands, key=cmp_to_key(cmp)) for e, strands in per_edge.items()}


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


def _segments_of(base, word: ArcWord, owner: int, rank_of) -> list[_Segment]:
    n = len(word.crossings)
    segs = []
    for j in range(n + 1):
        if j == 0:
            tri = word.start.tri
            a = (word.start.pos, -1)
        else:
            c = word.crossings[j - 1]
            entered = base.side_corner(-c)
            tri = entered.tri
            a = (entered.pos, rank_of(owner, j - 1, -c))
        if j == n:
            if word.end.tri != tri:
                raise InconsistentWord("segment chain broke")
            b = (word.end.pos, -1)
        else:
            c = word.crossings[j]
            leaving = base.side_corner(c)
            if leaving.tri != tri:
                raise InconsistentWord("segment chain broke")
            b = (leaving.pos, rank_of(owner, j, c))
        segs.append(_Segment(owner, j, tri, a, b))
    return segs


def _interleaved(s1: _Segment, s2: _Segment) -> bool:
    pts = {s1.a, s1.b, s2.a, s2.b}
    if len(pts) < 4:  # shared boundary point: meeting, not a crossing
        return False
    order = sorted(pts)
    flags = [p in (s1.a, s1.b) for p in order]
    return flags[0] == flags[2] and flags[1] == flags[3] and flags[0] != flags[1]


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
        self.edge_order = _order_edges(self.base, self.arcs)
        self._rank_of = _rank_lookup(self.edge_order)
        self.segments = tuple(
            _segments_of(self.base, word, o, self._rank_of) for o, word in enumerate(self.arcs)
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
    rank_of = _rank_lookup(_order_edges(word.base, (word, None)))
    segs = _segments_of(word.base, word, 0, rank_of)
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


# ----------------------------------------------------------------------
# the overlay cell complex


@dataclass(frozen=True)
class OverlayFace:
    """A complement component of the two arcs."""

    faces: int  # local (per-triangle) cells it glues together
    euler_characteristic: int
    boundary_crossings: int
    marked_points: frozenset
    is_disc: bool


@dataclass(frozen=True)
class Overlay:
    """Cell structure induced by two arcs in minimal position."""

    v: ArcWord
    w: ArcWord
    crossings: tuple
    components: tuple
    euler_characteristic: int

    def crossing_count(self) -> int:
        return len(self.crossings)


class _OverlayBuilder:
    """Glue per-triangle chord arrangements into the surface cell complex.

    Local nodes are ``(tri, (pos, rank))`` boundary items (rank -1 for the
    corner itself) and ``("x", v_seg, w_seg)`` interior crossings.  Local
    1-cells are boundary intervals (pieces of triangulation edges) and
    chord pieces (pieces of the arcs).  Faces are traced with the face on
    the left of each half-edge; the fake outer region of each triangle disc
    is discarded, and faces are merged across glued edge intervals.
    """

    def __init__(self, real: Realization):
        self.real = real
        self.base = real.base
        self._build_local()
        self._glue()

    # -- local arrangements -------------------------------------------

    def _build_local(self):
        base = self.base
        real = self.real
        pts: dict[int, dict[tuple, tuple]] = {t: {} for t in range(base.n_triangles)}
        for o, word in enumerate(real.arcs):
            for i, c in enumerate(word.crossings):
                for value in (c, -c):
                    sc = base.side_corner(value)
                    pts[sc.tri][(sc.pos, real._rank_of(o, i, value))] = ("p", o, i)
        for t in range(base.n_triangles):
            for k in range(3):
                pts[t][(k, -1)] = ("v", base.vertex_of(Corner(t, k)))

        cross_on_seg: dict[tuple, list] = {}
        for x in real.crossings:
            cross_on_seg.setdefault((0, x.v_seg), []).append((x.v_rank, ("x", x.v_seg, x.w_seg)))
            cross_on_seg.setdefault((1, x.w_seg), []).append((x.w_rank, ("x", x.v_seg, x.w_seg)))

        self.local_edges = []  # (kind, tail node, head node, data)
        self.tri_boundary_items: dict[int, list] = {}
        self.interval_ids: dict[tuple, int] = {}  # (tri, item index) -> edge id

        def add_edge(kind, tail, head, data):
            self.local_edges.append((kind, tail, head, data))
            return len(self.local_edges) - 1

        for t in range(base.n_triangles):
            items = sorted(pts[t].items())
            self.tri_boundary_items[t] = items
            for idx in range(len(items)):
                (c1, _), (c2, _) = items[idx], items[(idx + 1) % len(items)]
                self.interval_ids[(t, idx)] = add_edge("interval", (t, c1), (t, c2), (t, idx, c1[0]))

        # chord pieces, split at crossings; data records the far anchors of
        # the owning segment for rotational sorting
        for o in (0, 1):
            for seg in real.segments[o]:
                chain = [(seg.tri, seg.a)]
                for _, xkey in sorted(cross_on_seg.get((o, seg.index), [])):
                    chain.append(xkey)
                chain.append((seg.tri, seg.b))
                for i in range(len(chain) - 1):
                    add_edge("chord", chain[i], chain[i + 1], (o, seg.index, seg.a, seg.b))

        germs: dict[tuple, list] = {}
        for eid, (kind, tail, head, data) in enumerate(self.local_edges):
            germs.setdefault(tail, []).append((eid, True))
            germs.setdefault(head, []).append((eid, False))
        self.rot = {node: self._sort_germs(node, gs) for node, gs in germs.items()}

    def _is_crossing(self, node) -> bool:
        return node[0] == "x"

    def _node_tri(self, node) -> int:
        if self._is_crossing(node):
            return self.real.segments[0][node[1]].tri
        return node[0]

    def _germ_far_anchor(self, eid, forward):
        """Boundary coordinate the germ's segment runs toward."""
        _, tail, head, (o, segidx, a, b) = self.local_edges[eid]
        return b if forward else a

    def _sort_germs(self, node, gs):
        """CCW rotation of the germs at a local node.

        At a boundary node the fan runs from the forward boundary direction
        through the interior to the backward direction, with chord germs
        ordered by how soon (ccw) their far anchors appear.  At a crossing
        the four germs follow the cyclic boundary order of the four far
        anchors of the two chords.
        """
        tri = self._node_tri(node)
        items = self.tri_boundary_items[tri]
        m = len(items)
        item_idx = {c: i for i, (c, _) in enumerate(items)}

        if self._is_crossing(node):
            return sorted(gs, key=lambda g: item_idx[self._germ_far_anchor(*g)])

        my_idx = item_idx[node[1]]

        def key(g):
            eid, forward = g
            kind = self.local_edges[eid][0]
            if kind == "interval":
                idx = self.local_edges[eid][3][1]
                return (0.0, 0) if (idx == my_idx and forward) else (float(m) + 1.0, 0)
            far_idx = item_idx[self._germ_far_anchor(eid, forward)]
            # identical parallel chords (equal words drawn twice) tie on the
            # anchor; nest them by owner, ascending at the near end and
            # descending at the far end, so the copies never cross
            owner = self.local_edges[eid][3][0]
            return (float((far_idx - my_idx) % m) + 0.5, owner if forward else -owner)

        return sorted(gs, key=key)

    # -- face tracing and gluing ----------------------------------------

    def _glue(self):
        # half edges: (eid, dir); next with face on the left
        def opposite(h):
            return (h[0], not h[1])

        def head_of(h):
            kind, tail, head, data = self.local_edges[h[0]]
            return head if h[1] else tail

        def next_he(h):
            node = head_of(h)
            rots = self.rot[node]
            i = rots.index((h[0], not h[1]))
            eid, fwd = rots[(i - 1) % len(rots)]
            return (eid, fwd)

        faces = []
        seen = set()
        he_face = {}
        for eid in range(len(self.local_edges)):
            for d in (True, False):
                h = (eid, d)
                if h in seen:
                    continue
                cycle = []
                cur = h
                while cur not in seen:
                    seen.add(cur)
                    cycle.append(cur)
                    cur = next_he(cur)
                fid = len(faces)
                faces.append(cycle)
                for x in cycle:
                    he_face[x] = fid

        # identify and drop the outer face of each triangle disc: the face
        # whose cycle walks the boundary intervals clockwise (against item
        # order).  A clockwise boundary walk uses interval half-edges in
        # reverse direction.
        outer = set()
        for (t, idx), eid in self.interval_ids.items():
            outer.add(he_face[(eid, False)])
        inner_faces = [i for i in range(len(faces)) if i not in outer]
        # sanity: each interval's forward side must be an inner face
        for (t, idx), eid in self.interval_ids.items():
            if he_face[(eid, True)] in outer:
                raise VerificationError("overlay: boundary interval with no inner face")

        self.faces = faces
        self.he_face = he_face
        self.inner_faces = inner_faces
        self.outer = outer

        # union-find across glued intervals
        parent = {f: f for f in inner_faces}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        base = self.base
        glued_pairs = []
        matched = set()
        for t in range(base.n_triangles):
            items = self.tri_boundary_items[t]
            m = len(items)
            for idx in range(m):
                if (t, idx) in matched:
                    continue
                k = items[idx][0][0]  # the side this interval lies on
                s = base.side(Corner(t, k))
                opp = base.side_corner(-s)
                t2, k2 = opp.tri, opp.pos
                items2 = self.tri_boundary_items[t2]
                n_pts = sum(1 for c, _ in items if c[0] == k and c[1] >= 0)
                n_pts2 = sum(1 for c, _ in items2 if c[0] == k2 and c[1] >= 0)
                if n_pts != n_pts2:
                    raise VerificationError("overlay: glued sides disagree on strand count")
                start_idx = next(i for i, (c, _) in enumerate(items) if c == (k, -1))
                j = (idx - start_idx) % m  # j-th interval along side k, from its tail
                if not 0 <= j <= n_pts:
                    raise VerificationError("overlay: interval indexing broke")
                start2 = next(i for i, (c, _) in enumerate(items2) if c == (k2, -1))
                idx2 = (start2 + (n_pts - j)) % len(items2)  # gluing reverses
                if (t2, idx2) == (t, idx):
                    raise VerificationError("overlay: interval glued to itself")
                matched.add((t, idx))
                matched.add((t2, idx2))
                e1, e2 = self.interval_ids[(t, idx)], self.interval_ids[(t2, idx2)]
                f1, f2 = self.he_face[(e1, True)], self.he_face[(e2, True)]
                union(f1, f2)
                glued_pairs.append((e1, e2, f1, f2))

        self.parent = parent
        self.find = find
        self.glued_pairs = glued_pairs

    def summarize(self) -> Overlay:
        base = self.base
        find = self.find
        comp_faces: dict[int, list[int]] = {}
        for f in self.inner_faces:
            comp_faces.setdefault(find(f), []).append(f)

        # global vertex / edge incidences per component
        def gnode(local):
            if local[0] == "x":
                return local
            t, coord = local
            return dict(self.tri_boundary_items[t])[coord]

        comp_vertices: dict[int, set] = {c: set() for c in comp_faces}
        comp_chords: dict[int, set] = {c: set() for c in comp_faces}
        comp_glued: dict[int, set] = {c: set() for c in comp_faces}
        face_nodes: dict[int, set] = {}
        for fid in self.inner_faces:
            nodes = set()
            for eid, d in self.faces[fid]:
                kind, tail, head, data = self.local_edges[eid]
                nodes.add(gnode(tail))
                nodes.add(gnode(head))
                c = find(fid)
                if kind == "chord":
                    comp_chords[c].add(eid)
            face_nodes[fid] = nodes
            comp_vertices[find(fid)].update(nodes)
        for e1, e2, f1, f2 in self.glued_pairs:
            comp_glued[find(f1)].add((min(e1, e2), max(e1, e2)))

        components = []
        total_v = set()
        total_e = 0
        total_f = 0
        for c, fl in sorted(comp_faces.items()):
            v = len(comp_vertices[c])
            e = len(comp_chords[c]) + len(comp_glued[c])
            f = len(fl)
            chi = v - e + f
            marked = frozenset(x[1] for x in comp_vertices[c] if x[0] == "v")
            n_cross = sum(1 for x in comp_vertices[c] if x[0] == "x")
            components.append(
                OverlayFace(
                    faces=f,
                    euler_characteristic=chi,
                    boundary_crossings=n_cross,
                    marked_points=marked,
                    is_disc=(chi == 1),
                )
            )
            total_v |= comp_vertices[c]
            total_f += f
        # global check: the full complex is a cell structure on the surface
        all_chords = sum(1 for (kind, *_ ) in self.local_edges if kind == "chord")
        total_e = all_chords + len({(min(a, b), max(a, b)) for a, b, _, _ in self.glued_pairs})
        chi_global = len(total_v) - total_e + total_f
        expected = 2 - 2 * base.genus
        if chi_global != expected:
            raise VerificationError(f"overlay: global euler characteristic {chi_global} != {expected}")

        for comp in components:
            if comp.is_disc and not comp.marked_points and comp.boundary_crossings == 2:
                raise VerificationError("overlay: bigon between the arcs survived")
            if comp.is_disc and len(comp.marked_points) == 1 and comp.boundary_crossings == 1:
                raise VerificationError("overlay: endpoint half-bigon survived")

        return Overlay(
            v=self.real.v,
            w=self.real.w,
            crossings=self.real.crossings,
            components=tuple(components),
            euler_characteristic=chi_global,
        )

    # -- witness routing (used by the distance module) -------------------

    def route_between_marked(self):
        """A raw crossing word from P1 to P2 through one complement component.

        Returns None when no component touches both marked points; otherwise
        a (start corner, crossings, end corner) triple avoiding both arcs.
        """
        base = self.base
        find = self.find
        # faces touching a marked corner, with the corners
        p1_faces = {}
        p2_faces = {}
        for fid in self.inner_faces:
            for eid, d in self.faces[fid]:
                kind, tail, head, data = self.local_edges[eid]
                for node in (tail, head):
                    if node[0] == "x" or node[1][1] != -1:
                        continue
                    corner = Corner(node[0], node[1][0])
                    if base.vertex_of(corner) == P1:
                        p1_faces.setdefault(fid, corner)
                    else:
                        p2_faces.setdefault(fid, corner)

        comps_ok = {find(f) for f in p1_faces} & {find(f) for f in p2_faces}
        if not comps_ok:
            return None
        comp = min(comps_ok)

        adj: dict[int, list] = {}
        for e1, e2, f1, f2 in self.glued_pairs:
            if find(f1) != comp:
                continue
            t, idx, k = self.local_edges[e1][3]
            value = base.side(Corner(t, k))
            adj.setdefault(f1, []).append((f2, value))
            adj.setdefault(f2, []).append((f1, -value))

        starts = sorted(f for f in p1_faces if find(f) == comp)
        prev = {f: None for f in starts}
        queue = list(starts)
        goal = None
        while queue:
            cur = queue.pop(0)
            if cur in p2_faces and find(cur) == comp:
                goal = cur
                break
            for nxt, value in sorted(adj.get(cur, ())):
                if nxt not in prev:
                    prev[nxt] = (cur, value)
                    queue.append(nxt)
        if goal is None:
            raise VerificationError("overlay: marked component not connected")
        word = []
        cur = goal
        while prev[cur] is not None:
            cur, value = prev[cur]
            word.append(value)
        word.reverse()
        start = p1_faces[cur]
        end = p2_faces[goal]
        return start, tuple(word), end


def build_overlay(v: ArcWord, w: ArcWord) -> Overlay:
    """Overlay complex of two reduced embedded words over one base."""
    return _OverlayBuilder(Realization(v, w)).summarize()
