"""Minimal-position realization of arcs and pairwise intersection counting.

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
        self._item_idx: dict[int, dict] = {}  # tri -> {coordinate: item index}
        self._node_at = pts  # tri -> {coordinate: global node}
        self._side_strands: dict[int, list] = {}  # tri -> strand count on each side
        self.interval_ids: dict[tuple, int] = {}  # (tri, item index) -> edge id

        def add_edge(kind, tail, head, data):
            self.local_edges.append((kind, tail, head, data))
            return len(self.local_edges) - 1

        for t in range(base.n_triangles):
            items = sorted(pts[t].items())
            self.tri_boundary_items[t] = items
            self._item_idx[t] = {c: i for i, (c, _) in enumerate(items)}
            counts = [0, 0, 0]
            for (k, rank), _ in items:
                if rank >= 0:
                    counts[k] += 1
            self._side_strands[t] = counts
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
        item_idx = self._item_idx[self._node_tri(node)]
        m = len(item_idx)

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
                n_pts = self._side_strands[t][k]
                if n_pts != self._side_strands[t2][k2]:
                    raise VerificationError("overlay: glued sides disagree on strand count")
                idx2_of = self._item_idx[t2]
                j = (idx - self._item_idx[t][(k, -1)]) % m  # j-th interval along side k, from its tail
                if not 0 <= j <= n_pts:
                    raise VerificationError("overlay: interval indexing broke")
                idx2 = (idx2_of[(k2, -1)] + (n_pts - j)) % len(idx2_of)  # gluing reverses
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
            return self._node_at[t][coord]

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
