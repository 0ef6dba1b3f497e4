"""The overlay's reference computations, which no command runs.

:mod:`arcdist.overlay` loads this module on first access to one of its
names.  The test suite checks that ``complement_components`` and the face
tracer ``build_overlay`` give the sign-vector pass's components, and that
the tracer's crossing vertices number i(v, w).  The tracer reads only what
a ``Realization`` keeps: its boundary points from the segments' end codes
and each chord's crossings, in order, from the partner lists.  It stays in
the package while the benchmark's tracer binds ``overlay._OverlayBuilder``
by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arc import ArcWord
from .errors import VerificationError
from .overlay import _check_minimal, _glued_intervals, _sign_vector_pass
from .realization import Realization
from .surface import P1, P2, Corner


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
    crossings: int  # crossing vertices of the traced complex
    components: tuple
    euler_characteristic: int


def complement_components(real: Realization) -> tuple[tuple[OverlayFace, ...], tuple | None]:
    """The complement components of two realized arcs, without face tracing,
    and a raw route from P1 to P2 through one of them.

    Runs the sign-vector pass (see :func:`arcdist.overlay._sign_vector_pass`),
    which checks minimality on per-root counts, and builds one
    ``OverlayFace`` record per component from them.  Returns
    ``(components, route)``: the records of ``build_overlay(v, w).components``
    (in another order) and the route of :func:`arcdist.overlay.marked_route`.
    Raises ``VerificationError`` when a minimality check fails.
    """
    root, chi, crossings, marked_at, route = _sign_vector_pass(real)
    n_faces = [0] * len(root)
    for r in root:
        n_faces[r] += 1
    components = tuple(
        OverlayFace(
            faces=n_faces[r],
            euler_characteristic=chi[r],
            boundary_crossings=crossings[r],
            marked_points=frozenset(p for p, roots in zip((P1, P2), marked_at) if r in roots),
            is_disc=(chi[r] == 1),
        )
        for r, parent in enumerate(root)
        if parent == r
    )
    return components, route


class _OverlayBuilder:
    """Glue per-triangle chord arrangements into the surface cell complex.

    Local nodes are ``(tri, (pos, rank))`` boundary items (rank -1 for the
    corner itself), read from ``real.ends``, and ``("x", v_seg, w_seg)``
    interior crossings, chained along each chord from ``real.partners``.  Local
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
        # end code pos * S + rank + 1 -> coordinate (pos, rank), the corner rank -1
        S = real.S
        coords = [[((a // S, a % S - 1), (b // S, b % S - 1)) for _, a, b in segs] for segs in real.ends]
        pts: dict[int, dict[tuple, tuple]] = {t: {} for t in range(base.n_triangles)}
        for o, segs in enumerate(real.ends):
            for j, (t, _, _) in enumerate(segs):
                # end a is where crossing j-1 enters, end b where crossing j leaves
                for i, coord in zip((j - 1, j), coords[o][j]):
                    if coord[1] >= 0:
                        pts[t][coord] = ("p", o, i)
        for t in range(base.n_triangles):
            for k in range(3):
                pts[t][(k, -1)] = ("v", base.vertex_of(Corner(t, k)))

        self.local_edges = []  # (kind, tail node, head node, data)
        self.tri_boundary_items: dict[int, list] = {}
        self._item_idx: dict[int, dict] = {}  # tri -> {coordinate: item index}
        self._node_at = pts  # tri -> {coordinate: global node}
        self.interval_ids: dict[tuple, int] = {}  # (tri, item index) -> edge id

        def add_edge(kind, tail, head, data):
            self.local_edges.append((kind, tail, head, data))
            return len(self.local_edges) - 1

        for t in range(base.n_triangles):
            items = sorted(pts[t].items())
            self.tri_boundary_items[t] = items
            self._item_idx[t] = {c: i for i, (c, _) in enumerate(items)}
            for idx in range(len(items)):
                (c1, _), (c2, _) = items[idx], items[(idx + 1) % len(items)]
                self.interval_ids[(t, idx)] = add_edge("interval", (t, c1), (t, c2), (t, idx, c1[0]))

        # chord pieces, split at crossings; data records the far anchors of
        # the owning segment for rotational sorting
        for o in (0, 1):
            for j, (t, _, _) in enumerate(real.ends[o]):
                a, b = coords[o][j]
                # the crossings along the segment from its end a, keyed (v segment, w segment)
                crossed = (("x", j, k) if o == 0 else ("x", k, j) for k in real.partners[o][j])
                chain = [(t, a), *crossed, (t, b)]
                for i in range(len(chain) - 1):
                    add_edge("chord", chain[i], chain[i + 1], (o, j, a, b))

        germs: dict[tuple, list] = {}
        for eid, (kind, tail, head, data) in enumerate(self.local_edges):
            germs.setdefault(tail, []).append((eid, True))
            germs.setdefault(head, []).append((eid, False))
        self.rot = {node: self._sort_germs(node, gs) for node, gs in germs.items()}

    def _is_crossing(self, node) -> bool:
        return node[0] == "x"

    def _node_tri(self, node) -> int:
        if self._is_crossing(node):
            return self.real.ends[0][node[1]][0]
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

        strands = []  # strand points on each side of each triangle
        for t in range(self.base.n_triangles):
            counts = [0, 0, 0]
            for (k, rank), _ in self.tri_boundary_items[t]:
                counts[k] += rank >= 0
            strands.append(counts)
        glued_pairs = []
        for t, c, t2, c2, n, _ in _glued_intervals(self.base, strands):
            for j in range(n + 1):
                e1, e2 = self.interval_ids[(t, c + j)], self.interval_ids[(t2, c2 + n - j)]
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
        _check_minimal(
            chi_global,
            base.genus,
            [c.euler_characteristic for c in components],
            [c.boundary_crossings for c in components],
            [len(c.marked_points) for c in components],
        )

        return Overlay(
            v=self.real.v,
            w=self.real.w,
            crossings=sum(1 for x in total_v if x[0] == "x"),
            components=tuple(components),
            euler_characteristic=chi_global,
        )


def build_overlay(v: ArcWord, w: ArcWord) -> Overlay:
    """Overlay complex of two reduced embedded words over one base."""
    return _OverlayBuilder(Realization(v, w)).summarize()
