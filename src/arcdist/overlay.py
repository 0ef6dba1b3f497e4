"""The overlay cell complex of two realized arcs.

This module is the overlay layer.  It reads a ``Realization`` from
:mod:`arcdist.realization`, which holds the strand order and slots, the
segments, the crossings and each segment's crossing partners, and
re-exports that module's public names for callers that reach them here.

A realization induces a cell decomposition of the surface (the overlay):
faces are the complement components of the two arcs, glued from
per-triangle arrangements across the edges.  Two computations of it exist.
The sign-vector pass keys each local face by its sign vector (the chords
it lies beyond) in one linear pass per triangle, carrying each chord's two
side ids along it past its partners; it is the only one that runs at run
time.  It checks minimality (Euler characteristic 2 - 2g, no bigon or
endpoint half-bigon survives) on per-root counts of the union-find over
the glued intervals, and, for the distance-2 criterion in
:mod:`arcdist.distance`, routes the witness arc of an exact-2 verdict
through a component touching both marked points.  ``marked_route``
returns only that route, which is all the run time needs;
``complement_components`` also builds an ``OverlayFace`` record per
component.  The face tracer (``_OverlayBuilder``, behind ``build_overlay``,
reached only through this module) sorts the germs at every node and
walks each face, chaining each chord's crossings from the crossing records
rather than the partner lists.  It is the test suite's reference, which
checks that both give the same components.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

from .errors import VerificationError
from .surface import P1, P2, Corner, edge_of
from .arc import ArcWord

# the realization layer's public names, re-exported for callers of this module
from .realization import Realization, intersection, intersection_via_flips, self_intersection  # noqa: F401


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


def _glued_intervals(base, strands) -> list[tuple[int, int, int, int, int, int]]:
    """Each run of boundary intervals glued across a triangulation edge.

    ``strands[t][k]`` counts the strand points on side k of triangle t.
    Going ccw, triangle t's boundary items are corner k and then the strand
    points of side k by rank, for k = 0, 1, 2; interval idx runs from item
    idx to the next.  Side k's n + 1 intervals start at its corner's item
    c, and the j-th of them, counted from the tail corner, is glued to
    interval n - j of the opposite side (the gluing reverses direction).

    Returns one run ``(t, c, t2, c2, n, value)`` per edge: interval c + j of
    t is glued to interval c2 + n - j of t2, for j = 0..n, across the side
    labelled ``value``.  The runs go side by side in ``(t, idx)`` order, and
    each edge's run is kept on the side whose intervals come first, so every
    pair is listed once, in the order of its first interval.
    """
    starts = [(0, n0 + 1, n0 + n1 + 2) for n0, n1, _ in strands]
    runs = []
    for t, counts in enumerate(strands):
        for k, value in enumerate(base.triangles[t]):
            t2, k2 = base.side_corner(-value)
            n = counts[k]
            if n != strands[t2][k2]:
                raise VerificationError("overlay: glued sides disagree on strand count")
            if (t2, k2) == (t, k):
                raise VerificationError("overlay: interval glued to itself")
            if (t, k) < (t2, k2):
                runs.append((t, starts[t][k], t2, starts[t2][k2], n, value))
    return runs


def _check_minimal(chi_global: int, genus: int, chis, crossings, marked) -> None:
    """The overlay is a cell structure on the surface, and no bigon or
    endpoint half-bigon survives: the realization is in minimal position.

    ``chis``, ``crossings`` and ``marked`` give each component's Euler
    characteristic, crossing count and number of marked points, side by
    side; entries of all zeros (no component) pass.
    """
    expected = 2 - 2 * genus
    if chi_global != expected:
        raise VerificationError(f"overlay: global euler characteristic {chi_global} != {expected}")
    for chi, n_cross, n_marked in zip(chis, crossings, marked):
        if chi == 1 and n_cross + n_marked == 2:
            if n_marked == 0:
                raise VerificationError("overlay: bigon between the arcs survived")
            if n_marked == 1:
                raise VerificationError("overlay: endpoint half-bigon survived")


def _sign_vector_pass(real: Realization):
    """The complement components of two realized arcs, as per-root counts.

    Within a triangle the chords of both arcs cross at most once, so a local
    face is fixed by its sign vector: the set of chords it lies beyond.
    Each chord gets one bit; sweeping the boundary ccw, the key of each gap
    is the XOR of the chord ends passed so far.  At a corner the chord ends
    are passed in the reverse of their ccw rotation (far anchor descending,
    owner tie-break as in ``_OverlayBuilder._sort_germs``), and each sector
    between them touches the corner's marked point.  A chord's two side ids
    start from the faces around its low end and are carried along it: past
    each crossing they become the two faces beyond the crossed chord, so the
    four faces around a crossing are the sides of the v pieces meeting
    there.  Faces are the distinct ``(triangle, key)`` pairs, glued across
    edges along the same intervals as the face tracer.  Their ids are
    allocated in the order gaps, sectors, chord pieces; that order fixes the
    union-find roots, and with them the route's choices.

    Returns ``(root, chi, crossings, marked_at, route)``.  ``root`` maps each
    face id to its component's union-find root; ``chi`` and ``crossings``
    hold each root's Euler characteristic and crossing count (0 off the
    roots); ``marked_at`` holds, per marked point, the roots touching it;
    ``route`` is :func:`_marked_route`'s.  Runs the minimality checks on
    those counts, raising ``VerificationError`` on failure.
    """
    base = real.base
    order = real.edge_order
    partners = real.partners  # per arc, per segment: the crossed segments from its end a
    in_tri = [[] for _ in range(base.n_triangles)]  # v chords first, then w chords
    for segs in real.segments:
        for s in segs:
            in_tri[s.tri].append(s)
    bits = tuple([0] * len(segs) for segs in real.segments)  # each chord's bit in its triangle

    strands, gap_faces = [], []
    # face ids on the two sides of every strand point (each once, from the +
    # side of its edge) and of every chord's first piece; and per arc, the
    # four faces around each crossing along its chords, the sides of the
    # piece before it first and of the piece beyond it last
    point_lo, point_hi, first_pieces, quads = [], [], [], ([], [])
    # per marked point, each face touching it, with the corner first reached
    # ccw from the face's first interval
    touch = ({}, {})
    nf = 0  # faces allocated so far
    for t, chords in enumerate(in_tri):
        labels = base.triangles[t]
        counts = [len(order.get(edge_of(value), ())) for value in labels]
        n0, n1, n2 = counts
        start = (0, n0 + 1, n0 + n1 + 2)  # item index of each corner
        m = n0 + n1 + n2 + 3
        toggled = [0] * m  # bits of the chords ending at each boundary item
        ends = ([], [], [])  # per corner: (chord, far end, tie) of each chord ending there
        lows = []  # per chord: item index of its low end, whether that is end b, and at a corner
        for i, s in enumerate(chords):
            bit = bits[s.owner][s.index] = 1 << i
            (ka, ra), (kb, rb) = a, b = s.a, s.b
            pa, pb = start[ka] + 1 + ra, start[kb] + 1 + rb  # a corner's rank -1 lands on its item
            toggled[pa] ^= bit
            toggled[pb] ^= bit
            if ra < 0:
                ends[ka].append((i, b, s.owner))
            if rb < 0:
                ends[kb].append((i, a, -s.owner))
            lows.append((pb, True, rb < 0) if pb < pa else (pa, False, ra < 0))
        # every strand point holds exactly one chord end: as many ends as
        # points, and none left empty (the other zeros are corners no chord ends at)
        point_ends = 2 * len(chords) - sum(map(len, ends))
        empty = toggled.count(0) - sum(toggled[c] == 0 for c in start)
        if point_ends != m - 3 or empty:
            raise VerificationError("overlay: chord ends do not match the strands on the edges")

        # the ccw sweep: the key of each gap, and gap face ids in order of
        # each face's first interval
        faces: dict[int, int] = {}  # key -> face id
        setdefault = faces.setdefault
        gaps, keys = [], []
        key = 0
        for bit in toggled:
            key ^= bit
            f = setdefault(key, nf)
            if f == nf:
                nf += 1
            gaps.append(f)
            keys.append(key)
        gap_end = nf  # this triangle's gap faces are the ids below
        for k, c in enumerate(start):
            if labels[k] > 0 and counts[k]:
                point_lo += gaps[c : c + counts[k]]
                point_hi += gaps[c + 1 : c + 1 + counts[k]]

        corner_key = {}  # chord -> key before it, at its first corner end
        for k, c in enumerate(start):
            key = keys[c - 1]  # the key before the corner; keys[-1] is 0, every chord ends twice
            sector_keys = [key]
            if ends[k]:
                # far ends ccw from the corner, descending: (far < corner, far)
                corner = (k, -1)
                for i, _, _ in sorted(ends[k], key=lambda e: (e[1] < corner, e[1], e[2]), reverse=True):
                    corner_key.setdefault(i, key)
                    key ^= 1 << i
                    sector_keys.append(key)
            at = touch[base.vertex_of((t, k))]
            for key in sector_keys:
                f = setdefault(key, nf)
                if f == nf:
                    nf += 1
                reach = ((c - gaps.index(f)) % m if f < gap_end else 0, t, k)
                if f not in at or reach < at[f]:
                    at[f] = reach

        for i, s in enumerate(chords):
            b = 1 << i
            lo, from_b, at_corner = lows[i]
            if at_corner:
                key = corner_key[i]
                near, far = faces[key], faces[key ^ b]
            else:
                key, near, far = keys[lo - 1], gaps[lo - 1], gaps[lo]
            first_pieces.append((near, far))
            crossed = partners[s.owner][s.index]
            if from_b:
                crossed = crossed[::-1]
            other, around = bits[1 - s.owner], quads[s.owner]
            for p in crossed:
                key ^= other[p]
                after = setdefault(key, nf)
                if after == nf:
                    nf += 1
                beyond = setdefault(key ^ b, nf)
                if beyond == nf:
                    nf += 1
                around.append((near, far, after, beyond))
                near, far = after, beyond
        strands.append(counts)
        gap_faces.append(gaps)

    # union-find across the glued intervals; a pair whose faces are already
    # joined closes a cycle, so a component with F faces and G glued pairs
    # has F - G = 1 - (its cycles)
    runs = _glued_intervals(base, strands)
    parent = list(range(nf))
    cycles = []
    n_glued = 0
    for t, c, t2, c2, n, _ in runs:
        there = gap_faces[t2][c2 : c2 + n + 1]
        there.reverse()
        for f1, f2 in zip(gap_faces[t][c : c + n + 1], there):
            while parent[f1] != f1:
                parent[f1] = f1 = parent[parent[f1]]
            while parent[f2] != f2:
                parent[f2] = f2 = parent[parent[f2]]
            if f1 == f2:
                cycles.append(f1)
            else:
                parent[f1] = f2
        n_glued += n + 1
    root = parent
    for f in range(nf):
        r = root[f]
        while root[r] != r:
            r = root[r]
        root[f] = r

    # fold the rest onto the roots: each vertex and edge counts once on
    # every component it borders
    chi = [0] * nf
    crossings = [0] * nf
    marked = [0] * nf
    for r in set(root):
        chi[r] = 1
    for f in cycles:
        chi[root[f]] -= 1
    for lo, hi in zip(point_lo, point_hi):
        r, r2 = root[lo], root[hi]
        chi[r] += 1
        if r2 != r:
            chi[r2] += 1
    # each chord's first piece, and w's pieces beyond its crossings; v's
    # pieces beyond its crossings are folded with the crossings below
    for near, far in chain(first_pieces, ((c, d) for _, _, c, d in quads[1])):
        r, r2 = root[near], root[far]
        chi[r] -= 1
        if r2 != r:
            chi[r2] -= 1
    for a, b, c, d in quads[0]:
        # the crossing is a vertex of each component around it, and v's piece
        # beyond it an edge of those on c and d: chi gains on a and b only
        a, b, c, d = root[a], root[b], root[c], root[d]
        for r in {a, b, c, d}:
            crossings[r] += 1
        if a != c and a != d:
            chi[a] += 1
        if b != a and b != c and b != d:
            chi[b] += 1
    marked_at = tuple({root[f] for f in faces_at} for faces_at in touch)
    for roots in marked_at:
        for r in roots:
            chi[r] += 1
            marked[r] += 1
    n_marked = sum(1 for faces_at in touch if faces_at)
    n_crossings = len(quads[0])
    n_pieces = len(first_pieces) + 2 * n_crossings
    chi_global = len(point_lo) + n_marked + n_crossings - n_pieces - n_glued + nf
    _check_minimal(chi_global, base.genus, chi, crossings, marked)
    both = marked_at[0] & marked_at[1]
    route = _marked_route(runs, gap_faces, root, touch, both) if both else None
    return root, chi, crossings, marked_at, route


def complement_components(real: Realization) -> tuple[tuple[OverlayFace, ...], tuple | None]:
    """The complement components of two realized arcs, without face tracing,
    and a raw route from P1 to P2 through one of them.

    Runs the sign-vector pass (see :func:`_sign_vector_pass`), which checks
    minimality on per-root counts, and builds one ``OverlayFace`` record per
    component from them.  Returns ``(components, route)``: the records of
    ``build_overlay(v, w).components`` (in another order) and the route of
    :func:`_marked_route`.  Raises ``VerificationError`` when a minimality
    check fails.  Callers that want only the route use :func:`marked_route`,
    which builds no records.
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


def marked_route(real: Realization) -> tuple | None:
    """The route of :func:`complement_components`, from the same pass, with
    the same minimality checks, but without building component records."""
    return _sign_vector_pass(real)[-1]


def _marked_route(runs, gap_faces, root, touch, both):
    """A raw crossing word from P1 to P2 through one complement component.

    ``both`` holds the roots of the components touching both marked points;
    returns a ``(start corner, crossings, end corner)`` triple avoiding both
    arcs.  Face ids ascend with each face's first ``(triangle, interval)``,
    so the choices are the face tracer's, which fix the witness bytes: the
    component with the first union-find root (a face on no triangle side,
    such as the sliver between equal words, counts last), breadth-first
    search from its P1 faces in id order over neighbours sorted by
    ``(face, side label)``, and as each end face's corner the one first
    reached ccw from its first interval.
    """
    at1, at2 = touch[P1], touch[P2]  # face -> (reach, triangle, corner position)
    sided = {f for gaps in gap_faces for f in gaps}
    comp = min(both, key=lambda r: (r not in sided, r))  # faces on no triangle side last
    adj: dict[int, list] = {}
    for t, c, t2, c2, n, value in runs:
        there = gap_faces[t2][c2 : c2 + n + 1]
        there.reverse()
        for f1, f2 in zip(gap_faces[t][c : c + n + 1], there):
            if root[f1] == comp:
                adj.setdefault(f1, []).append((f2, value))
                adj.setdefault(f2, []).append((f1, -value))
    starts = sorted(f for f in at1 if root[f] == comp)
    prev = dict.fromkeys(starts)
    queue = deque(starts)
    # union-find classes are glue-connected, so a P2 face of comp is reached
    while (cur := queue.popleft()) not in at2:
        for nxt, value in sorted(adj.get(cur, ())):
            if nxt not in prev:
                prev[nxt] = (cur, value)
                queue.append(nxt)
    end = Corner(*at2[cur][1:])
    word = []
    while prev[cur] is not None:
        cur, value = prev[cur]
        word.append(value)
    return Corner(*at1[cur][1:]), tuple(reversed(word)), end


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
                for value, slots in zip((c, -c), real.slots[o]):
                    sc = base.side_corner(value)
                    pts[sc.tri][(sc.pos, slots[i])] = ("p", o, i)
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
            crossings=self.real.crossings,
            components=tuple(components),
            euler_characteristic=chi_global,
        )


def build_overlay(v: ArcWord, w: ArcWord) -> Overlay:
    """Overlay complex of two reduced embedded words over one base."""
    return _OverlayBuilder(Realization(v, w)).summarize()
