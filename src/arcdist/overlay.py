"""The overlay cell complex of two realized arcs.

This module is the overlay layer.  It reads a ``Realization`` from
:mod:`arcdist.realization`, which stores the strand order, the segments'
end codes and each segment's crossing partners, and re-exports that
module's public names for callers that reach them here.

A realization induces a cell decomposition of the surface (the overlay):
faces are the complement components of the two arcs, glued from
per-triangle arrangements across the edges.  Two computations of it exist.
The sign-vector pass here keys each local face by its sign vector (the
chords it lies beyond) in one linear pass per triangle, carrying each
chord's two side ids along it past its partners; it is the only one that
runs at run time.  It checks minimality (Euler characteristic 2 - 2g, no
bigon or endpoint half-bigon survives) on per-root counts of the
union-find over the glued intervals, and, for the distance-2 criterion in
:mod:`arcdist.distance`, routes the witness arc of an exact-2 verdict
through a component touching both marked points.  ``marked_route``
returns only that route, which is all the run time needs.

The reference, the test suite's check on the pass, is loaded from
:mod:`arcdist._overlay_reference` on first access to one of its names
here.  ``complement_components`` builds an ``OverlayFace`` record per
component from the same pass.  The face tracer (``_OverlayBuilder``,
behind ``build_overlay``) reads the same end codes and partner lists,
sorts the germs at every node and walks each face, and counts the
crossing vertices it traced.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .errors import VerificationError
from .surface import P1, P2, Corner, edge_of

# the realization layer's public names, re-exported for callers of this module
from .realization import Realization, intersection, intersection_via_flips, self_intersection  # noqa: F401

_REFERENCE = frozenset({"OverlayFace", "Overlay", "complement_components", "_OverlayBuilder", "build_overlay"})


def __getattr__(name):
    """A name of the reference in arcdist._overlay_reference, imported on first access (PEP 562)."""
    if name not in _REFERENCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _overlay_reference

    return getattr(_overlay_reference, name)


# ----------------------------------------------------------------------
# the sign-vector pass


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
    side_of = base._side_of  # every label of a valid table
    runs = []
    for t, counts in enumerate(strands):
        for k, value in enumerate(base.triangles[t]):
            t2, k2 = side_of[-value]
            n = counts[k]
            if n != strands[t2][k2]:
                raise VerificationError("overlay: glued sides disagree on strand count")
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
    vertex = base._vertex_of_corner
    order, S = real.edge_order, real.S  # edge -> its strands in order; only their number is read here
    partners = real.partners  # per arc, per segment: the crossed segments from its end a
    in_tri = [[] for _ in range(base.n_triangles)]  # (owner, segment, end a, end b), v chords first
    for owner, segs in enumerate(real.ends):
        for j, (t, a, b) in enumerate(segs):
            in_tri[t].append((owner, j, a, b))
    bits = tuple([0] * len(segs) for segs in real.ends)  # each chord's bit in its triangle

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
        for i, (owner, j, a, b) in enumerate(chords):
            bit = bits[owner][j] = 1 << i
            (ka, ra), (kb, rb) = divmod(a, S), divmod(b, S)
            pa, pb = start[ka] + ra, start[kb] + rb  # a corner's code, 0 mod S, lands on its item
            toggled[pa] ^= bit
            toggled[pb] ^= bit
            if not ra:
                ends[ka].append((i, b, owner))
            if not rb:
                ends[kb].append((i, a, -owner))
            lows.append((pb, True, not rb) if pb < pa else (pa, False, not ra))
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
                corner = k * S
                for i, _, _ in sorted(ends[k], key=lambda e: (e[1] < corner, e[1], e[2]), reverse=True):
                    corner_key.setdefault(i, key)
                    key ^= 1 << i
                    sector_keys.append(key)
            at = touch[vertex[3 * t + k]]
            for key in sector_keys:
                f = setdefault(key, nf)
                if f == nf:
                    nf += 1
                reach = ((c - gaps.index(f)) % m if f < gap_end else 0, t, k)
                if f not in at or reach < at[f]:
                    at[f] = reach

        for i, (owner, j, _, _) in enumerate(chords):
            b = 1 << i
            lo, from_b, at_corner = lows[i]
            if at_corner:
                key = corner_key[i]
                near, far = faces[key], faces[key ^ b]
            else:
                key, near, far = keys[lo - 1], gaps[lo - 1], gaps[lo]
            first_pieces.append((near, far))
            crossed = partners[owner][j]
            if from_b:
                crossed = crossed[::-1]
            other, around = bits[1 - owner], quads[owner]
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


def marked_route(real: Realization) -> tuple | None:
    """The route of :func:`_sign_vector_pass`, with its minimality checks;
    no component records are built."""
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
