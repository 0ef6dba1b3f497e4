import hashlib
import json
import random

import pytest

from arcdist import (
    P1,
    P2,
    Corner,
    InvalidTriangulation,
    PreconditionError,
    Triangulation,
    UnflippableEdge,
    build_standard_triangulation,
)
from arcdist.surface import flip_walk

from conftest import is_isomorphic


def _refused(*args, **kwargs) -> list[str]:
    """The problems ``Triangulation(*args, **kwargs)`` is refused with; the
    message joins them."""
    with pytest.raises(InvalidTriangulation) as refused:
        Triangulation(*args, **kwargs)
    assert str(refused.value) == "; ".join(refused.value.problems)
    return refused.value.problems


def _assert_reanalysed(t):
    """A full analysis of ``t``'s table accepts it and derives the same
    anchor, side corners and marked points: a flip writes its table
    without an analysis, so this is the check that it is valid."""
    again = Triangulation.from_json_dict(t.to_json_dict())
    assert again == t
    assert (again._side_of, again._vertex_of_corner) == (t._side_of, t._vertex_of_corner)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_standard_tables_counts(g):
    t = build_standard_triangulation(g)
    _assert_reanalysed(t)
    assert t.n_edges == 6 * g
    assert t.n_triangles == 4 * g
    assert len(t.corners_at(0)) + len(t.corners_at(1)) == 12 * g
    # V - E + F = 2 - 2g with V = 2
    assert 2 - t.n_edges + t.n_triangles == 2 - 2 * g


def test_genus_zero_rejected():
    with pytest.raises(PreconditionError, match="genus must be >= 1, got 0"):
        build_standard_triangulation(0)


def test_standard_tables_match_shipped_data():
    from importlib import resources

    for g in (1, 2, 3, 4):
        raw = resources.files("arcdist.data").joinpath(f"triangulations/standard_g{g}.json").read_text()
        assert Triangulation.from_json_dict(json.loads(raw)) == build_standard_triangulation(g)


def test_validator_accepts_standard_and_reports_edge_degree():
    _assert_reanalysed(build_standard_triangulation(1))
    # label 3 used once (and label 2 three times)
    broken = _refused(1, [(3, 1, -4), (4, 2, -5), (5, -1, -6), (6, -2, -2)])
    assert any("edge degree" in v for v in broken)


def test_validator_reports_orientation():
    tris = [(3, 1, -4), (4, 2, -5), (5, 1, -6), (6, -2, -3)]
    assert any("orientation" in v for v in _refused(1, tris))


def test_validator_reports_vertex_count():
    # the two-triangle square torus: a perfectly good one-vertex ideal
    # triangulation, rejected here because both marked points must exist
    violations = _refused(1, [(1, 2, -3), (3, -1, -2)])
    assert any("vertex count" in v and "1 classes" in v for v in violations)
    # a vertex-splitting regluing of the standard table
    assert any("vertex count" in v for v in _refused(1, [(4, 1, -4), (3, 2, -5), (5, -1, -6), (6, -2, -3)]))


def test_flip_preserves_counts_and_validity(g1):
    for e in range(g1.n_edges):
        if not g1.is_flippable(e):
            continue
        f = g1.flip(e)
        _assert_reanalysed(f)
        assert (f.n_edges, f.n_triangles) == (g1.n_edges, g1.n_triangles)
        assert len(f.corners_at(0)) > 0 and len(f.corners_at(1)) > 0


def test_double_flip_is_isomorphic(g1, g2):
    for base in (g1, g2):
        for e in range(base.n_edges):
            if not base.is_flippable(e):
                continue
            twice = base.flip(e).flip(e)
            assert is_isomorphic(twice, base)


def test_unflippable_edge_raises(g1):
    # six flips from standard reach a table with a self-folded triangle
    cur = g1
    for e in (3, 2, 5, 5, 5, 2):
        cur = cur.flip(e)
    _assert_reanalysed(cur)
    assert not cur.is_flippable(4)
    with pytest.raises(UnflippableEdge):
        cur.flip(4)


def test_random_walk_stays_valid(g2):
    tables, seq = flip_walk(g2, random.Random(11), 50)
    end = tables[-1]
    assert len(seq) == 50
    cur = g2
    for e in seq:
        cur = cur.flip(e)
        _assert_reanalysed(cur)
    assert cur == end


def test_random_flip_walk_output_is_pinned():
    """Seeded walks are data, like seeded arcs: tests and the ``ARCDIST_SEED``
    spot check draw their tables from them."""
    digest = hashlib.sha256()
    for genus in (1, 2, 3, 4):
        base = build_standard_triangulation(genus)
        for seed in range(20):
            for steps in (0, 1, 7, 40):
                tables, flips = flip_walk(base, random.Random(seed), steps)
                end = tables[-1]
                digest.update(repr((flips, end.triangulation_id())).encode())
                digest.update(b";")
    assert digest.hexdigest() == "f382af82d79ba2a0923c9c7b640fda90ac21325ee6db442b5aa763a865e29dde"


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_flip_walk_keeps_every_table_and_draws_from_the_callers_rng(g):
    base = build_standard_triangulation(g)
    rng = random.Random(f"flip-walk-{g}")
    tables, flips = flip_walk(base, rng, 60)
    assert tables[0] is base and len(tables) == len(flips) + 1 == 61
    assert all(t._corners is base._corners for t in tables)
    again = random.Random(f"flip-walk-{g}")
    for i, e in enumerate(flips):
        assert e == again.choice(_flippable(tables[i]))
        assert tables[i + 1] == tables[i].flip(e)
    assert rng.random() == again.random()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_flip_builds_no_corner(g, built_corners):
    """A flip fills the quad's side entries from the table's shared Corner
    tuple, from which the P1 anchor is read too."""
    cur = flip_walk(build_standard_triangulation(g), random.Random(g), 10)[0][-1]
    built_corners.clear()
    rng = random.Random(f"no-corner-{g}")
    for _ in range(200):
        cur = cur.flip(rng.choice(_flippable(cur)))
    assert built_corners == []


def test_flip_walk_reaches_nonisomorphic_tables(g1):
    end = flip_walk(g1, random.Random(3), 9)[0][-1]
    _assert_reanalysed(end)


def test_serialization_round_trip(g1):
    doc = g1.to_json_dict()
    again = Triangulation.from_json_dict(doc)
    assert again == g1
    assert again.triangulation_id() == g1.triangulation_id()


def test_triangulation_id_is_a_cached_content_hash(g2):
    flippable = next(e for e in range(g2.n_edges) if g2.is_flippable(e))
    tables = [build_standard_triangulation(g) for g in (1, 2, 3, 4)] + [g2.flip(flippable)]
    for t in tables:
        blob = json.dumps(t.to_json_dict(), sort_keys=True, separators=(",", ":"))
        first = t.triangulation_id()
        assert first == hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert t.triangulation_id() is first
    assert tables[-1].triangulation_id() != g2.triangulation_id()


def test_canonical_form_stable_under_relabelling(g1):
    # relabel edges by a fixed permutation; canonical forms must agree
    perm = {1: 3, 2: 1, 3: 2, 4: 6, 5: 4, 6: 5}

    def mapped(s):
        return perm[abs(s)] * (1 if s > 0 else -1)

    tris = [tuple(mapped(s) for s in t) for t in g1.triangles]
    relabeled = Triangulation(1, tris, p1_corner=(0, 1))
    _assert_reanalysed(relabeled)
    assert is_isomorphic(relabeled, g1)


def _flippable(t):
    return [e for e in range(t.n_edges) if t.is_flippable(e)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_local_flip_matches_a_table_built_from_scratch(g):
    """Every flip of a seeded walk against the full analysis of its table.

    The scratch table is anchored through a corner outside the flipped quad,
    whose label the flip did not touch, so the comparison also checks which
    class the local flip calls P1.

    ``flip`` checks nothing of its output, on the proof in its docstring;
    the walks must reach the proof's harder cases, so the test counts the
    flips whose quad holds both sides of an outer edge, and those with a
    self-folded quad triangle (two sides of one edge in one triangle)."""
    cur = build_standard_triangulation(g)
    rng = random.Random(f"local-flip-{g}")
    outer_pairs = self_folded = 0
    for _ in range(3000):
        e = rng.choice(_flippable(cur))
        quad = {cur.side_corner(e + 1).tri, cur.side_corner(-(e + 1)).tri}
        rows = [[s for s in cur.triangles[t] if abs(s) != e + 1] for t in quad]
        outer = rows[0] + rows[1]
        outer_pairs += any(-s in outer for s in outer)
        self_folded += any(a == -b for a, b in rows)
        outside = next(Corner(t, 0) for t in range(cur.n_triangles) if t not in quad)
        flipped = cur.flip(e)
        full = Triangulation(g, flipped.triangles, p1_corner=outside)
        if cur.vertex_of(outside) == P2:  # anchor at a corner of the other class
            full = Triangulation(g, flipped.triangles, p1_corner=full.corners_at(P2)[0])
        for s in range(1, flipped.n_edges + 1):
            assert flipped.side_corner(s) == full.side_corner(s)
            assert flipped.side_corner(-s) == full.side_corner(-s)
        for t in range(flipped.n_triangles):
            for k in range(3):
                assert flipped.vertex_of(Corner(t, k)) == full.vertex_of(Corner(t, k))
        assert flipped.corners_at(P1) == full.corners_at(P1)
        assert flipped.corners_at(P2) == full.corners_at(P2)
        assert flipped == full and hash(flipped) == hash(full)
        assert flipped.triangulation_id() == full.triangulation_id()
        cur = flipped
    assert outer_pairs > 0 and self_folded > 0


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_lookups_outside_the_table_raise_key_error(g):
    """The flat side and corner tables are indexed by label and by
    3 * tri + pos; a label or corner outside the table, or one that is not
    made of integers, must not wrap around to another entry."""
    standard = build_standard_triangulation(g)
    flipped = standard.flip(_flippable(standard)[0])
    for t in (standard, flipped):
        n_edges, n_tris = t.n_edges, t.n_triangles
        for label in (0, n_edges + 1, -(n_edges + 1)):
            with pytest.raises(KeyError):
                t.side_corner(label)
        for tri in range(n_tris):
            for corner in ((tri, 3), (tri, -1)):
                with pytest.raises(KeyError):
                    t.vertex_of(corner)
        with pytest.raises(KeyError):
            t.vertex_of((n_tris, 0))
        for label in (1.5, None, "1"):
            with pytest.raises(KeyError):
                t.side_corner(label)
        for corner in ((-1, 0), (n_tris, 0), (0, 3), (0, -1), (0, 1.0), (1.5, 0), (0, 1, 2)):
            for lookup in (t.side, t.vertex_of, t.corners_around):
                with pytest.raises(KeyError):
                    lookup(corner)


def test_a_table_that_splits_a_marked_point_is_refused_when_built():
    """A table that glues edge by edge but splits a marked point has its
    side table built during the analysis; the constructor still refuses it,
    so no lookup or flip can reach it, and the loader refuses it alike."""
    rows = [(4, 1, -4), (3, 2, -5), (5, -1, -6), (6, -2, -3)]
    problems = ["vertex count: corner tracing yields 4 classes (expected 2)", "euler: V-E+F = 2 but 2-2g = 0"]
    assert _refused(1, rows) == problems
    doc = {"genus": 1, "triangles": [list(r) for r in rows], "p1_corner": [0, 0]}
    with pytest.raises(InvalidTriangulation) as refused:
        Triangulation.from_json_dict(doc)
    assert refused.value.problems == problems


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_corners_around_rotates_one_vertex(g):
    """Each corner's rotation starts at it, holds exactly the corners of its
    marked point, and is the same cycle read from any of them."""
    for t in (build_standard_triangulation(g), flip_walk(build_standard_triangulation(g), random.Random(g), 25)[0][-1]):
        for tri in range(t.n_triangles):
            for k in range(3):
                corner = Corner(tri, k)
                around = t.corners_around(corner)
                assert around[0] == corner
                assert sorted(around) == t.corners_at(t.vertex_of(corner))
                for i, other in enumerate(around):
                    assert t.corners_around(other) == around[i:] + around[:i]
