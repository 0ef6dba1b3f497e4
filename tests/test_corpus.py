import pytest

from arcdist import VerificationError, build_standard_triangulation
from arcdist.arc import edge_word, random_arc
from arcdist.corpus import load_bundled_examples, run_examples
from arcdist.overlay import intersection

from corpus_build import rim_pairing, torus_wrapping


def test_rim_pairing_null_for_equal_arcs(g1):
    a = edge_word(g1, 2)
    assert rim_pairing(a, a) == (0, 0)


def test_rim_pairing_is_isotopy_data(g1):
    # the pairing only depends on the pair of classes, so swapping the roles
    # negates it (the union loop reverses)
    v = random_arc(g1, 8, 6)
    w = random_arc(g1, 9, 6)
    m = rim_pairing(v, w)
    n = rim_pairing(w, v)
    assert tuple(-x for x in n) == m


def test_torus_wrapping_requires_genus_one(g2):
    a = edge_word(g2, g2.connector_edges()[0])
    with pytest.raises(VerificationError):
        torus_wrapping(a, a)


def test_bundled_torus_records_wrap_as_named():
    for rec in load_bundled_examples():
        if not rec.name.startswith("torus-knot"):
            continue
        p, q = (int(x) for x in rec.name.split("-")[2:])
        v, w = rec.shadows.v_side[0], rec.shadows.w_side[0]
        assert torus_wrapping(v, w) == tuple(sorted((p, q)))
        assert intersection(v, w) == 0


def test_figure_eight_record_shape():
    rec = next(r for r in load_bundled_examples() if r.name == "figure-eight")
    v, w = rec.shadows.v_side[0], rec.shadows.w_side[0]
    assert intersection(v, w) == 2  # two interior points, four with the marked endpoints


def test_run_examples_reports_level_numbers():
    rows = run_examples()
    by_name = {r["name"]: r for r in rows}
    assert all(r["passed"] for r in rows)
    assert by_name["trivial-knot"]["level_number"] == {"kind": "trivial"}
    assert by_name["torus-knot-2-3"]["level_number"] == {"kind": "exact", "value": 1}
    assert by_name["figure-eight"]["level_number"] == {"kind": "exact", "value": 2}
