import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcdist import build_standard_triangulation, serialize
from arcdist.arc import edge_word, random_arc
from arcdist.cli import main
from arcdist.corpus import build_examples, corpus_json_bytes, load_bundled_examples
from arcdist.distance import ShadowPairInput, classify
from arcdist.leveling import sequence_to_level_certificate
from arcdist.surgery import path_between

from conftest import seeded_pairs


@pytest.fixture()
def workdir(tmp_path, g1):
    v = random_arc(g1, 31002, 30)
    w = random_arc(g1, 31003, 30)
    serialize.write_doc(tmp_path / "pair.json", serialize.pair_dict(v, w))
    serialize.write_doc(tmp_path / "v.json", serialize.arc_file_dict(v))
    serialize.write_doc(tmp_path / "w.json", serialize.arc_file_dict(w))
    serialize.write_doc(
        tmp_path / "shadows.json", ShadowPairInput(g1, (v,), (w,)).to_json_dict()
    )
    return tmp_path


def test_tri_standard_and_check(tmp_path, capsys):
    out = tmp_path / "tri.json"
    assert main(["tri", "--standard", "2", "-o", str(out)]) == 0
    assert main(["tri", "--check", str(out)]) == 0
    assert "ok: genus 2" in capsys.readouterr().out


def test_tri_check_reports_violations(tmp_path, capsys):
    doc = build_standard_triangulation(1).to_json_dict()
    doc["triangles"][0] = [3, 1, 4]
    serialize.write_doc(tmp_path / "bad.json", doc)
    assert main(["tri", "--check", str(tmp_path / "bad.json")]) == 1
    assert "violation" in capsys.readouterr().out


def test_dist_emits_verifiable_certificate(workdir, capsys):
    cert = workdir / "cert.json"
    assert main(["dist", str(workdir / "pair.json"), "-o", str(cert)]) == 0
    assert main(["check-cert", str(cert)]) == 0


def test_path_and_check(workdir):
    seq = workdir / "seq.json"
    assert main(["path", str(workdir / "v.json"), str(workdir / "w.json"), "-o", str(seq)]) == 0
    assert main(["check-cert", str(seq)]) == 0


def test_level_report_and_render(workdir):
    rep = workdir / "report.json"
    assert main(["level", str(workdir / "shadows.json"), "-o", str(rep)]) == 0
    assert main(["check-cert", str(rep)]) == 0
    svgdir = workdir / "figs"
    assert main(["render", str(rep), "--svg", str(svgdir)]) == 0
    assert (svgdir / "levels.svg").read_text().startswith("<svg")


def test_render_pair(workdir):
    svgdir = workdir / "figs2"
    assert main(["render", str(workdir / "pair.json"), "--svg", str(svgdir)]) == 0
    assert (svgdir / "pair.svg").read_text().startswith("<svg")


def test_exit_codes(tmp_path, workdir):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check-cert", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    serialize.write_doc(unknown, {"format": "arcdist.unknown/1"})
    assert main(["check-cert", str(unknown)]) == 3
    # base mismatch between arc files
    g2 = build_standard_triangulation(2)
    other = tmp_path / "w2.json"
    serialize.write_doc(other, serialize.arc_file_dict(random_arc(g2, 3, 4)))
    assert main(["path", str(workdir / "v.json"), str(other)]) == 4
    # tampered certificate
    cert = workdir / "c.json"
    assert main(["dist", str(workdir / "pair.json"), "-o", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    if doc["verdict"]["kind"] == "bounds":
        doc["verdict"]["upper"] += 1
    else:
        doc["verdict"]["value"] = (doc["verdict"]["value"] + 1) % 3
    serialize.write_doc(cert, doc)
    assert main(["check-cert", str(cert)]) == 1


def test_examples_pass_and_emit(tmp_path, capsys):
    emit = tmp_path / "emitted"
    assert main(["examples", "--emit", str(emit)]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 5 and "FAIL" not in out
    emitted = sorted(os.listdir(emit))
    assert any(name.endswith(".report.json") for name in emitted)
    # every emitted report re-verifies from its serialized form alone
    for name in emitted:
        if name.endswith(".report.json"):
            assert main(["check-cert", str(emit / name)]) == 0


def test_examples_seeded_spot_check(monkeypatch, capsys):
    monkeypatch.setenv("ARCDIST_SEED", "11")
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "stable under transport" in out


def test_corpus_is_byte_stable():
    from importlib import resources

    bundled = resources.files("arcdist.data").joinpath("examples/corpus.json").read_bytes()
    assert corpus_json_bytes() == bundled
    assert corpus_json_bytes(build_examples()) == bundled


def test_corpus_contract():
    records = load_bundled_examples()
    assert len(records) >= 4
    assert all(r.genus == 1 for r in records)
    names = {r.name for r in records}
    assert "trivial-knot" in names and "figure-eight" in names
    assert sum(1 for r in records if r.name.startswith("torus-knot")) >= 2


def test_outputs_match_schemas(workdir):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    store = {}
    schema_dir = resources.files("arcdist.data").joinpath("schemas")
    for entry in schema_dir.iterdir():
        schema = json.loads(entry.read_text())
        store[schema["$id"]] = schema

    def inline(node):
        # schema ids are plain format tags, not URIs: substitute cross-schema
        # references directly (the reference graph is acyclic)
        if isinstance(node, dict):
            ref = node.get("$ref")
            if ref in store:
                merged = {k: v for k, v in store[ref].items() if k not in ("$schema", "$id")}
                return inline(merged)
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(x) for x in node]
        return node

    def check(doc):
        jsonschema.validate(doc, inline(store[doc["format"]]))

    cert = workdir / "cert.json"
    main(["dist", str(workdir / "pair.json"), "-o", str(cert)])
    check(json.loads(cert.read_text()))
    seq = workdir / "seq.json"
    main(["path", str(workdir / "v.json"), str(workdir / "w.json"), "-o", str(seq)])
    check(json.loads(seq.read_text()))
    rep = workdir / "rep.json"
    main(["level", str(workdir / "shadows.json"), "-o", str(rep)])
    check(json.loads(rep.read_text()))
    check(build_standard_triangulation(1).to_json_dict())
    from arcdist.corpus import corpus_json_bytes

    check(json.loads(corpus_json_bytes()))


def _crossing_pair(g1):
    v, w = seeded_pairs(g1, "cli-malformed", 1, max_steps=8, require_crossing=True)[0]
    assert len(v) > 0 and len(w) > 0
    return v, w


def _break_edge(arc):
    arc["crossings"][0]["edge"] = "x"


def _drop_side(arc):
    del arc["crossings"][0]["side"]


def _short_corner(arc):
    arc["start_corner"] = arc["start_corner"][:1]


def _crossing_not_object(arc):
    arc["crossings"][0] = 3


def _wrong_arc_format(arc):
    arc["format"] = "arcdist.arc/2"


@pytest.mark.parametrize("fmt", ["pair", "shadow", "sequence", "certificate"])
@pytest.mark.parametrize("damage", [_break_edge, _drop_side, _short_corner, _crossing_not_object, _wrong_arc_format])
def test_malformed_arc_is_a_schema_violation(tmp_path, g1, fmt, damage):
    v, w = _crossing_pair(g1)
    if fmt == "pair":
        doc, argv = serialize.pair_dict(v, w), ["dist"]
        arc = doc["v"]
    elif fmt == "shadow":
        doc, argv = ShadowPairInput(g1, (v,), (w,)).to_json_dict(), ["level"]
        arc = doc["v_side"][0]
    elif fmt == "sequence":
        doc, argv = path_between(v, w).to_json_dict(), ["check-cert"]
        arc = doc["arcs"][0]
    else:
        doc, argv = classify(v, w).to_json_dict(), ["check-cert"]
        arc = doc["pair"]["v"]
    damage(arc)
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main([*argv, str(path)]) == 3


@pytest.mark.parametrize("fmt", ["certificate", "sequence", "level-certificate"])
def test_check_cert_reports_a_crossing_stored_path(tmp_path, g1, capsys, fmt):
    v, w = _crossing_pair(g1)
    crossing = [w.to_json_dict(), v.to_json_dict()]
    if fmt == "certificate":
        doc = classify(v, w).to_json_dict()
        doc["evidence"]["path"] = crossing
    elif fmt == "sequence":
        doc = path_between(v, w).to_json_dict()
        doc["arcs"] = crossing
    else:
        doc = sequence_to_level_certificate(path_between(v, w))
        doc["sequence"] = crossing
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main(["check-cert", str(path)]) == 1
    assert "failed: index 1: consecutive arcs intersect" in capsys.readouterr().out


def test_check_cert_rejects_a_wrong_recorded_intersection(tmp_path, g1):
    crossing = _crossing_pair(g1)
    disjoint = (edge_word(g1, 2), edge_word(g1, 3))
    for v, w in (crossing, disjoint):
        doc = classify(v, w).to_json_dict()
        doc["evidence"]["intersection_vw"] = 999
        path = tmp_path / "cert.json"
        serialize.write_doc(path, doc)
        assert main(["check-cert", str(path)]) == 1


def _pair_g2(g2):
    return seeded_pairs(g2, "cli-triangulation", 1, max_steps=8)[0]


def _format_doc(fmt, v, w):
    """A valid document of one input format, and the command that loads it."""
    if fmt == "pair":
        return serialize.pair_dict(v, w), ["dist"]
    if fmt == "shadow":
        return ShadowPairInput(v.base, (v,), (w,)).to_json_dict(), ["level"]
    if fmt == "sequence":
        return path_between(v, w).to_json_dict(), ["check-cert"]
    return classify(v, w).to_json_dict(), ["check-cert"]


def _short_p1_corner(tri):
    tri["p1_corner"] = [0]


def _triangle_not_list(tri):
    tri["triangles"][0] = 5


def _string_label(tri):
    tri["triangles"][0][0] = "x"


def _two_sided_triangle(tri):
    tri["triangles"][0] = tri["triangles"][0][:2]


def _zero_label(tri):
    tri["triangles"][0][0] = 0


def _genus_zero(tri):
    tri["genus"] = 0


def _negative_p1_corner(tri):
    tri["p1_corner"] = [0, -1]


_FORMATS = ["pair", "shadow", "sequence", "certificate"]


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize(
    "damage",
    [_short_p1_corner, _triangle_not_list, _string_label, _two_sided_triangle, _zero_label,
     _genus_zero, _negative_p1_corner],
)
def test_malformed_triangulation_is_a_schema_violation(tmp_path, g2, fmt, damage):
    doc, argv = _format_doc(fmt, *_pair_g2(g2))
    damage(doc["triangulation"])
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main([*argv, str(path)]) == 3


@pytest.mark.parametrize("fmt", _FORMATS)
def test_inconsistent_triangulation_table_is_invalid_input(tmp_path, g2, fmt):
    """Well-formed fields that do not glue into a surface keep exit 5."""
    doc, argv = _format_doc(fmt, *_pair_g2(g2))
    doc["triangulation"]["triangles"][0][0] *= -1  # one edge now has two sides of one sign
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main([*argv, str(path)]) == 5


def test_tri_check_rejects_a_malformed_table(tmp_path):
    doc = build_standard_triangulation(1).to_json_dict()
    _triangle_not_list(doc)
    serialize.write_doc(tmp_path / "bad.json", doc)
    assert main(["tri", "--check", str(tmp_path / "bad.json")]) == 3


def _json_paths(node, prefix=()):
    """Every key or index path into a JSON tree, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_DELETE = object()
_JUNK = [_DELETE, None, True, 0, -1, 7, 2.5, "x", [], [0], [0, 0, 0], [1, 2], {}, {"edge": 0}]


@pytest.fixture(scope="module")
def valid_docs(g2):
    v, w = _pair_g2(g2)
    return {fmt: _format_doc(fmt, v, w) for fmt in _FORMATS}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_end_in_a_documented_exit_code(tmp_path_factory, valid_docs, data):
    """One field of a valid document replaced or deleted: the command
    returns a documented exit code and never raises; damage that breaks the
    triangulation schema is a schema violation."""
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    fmt = data.draw(st.sampled_from(_FORMATS))
    doc, argv = valid_docs[fmt]
    doc = copy.deepcopy(doc)
    where = data.draw(st.sampled_from(list(_json_paths(doc))))
    junk = data.draw(st.sampled_from(_JUNK))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if junk is _DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = copy.deepcopy(junk)
    path = tmp_path_factory.mktemp("mutated") / "doc.json"
    serialize.write_doc(path, doc)
    code = main([*argv, str(path)])
    assert code in (0, 1, 2, 3, 4, 5)
    if where[0] == "triangulation" and "triangulation" in doc:
        schema = json.loads(
            resources.files("arcdist.data").joinpath("schemas/triangulation.schema.json").read_text()
        )
        if not jsonschema.Draft202012Validator(schema).is_valid(doc["triangulation"]):
            assert code == 3, (where, junk)
