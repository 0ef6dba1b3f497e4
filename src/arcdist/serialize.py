"""Canonical JSON I/O for every file format, plus certificate re-checking.

All files are canonical JSON: sorted keys, compact separators, a single
trailing newline.  Every document carries a ``format`` tag; loaders check
structure and raise ``SchemaError`` with a pointed message on malformed
input, and ``BaseMismatch`` when an arc references a triangulation other
than the one it is packaged with.  ``verify_document`` re-derives every
claim of a certificate from the serialized bytes alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from .arc import ArcWord
from .distance import DistanceCertificate, ShadowPairInput, Verdict, verify_certificate
from .errors import ArcdistError, InvalidSequence, SchemaError
from .leveling import ArcSequence, arcs_to_leveling
from .overlay import intersection
from .surface import Triangulation


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_doc(path, doc: dict):
    Path(path).write_text(dumps(doc))


def load_doc(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as ex:
        raise SchemaError(f"cannot read {path}: {ex}") from ex
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as ex:
        raise MalformedJSON(f"{path}: {ex}") from ex
    if not isinstance(doc, dict) or "format" not in doc:
        raise SchemaError(f"{path}: not an arcdist document (missing format tag)")
    return doc


class MalformedJSON(ArcdistError):
    """The file is not JSON at all (distinct from a schema violation)."""


def _need(doc, key, kind, where):
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    if kind is not None and not isinstance(doc[key], kind):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return doc[key]


def _expect_format(doc, tag, where):
    if doc.get("format") != tag:
        raise SchemaError(f"{where}: expected format {tag!r}, found {doc.get('format')!r}")


def load_triangulation(doc: dict, where="triangulation") -> Triangulation:
    _expect_format(doc, "arcdist.triangulation/1", where)
    check_triangulation_fields(doc, where)
    return Triangulation.from_json_dict(doc)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_triangulation_fields(doc: dict, where: str):
    """The structure the triangulation schema asks for; whether the table
    glues into a surface is :meth:`Triangulation.validate`'s question."""
    genus = _need(doc, "genus", None, where)
    if not _is_int(genus) or genus < 1:
        raise SchemaError(f"{where}: genus must be an integer >= 1")
    for i, t in enumerate(_need(doc, "triangles", list, where)):
        if not isinstance(t, list) or len(t) != 3 or not all(_is_int(s) and s != 0 for s in t):
            raise SchemaError(f"{where}: triangle {i} must be a list of three nonzero integers")
    corner = _need(doc, "p1_corner", list, where)
    if len(corner) != 2 or not all(_is_int(x) and x >= 0 for x in corner):
        raise SchemaError(f"{where}: p1_corner must be a list of two integers >= 0")


def load_arc(doc: dict, base: Triangulation, where="arc") -> ArcWord:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: an arc must be an object")
    _expect_format(doc, "arcdist.arc/1", where)
    for key, kind in (("base_id", str), ("start_corner", list), ("crossings", list), ("end_corner", list)):
        _need(doc, key, kind, where)
    for key in ("start_corner", "end_corner"):
        corner = doc[key]
        if len(corner) != 2 or not all(_is_int(x) for x in corner):
            raise SchemaError(f"{where}: {key} must be a list of two integers")
    for i, c in enumerate(doc["crossings"]):
        if not isinstance(c, dict):
            raise SchemaError(f"{where}: crossing {i} must be an object")
        edge, side = c.get("edge"), c.get("side")
        if not _is_int(edge) or edge < 0:
            raise SchemaError(f"{where}: crossing {i} needs an integer edge >= 0")
        if not _is_int(side) or side not in (1, -1):
            raise SchemaError(f"{where}: crossing {i} needs side 1 or -1")
    return ArcWord.from_json_dict(doc, base)


def load_arc_file(doc: dict, where="arc file") -> ArcWord:
    _expect_format(doc, "arcdist.arc_file/1", where)
    base = load_triangulation(_need(doc, "triangulation", dict, where), where)
    return load_arc(_need(doc, "arc", dict, where), base, where)


def arc_file_dict(arc: ArcWord) -> dict:
    return {
        "format": "arcdist.arc_file/1",
        "triangulation": arc.base.to_json_dict(),
        "arc": arc.to_json_dict(),
    }


def load_pair(doc: dict, where="pair file") -> tuple[ArcWord, ArcWord]:
    _expect_format(doc, "arcdist.pair/1", where)
    base = load_triangulation(_need(doc, "triangulation", dict, where), where)
    v = load_arc(_need(doc, "v", dict, where), base, where + ".v")
    w = load_arc(_need(doc, "w", dict, where), base, where + ".w")
    return v, w


def pair_dict(v: ArcWord, w: ArcWord) -> dict:
    return {
        "format": "arcdist.pair/1",
        "triangulation": v.base.to_json_dict(),
        "v": v.to_json_dict(),
        "w": w.to_json_dict(),
    }


def _load_arcs(doc: dict, key: str, base: Triangulation, where) -> tuple[ArcWord, ...]:
    arcs = _need(doc, key, list, where)
    return tuple(load_arc(a, base, f"{where}.{key}[{i}]") for i, a in enumerate(arcs))


def load_shadow_pair(doc: dict, where="shadow input") -> ShadowPairInput:
    _expect_format(doc, "arcdist.shadow_pair/1", where)
    base = load_triangulation(_need(doc, "triangulation", dict, where), where)
    return ShadowPairInput(base, _load_arcs(doc, "v_side", base, where), _load_arcs(doc, "w_side", base, where))


def load_sequence(doc: dict, where="arc sequence") -> ArcSequence:
    _expect_format(doc, "arcdist.arc_sequence/1", where)
    base = load_triangulation(_need(doc, "triangulation", dict, where), where)
    return ArcSequence(base, _load_arcs(doc, "arcs", base, where))


def load_distance_certificate(doc: dict, where="certificate") -> DistanceCertificate:
    _expect_format(doc, "arcdist.distance_certificate/1", where)
    base = load_triangulation(_need(doc, "triangulation", dict, where), where)
    pair = _need(doc, "pair", dict, where)
    v = load_arc(_need(pair, "v", dict, where), base, where + ".v")
    w = load_arc(_need(pair, "w", dict, where), base, where + ".w")
    vd = _need(doc, "verdict", dict, where)
    if vd.get("kind") == "exact":
        verdict = Verdict("exact", value=_need(vd, "value", int, where))
    elif vd.get("kind") == "bounds":
        verdict = Verdict("bounds", lower=_need(vd, "lower", int, where), upper=_need(vd, "upper", int, where))
    else:
        raise SchemaError(f"{where}: unknown verdict kind {vd.get('kind')!r}")
    ev = _need(doc, "evidence", dict, where)
    witness = load_arc(ev["witness"], base, where + ".witness") if "witness" in ev else None
    path = ArcSequence(base, _load_arcs(ev, "path", base, where)) if "path" in ev else None
    return DistanceCertificate(
        v=v,
        w=w,
        verdict=verdict,
        witness=witness,
        path=path,
        intersection_vw=ev.get("intersection_vw", 0),
        checked_distance_two=ev.get("checked_distance_two", False),
        search_note=ev.get("search"),
    )


# ----------------------------------------------------------------------
# re-verification from serialized form


def verify_document(doc: dict) -> list[str]:
    """Re-check any certificate-bearing document; failures as messages.

    A stored arc sequence is validated once, when it is loaded; a sequence
    whose consecutive arcs cross is a failed check, not invalid input.
    """
    try:
        return _verify(doc)
    except InvalidSequence as ex:
        return ex.problems


def _verify(doc: dict) -> list[str]:
    tag = doc.get("format")
    if tag == "arcdist.distance_certificate/1":
        return verify_certificate(load_distance_certificate(doc))
    if tag == "arcdist.arc_sequence/1":
        load_sequence(doc)
        return []
    if tag == "arcdist.surgery_trace/1":
        return _verify_surgery_trace(doc)
    if tag == "arcdist.level_certificate/1":
        return _verify_level_certificate(doc)
    if tag == "arcdist.level_report/1":
        return _verify_level_report(doc)
    if tag == "arcdist.triangulation/1":
        return load_triangulation(doc).validate()
    raise SchemaError(f"no verifier for format {tag!r}")


def _verify_surgery_trace(doc: dict) -> list[str]:
    where = "surgery trace"
    base = load_triangulation(_need(doc, "triangulation", dict, where), where)
    v = load_arc(_need(doc, "v", dict, where), base, where)
    w = load_arc(_need(doc, "w", dict, where), base, where)
    wp = load_arc(_need(doc, "w_prime", dict, where), base, where)
    problems = []
    k = intersection(v, w)
    if k != doc.get("intersections_before"):
        problems.append(f"trace: v.w = {k}, recorded {doc.get('intersections_before')}")
    kp = intersection(v, wp)
    if kp != doc.get("intersections_after"):
        problems.append(f"trace: v.w' = {kp}, recorded {doc.get('intersections_after')}")
    if intersection(w, wp) != 0:
        problems.append("trace: w and w' intersect")
    if kp >= k:
        problems.append("trace: no strict descent")
    return problems


def _verify_level_certificate(doc: dict) -> list[str]:
    where = "level certificate"
    base = load_triangulation(_need(doc, "triangulation", dict, where), where)
    try:
        seq = ArcSequence(base, _load_arcs(doc, "sequence", base, where))
    except InvalidSequence as ex:
        return ex.problems
    pos = arcs_to_leveling(seq)
    problems = pos.validate()
    stored = _need(doc, "level_position", dict, where)
    if pos.to_json_dict() != stored:
        problems.append("level certificate: stored level position disagrees with the sequence")
    if pos.ambient_genus != base.genus * pos.n_levels:
        problems.append("level certificate: ambient genus law failed")
    return problems


def _verify_level_report(doc: dict) -> list[str]:
    where = "level report"
    cert = load_distance_certificate(_need(doc, "distance", dict, where))
    problems = verify_certificate(cert)
    level = _need(doc, "level_number", dict, where)
    t = cert.verdict.as_tuple()
    if level.get("kind") == "trivial":
        if t != (0, 0):
            problems.append("report: trivial flag without a distance-0 verdict")
        return problems
    if "level_certificate" not in doc:
        problems.append("report: level certificate missing")
        return problems
    problems += _verify_level_certificate(doc["level_certificate"])
    n = len(doc["level_certificate"]["sequence"]) - 1
    if level.get("kind") == "exact" and (t != (level["value"], level["value"]) or n != level["value"]):
        problems.append("report: level number disagrees with the distance verdict")
    if level.get("kind") == "bounds" and (t != (level["lower"], level["upper"]) or n != level["upper"]):
        problems.append("report: level bounds disagree with the distance verdict")
    return problems
