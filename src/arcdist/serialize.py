"""Canonical JSON I/O for every file format, plus certificate re-checking.

All files are canonical JSON: sorted keys, compact separators, a single
trailing newline.  Every document carries a ``format`` tag, the ``$id`` of
its JSON Schema in ``data/schemas``; those schemas are the one definition of
the formats.  Every loader checks its document against its schema once,
raising ``SchemaError`` on any violation, an unknown field included, and
then builds from the checked dict, raising ``BaseMismatch`` when an arc
references a triangulation other than the one it is packaged with.
``verify_document`` re-derives every claim of a certificate from the
serialized bytes alone.
"""

from __future__ import annotations

import functools
import json
import re
from importlib import resources
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


# ----------------------------------------------------------------------
# the shipped schemas, checked by the JSON Schema keywords they use


@functools.cache
def _schemas() -> dict[str, dict]:
    files = resources.files("arcdist.data").joinpath("schemas").iterdir()
    return {s["$id"]: s for s in (json.loads(f.read_text()) for f in files if f.name.endswith(".json"))}


# JSON types; true is not an integer, and a float is never one, not even 1.0,
# because loaders index with integers
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int}


def check_doc(doc, tag: str, where: str):
    """Raise ``SchemaError`` unless ``doc`` satisfies the shipped schema whose
    ``$id`` is the format tag ``tag``."""
    problem = _problem(doc, _schemas()[tag], where)
    if problem is not None:
        raise SchemaError(problem)


def _problem(x, s: dict, where: str) -> str | None:
    """The first way ``x`` breaks schema ``s``, or None.  Covers the keywords
    the shipped schemas use; each ``$ref`` stands alone and names an ``$id``."""
    if "$ref" in s:
        return _problem(x, _schemas()[s["$ref"]], where)
    if "type" in s and (not isinstance(x, _TYPES[s["type"]]) or isinstance(x, bool) != (s["type"] == "boolean")):
        return f"{where}: expected {s['type']}"
    allowed = s.get("enum", [s["const"]] if "const" in s else None)
    if allowed is not None and not any(x == a and isinstance(x, bool) == isinstance(a, bool) for a in allowed):
        return f"{where}: expected one of {allowed}"
    if "not" in s and _problem(x, s["not"], where) is None:
        return f"{where}: value not allowed"
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        if x < s.get("minimum", x) or x > s.get("maximum", x):
            return f"{where}: out of range"
    elif isinstance(x, str):
        if "pattern" in s and not re.search(s["pattern"], x):
            return f"{where}: does not match {s['pattern']}"
    elif isinstance(x, list):
        if not s.get("minItems", 0) <= len(x) <= s.get("maxItems", len(x)):
            return f"{where}: wrong number of items"
        if "items" in s:
            for i, item in enumerate(x):
                if (problem := _problem(item, s["items"], f"{where}[{i}]")) is not None:
                    return problem
    elif isinstance(x, dict):
        for key in s.get("required", ()):
            if key not in x:
                return f"{where}: missing field {key!r}"
        properties = s.get("properties", {})
        for key, value in x.items():
            if key in properties:
                if (problem := _problem(value, properties[key], f"{where}.{key}")) is not None:
                    return problem
            elif s.get("additionalProperties") is False:
                return f"{where}: unknown field {key!r}"
    if "oneOf" in s and sum(_problem(x, alt, where) is None for alt in s["oneOf"]) != 1:
        return f"{where}: matches none of its forms, or more than one"
    return None


# ----------------------------------------------------------------------
# loaders: check the document once, then build from the checked dict


def triangulation_table(doc: dict) -> Triangulation:
    """The table of a checked triangulation document, built without raising:
    a table that glues into no surface reports its defects by ``validate()``."""
    return Triangulation(doc["genus"], doc["triangles"], p1_corner=tuple(doc["p1_corner"]))


def load_triangulation(doc: dict, where="triangulation") -> Triangulation:
    check_doc(doc, "arcdist.triangulation/1", where)
    return Triangulation.from_json_dict(doc)


def load_arc(doc: dict, base: Triangulation, where="arc") -> ArcWord:
    check_doc(doc, "arcdist.arc/1", where)
    return ArcWord.from_json_dict(doc, base)


def load_arc_file(doc: dict, where="arc file") -> ArcWord:
    check_doc(doc, "arcdist.arc_file/1", where)
    return ArcWord.from_json_dict(doc["arc"], Triangulation.from_json_dict(doc["triangulation"]))


def arc_file_dict(arc: ArcWord) -> dict:
    return {
        "format": "arcdist.arc_file/1",
        "triangulation": arc.base.to_json_dict(),
        "arc": arc.to_json_dict(),
    }


def load_pair(doc: dict, where="pair file") -> tuple[ArcWord, ArcWord]:
    check_doc(doc, "arcdist.pair/1", where)
    base = Triangulation.from_json_dict(doc["triangulation"])
    return ArcWord.from_json_dict(doc["v"], base), ArcWord.from_json_dict(doc["w"], base)


def pair_dict(v: ArcWord, w: ArcWord) -> dict:
    return {
        "format": "arcdist.pair/1",
        "triangulation": v.base.to_json_dict(),
        "v": v.to_json_dict(),
        "w": w.to_json_dict(),
    }


def _arcs(docs: list, base: Triangulation) -> tuple[ArcWord, ...]:
    return tuple(ArcWord.from_json_dict(a, base) for a in docs)


def load_shadow_pair(doc: dict, where="shadow input") -> ShadowPairInput:
    check_doc(doc, "arcdist.shadow_pair/1", where)
    base = Triangulation.from_json_dict(doc["triangulation"])
    return ShadowPairInput(base, _arcs(doc["v_side"], base), _arcs(doc["w_side"], base))


def _sequence(doc: dict, key: str) -> ArcSequence:
    base = Triangulation.from_json_dict(doc["triangulation"])
    return ArcSequence(base, _arcs(doc[key], base))


def load_sequence(doc: dict, where="arc sequence") -> ArcSequence:
    check_doc(doc, "arcdist.arc_sequence/1", where)
    return _sequence(doc, "arcs")


def load_distance_certificate(doc: dict, where="certificate") -> DistanceCertificate:
    check_doc(doc, "arcdist.distance_certificate/1", where)
    return _distance_certificate(doc)


def _distance_certificate(doc: dict) -> DistanceCertificate:
    base = Triangulation.from_json_dict(doc["triangulation"])
    ev = doc["evidence"]
    return DistanceCertificate(
        v=ArcWord.from_json_dict(doc["pair"]["v"], base),
        w=ArcWord.from_json_dict(doc["pair"]["w"], base),
        verdict=Verdict(**doc["verdict"]),
        witness=ArcWord.from_json_dict(ev["witness"], base) if "witness" in ev else None,
        path=_arcs(ev["path"], base) if "path" in ev else None,
        intersection_vw=ev["intersection_vw"],
        checked_distance_two=ev["checked_distance_two"],
        search_note=ev.get("search"),
    )


# ----------------------------------------------------------------------
# re-verification from serialized form


def verify_document(doc: dict) -> list[str]:
    """Re-check any certificate-bearing document; failures as messages.

    The whole document is checked against its schema once, up front.  A
    stored arc sequence is validated once: when it is loaded, or, for the
    path of a distance certificate, by ``verify_certificate``.  A sequence
    whose consecutive arcs cross is a failed check, not invalid input.
    """
    tag = doc.get("format")
    verify = _VERIFIERS.get(tag) if isinstance(tag, str) else None
    if verify is None:
        raise SchemaError(f"no verifier for format {tag!r}")
    check_doc(doc, tag, "document")
    try:
        return verify(doc)
    except InvalidSequence as ex:
        return ex.problems


def _verify_sequence(doc: dict) -> list[str]:
    _sequence(doc, "arcs")
    return []


def _verify_surgery_trace(doc: dict) -> list[str]:
    base = Triangulation.from_json_dict(doc["triangulation"])
    v, w, wp = (ArcWord.from_json_dict(doc[key], base) for key in ("v", "w", "w_prime"))
    problems = []
    k = intersection(v, w)
    if k != doc["intersections_before"]:
        problems.append(f"trace: v.w = {k}, recorded {doc['intersections_before']}")
    kp = intersection(v, wp)
    if kp != doc["intersections_after"]:
        problems.append(f"trace: v.w' = {kp}, recorded {doc['intersections_after']}")
    if intersection(w, wp) != 0:
        problems.append("trace: w and w' intersect")
    if kp >= k:
        problems.append("trace: no strict descent")
    return problems


def _verify_level_certificate(doc: dict) -> list[str]:
    try:
        seq = _sequence(doc, "sequence")
    except InvalidSequence as ex:
        return ex.problems
    pos = arcs_to_leveling(seq)
    problems = pos.validate()
    if pos.to_json_dict() != doc["level_position"]:
        problems.append("level certificate: stored level position disagrees with the sequence")
    if pos.ambient_genus != seq.base.genus * pos.n_levels:
        problems.append("level certificate: ambient genus law failed")
    return problems


def _verify_level_report(doc: dict) -> list[str]:
    distance = doc["distance"]
    cert = _distance_certificate(distance)
    problems = verify_certificate(cert)
    if distance["triangulation"] != doc["triangulation"]:
        problems.append("report: the distance certificate is over another triangulation")
    level = doc["level_number"]
    t = cert.verdict.as_tuple()
    if level["kind"] == "trivial":
        if t != (0, 0):
            problems.append("report: trivial flag without a distance-0 verdict")
        return problems
    if "level_certificate" not in doc:
        problems.append("report: level certificate missing")
        return problems
    lc = doc["level_certificate"]
    problems += _verify_level_certificate(lc)
    if lc["triangulation"] != doc["triangulation"]:
        problems.append("report: the level certificate is over another triangulation")
    if (lc["sequence"][0], lc["sequence"][-1]) != (distance["pair"]["v"], distance["pair"]["w"]):
        problems.append("report: the level certificate does not run from v to w")
    n = len(lc["sequence"]) - 1
    if level["kind"] == "exact" and (t != (level["value"], level["value"]) or n != level["value"]):
        problems.append("report: level number disagrees with the distance verdict")
    if level["kind"] == "bounds" and (t != (level["lower"], level["upper"]) or n != level["upper"]):
        problems.append("report: level bounds disagree with the distance verdict")
    return problems


_VERIFIERS = {
    "arcdist.distance_certificate/1": lambda doc: verify_certificate(_distance_certificate(doc)),
    "arcdist.arc_sequence/1": _verify_sequence,
    "arcdist.surgery_trace/1": _verify_surgery_trace,
    "arcdist.level_certificate/1": _verify_level_certificate,
    "arcdist.level_report/1": _verify_level_report,
    "arcdist.triangulation/1": lambda doc: triangulation_table(doc).validate(),
}
