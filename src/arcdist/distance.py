"""Arc distance: exact classification for 0, 1, 2 and certified bounds beyond.

Distances 0 and 1 are immediate from equality and disjointness.  Distance 2
holds exactly when, with the pair realized in minimal position, some
complement component touches both marked points: a common disjoint arc can
then be drawn inside that component, and conversely any arc disjoint from
both can be isotoped into a component of the complement.  The components
come from the sign-vector pass (``overlay.marked_route``), which also runs
the minimality checks and, when one touches both marked points, routes the
witness through it: one overlay computation per pair, with no component
records built.  The witness is re-verified, so the criterion is never
trusted without a checkable artifact.  For distance at least 3 the
certificate carries bounds: the lower bound 3 from the failed 0/1/2
checks, the upper bound from the surgery path (optionally improved by a
bounded search through the low-complexity part of the arc complex).
"""

from __future__ import annotations

from typing import NamedTuple

from .arc import ArcWord, enumerate_arcs, tighten
from .errors import BaseMismatch, PreconditionError, VerificationError
from .leveling import ArcSequence, validate_sequence
from .overlay import marked_route
from .realization import Realization, intersection, self_intersection
from .surface import Triangulation, _integer, _Record
from .surgery import _path


class Verdict(NamedTuple):
    kind: str  # "exact" | "bounds"
    value: int | None = None
    lower: int | None = None
    upper: int | None = None

    def as_tuple(self):
        if self.kind == "exact":
            return (self.value, self.value)
        return (self.lower, self.upper)

    def to_json_dict(self) -> dict:
        if self.kind == "exact":
            return {"kind": "exact", "value": self.value}
        return {"kind": "bounds", "lower": self.lower, "upper": self.upper}


class DistanceCertificate(NamedTuple):
    """Verdict plus evidence re-checkable from the arc operations alone.

    ``witness`` and ``path`` (arcs from w to v) are plain evidence; the
    certificate's checker, :func:`verify_certificate`, checks them.
    """

    v: ArcWord
    w: ArcWord
    verdict: Verdict
    witness: ArcWord | None = None
    path: tuple[ArcWord, ...] | None = None
    intersection_vw: int = 0
    checked_distance_two: bool = False
    search_note: str | None = None

    def witness_path(self) -> list[ArcWord]:
        """Arcs from v to w certifying the upper bound."""
        d = self.verdict.as_tuple()[1]
        if d == 0:
            return [self.v]
        if d == 1:
            return [self.v, self.w]
        if self.verdict.kind == "exact" and d == 2:
            return [self.v, self.witness, self.w]
        return list(reversed(self.path))  # stored from w to v

    def to_json_dict(self) -> dict:
        out = {
            "format": "arcdist.distance_certificate/1",
            "triangulation": self.v.base.to_json_dict(),
            "pair": {"v": self.v.to_json_dict(), "w": self.w.to_json_dict()},
            "verdict": self.verdict.to_json_dict(),
            "evidence": {
                "intersection_vw": self.intersection_vw,
                "checked_distance_two": self.checked_distance_two,
            },
        }
        if self.witness is not None:
            out["evidence"]["witness"] = self.witness.to_json_dict()
        if self.path is not None:
            out["evidence"]["path"] = [a.to_json_dict() for a in self.path]
        if self.search_note:
            out["evidence"]["search"] = self.search_note
        return out


class ShadowPairInput(_Record):
    """Finite shadow lists for the two sides of a one-bridge position."""

    __slots__ = ("base", "v_side", "w_side")

    def __new__(cls, base: Triangulation, v_side: tuple[ArcWord, ...], w_side: tuple[ArcWord, ...]):
        try:
            v_side, w_side = tuple(v_side), tuple(w_side)
        except TypeError:
            raise PreconditionError("shadow lists must be sequences of arcs") from None
        if not v_side or not w_side:
            raise PreconditionError("shadow lists must be non-empty")
        for a in (*v_side, *w_side):
            if not isinstance(a, ArcWord):
                raise PreconditionError(f"shadow lists must hold arcs, not {type(a).__name__}")
            if a.base != base:
                raise BaseMismatch("shadow over a different triangulation")
        return cls._make(base, v_side, w_side)

    def to_json_dict(self) -> dict:
        return {
            "format": "arcdist.shadow_pair/1",
            "triangulation": self.base.to_json_dict(),
            "v_side": [a.to_json_dict() for a in self.v_side],
            "w_side": [a.to_json_dict() for a in self.w_side],
        }


def _distance_two_witness(real: Realization) -> ArcWord | None:
    """An arc disjoint from both realized arcs, or None when no complement
    component touches both marked points.

    The sign-vector pass finds the components, runs the minimality checks
    and routes the raw witness; it is tightened here and verified.
    """
    v, w = real.v, real.w
    routed = marked_route(real)
    if routed is None:
        return None
    u = tighten(v.base, *routed)
    if self_intersection(u) != 0 or intersection(u, v) != 0 or intersection(u, w) != 0:
        raise VerificationError("distance-2 witness failed to verify")
    return u


def classify(v: ArcWord, w: ArcWord, max_len: int | None = None, max_depth: int | None = None) -> DistanceCertificate:
    """Exact distance for 0, 1, 2; verified bounds otherwise.

    When search bounds are supplied, a breadth-first search through the
    arcs of length <= max_len may shorten the upper bound coming from the
    surgery path.  Giving only one of the two bounds is an error, and so
    is a bound that is not a positive integer, whatever the verdict.
    """
    if (max_len is None) != (max_depth is None):
        raise PreconditionError("search bounds: give both max_len and max_depth, or neither")
    if max_len is not None:  # read before any work, so the note names them as the search reads them
        max_len, max_depth = _search_bounds(max_len, max_depth)
    if v == w:
        return DistanceCertificate(v, w, Verdict("exact", value=0))
    real = Realization(v, w)
    k = real.count()
    if k == 0:
        return DistanceCertificate(v, w, Verdict("exact", value=1))
    u = _distance_two_witness(real)
    if u is not None:
        return DistanceCertificate(
            v, w, Verdict("exact", value=2), witness=u, intersection_vw=k, checked_distance_two=True
        )
    path = _path(real)
    note = None
    if max_len is not None:
        found = _search(v, w, max_len, max_depth)
        if found is not None and len(found) < len(path):
            path = found
            note = f"search improved the bound within max_len={max_len}, max_depth={max_depth}"
        else:
            note = f"search within max_len={max_len}, max_depth={max_depth} did not improve the bound"
    return DistanceCertificate(
        v,
        w,
        Verdict("bounds", lower=3, upper=len(path) - 1),
        path=path,
        intersection_vw=k,
        checked_distance_two=True,
        search_note=note,
    )


def bounded_search(v: ArcWord, w: ArcWord, max_len: int, max_depth: int) -> ArcSequence | None:
    """Breadth-first search from w to v through arcs of bounded length.

    Sound but complete only relative to the bounds: None means no path was
    found inside them, never that no path exists.  Exploration order is
    canonical, so the result is deterministic.  The search's own
    ``intersection(cur, cand) == 0`` proves each hop, so nothing validates
    the path again.
    """
    hops = _search(v, w, *_search_bounds(max_len, max_depth))
    return None if hops is None else ArcSequence._make(v.base, hops)


def _search_bounds(max_len, max_depth) -> tuple[int, int]:
    """The search bounds read as integers; ``PreconditionError`` unless both
    are positive."""
    max_len, max_depth = _integer("max_len", max_len), _integer("max_depth", max_depth)
    if max_len <= 0 or max_depth <= 0:
        raise PreconditionError("search bounds must be positive")
    return max_len, max_depth


def _search(v: ArcWord, w: ArcWord, max_len: int, max_depth: int) -> tuple[ArcWord, ...] | None:
    """The hops w, ..., v of :func:`bounded_search`, each proven disjoint
    from the one before by the search's own intersection test; the bounds
    are already read by :func:`_search_bounds`."""
    if v.base != w.base:
        raise BaseMismatch("arcs live over different triangulations")
    if v == w:
        return (v,)
    universe = enumerate_arcs(v.base, max_len)
    if v not in universe:
        universe.append(v)
    if w not in universe:
        universe.append(w)
    universe.sort(key=ArcWord.sort_key)

    # every arc enters the frontier once, so no pair is tested twice, and
    # every frontier arc is already in prev, so it is never its own candidate
    prev = {w: None}
    frontier = [w]
    for _ in range(max_depth):
        nxt = []
        for cur in frontier:
            for cand in universe:
                if cand not in prev and intersection(cur, cand) == 0:
                    prev[cand] = cur
                    nxt.append(cand)
            if v in prev:
                hops = [v]
                while prev[hops[-1]] is not None:
                    hops.append(prev[hops[-1]])
                return tuple(reversed(hops))  # w ... v
        frontier = nxt
        if not frontier:  # ends the walk however large max_depth is
            break
    return None


def pair_set_distance(shadow_input: ShadowPairInput) -> DistanceCertificate:
    """Minimum verdict over all shadow pairs from the two finite lists.

    The knot invariant minimizes over every shadow of each side, an
    infinite collection; over user-supplied finite lists the result is an
    upper bound for the knot unless the caller asserts the lists are
    exhaustive.
    """
    best = None
    for v in shadow_input.v_side:
        for w in shadow_input.w_side:
            cert = classify(v, w)
            t = cert.verdict.as_tuple()
            if best is None or (t[1], t[0]) < (best.verdict.as_tuple()[1], best.verdict.as_tuple()[0]):
                best = cert
            if t == (0, 0):
                return best
    return best


def verify_certificate(cert: DistanceCertificate) -> list[str]:
    """Re-check a certificate using only the arc operations; failures as data.

    This is the one check of a stored path, whatever the verdict: its arcs
    are over the pair's base and consecutive arcs are disjoint.
    """
    problems = []
    v, w = cert.v, cert.w
    if v.base != w.base:
        return ["pair: base mismatch"]
    t = cert.verdict.as_tuple()
    if t[0] > t[1]:
        problems.append("verdict: lower exceeds upper")
    if cert.path is not None:
        problems += validate_sequence((v.base, cert.path))
    real = Realization(v, w)
    k = real.count()
    if cert.intersection_vw != k:
        problems.append(f"evidence: intersection_vw is {cert.intersection_vw}, recomputed {k}")
    if cert.checked_distance_two is not (k > 0):  # classify checks distance 2 exactly when the arcs cross
        problems.append(f"evidence: checked_distance_two is {cert.checked_distance_two!r}, recomputed intersection {k}")
    if cert.verdict.kind == "exact":
        d = cert.verdict.value
        if d == 0:
            if v != w:
                problems.append("exact(0): arcs differ")
        elif d == 1:
            if v == w:
                problems.append("exact(1): arcs are equal")
            if k != 0:
                problems.append(f"exact(1): arcs intersect in {k} points")
        elif d == 2:
            if k <= 0:
                problems.append("exact(2): arcs are disjoint, distance would be <= 1")
            u = cert.witness
            if u is None:
                problems.append("exact(2): witness missing")
            else:
                if self_intersection(u) != 0:
                    problems.append("exact(2): witness is not embedded")
                if intersection(u, v) != 0 or intersection(u, w) != 0:
                    problems.append("exact(2): witness is not disjoint from both arcs")
                # never alone: v or w as witness crosses the other of a crossing pair; a disjoint one is refused above
                if u == v or u == w:
                    problems.append("exact(2): witness coincides with an endpoint")
        else:
            problems.append(f"exact({d}): no exact criterion beyond 2")
    else:
        if cert.verdict.lower != 3:
            problems.append("bounds: lower bound must be 3 (the 0/1/2 checks)")
        if k <= 0:
            problems.append("bounds: arcs are disjoint, distance would be <= 1")
        if _distance_two_witness(real) is not None:
            problems.append("bounds: a distance-2 witness exists")
        path = cert.path
        if path is None:
            problems.append("bounds: path evidence missing")
        elif path:  # an empty path is already reported
            if path[0] != w or path[-1] != v:
                problems.append("bounds: path does not join the pair")
            if len(path) - 1 != cert.verdict.upper:
                problems.append("bounds: path length disagrees with the upper bound")
    return problems
