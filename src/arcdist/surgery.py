"""Surgery on a crossing arc pair and the resulting arc-complex paths.

Given arcs v and w crossing k > 0 times, pick the crossing p on v whose
remaining stretch to P2 misses w, and splice: the new arc follows w from P1
up to p, then v from p to P2.  The result w' is disjoint from w and crosses
v strictly fewer times, so iterating walks w to an arc disjoint from v and
yields a path of at most k + 1 edges in the arc complex.  Both
postconditions, and the embeddedness of w', are re-verified on every step;
a failure aborts with a diagnostic rather than returning an unproven trace.
The strict descent is itself the length bound: at most k steps can run, so
the path's length is not checked again.

Each step realizes (v, w') once and hands that realization to the next
step.  Each step's w.w' = 0 postcondition proves its hop, and the last
step's v.w' = 0 the hop to v, so nothing validates them again:
``path_between`` builds its ``ArcSequence`` unchecked, and ``classify``
enters through ``_path`` with the realization of (v, w) it already holds
and stores the hops as evidence for ``verify_certificate`` to check.
"""

from __future__ import annotations

from typing import NamedTuple

from .arc import ArcWord, tighten
from .errors import PreconditionError, VerificationError
from .leveling import ArcSequence
from .realization import Realization, intersection, self_intersection


class SurgeryTrace(NamedTuple):
    """One verified surgery step."""

    v: ArcWord
    w: ArcWord
    crossing: tuple  # (v segment, w segment, triangle) of the chosen point
    resolution: str
    w_prime: ArcWord
    intersections_before: int
    intersections_after: int

    def to_json_dict(self) -> dict:
        return {
            "format": "arcdist.surgery_trace/1",
            "triangulation": self.v.base.to_json_dict(),
            "v": self.v.to_json_dict(),
            "w": self.w.to_json_dict(),
            "crossing": list(self.crossing),
            "resolution": self.resolution,
            "w_prime": self.w_prime.to_json_dict(),
            "intersections_before": self.intersections_before,
            "intersections_after": self.intersections_after,
        }


def _surgery(real: Realization) -> tuple[SurgeryTrace, Realization]:
    """The descent step at a realized pair, plus the realization of (v, w').

    The returned realization has already certified v.w' here and is the
    input of the next step, so a path realizes each pair (v, w') once.
    """
    v, w = real.v, real.w
    k = real.count()
    if k == 0:
        raise PreconditionError("surgery needs crossing arcs; these are disjoint")
    across_v = real.partners[0]
    v_seg = max(j for j, crossed in enumerate(across_v) if crossed)  # the last crossing along v
    w_seg = across_v[v_seg][-1]
    # w up to the chosen crossing, then v onward
    w_prime = tighten(v.base, w.start, w.crossings[:w_seg] + v.crossings[v_seg:], v.end)

    after = Realization(v, w_prime)
    k_vw = after.count()
    k_ww = intersection(w, w_prime)
    if k_ww != 0 or k_vw >= k or self_intersection(w_prime) != 0:
        raise VerificationError(
            f"surgery postcondition failed: w.w'={k_ww}, v.w'={k_vw} (was {k})"
        )
    return SurgeryTrace(
        v=v,
        w=w,
        crossing=(v_seg, w_seg, real.ends[0][v_seg][0]),
        resolution="splice-at-last-crossing",
        w_prime=w_prime,
        intersections_before=k,
        intersections_after=k_vw,
    ), after


def surgery_step(v: ArcWord, w: ArcWord) -> SurgeryTrace:
    """The descent step: returns w' with w.w' = 0 and w'.v < w.v.

    The splice point is the last crossing along v; its stretch from there
    to P2 is disjoint from w by construction.  At the level of reduced
    words the two smoothings of the corner at p give the same arc, so there
    is a single resolution; the postconditions are checked mechanically and
    a failure raises (it would indicate an engine defect, not a valid
    outcome).
    """
    return _surgery(Realization(v, w))[0]


def _path(real: Realization) -> tuple[ArcWord, ...]:
    """The hops real.w, ..., real.v of the surgery path, each proven
    disjoint from the one before by its step's postcondition; see
    :func:`path_between`.  Each step raises unless v.w' strictly drops, so
    at most v.w steps run and the path has at most v.w + 1 edges."""
    v, w = real.v, real.w
    hops = [w]
    while real.count() > 0:
        trace, real = _surgery(real)
        hops.append(trace.w_prime)
    if hops[-1] != v:
        hops.append(v)
    return tuple(hops)


def path_between(v: ArcWord, w: ArcWord) -> ArcSequence:
    """A verified path w = u_0, ..., u_m = v with m <= v.w + 1.

    Each surgery step checks its own postconditions: w' is embedded,
    disjoint from the arc before it (w.w' = 0), and crosses v strictly
    fewer times; the last step's v.w' = 0 proves the hop to v.  So the
    path, over v's base, needs no ``validate_sequence``, and the strict
    descent bounds its length by i(v, w) + 1.
    """
    return ArcSequence._make(v.base, _path(Realization(v, w)))
