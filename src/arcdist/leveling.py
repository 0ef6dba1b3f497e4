"""Arc sequences, n-level positions, and the equivalence between them.

A path in the arc complex (consecutive arcs disjoint) converts into a
combinatorial n-level position: the knot is redrawn on n stacked copies of
the surface joined by n-1 tubes, where level 1 carries the first arc, level
n the last, each tube's core is one of the intermediate arcs, and the knot
runs through each tube in two vertical strands.  The level data here is
purely symbolic (arc words, stub labels, tube records, one strand cycle);
it is exactly the information content of the construction, and the reverse
reading returns the original sequence.
"""

from __future__ import annotations

from typing import NamedTuple

from .arc import ArcWord, _Record
from .errors import InvalidSequence, PreconditionError, VerificationError
from .realization import intersection
from .surface import Triangulation


class ArcSequence(_Record):
    """Arcs s_0..s_n over one base with consecutive members disjoint."""

    __slots__ = ("base", "arcs")

    def __init__(self, base: Triangulation, arcs: tuple[ArcWord, ...]):
        try:
            arcs = tuple(arcs)
        except TypeError:
            pass  # validate_sequence reports it
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "arcs", arcs)
        problems = validate_sequence(self)
        if problems:
            raise InvalidSequence(problems)

    def __len__(self):
        return len(self.arcs)

    @property
    def edge_count(self) -> int:
        """Path length in the arc complex (vertices minus one)."""
        return len(self.arcs) - 1

    def to_json_dict(self) -> dict:
        return {
            "format": "arcdist.arc_sequence/1",
            "triangulation": self.base.to_json_dict(),
            "arcs": [a.to_json_dict() for a in self.arcs],
        }


def validate_sequence(seq) -> list[str]:
    """Check consecutive disjointness and base agreement; violations as data.

    Accepts an ArcSequence or a plain (base, arcs) pair so that candidate
    data can be screened before constructing the type.
    """
    base, arcs = (seq.base, seq.arcs) if isinstance(seq, ArcSequence) else seq
    if not isinstance(arcs, (tuple, list)):
        return [f"sequence: {type(arcs).__name__} is not a sequence of arcs"]
    if not arcs:
        return ["sequence: empty"]
    problems = []
    for i, a in enumerate(arcs):
        if not isinstance(a, ArcWord):
            problems.append(f"index {i}: {type(a).__name__} is not an arc")
        elif a.base != base:
            problems.append(f"index {i}: arc is over a different triangulation")
    if problems:
        return problems
    for i in range(1, len(arcs)):
        k = intersection(arcs[i - 1], arcs[i])
        if k != 0:
            problems.append(f"index {i}: consecutive arcs intersect in {k} points")
    return problems


# ----------------------------------------------------------------------
# level positions


class Tube(NamedTuple):
    """Tube j joins levels j and j+1; its core is the arc it thickens."""

    index: int
    core: ArcWord
    p_strand: str  # vertical strand at the P1 end of the core
    q_strand: str


class LevelPosition(NamedTuple):
    """Symbolic n-level position of a knot.

    ``levels[j]`` lists the strand pieces on surface copy j+1: a full arc
    for the first and last level (``first_arc`` and ``last_arc``), stubs
    (ends of tube cores near the marked points) elsewhere.  ``cycle`` walks
    the knot once through all pieces; each entry is (piece kind, label,
    location, start point, end point).
    """

    n_levels: int
    surface_genus: int
    first_arc: ArcWord
    last_arc: ArcWord
    levels: tuple
    tubes: tuple
    cycle: tuple

    @property
    def ambient_genus(self) -> int:
        return self.surface_genus * self.n_levels

    def validate(self) -> list[str]:
        problems = []
        n = self.n_levels
        if len(self.tubes) != n - 1:
            problems.append(f"tubes: {len(self.tubes)} records for {n} levels (expected {n - 1})")
        if len(self.levels) != n:
            problems.append(f"levels: {len(self.levels)} lists for n = {n}")
            return problems
        for j, level in enumerate(self.levels, start=1):
            kinds = sorted(entry[0] for entry in level)
            if n == 1:
                want = ["arc", "arc"]  # the whole knot lies on one surface copy
            elif j == 1 or j == n:
                want = ["arc", "stub_alpha", "stub_beta"]
            else:
                want = ["stub_alpha", "stub_alpha", "stub_beta", "stub_beta"]
            if kinds != sorted(want):
                problems.append(f"level {j}: carries {kinds}, expected {sorted(want)}")
        # single closed cycle: consecutive endpoints must chain up
        for i, piece in enumerate(self.cycle):
            nxt = self.cycle[(i + 1) % len(self.cycle)]
            if piece[4] != nxt[3]:
                problems.append(f"cycle: piece {i} ends at {piece[4]} but next starts at {nxt[3]}")
        return problems

    def to_json_dict(self) -> dict:
        return {
            "format": "arcdist.level_position/1",
            "n_levels": self.n_levels,
            "surface_genus": self.surface_genus,
            "ambient_genus": self.ambient_genus,
            "first_arc": self.first_arc.to_json_dict(),
            "last_arc": self.last_arc.to_json_dict(),
            "levels": [[list(entry) for entry in level] for level in self.levels],
            "tubes": [
                {
                    "index": t.index,
                    "core": t.core.to_json_dict(),
                    "p_strand": t.p_strand,
                    "q_strand": t.q_strand,
                }
                for t in self.tubes
            ],
            "cycle": [list(piece) for piece in self.cycle],
        }


def arcs_to_leveling(seq) -> LevelPosition:
    """Build the n-level position certified by a path s_0..s_n.

    Level 1 carries s_0 with the stubs of s_1; level j the stubs of s_{j-1}
    and s_j; level n carries s_n.  Tube j thickens s_j, and the knot climbs
    the P1 side through the alpha stubs and descends the P2 side through
    the beta stubs, closing into a single cycle.  Accepts an ArcSequence or
    a plain (base, arcs) pair whose path the caller has already validated.
    """
    base, arcs = (seq.base, seq.arcs) if isinstance(seq, ArcSequence) else seq
    n = len(arcs) - 1
    if n < 1:
        raise PreconditionError("leveling needs at least two arcs (a 1-level position)")

    def arc_entry(i, level):
        return ("arc", i, level)

    levels = []
    for j in range(1, n + 1):
        entries = []
        if j == 1:
            entries.append(arc_entry(0, 1))
        if j == n:
            entries.append(arc_entry(n, n))
        if 1 <= j - 1 <= n - 1:
            entries.append(("stub_alpha", j - 1, j))
            entries.append(("stub_beta", j - 1, j))
        if 1 <= j <= n - 1:
            entries.append(("stub_alpha", j, j))
            entries.append(("stub_beta", j, j))
        levels.append(tuple(entries))

    tubes = tuple(Tube(j, arcs[j], f"p{j}", f"q{j}") for j in range(1, n))

    # pieces are (kind, label, location, start, end); the knot runs s_0
    # backwards across level 1, climbs the P1 column, crosses s_n on the
    # top level, then descends the P2 column back to the start
    cycle = [("level_arc", 0, 1, "q@1", "p@1")]
    for j in range(1, n):
        cycle.append(("stub_alpha", j, j, f"p@{j}", f"p{j}@{j}"))
        cycle.append(("tube_strand", f"p{j}", j, f"p{j}@{j}", f"p{j}@{j + 1}"))
        cycle.append(("stub_alpha", j, j + 1, f"p{j}@{j + 1}", f"p@{j + 1}"))
    cycle.append(("level_arc", n, n, f"p@{n}", f"q@{n}"))
    for j in range(n - 1, 0, -1):
        cycle.append(("stub_beta", j, j + 1, f"q@{j + 1}", f"q{j}@{j + 1}"))
        cycle.append(("tube_strand", f"q{j}", j, f"q{j}@{j + 1}", f"q{j}@{j}"))
        cycle.append(("stub_beta", j, j, f"q{j}@{j}", f"q@{j}"))

    pos = LevelPosition(
        n_levels=n,
        surface_genus=base.genus,
        first_arc=arcs[0],
        last_arc=arcs[n],
        levels=tuple(levels),
        tubes=tubes,
        cycle=tuple(cycle),
    )
    problems = pos.validate()
    if problems:
        raise VerificationError("constructed level position is invalid: " + "; ".join(problems))
    return pos


def leveling_to_arc_sequence(pos: LevelPosition) -> ArcSequence:
    """Read the certifying arc path back off a level position.

    The sequence is (level-1 arc, tube cores in order, level-n arc); it
    re-validates, so a well-formed n-level position certifies arc distance
    at most n.
    """
    problems = pos.validate()
    if problems:
        raise PreconditionError("; ".join(problems))
    arcs = (pos.first_arc, *(t.core for t in pos.tubes), pos.last_arc)
    return ArcSequence(pos.first_arc.base, arcs)


def sequence_to_level_certificate(seq: ArcSequence) -> dict:
    """Level position plus the data needed to re-extract the sequence."""
    pos = arcs_to_leveling(seq)
    return {
        "format": "arcdist.level_certificate/1",
        "triangulation": seq.base.to_json_dict(),
        "sequence": [a.to_json_dict() for a in seq.arcs],
        "level_position": pos.to_json_dict(),
    }


def proposition_bound(v: ArcWord, w: ArcWord) -> int:
    """Level bound from shadows meeting in i(v, w) + 2 points.

    Shadows sharing both endpoints meet in n = i + 2 points, and the
    leveling obtained from the surgery path uses at most n - 1 = i + 1
    levels; path construction never exceeds this.
    """
    return intersection(v, w) + 1


def level_number_report(shadow_input) -> dict:
    """Restate a pair-set distance verdict as a level number with certificate.

    Distance 0 is reported separately (only the trivial knot attains it and
    no 0-level position is defined); for d >= 1 the witnessing path is
    converted into a d-level position, and its ``ArcSequence`` is the one
    validation of that path.  The level-number equality assumes the knot is
    nontrivial.
    """
    from .distance import pair_set_distance

    cert = pair_set_distance(shadow_input)
    verdict = cert.verdict
    report = {
        "format": "arcdist.level_report/1",
        "triangulation": shadow_input.base.to_json_dict(),
        "distance": cert.to_json_dict(),
        "notes": [
            "level number equals arc distance for nontrivial knots only",
        ],
    }
    if verdict.kind == "exact" and verdict.value == 0:
        report["level_number"] = {"kind": "trivial"}
        report["notes"].append(
            "distance 0: the two shadow sets share a vertex, which happens only for the trivial knot;"
            " no 0-level position is defined"
        )
        return report

    path = cert.witness_path()
    seq = ArcSequence(shadow_input.base, tuple(path))
    if verdict.kind == "exact":
        report["level_number"] = {"kind": "exact", "value": verdict.value}
    else:
        report["level_number"] = {"kind": "bounds", "lower": verdict.lower, "upper": verdict.upper}
    report["level_certificate"] = sequence_to_level_certificate(seq)
    pos = report["level_certificate"]["level_position"]
    if pos["ambient_genus"] != shadow_input.base.genus * pos["n_levels"]:
        raise VerificationError("ambient genus law failed")
    return report
