"""Arc sequences, n-level positions, and the equivalence between them.

A path in the arc complex (consecutive arcs disjoint) converts into a
combinatorial n-level position: the knot is redrawn on n stacked copies of
the surface joined by n-1 tubes, where level 1 carries the first arc, level
n the last, each tube's core is one of the intermediate arcs, and the knot
runs through each tube in two vertical strands.  A ``LevelPosition`` holds
the path and nothing else: its levels (arc words and stub labels), tube
records and strand cycle are read off the path when asked for, so every
position built from a path is well formed by construction, and the
reverse reading returns the original sequence.
"""

from __future__ import annotations

from typing import NamedTuple

from .arc import ArcWord
from .errors import InvalidSequence, PreconditionError
from .realization import intersection
from .surface import Triangulation, _Record


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
    """Symbolic n-level position of a knot, read off its arc path s_0..s_n.

    The path ``arcs`` is the one field; the rest is derived from it.
    ``levels[j]`` lists the strand pieces on surface copy j+1: a full arc
    for the first and last level (``first_arc`` and ``last_arc``), stubs
    (ends of tube cores near the marked points) elsewhere.  Level 1 carries
    s_0 with the stubs of s_1; level j the stubs of s_{j-1} and s_j; level n
    carries s_n.  Tube j thickens s_j, and the knot climbs the P1 side
    through the alpha stubs and descends the P2 side through the beta
    stubs, closing into a single ``cycle``; each cycle entry is (piece kind,
    label, location, start point, end point).
    """

    arcs: tuple[ArcWord, ...]

    @property
    def n_levels(self) -> int:
        return len(self.arcs) - 1

    @property
    def surface_genus(self) -> int:
        return self.arcs[0].base.genus

    @property
    def ambient_genus(self) -> int:
        return self.surface_genus * self.n_levels

    @property
    def first_arc(self) -> ArcWord:
        return self.arcs[0]

    @property
    def last_arc(self) -> ArcWord:
        return self.arcs[-1]

    @property
    def levels(self) -> tuple:
        n = self.n_levels
        levels = []
        for j in range(1, n + 1):
            entries = []
            if j == 1:
                entries.append(("arc", 0, 1))
            if j == n:
                entries.append(("arc", n, n))
            if j > 1:
                entries += [("stub_alpha", j - 1, j), ("stub_beta", j - 1, j)]
            if j < n:
                entries += [("stub_alpha", j, j), ("stub_beta", j, j)]
            levels.append(tuple(entries))
        return tuple(levels)

    @property
    def tubes(self) -> tuple:
        return tuple(Tube(j, self.arcs[j], f"p{j}", f"q{j}") for j in range(1, self.n_levels))

    @property
    def cycle(self) -> tuple:
        # the knot runs s_0 backwards across level 1, climbs the P1 column,
        # crosses s_n on the top level, then descends the P2 column back to
        # the start
        n = self.n_levels
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
        return tuple(cycle)

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
    """The n-level position certified by a path s_0..s_n.

    Accepts an ArcSequence or a plain (base, arcs) pair whose path the
    caller has already validated.
    """
    _, arcs = (seq.base, seq.arcs) if isinstance(seq, ArcSequence) else seq
    if len(arcs) < 2:
        raise PreconditionError("leveling needs at least two arcs (a 1-level position)")
    return LevelPosition(tuple(arcs))


def leveling_to_arc_sequence(pos: LevelPosition) -> ArcSequence:
    """Read the certifying arc path back off a level position.

    The sequence is its path (level-1 arc, tube cores in order, level-n
    arc); it re-validates, so an n-level position certifies arc distance at
    most n.
    """
    if len(pos.arcs) < 2:
        raise PreconditionError("leveling needs at least two arcs (a 1-level position)")
    return ArcSequence(pos.first_arc.base, pos.arcs)


def sequence_to_level_certificate(seq: ArcSequence) -> dict:
    """Level position plus the data needed to re-extract the sequence."""
    pos = arcs_to_leveling(seq)
    return {
        "format": "arcdist.level_certificate/1",
        "triangulation": seq.base.to_json_dict(),
        "sequence": [a.to_json_dict() for a in seq.arcs],
        "level_position": pos.to_json_dict(),
    }


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

    report["level_number"] = verdict.to_json_dict()
    seq = ArcSequence(shadow_input.base, tuple(cert.witness_path()))
    report["level_certificate"] = sequence_to_level_certificate(seq)
    return report
