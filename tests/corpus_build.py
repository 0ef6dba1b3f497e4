"""The generator of ``arcdist/data/examples/corpus.json``, which the tests
compare with the shipped file byte for byte.  To regenerate the file, run
from the repository root::

    PYTHONPATH=src python tests/corpus_build.py > src/arcdist/data/examples/corpus.json
"""

import itertools
import sys

from arcdist.arc import ArcWord, edge_word, enumerate_arcs
from arcdist.corpus import ExampleRecord
from arcdist.distance import ShadowPairInput, classify, pair_set_distance
from arcdist.errors import VerificationError
from arcdist.realization import intersection
from arcdist.serialize import dumps
from arcdist.surface import P1, P2, Triangulation, build_standard_triangulation, edge_of


def rim_pairing(v: ArcWord, w: ArcWord) -> tuple[int, ...]:
    """Signed crossing counts of the closed loop v + reverse(w) with the rim edges.

    The loop runs through both marked points; rounding the corners there
    crosses some edge ends, and since a full turn around a vertex is
    null-homologous the rounding direction does not matter.  On the torus
    the two rim edges form a homology basis, so the absolute values give
    the wrapping numbers of the union curve.
    """
    base = v.base
    rim = 2 * base.genus
    counts = [0] * rim

    def add(value, sign):
        e = edge_of(value)
        if e < rim:
            counts[e] += sign if value > 0 else -sign

    for c in v.crossings:
        add(c, 1)
    for c in w.crossings:
        add(c, -1)
    # close up around P2 (from v's end sector to w's end sector) and around
    # P1 (from w's start sector to v's start sector)
    for vertex, src, dst in ((P2, v.end, w.end), (P1, w.start, v.start)):
        for corner in base.corners_around(src):
            if corner == dst:
                break
            add(base.side(corner), 1)
        else:
            raise VerificationError("corner rotation never reached the target sector")
    return tuple(counts)


def torus_wrapping(v: ArcWord, w: ArcWord) -> tuple[int, int]:
    """Unordered |p|, |q| wrapping of the union curve on the genus-1 surface."""
    if v.base.genus != 1:
        raise VerificationError("wrapping numbers are read off the two rim edges of the torus")
    m0, m1 = rim_pairing(v, w)
    return tuple(sorted((abs(m0), abs(m1))))


def _find_torus_knot_pair(base: Triangulation, p: int, q: int, max_len: int) -> tuple[ArcWord, ArcWord]:
    """Lexicographically least disjoint shadow pair whose union wraps (p, q).

    The union of two disjoint arcs through both marked points is an
    embedded closed curve; wrapping (p, q) with gcd 1 pins its isotopy
    class, so pushing the halves into the two handlebodies gives the
    (p, q) torus knot in one-bridge position.
    """
    want = tuple(sorted((p, q)))
    arcs = enumerate_arcs(base, max_len)
    for v, w in itertools.combinations(arcs, 2):
        if torus_wrapping(v, w) != want:
            continue
        if intersection(v, w) == 0:
            return v, w
    raise VerificationError(f"no ({p},{q}) pair within length {max_len}")


def _find_figure_eight_pair(base: Triangulation, max_len: int) -> tuple[ArcWord, ArcWord]:
    """Least shadow pair crossing twice with arc distance exactly 2.

    This reproduces the doubled-clasp one-bridge picture of the
    figure-eight knot: the two shadows meet in two interior points (four
    points counting the marked endpoints) and admit a common disjoint arc,
    and the knot is neither trivial (distance > 0) nor a torus knot
    (distance > 1).
    """
    arcs = enumerate_arcs(base, max_len)
    for v, w in itertools.combinations(arcs, 2):
        if intersection(v, w) != 2:
            continue
        cert = classify(v, w)
        if cert.verdict.kind == "exact" and cert.verdict.value == 2:
            return v, w
    raise VerificationError(f"no distance-2 pair within length {max_len}")


def build_examples() -> list[ExampleRecord]:
    """Construct and verify the bundled corpus (deterministic)."""
    base = build_standard_triangulation(1)
    records = []

    trivial = edge_word(base, base.connector_edges()[0])
    records.append(
        ExampleRecord(
            name="trivial-knot",
            genus=1,
            shadows=ShadowPairInput(base, (trivial,), (trivial,)),
            expected={"kind": "exact", "value": 0},
            provenance=(
                "both sides share the same shadow, so the shadow sets meet in the arc"
                " complex; only the trivial knot has arc distance 0"
            ),
        )
    )

    for p, q in ((2, 3), (3, 4), (2, 5)):
        v, w = _find_torus_knot_pair(base, p, q, max_len=8)
        records.append(
            ExampleRecord(
                name=f"torus-knot-{p}-{q}",
                genus=1,
                shadows=ShadowPairInput(base, (v,), (w,)),
                expected={"kind": "exact", "value": 1},
                provenance=(
                    f"disjoint shadows whose union is an embedded ({p},{q}) curve"
                    " through the two marked points (wrapping verified homologically);"
                    " pushing the halves into the handlebodies gives the torus knot"
                    f" T({p},{q}) in one-bridge position, of arc distance 1"
                ),
            )
        )

    v, w = _find_figure_eight_pair(base, max_len=6)
    wrap = torus_wrapping(v, w)
    records.append(
        ExampleRecord(
            name="figure-eight",
            genus=1,
            shadows=ShadowPairInput(base, (v,), (w,)),
            expected={"kind": "exact", "value": 2},
            provenance=(
                "shadow pair crossing in two interior points with a verified common"
                " disjoint arc: the doubled-clasp one-bridge picture of the"
                " figure-eight knot (two-crossing diagram on the marked torus,"
                f" union wrapping {wrap}); distance exactly 2 rules out the trivial"
                " and torus knots"
            ),
        )
    )

    for rec in records:
        result = pair_set_distance(rec.shadows)
        if result.verdict.to_json_dict() != rec.expected:
            raise VerificationError(f"record {rec.name}: engine disagrees with expected verdict")
    return records


def corpus_json_bytes(records) -> bytes:
    blob = {
        "format": "arcdist.example_corpus/1",
        "records": [r.to_json_dict() for r in records],
    }
    return dumps(blob).encode()


if __name__ == "__main__":
    sys.stdout.buffer.write(corpus_json_bytes(build_examples()))
