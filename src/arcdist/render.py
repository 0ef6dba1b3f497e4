"""Static SVG figures for certificates; never affects verdicts.

Pair and distance certificates are drawn triangle by triangle: each
triangle of the base becomes one equilateral cell, its sides carry the edge
labels, and the arcs appear as chords through the cells at their exact
strand positions: the slots and strand counts of one ``Realization`` of
the first two arcs, and of the first arc with each later one.  Level
reports get one band per level with the tube columns drawn between bands,
and a distance-0 report, with no level position, its certificate's pair.
"""

from __future__ import annotations

import math
from pathlib import Path

from .arc import ArcWord
from .errors import VerificationError
from .realization import Realization
from .surface import Corner, edge_of

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _tri_geometry(cx, cy, r):
    pts = []
    for k in range(3):
        ang = math.pi / 2 + 2 * math.pi * k / 3
        pts.append((cx + r * math.cos(ang), cy - r * math.sin(ang)))
    return pts


def _side_point(corners, pos, frac):
    (x1, y1), (x2, y2) = corners[pos], corners[(pos + 1) % 3]
    return (x1 + (x2 - x1) * frac, y1 + (y2 - y1) * frac)


def _coord_point(real, tri, corners, code):
    """A segment end: its corner, or its slot among the edge's strands."""
    pos, slot = divmod(code, real.S)  # slot = rank + 1; 0 is the corner
    if not slot:
        return corners[pos]
    m = len(real.edge_order[edge_of(real.base.triangles[tri][pos])])
    return _side_point(corners, pos, slot / (m + 1))


def render_arcs_svg(arcs: list[ArcWord], labels: list[str] | None = None) -> str:
    """One cell per triangle; arcs drawn as chords at their strand slots.

    The first two arcs come from one realization of the pair; each later
    arc (a witness, a sequence's later arcs) from its realization with the
    first, and a lone arc from its pairing with itself.  Each side spaces
    its slots by that realization's strand count on the edge.
    """
    if not arcs:
        raise ValueError("nothing to draw")
    base = arcs[0].base
    labels = labels or [f"arc {i}" for i in range(len(arcs))]

    # (realization, owner) drawing each arc
    pair = Realization(arcs[0], arcs[1] if len(arcs) > 1 else arcs[0])
    placements = [(pair, 0), (pair, 1)][: len(arcs)] + [(Realization(arcs[0], a), 1) for a in arcs[2:]]

    cols = min(4, base.n_triangles)
    rows = (base.n_triangles + cols - 1) // cols
    cell, r = 180, 72
    width, height = cols * cell, rows * cell + 30 * len(arcs) + 20
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">'
    ]
    centers = {}
    for t in range(base.n_triangles):
        cx = (t % cols) * cell + cell / 2
        cy = (t // cols) * cell + cell / 2
        corners = _tri_geometry(cx, cy, r)
        centers[t] = corners
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in corners)
        out.append(f'<polygon points="{pts}" fill="#f8f8f8" stroke="#444"/>')
        out.append(f'<text x="{cx:.1f}" y="{cy - r - 6:.1f}" text-anchor="middle" fill="#444">t{t}</text>')
        for k in range(3):
            s = base.side(Corner(t, k))
            mx, my = _side_point(corners, k, 0.5)
            out.append(
                f'<text x="{mx:.1f}" y="{my:.1f}" text-anchor="middle" fill="#888">'
                f"e{edge_of(s)}{'+' if s > 0 else '-'}</text>"
            )

    for ai, (real, owner) in enumerate(placements):
        color = _COLORS[ai % len(_COLORS)]
        for tri, a, b in real.ends[owner]:
            corners = centers[tri]
            x1, y1 = _coord_point(real, tri, corners, a)
            x2, y2 = _coord_point(real, tri, corners, b)
            out.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="{color}" stroke-width="1.8"/>'
            )
        ly = rows * cell + 20 + 24 * ai
        out.append(f'<line x1="12" y1="{ly}" x2="40" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="48" y="{ly + 4}" fill="#222">{labels[ai]}</text>')
    out.append("</svg>")
    return "\n".join(out)


def render_levels_svg(level_certificate: dict) -> str:
    """Schematic of an n-level position: one band per level, tubes between."""
    pos = level_certificate["level_position"]
    n = pos["n_levels"]
    band_h, band_w, gap = 70, 480, 46
    width = band_w + 60
    height = n * band_h + (n - 1) * gap + 60
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">'
    ]
    tops = {}
    for j in range(1, n + 1):
        # level n drawn at the top
        y = 30 + (n - j) * (band_h + gap)
        tops[j] = y
        out.append(
            f'<rect x="30" y="{y}" width="{band_w}" height="{band_h}" rx="10" '
            'fill="#eef4fb" stroke="#446"/>'
        )
        out.append(f'<text x="36" y="{y + 16}" fill="#446">level {j} (genus {pos["surface_genus"]})</text>')
        entries = pos["levels"][j - 1]
        names = []
        for entry in entries:
            kind, label, _ = entry
            if kind == "arc":
                names.append(f"s{label}")
            elif kind == "stub_alpha":
                names.append(f"a{label}")
            else:
                names.append(f"b{label}")
        out.append(f'<text x="36" y="{y + band_h - 12}" fill="#222">strands: {", ".join(names)}</text>')
        px, qx = 120, band_w - 60
        py = y + band_h / 2
        out.append(f'<circle cx="{px}" cy="{py}" r="3.5" fill="#d62728"/>')
        out.append(f'<circle cx="{qx}" cy="{py}" r="3.5" fill="#1f77b4"/>')
        out.append(f'<text x="{px - 16}" y="{py + 4}" fill="#d62728">p</text>')
        out.append(f'<text x="{qx + 8}" y="{py + 4}" fill="#1f77b4">q</text>')
        if any(e[0] == "arc" for e in entries):
            out.append(
                f'<path d="M {px} {py} C {px + 80} {py - 24}, {qx - 80} {py + 24}, {qx} {py}" '
                'fill="none" stroke="#222" stroke-width="1.6"/>'
            )
    for tube in pos["tubes"]:
        j = tube["index"]
        y_low, y_high = tops[j], tops[j + 1] + band_h
        cx = 150 + 40 * (j - 1)
        out.append(
            f'<rect x="{cx - 14}" y="{y_high - 6}" width="28" height="{y_low - y_high + 12}" rx="9" '
            'fill="none" stroke="#888" stroke-dasharray="4 3"/>'
        )
        for dx, lab in ((-6, tube["p_strand"]), (6, tube["q_strand"])):
            out.append(
                f'<line x1="{cx + dx}" y1="{y_high - 6}" x2="{cx + dx}" y2="{y_low + 6}" '
                'stroke="#555" stroke-width="1.4"/>'
            )
        out.append(f'<text x="{cx + 18}" y="{(y_low + y_high) / 2}" fill="#555">T{j}</text>')
    out.append("</svg>")
    return "\n".join(out)


def render_document(doc: dict, out_dir, where: str = "document") -> list[str]:
    """Write figures for a certificate-bearing document; returns file names.

    ``where`` names the document in error messages, as the input file's
    path does for the CLI.  ``out_dir``, parents included, is made only
    once the document has passed its checks, so a refusal leaves nothing.
    """
    from .leveling import sequence_to_level_certificate
    from .serialize import _sequence, _write_file, check_doc, load_distance_certificate, load_pair, load_sequence

    figures = []  # (file name, svg text)
    tag = doc.get("format")
    if tag == "arcdist.level_report/1" and "level_certificate" not in doc:
        check_doc(doc, tag, where)  # distance 0: no level position is defined, so draw the pair
        if doc["level_number"] != {"kind": "trivial"}:
            raise VerificationError(f"{where}: level certificate missing")
        doc, tag, where = doc["distance"], "arcdist.distance_certificate/1", f"{where}.distance"
    if tag == "arcdist.distance_certificate/1":
        cert = load_distance_certificate(doc, where)
        arcs = [cert.v, cert.w]
        labels = ["v", "w"]
        if cert.witness is not None:
            arcs.append(cert.witness)
            labels.append("witness")
        figures.append(("pair.svg", render_arcs_svg(arcs, labels)))
    elif tag == "arcdist.pair/1":
        v, w = load_pair(doc, where)
        figures.append(("pair.svg", render_arcs_svg([v, w], ["v", "w"])))
    elif tag == "arcdist.arc_sequence/1":
        seq = load_sequence(doc, where)
        labels = [f"s{i}" for i in range(len(seq.arcs))]
        figures.append(("sequence.svg", render_arcs_svg(list(seq.arcs), labels)))
    elif tag in ("arcdist.level_report/1", "arcdist.level_certificate/1"):
        check_doc(doc, tag, where)
        # draw the position the sequence certifies, rebuilt as check-cert
        # rebuilds it, never the stored one unchecked
        if tag == "arcdist.level_report/1":
            doc, where = doc["level_certificate"], f"{where}.level_certificate"
        seq = _sequence(doc, "sequence", where)
        figures.append(("levels.svg", render_levels_svg(sequence_to_level_certificate(seq))))
    else:
        raise ValueError(f"no renderer for format {tag!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, svg in figures:
        _write_file(out_dir / name, svg)
    return [name for name, _ in figures]
