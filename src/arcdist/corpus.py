"""Bundled example records reproducing the stated small arc distances.

Records are frozen JSON shipped with the package: the trivial knot as a
repeated shadow (distance 0), torus knots as disjoint shadow pairs whose
union wraps (p, q) around the torus (distance 1), and a figure-eight pair
whose shadows cross twice with a certified common disjoint arc (distance
2).  For each record the engine's verdict, not the transcription, is the
authority.  This module only loads and runs them; their generator is
``tests/corpus_build.py``, which prints a fresh ``corpus.json``.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .distance import ShadowPairInput
from .leveling import level_number_report
from .serialize import load_shadow_pair


class ExampleRecord(NamedTuple):
    name: str
    genus: int
    shadows: ShadowPairInput
    expected: dict  # verdict JSON
    provenance: str

    def to_json_dict(self) -> dict:
        return {
            "format": "arcdist.example/1",
            "name": self.name,
            "genus": self.genus,
            "input": self.shadows.to_json_dict(),
            "expected": self.expected,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExampleRecord":
        return cls(
            name=d["name"],
            genus=d["genus"],
            shadows=load_shadow_pair(d["input"], f"example {d['name']}"),
            expected=d["expected"],
            provenance=d["provenance"],
        )


def load_bundled_examples() -> list[ExampleRecord]:
    raw = resources.files("arcdist.data").joinpath("examples/corpus.json").read_bytes()
    blob = json.loads(raw)
    return [ExampleRecord.from_json_dict(d) for d in blob["records"]]


def run_examples(records=None) -> list[dict]:
    """Evaluate each record; returns one result row per record, its level report included."""
    if records is None:
        records = load_bundled_examples()
    rows = []
    for rec in records:
        report = level_number_report(rec.shadows)
        got = report["distance"]["verdict"]
        row = {
            "name": rec.name,
            "expected": rec.expected,
            "got": got,
            "passed": got == rec.expected,
        }
        row["level_number"] = report["level_number"]
        row["report"] = report
        rows.append(row)
    return rows
