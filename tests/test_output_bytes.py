"""Byte contract: certificates and emitted example files are pinned by digest.

The digest covers the canonical bytes of ``classify(...).to_json_dict()``
on seeded crossing pairs of genus 1 and 2, then every file written by
``arcdist examples --emit``.  A refactor that changes any verdict,
certificate or output byte changes the digest; a deliberate format change
updates it here, in review.
"""

import hashlib
import os

from arcdist.cli import main
from arcdist.distance import classify
from arcdist.serialize import dumps

from conftest import seeded_pairs

DIGEST = "e0eece70024441ee93314b45e15b92dc93506d2a3c06314460d5127964535848"


def test_output_bytes_are_pinned(tmp_path, g1, g2):
    h = hashlib.sha256()
    for base, count in ((g1, 30), (g2, 20)):
        for v, w in seeded_pairs(base, f"byte-contract-{base.genus}", count, max_steps=30, require_crossing=True):
            h.update(dumps(classify(v, w).to_json_dict()).encode())
    emit = tmp_path / "emitted"
    assert main(["examples", "--emit", str(emit)]) == 0
    for name in sorted(os.listdir(emit)):
        h.update(name.encode() + b"\n")
        h.update((emit / name).read_bytes())
    assert h.hexdigest() == DIGEST
