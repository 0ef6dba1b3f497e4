import functools
import json
import random
from importlib import resources
from typing import NamedTuple

import pytest

from arcdist import build_standard_triangulation
from arcdist.arc import ArcWord, random_arc
from arcdist.overlay import intersection
from arcdist.surface import Corner


@pytest.fixture(scope="session")
def g1():
    return build_standard_triangulation(1)


@pytest.fixture(scope="session")
def g2():
    return build_standard_triangulation(2)


@pytest.fixture
def built_corners(monkeypatch):
    """The arguments of every ``Corner`` built while the test runs."""
    new = Corner.__new__
    built = []

    def counted(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Corner, "__new__", counted)
    return built


def self_crossing_word(g1):
    """A genus-1 word with one self-crossing: a reduced word, but no vertex
    of the arc complex."""
    return ArcWord(g1, Corner(0, 1), (-4, -5, -6, -2), Corner(1, 0))


class Strand(NamedTuple):
    """Crossing ``index`` of arc ``owner`` (0 for v, 1 for w) on its edge,
    with its signed label ``value``."""

    owner: int
    index: int
    value: int


def strand_order(real):
    """``real.edge_order`` with each strand, listed as i for v's crossing i
    and len(v) + j for w's crossing j, decoded to a ``Strand``."""
    n, values = len(real.v), real.v.crossings + real.w.crossings
    return {
        e: [Strand(int(x >= n), x - n if x >= n else x, values[x]) for x in xs] for e, xs in real.edge_order.items()
    }


class Segment(NamedTuple):
    """Segment ``index`` of arc ``owner`` in triangle ``tri``, its ends a and
    b as boundary coordinates (pos, rank); rank -1 marks the corner itself."""

    owner: int
    index: int
    tri: int
    a: tuple
    b: tuple


def segments_of(real):
    """Each arc's segments, decoded from the end codes ``pos * S + rank + 1``
    of ``real.ends``."""

    def coord(code):
        pos, slot = divmod(code, real.S)
        return pos, slot - 1

    return tuple(
        [Segment(o, j, t, coord(a), coord(b)) for j, (t, a, b) in enumerate(ends)] for o, ends in enumerate(real.ends)
    )


def seeded_pairs(base, tag, count, max_steps=18, require_crossing=False):
    """Deterministic arc pairs; seeds derive from the tag so suites don't collide."""
    rng = random.Random(tag)
    out = []
    attempt = 0
    while len(out) < count:
        seed = rng.randrange(1 << 30)
        steps = 4 + (attempt % 5) * (max_steps - 4) // 4
        v = random_arc(base, seed, steps)
        w = random_arc(base, seed + 1, steps)
        attempt += 1
        if require_crossing and intersection(v, w) == 0:
            continue
        out.append((v, w))
    return out


def seeded_arcs(base, tag, count, max_steps=14):
    rng = random.Random(tag)
    return [
        random_arc(base, rng.randrange(1 << 30), 3 + i % max_steps)
        for i in range(count)
    ]


def seeded_arcs_of_length(base, tag, count, lo, hi):
    """Distinct deterministic arcs with word length in ``lo..hi``.

    Draws flip walks until enough words land in the range: word length, not
    step count, is what the realization's cost depends on.
    """
    rng = random.Random(tag)
    out = []
    while len(out) < count:
        a = random_arc(base, rng.randrange(1 << 30), rng.randint(30, 50))
        if lo <= len(a) <= hi and a not in out:
            out.append(a)
    return out


@functools.cache
def inlined_schema(tag):
    """The shipped schema whose ``$id`` is ``tag``, every ``$ref`` replaced
    by the schema it names, for an off-the-shelf JSON Schema validator.

    Schema ids are plain format tags, not URIs, so cross-schema references
    are substituted directly (the reference graph is acyclic).
    """
    folder = resources.files("arcdist.data").joinpath("schemas")
    store = {s["$id"]: s for s in (json.loads(f.read_text()) for f in folder.iterdir() if f.name.endswith(".json"))}

    def inline(node):
        if isinstance(node, dict):
            ref = node.get("$ref")
            if ref in store:
                return inline({k: v for k, v in store[ref].items() if k not in ("$schema", "$id")})
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(x) for x in node]
        return node

    return inline(store[tag])
