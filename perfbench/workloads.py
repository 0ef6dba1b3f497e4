"""The benchmark workloads: seeded inputs, one work item, and its check.

Each workload builds its inputs in ``setup(seed)`` (same seed, same inputs,
same input bytes) and then serves work items ``item(k)`` for k = 0, 1, ...
An item returns ``(problems, payload)``: ``problems`` lists every failed
correctness check (empty when the item is correct) and ``payload`` carries
what ``output`` turns into the item's canonical output bytes and what
``traffic`` reports about the input it ran on.  Only ``item`` is timed.

The package is reached through its modules' attributes at call time
(``self.arc.random_arc``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

def verdict_label(verdict: dict) -> str:
    if verdict["kind"] == "exact":
        return f"exact:{verdict['value']}"
    return f"bounds:{verdict['lower']}-{verdict['upper']}"


def _canonical(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def length_targeted_arcs(arc_mod, base, rng, quotas, steps):
    """Seeded random arcs, a fixed number per word-length bin.

    ``quotas`` maps ``(lo, hi)`` to how many distinct arcs with
    ``lo <= length <= hi`` to keep.  Draws ``random_arc(base, seed, s)`` with
    ``s`` uniform in ``steps`` until every bin is full.  Length, not step
    count, selects the arcs, because word length jumps unevenly with the
    number of flips; fixed quotas give every seed the same length mix.
    """
    picked = {b: [] for b in quotas}
    seen = set()
    while any(len(picked[b]) < n for b, n in quotas.items()):
        a = arc_mod.random_arc(base, rng.randrange(1 << 31), rng.randint(*steps))
        for (lo, hi), n in quotas.items():
            if lo <= len(a) <= hi and len(picked[(lo, hi)]) < n and a not in seen:
                picked[(lo, hi)].append(a)
                seen.add(a)
    return [a for b in quotas for a in picked[b]]


def _pair_traffic(payload) -> dict:
    return {"genus": payload["genus"], "v_len": len(payload["v"]), "w_len": len(payload["w"]),
            "i": payload["i"], "verdict": verdict_label(payload["cert"].verdict.to_json_dict())}


class Workload:
    name = ""
    trace_items = 0  # items in one traced pass

    def __init__(self, src: str, workdir: str):
        self.src = src
        self.workdir = workdir

    def bind(self):
        """Import the package; modules are kept so calls go through them."""
        import arcdist.arc
        import arcdist.distance
        import arcdist.overlay
        import arcdist.serialize
        import arcdist.surface

        self.surface = arcdist.surface
        self.arc = arcdist.arc
        self.overlay = arcdist.overlay
        self.distance = arcdist.distance
        self.serialize = arcdist.serialize

    def setup(self, seed: int) -> bytes:
        """Build the seeded inputs; returns their canonical bytes."""
        raise NotImplementedError

    def item(self, k: int):
        raise NotImplementedError

    def check(self, payload) -> list[str]:
        """Checks that need extra engine work; run untimed and untraced."""
        return []

    def item_key(self, k: int):
        """Items with equal keys run the same input and must agree."""
        return k

    def output(self, payload) -> bytes:
        raise NotImplementedError

    def traffic(self, payload) -> dict | None:
        """{'genus', 'v_len', 'w_len', 'i', 'verdict'} for the item, if any."""
        return None


class OracleG234(Workload):
    """Generate two arcs, cross-check both oracles, classify and re-verify."""

    name = "oracle-g234"
    trace_items = 27  # every (genus, steps) stratum once
    POOL = 2048

    def setup(self, seed):
        self.bases = {g: self.surface.build_standard_triangulation(g) for g in (2, 3, 4)}
        rng = random.Random(seed)
        # genus and steps are stratified so every run sees the same mix;
        # the seed picks the flip walks
        self.triples = [
            (2 + k % 3, rng.randrange(1 << 31), rng.randrange(1 << 31), 20 + 5 * ((k // 3) % 9))
            for k in range(self.POOL)
        ]
        return _canonical(self.triples)

    def item_key(self, k):
        return k % self.POOL

    def item(self, k):
        genus, seed_v, seed_w, steps = self.triples[k % self.POOL]
        base = self.bases[genus]
        v = self.arc.random_arc(base, seed_v, steps)
        w = self.arc.random_arc(base, seed_w, steps)
        i_overlay = self.overlay.intersection(v, w)
        i_flips = self.overlay.intersection_via_flips(v, w)
        cert = self.distance.classify(v, w)
        problems = list(self.distance.verify_certificate(cert))
        if i_overlay != i_flips:
            problems.append(f"oracles disagree: overlay {i_overlay}, flips {i_flips}")
        return problems, {"genus": genus, "v": v, "w": w, "i": i_overlay, "cert": cert}

    def output(self, payload):
        return _canonical({"intersection": payload["i"], "certificate": payload["cert"].to_json_dict()})

    def traffic(self, payload):
        return _pair_traffic(payload)


class ClassifyG1(Workload):
    """Classify a pre-built genus-1 pair and re-verify its certificate."""

    name = "classify-g1"
    trace_items = 24
    # length bin -> arcs; roughly the share random_arc produces at these steps
    QUOTAS = {(24, 31): 12, (32, 39): 10, (40, 47): 7, (48, 55): 5, (56, 64): 6}
    STEPS = (30, 50)
    STRATA = 20

    def setup(self, seed):
        base = self.surface.build_standard_triangulation(1)
        rng = random.Random(seed)
        pool = length_targeted_arcs(self.arc, base, rng, self.QUOTAS, self.STEPS)
        # interleave strata of the length sum, so any run of consecutive
        # items has the same mix of short and long pairs
        pairs = sorted(itertools.combinations(range(len(pool)), 2), key=lambda p: len(pool[p[0]]) + len(pool[p[1]]))
        size = -(-len(pairs) // self.STRATA)
        strata = [pairs[i:i + size] for i in range(0, len(pairs), size)]
        for stratum in strata:
            rng.shuffle(stratum)
        order = [p for row in itertools.zip_longest(*strata) for p in row if p is not None]
        self.pairs = [(pool[a], pool[b]) for a, b in order]
        return _canonical({"arcs": [a.to_json_dict() for a in pool], "pairs": order})

    def item_key(self, k):
        return k % len(self.pairs)

    def item(self, k):
        v, w = self.pairs[k % len(self.pairs)]
        cert = self.distance.classify(v, w)
        problems = list(self.distance.verify_certificate(cert))
        return problems, {"genus": 1, "v": v, "w": w, "cert": cert}

    def check(self, payload):
        payload["i"] = i = self.overlay.intersection(payload["v"], payload["w"])
        hops = len(payload["cert"].witness_path()) - 1
        if hops > i + 1:
            return [f"path of {hops} edges exceeds i(v,w)+1 = {i + 1}"]
        return []

    def output(self, payload):
        return _canonical(payload["cert"].to_json_dict())

    def traffic(self, payload):
        return _pair_traffic(payload)


class CliCertify(Workload):
    """One ``arcdist`` command per item: dist, check-cert, level, check-cert.

    Every tenth item runs ``examples`` instead.  Traced runs call
    ``arcdist.cli.main`` in this process (``in_process``), because a child
    process cannot be wrapped from outside.
    """

    name = "cli-certify"
    trace_items = 40
    OPS = ("dist", "check-dist", "level", "check-level")
    EXAMPLES_EVERY = 10
    # length bin -> arcs, for each of genus 1 and 2; lengths stay moderate
    # so process start and the canonical I/O remain a large share of a call
    QUOTAS = {(6, 14): 4, (15, 24): 4}
    STEPS = (10, 40)

    in_process = False

    def setup(self, seed):
        from arcdist.distance import ShadowPairInput

        rng = random.Random(seed)
        self.pairs = []
        docs = []
        for genus in (1, 2):
            base = self.surface.build_standard_triangulation(genus)
            arcs = length_targeted_arcs(self.arc, base, rng, self.QUOTAS, self.STEPS)
            rng.shuffle(arcs)
            for j in range(0, len(arcs), 2):
                v, w = arcs[j], arcs[j + 1]
                n = len(self.pairs)
                pair_doc = self.serialize.pair_dict(v, w)
                shadow_doc = ShadowPairInput(base, (v,), (w,)).to_json_dict()
                paths = {
                    "pair": os.path.join(self.workdir, f"pair{n}.json"),
                    "shadow": os.path.join(self.workdir, f"shadow{n}.json"),
                    "cert": os.path.join(self.workdir, f"cert{n}.json"),
                    "report": os.path.join(self.workdir, f"report{n}.json"),
                }
                self.serialize.write_doc(paths["pair"], pair_doc)
                self.serialize.write_doc(paths["shadow"], shadow_doc)
                self.pairs.append((genus, v, w, paths))
                docs += [pair_doc, shadow_doc]
        self.env = dict(os.environ, PYTHONPATH=self.src)
        return _canonical(docs)

    def item_key(self, k):
        if k % self.EXAMPLES_EVERY == self.EXAMPLES_EVERY - 1:
            return ("examples",)
        j = k - k // self.EXAMPLES_EVERY
        return (j // len(self.OPS)) % len(self.pairs), self.OPS[j % len(self.OPS)]

    def _argv(self, key):
        if key == ("examples",):
            return ["examples"], None
        n, op = key
        p = self.pairs[n][3]
        if op == "dist":
            return ["dist", p["pair"], "--max-len", "5", "--max-depth", "3", "-o", p["cert"]], p["cert"]
        if op == "level":
            return ["level", p["shadow"], "-o", p["report"]], p["report"]
        return ["check-cert", p["cert"] if op == "check-dist" else p["report"]], None

    def _run(self, argv):
        if self.in_process:
            from arcdist import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "arcdist.cli", *argv],
            env=self.env, cwd=self.workdir, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def item(self, k):
        key = self.item_key(k)
        argv, written = self._argv(key)
        rc, out, err = self._run(argv)
        problems = []
        if rc != 0:
            problems.append(f"{argv[0]} exited {rc}: {err.strip()[-200:]}")
        if argv[0] == "check-cert" and not out.startswith("verified:"):
            problems.append(f"check-cert did not verify: {out.strip()[-200:]}")
        if argv[0] == "examples" and any(not line.startswith("pass") for line in out.splitlines()):
            problems.append("examples: a record failed")
        if written is not None:
            with open(written, "rb") as f:
                body = f.read()
        else:
            body = out.encode()
        return problems, (key, body)

    def output(self, payload):
        return payload[1]

    def traffic(self, payload):
        key, body = payload
        if key[-1] != "dist":
            return None
        genus, v, w, _ = self.pairs[key[0]]
        doc = json.loads(body)
        verdict = doc["verdict"]
        return {"genus": genus, "v_len": len(v), "w_len": len(w),
                "i": doc["evidence"]["intersection_vw"], "verdict": verdict_label(verdict)}


WORKLOADS = {w.name: w for w in (OracleG234, ClassifyG1, CliCertify)}
