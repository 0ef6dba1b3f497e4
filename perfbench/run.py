"""arcdist benchmark: one workload, timed or traced, checked as it runs.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload oracle-g234 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the timed loop with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
over a fixed list of items and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give the machine, the
traffic the run actually produced and the failure share.  See README.md in
this directory for the metrics and the layer-to-workload map.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
MIN_ITEMS = 100  # so p90 has at least ten samples beyond it
DIGEST_ITEMS = 100  # items whose output digests are stored for the default seed
SETUP_REPEATS = 3
COLD_STARTS = 5

# per-layer ratios: name -> (numerator, denominator) of span counts
RATIOS = {
    "overlay.realizations_per_classify": ("overlay.realization.calls", "distance.classify.calls"),
    "leveling.validations_per_path": ("leveling.validate_sequence.calls", "surgery.path_between.calls"),
    "surgery.steps_per_path": ("surgery.surgery_step.calls", "surgery.path_between.calls"),
    "surface.flips_per_oracle": ("surface.flip.calls", "trace.items"),
    "surface.triangulation_id_per_doc": ("surface.triangulation_id.calls", "serialize.docs"),
}


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def quartiles(values) -> list:
    if len(values) < 2:
        return list(values)
    return [round(q, 2) for q in statistics.quantiles(values, n=4)]


def percentile(values, p) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """Runs items of one workload and checks each output as it goes."""

    def __init__(self, wl, stored):
        self.wl = wl
        self.stored = stored  # output digests of the default seed, or None
        self.seen = {}  # item key -> output digest
        self.failed = 0
        self.attempted = 0
        self.check_s = 0.0  # time spent in the untimed checks
        self.problems = []
        self.traffic = []

    def item(self, k, tracer=None):
        """Run item k; returns its wall time in seconds and output digest."""
        t0 = perf_counter()
        try:
            problems, payload = self.wl.item(k)
        except Exception as ex:  # a failing item is counted, never fatal
            problems, payload = [f"raised {type(ex).__name__}: {ex}"], None
        dt = perf_counter() - t0
        digest = None
        t_check = perf_counter()
        if payload is not None:
            if tracer is not None:
                tracer.on = False
            try:
                problems = problems + self.wl.check(payload)
                digest = hashlib.sha256(self.wl.output(payload)).hexdigest()
                t = self.wl.traffic(payload)
                if t is not None:
                    self.traffic.append(t)
            except Exception as ex:
                problems = problems + [f"check raised {type(ex).__name__}: {ex}"]
            finally:
                if tracer is not None:
                    tracer.on = True
            key = self.wl.item_key(k)
            if self.seen.setdefault(key, digest) != digest:
                problems.append(f"output differs from an earlier run of the same input {key!r}")
            if self.stored is not None and k < len(self.stored) and self.stored[k] != digest:
                problems.append("output differs from the stored digest for the default seed")
        self.check_s += perf_counter() - t_check
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"item {k}: " + "; ".join(problems))
        return dt, digest

    def traffic_summary(self) -> dict:
        rows = self.traffic
        genus, verdicts, crossing = {}, {}, {}
        for r in rows:
            genus[r["genus"]] = genus.get(r["genus"], 0) + 1
            verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
            crossing[r["genus"]] = crossing.get(r["genus"], 0) + (r["i"] > 0)
        return {
            "pairs": len(rows),
            "genus_mix": dict(sorted(genus.items())),
            "crossing_pairs_by_genus": dict(sorted(crossing.items())),
            "v_len_quartiles": quartiles([r["v_len"] for r in rows]),
            "w_len_quartiles": quartiles([r["w_len"] for r in rows]),
            "i_quartiles": quartiles([r["i"] for r in rows]),
            "verdicts": dict(sorted(verdicts.items())),
        }


def setup(wl, seed):
    """Import the package, then build the inputs SETUP_REPEATS times.

    Returns (setup_s, input digest, problems).  setup_s is the import time
    plus the median of the repeated input builds; every repeat must give
    the same input bytes.
    """
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    wl.bind()
    import_s = perf_counter() - t0
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        data = wl.setup(seed)
        times.append(perf_counter() - t0)
        digests.add(hashlib.sha256(data).hexdigest())
    problems = [] if len(digests) == 1 else ["setup is not deterministic: input digests differ"]
    return import_s + statistics.median(times), min(digests), problems


def timed_run(run, seconds):
    times = []
    k = 0
    t_start = perf_counter()
    deadline = t_start + seconds
    while k < MIN_ITEMS or perf_counter() < deadline:
        dt, _ = run.item(k)
        times.append(dt)
        k += 1
    loop_s = perf_counter() - t_start - run.check_s
    return {
        "item_ms_p50": (1000 * statistics.median(times), "ms"),
        "item_ms_p90": (1000 * percentile(times, 90), "ms"),
        "items_per_s": (len(times) / loop_s, "1/s"),
    }


def cold_start_ms() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(COLD_STARTS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "arcdist.cli", "--help"], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return 1000 * statistics.median(times)


def layer_metrics(spans: dict, items: int) -> tuple[dict, dict]:
    """Flatten one traced pass into per-layer counts (exact) and times."""
    counts, times = {"trace.items": items}, {}
    for name, row in spans.items():
        counts[f"{name}.calls"] = row["calls"]
        times[f"{name}.self_ms"] = row["self_ms"]
        for stat in ("strands", "bytes"):
            if stat in row:
                counts[f"{name}.{stat}"] = row[stat]
    counts["serialize.docs"] = spans["serialize.dumps"]["calls"] + spans["serialize.load"]["docs"]
    return counts, times


def traced_run(run, tracer, seconds):
    """Alternate untraced and traced passes over the same fixed items."""
    n = run.wl.trace_items
    untraced_s = traced_s = 0.0
    pass_counts, pass_times, flip_us = [], [], []
    problems = []
    deadline = perf_counter() + seconds
    while not pass_counts or perf_counter() < deadline:
        t0 = perf_counter()
        plain = [run.item(k)[1] for k in range(n)]
        untraced_s += perf_counter() - t0
        tracer.reset()
        tracer.install()
        try:
            t0 = perf_counter()
            traced = [run.item(k, tracer)[1] for k in range(n)]
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        if traced != plain:
            problems.append("canonical outputs differ with tracing on and off")
        counts, times = layer_metrics(tracer.by_span(), n)
        if pass_counts and counts != pass_counts[0]:
            problems.append("traced counts differ between passes")
        pass_counts.append(counts)
        pass_times.append(times)
        flip_us += [1e6 * d for d in tracer.durations["surface.flip"]]
    tree = tracer.tree()

    counts = pass_counts[0]
    metrics = {name: (value, _unit(name)) for name, value in counts.items()}
    for name in pass_times[0]:
        metrics[name] = (statistics.median(t[name] for t in pass_times), "ms")
    metrics["surface.flip.us_p50"] = (statistics.median(flip_us) if flip_us else 0.0, "us")
    for name, (num, den) in RATIOS.items():
        metrics[name] = (counts[num] / counts[den] if counts[den] else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (untraced_s / traced_s, "ratio")
    metrics["cli.cold_start_ms"] = (cold_start_ms(), "ms")
    return metrics, tree, problems


def _unit(name: str) -> str:
    return "B" if name.endswith(".bytes") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's input and output digests for the default seed")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arcdist", "__init__.py")):
        print(f"perfbench: no arcdist package under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        print("perfbench: --record-digests needs the default seed and --trace 0", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info()))
    workdir = os.path.join(BUILD, f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    wl = WORKLOADS[args.workload](SRC, workdir)
    with open(DIGESTS) as f:
        known = json.load(f)
    expected = known["workloads"].get(wl.name) if args.seed == known["seed"] and not args.record_digests else None

    setup_s, input_digest, problems = setup(wl, args.seed)
    print(f"inputs {wl.name} seed {args.seed} sha256 {input_digest}")
    if expected is not None and expected["inputs"] != input_digest:
        problems.append("inputs differ from the stored digest for the default seed")
    run = Run(wl, expected["outputs"] if expected is not None else None)

    if args.trace:
        wl.in_process = True  # only the CLI workload distinguishes
        metrics, tree, trace_problems = traced_run(run, Tracer(), args.seconds)
        problems += trace_problems
        tree_path = os.path.join(BUILD, f"perfbench-trace-{wl.name}-seed{args.seed}.json")
        with open(tree_path, "w") as f:
            json.dump({"workload": wl.name, "seed": args.seed, "spans": tree}, f, indent=1)
        print(f"span tree of the last traced pass: {tree_path}")
    else:
        metrics = timed_run(run, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    print("traffic " + json.dumps(run.traffic_summary()))
    print(f"failed_frac {run.failed / max(run.attempted, 1):.4f} ({run.failed} of {run.attempted} items)")
    for p in problems + run.problems:
        print(f"problem: {p}")
    if args.record_digests:
        known["workloads"][wl.name] = {"inputs": input_digest, "outputs": [run.seen[wl.item_key(k)] for k in range(DIGEST_ITEMS)]}
        with open(DIGESTS, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
            f.write("\n")
    result = {
        "correct": not problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
