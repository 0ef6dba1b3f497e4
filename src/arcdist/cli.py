"""The arcdist command line.

Subcommands::

    arcdist tri --check FILE | --standard G [-o FILE]
    arcdist dist PAIR.json [--max-len N --max-depth D] [-o FILE]
    arcdist path V.json W.json [-o FILE]
    arcdist level INPUT.json [-o FILE]
    arcdist check-cert CERT.json
    arcdist render FILE --svg DIR
    arcdist examples [--emit DIR]

Exit codes: 0 success / verified, 1 verification failed, 2 malformed JSON
or a command-line usage error (argparse: a usage line and the error on
stderr, nothing on stdout), 3 schema violation, 4 triangulation mismatch,
5 invalid input for the operation, an output path that cannot be written
included, 141 stdout closed by its reader (a shell's status for SIGPIPE,
with nothing on stderr).  All emitted JSON is canonical (sorted keys,
compact, one trailing newline), so outputs are byte-stable and diffable.

-o, --emit and --svg overwrite an existing file in place: it keeps its
inode, mode and links, and its tail is cut when the new document is
shorter.  The rewrite is not atomic, so a run killed mid-write can leave a
file that check-cert refuses.  In place, because truncating the file to
zero first cost 30-77 ms per call on ext4, and renaming a new file over it
about as much (35-68 ms), against well under 1 ms for the rewrite.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from . import serialize
from .errors import ArcdistError, BaseMismatch, PreconditionError, SchemaError, VerificationError
from .leveling import level_number_report
from .surface import build_standard_triangulation

EXIT_VERIFY_FAILED = 1
EXIT_MALFORMED = 2
EXIT_SCHEMA = 3
EXIT_BASE_MISMATCH = 4
EXIT_BAD_INPUT = 5
EXIT_CLOSED_STDOUT = 141


@contextmanager
def _writing(path):
    """An output path that cannot be created or written is invalid input.

    Only the CLI's own file writes go through here, so a broken stdout pipe
    is never reported as one.
    """
    try:
        yield
    except OSError as ex:
        raise PreconditionError(f"cannot write {path}: {ex.strerror or ex}") from None


def _emit(doc: dict, out_path):
    if out_path:
        with _writing(out_path):
            serialize.write_doc(out_path, doc)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(serialize.dumps(doc))


def _cmd_tri(args) -> int:
    if args.standard is not None:
        t = build_standard_triangulation(args.standard)
        _emit(t.to_json_dict(), args.output)
        return 0
    doc = serialize.load_doc(args.check)
    serialize.check_doc(doc, "arcdist.triangulation/1", args.check)
    t, problems = serialize.check_triangulation(doc)
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return EXIT_VERIFY_FAILED
    print(f"ok: genus {t.genus}, V=2, E={t.n_edges}, F={t.n_triangles}, id {t.triangulation_id()}")
    return 0


def _cmd_dist(args) -> int:
    from .distance import classify

    doc = serialize.load_doc(args.pair)
    v, w = serialize.load_pair(doc, args.pair)
    cert = classify(v, w, max_len=args.max_len, max_depth=args.max_depth)
    _emit(cert.to_json_dict(), args.output)
    return 0


def _cmd_path(args) -> int:
    from .surgery import path_between

    v = serialize.load_arc_file(serialize.load_doc(args.v), args.v)
    w = serialize.load_arc_file(serialize.load_doc(args.w), args.w)
    if v.base != w.base:
        raise BaseMismatch("the two arc files use different triangulations")
    seq = path_between(v, w)
    _emit(seq.to_json_dict(), args.output)
    return 0


def _cmd_level(args) -> int:
    doc = serialize.load_doc(args.input)
    shadows = serialize.load_shadow_pair(doc, args.input)
    report = level_number_report(shadows)
    _emit(report, args.output)
    return 0


def _cmd_check_cert(args) -> int:
    doc = serialize.load_doc(args.cert)
    problems = serialize.verify_document(doc)
    if problems:
        for p in problems:
            print(f"failed: {p}")
        return EXIT_VERIFY_FAILED
    print(f"verified: {doc['format']}")
    return 0


def _cmd_render(args) -> int:
    from .render import render_document

    doc = serialize.load_doc(args.file)
    with _writing(args.svg):
        written = render_document(doc, args.svg, args.file)
    for name in written:
        print(f"wrote {os.path.join(args.svg, name)}")
    return 0


def _seed_from_env():
    """``ARCDIST_SEED`` as an int, or None when unset; read before any work."""
    raw = os.environ.get("ARCDIST_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise PreconditionError(f"ARCDIST_SEED must be an integer, got {raw!r}") from None


def _cmd_examples(args) -> int:
    from .corpus import load_bundled_examples, run_examples

    seed = _seed_from_env()
    if args.emit:
        with _writing(args.emit):
            os.makedirs(args.emit, exist_ok=True)
    records = load_bundled_examples()
    rows = run_examples(records)
    failed = 0
    for rec, row in zip(records, rows):
        status = "pass" if row["passed"] else "FAIL"
        print(f"{status}  {row['name']}: expected {row['expected']}, got {row['got']}")
        if not row["passed"]:
            failed += 1
        if args.emit:
            with _writing(args.emit):
                serialize.write_doc(os.path.join(args.emit, f"{row['name']}.record.json"), rec.to_json_dict())
                serialize.write_doc(os.path.join(args.emit, f"{row['name']}.report.json"), row["report"])
    if seed is not None:
        failed += _examples_spot_check(records, seed)
    return 0 if failed == 0 else EXIT_VERIFY_FAILED


def _examples_spot_check(records, seed: int) -> int:
    """Seeded representation-independence probe over the bundled records."""
    import random

    from .arc import _carry
    from .distance import classify
    from .surface import flip_walk

    rng = random.Random(seed)
    failures = 0
    for rec in records:
        v, w = rec.shadows.v_side[0], rec.shadows.w_side[0]
        tables, flips = flip_walk(v.base, rng, 4)
        rewrites = list(zip(tables, tables[1:], flips))
        cv, cw = (_carry(a.base, a.start, a.crossings, a.end, rewrites) for a in (v, w))
        got = classify(cv, cw).verdict.to_json_dict()
        if got != rec.expected:
            print(f"FAIL  {rec.name}: verdict changed to {got} after transport (seed {seed})")
            failures += 1
        else:
            print(f"pass  {rec.name}: verdict stable under transport (seed {seed})")
    return failures


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="arcdist", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tri", help="check a triangulation file or emit a standard table")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--check", metavar="FILE")
    g.add_argument("--standard", type=int, metavar="G")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_tri)

    p = sub.add_parser("dist", help="classify the arc distance of a pair")
    p.add_argument("pair", metavar="PAIR.json")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("path", help="certified arc-complex path between two arcs")
    p.add_argument("v", metavar="V.json")
    p.add_argument("w", metavar="W.json")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_path)

    p = sub.add_parser("level", help="level-number report for shadow lists")
    p.add_argument("input", metavar="INPUT.json")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_level)

    p = sub.add_parser("check-cert", help="re-verify a certificate from its file alone")
    p.add_argument("cert", metavar="CERT.json")
    p.set_defaults(fn=_cmd_check_cert)

    p = sub.add_parser("render", help="draw static SVG figures for a document")
    p.add_argument("file", metavar="FILE.json")
    p.add_argument("--svg", required=True, metavar="DIR")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("examples", help="run the bundled example corpus")
    p.add_argument("--emit", metavar="DIR")
    p.set_defaults(fn=_cmd_examples)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except serialize.MalformedJSON as ex:
        print(f"malformed JSON: {ex}", file=sys.stderr)
        return EXIT_MALFORMED
    except SchemaError as ex:
        print(f"schema violation: {ex}", file=sys.stderr)
        return EXIT_SCHEMA
    except BaseMismatch as ex:
        print(f"triangulation mismatch: {ex}", file=sys.stderr)
        return EXIT_BASE_MISMATCH
    except VerificationError as ex:
        print(f"verification failed: {ex}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (PreconditionError, ArcdistError, ValueError) as ex:
        print(f"invalid input: {ex}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
