import builtins
import copy
import io
import json
import os
import stat
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcdist
from arcdist import build_standard_triangulation, serialize
from arcdist.arc import ArcWord, edge_word, random_arc, tighten
from arcdist.cli import main
from arcdist.corpus import load_bundled_examples, run_examples
from arcdist.distance import ShadowPairInput, Verdict, classify, verify_certificate
from arcdist.errors import InconsistentWord, SchemaError
from arcdist.leveling import level_number_report, sequence_to_level_certificate, validate_sequence
from arcdist.realization import Realization
from arcdist.render import render_levels_svg
from arcdist.surface import Corner, Triangulation
from arcdist.surgery import path_between, surgery_step

from conftest import arc_file_dict, inlined_schema, seeded_pairs, self_crossing_word
from corpus_build import build_examples, corpus_json_bytes


@pytest.fixture()
def workdir(tmp_path, g1):
    v = random_arc(g1, 31002, 30)
    w = random_arc(g1, 31003, 30)
    serialize.write_doc(tmp_path / "pair.json", serialize.pair_dict(v, w))
    serialize.write_doc(tmp_path / "v.json", arc_file_dict(v))
    serialize.write_doc(tmp_path / "w.json", arc_file_dict(w))
    serialize.write_doc(
        tmp_path / "shadows.json", ShadowPairInput(g1, (v,), (w,)).to_json_dict()
    )
    return tmp_path


def _cli_env():
    """The environment for ``python -m arcdist.cli``, with the tested package
    first on its path and every warning an error."""
    src = os.path.dirname(os.path.dirname(arcdist.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"}


def test_tri_standard_and_check(tmp_path, capsys):
    out = tmp_path / "tri.json"
    assert main(["tri", "--standard", "2", "-o", str(out)]) == 0
    assert main(["tri", "--check", str(out)]) == 0
    assert "ok: genus 2" in capsys.readouterr().out


def test_tri_check_reports_violations(tmp_path, capsys):
    doc = build_standard_triangulation(1).to_json_dict()
    doc["triangles"][0] = [3, 1, 4]
    serialize.write_doc(tmp_path / "bad.json", doc)
    assert main(["tri", "--check", str(tmp_path / "bad.json")]) == 1
    assert "violation" in capsys.readouterr().out


def test_dist_emits_verifiable_certificate(workdir, capsys):
    cert = workdir / "cert.json"
    assert main(["dist", str(workdir / "pair.json"), "-o", str(cert)]) == 0
    assert main(["check-cert", str(cert)]) == 0


def test_path_and_check(workdir):
    seq = workdir / "seq.json"
    assert main(["path", str(workdir / "v.json"), str(workdir / "w.json"), "-o", str(seq)]) == 0
    assert main(["check-cert", str(seq)]) == 0


def test_level_report_and_render(workdir):
    rep = workdir / "report.json"
    assert main(["level", str(workdir / "shadows.json"), "-o", str(rep)]) == 0
    assert main(["check-cert", str(rep)]) == 0
    svgdir = workdir / "figs"
    assert main(["render", str(rep), "--svg", str(svgdir)]) == 0
    assert (svgdir / "levels.svg").read_text().startswith("<svg")


def test_render_pair(workdir):
    svgdir = workdir / "figs2"
    assert main(["render", str(workdir / "pair.json"), "--svg", str(svgdir)]) == 0
    assert (svgdir / "pair.svg").read_text().startswith("<svg")


def test_render_draws_the_pair_of_a_distance_0_report(tmp_path, g1, capsys):
    """A distance-0 level report has no level certificate: render draws its
    distance certificate as ``pair.svg``, through the loader and so the
    checks of a distance certificate file."""
    a = edge_word(g1, 2)
    report = level_number_report(ShadowPairInput(g1, (a,), (a,)))
    assert report["level_number"] == {"kind": "trivial"} and "level_certificate" not in report
    serialize.write_doc(tmp_path / "report.json", report)
    serialize.write_doc(tmp_path / "cert.json", report["distance"])
    for name in ("report", "cert"):
        assert main(["render", str(tmp_path / f"{name}.json"), "--svg", str(tmp_path / name)]) == 0
    assert os.listdir(tmp_path / "report") == ["pair.svg"]
    assert (tmp_path / "report" / "pair.svg").read_text() == (tmp_path / "cert" / "pair.svg").read_text()
    capsys.readouterr()
    report["distance"]["pair"]["v"] = self_crossing_word(g1).to_json_dict()
    serialize.write_doc(tmp_path / "bad.json", report)
    assert main(["render", str(tmp_path / "bad.json"), "--svg", str(tmp_path / "figs")]) == 5
    assert f"{tmp_path / 'bad.json'}.distance.pair.v" in capsys.readouterr().err
    report = _level_report(g1, 2, 3)
    del report["level_certificate"]
    serialize.write_doc(tmp_path / "bad.json", report)
    assert main(["render", str(tmp_path / "bad.json"), "--svg", str(tmp_path / "figs")]) == 1
    assert capsys.readouterr().err == f"verification failed: {tmp_path / 'bad.json'}: level certificate missing\n"
    assert not (tmp_path / "figs").exists()


def test_a_refused_render_leaves_no_directory(workdir, g1, capsys):
    """``--svg DIR`` is made only for a document that passes its checks: a
    format with no renderer (exit 5) and a pair with no triangulation
    (exit 3) leave nothing behind, and a nested directory is still made
    when the figure is drawn."""
    serialize.write_doc(workdir / "tri.json", g1.to_json_dict())
    pair = json.loads((workdir / "pair.json").read_text())
    del pair["triangulation"]
    serialize.write_doc(workdir / "bare.json", pair)
    refusals = [
        ("tri.json", 5, "invalid input: no renderer for format 'arcdist.triangulation/1'"),
        ("bare.json", 3, f"schema violation: {workdir / 'bare.json'}: missing field 'triangulation'"),
    ]
    for name, code, message in refusals:
        assert main(["render", str(workdir / name), "--svg", str(workdir / "figs")]) == code
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (workdir / "figs").exists()
    assert main(["render", str(workdir / "pair.json"), "--svg", str(workdir / "a" / "b")]) == 0
    assert (workdir / "a" / "b" / "pair.svg").read_text().startswith("<svg")


def test_exit_codes(tmp_path, workdir):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check-cert", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    serialize.write_doc(unknown, {"format": "arcdist.unknown/1"})
    assert main(["check-cert", str(unknown)]) == 3
    # base mismatch between arc files
    g2 = build_standard_triangulation(2)
    other = tmp_path / "w2.json"
    serialize.write_doc(other, arc_file_dict(random_arc(g2, 3, 4)))
    assert main(["path", str(workdir / "v.json"), str(other)]) == 4
    # tampered certificate
    cert = workdir / "c.json"
    assert main(["dist", str(workdir / "pair.json"), "-o", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    if doc["verdict"]["kind"] == "bounds":
        doc["verdict"]["upper"] += 1
    else:
        doc["verdict"]["value"] = (doc["verdict"]["value"] + 1) % 3
    serialize.write_doc(cert, doc)
    assert main(["check-cert", str(cert)]) == 1


@pytest.mark.parametrize(
    "start, crossings, end",
    [((3, 1), (-2,), (1, 0)), ((2, 1), (-6,), (3, 0)), ((0, 1), (), (0, 0))],
    ids=["start-corner-bigon", "end-corner-bigon", "zero-crossing-in-partner-triangle"],
)
def test_an_unreduced_word_is_refused(tmp_path, g1, capsys, start, crossings, end):
    """A consistent word from P1 to P2 with a corner bigon at one end, or
    with no crossings written in the partner triangle, is not an arc:
    ``ArcWord`` refuses it, and ``arcdist dist`` on a pair file exits 5.
    ``tighten`` reduces it."""
    with pytest.raises(InconsistentWord, match="word is not reduced"):
        ArcWord(g1, Corner(*start), crossings, Corner(*end))
    assert tighten(g1, Corner(*start), crossings, Corner(*end)).crossings == ()
    doc = serialize.pair_dict(edge_word(g1, 2), edge_word(g1, 3))
    doc["v"].update(
        start_corner=list(start),
        crossings=[{"edge": abs(c) - 1, "side": 1 if c > 0 else -1} for c in crossings],
        end_corner=list(end),
    )
    serialize.write_doc(tmp_path / "pair.json", doc)
    assert main(["dist", str(tmp_path / "pair.json")]) == 5
    assert capsys.readouterr().err == "invalid input: word is not reduced; use tighten() to canonicalize\n"


def test_an_arc_naming_another_base_is_refused(tmp_path, g1, g2, capsys):
    doc = serialize.pair_dict(edge_word(g1, 2), edge_word(g1, 3))
    doc["v"]["base_id"] = g2.triangulation_id()
    serialize.write_doc(tmp_path / "pair.json", doc)
    assert main(["dist", str(tmp_path / "pair.json")]) == 4
    assert capsys.readouterr().err == (
        f"triangulation mismatch: arc references base {g2.triangulation_id()!r}"
        f" but was loaded against {g1.triangulation_id()!r}\n"
    )


@pytest.mark.parametrize(
    "content",
    [b"[" * 200_000 + b"]" * 200_000, b'{"a":' * 5_000 + b"1" + b"}" * 5_000, b"\xff\xfe{}", b'{"format": "caf\xe9"}'],
    ids=["deep-array", "deep-object", "utf16-bom", "latin-1"],
)
@pytest.mark.parametrize("command", ["dist", "check-cert"])
def test_input_that_is_not_utf8_or_nests_too_deeply_is_malformed_json(tmp_path, capsys, command, content):
    """A JSON text is UTF-8 (RFC 8259, section 8.1), and nesting beyond the
    parser's depth is not a verification failure: both exit 2 with one line."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    assert main([command, str(doc)]) == 2
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and line.startswith(f"malformed JSON: {doc}: ")
    assert main([command, str(tmp_path)]) == 3  # a path that cannot be read stays a schema violation
    assert capsys.readouterr().err.startswith(f"schema violation: cannot read {tmp_path}: ")


@pytest.fixture()
def default_digit_limit():
    """Python's default limit on the digits of an int read from text, set
    for the test whatever the environment chose."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("command", ["dist", "check-cert"])
def test_an_integer_past_the_digit_limit_is_malformed_json(tmp_path, capsys, default_digit_limit, command):
    """An integer literal too long for Python to read is malformed JSON, like
    a text nested too deeply: the loader raises ``MalformedJSON`` and the CLI
    exits 2 with one line, not 5 with a bare ``ValueError``."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(b'{"format": "arcdist.pair/1", "n": ' + b"7" * (default_digit_limit + 1) + b"}")
    with pytest.raises(serialize.MalformedJSON, match="for integer string conversion"):
        serialize.load_doc(doc)
    assert main([command, str(doc)]) == 2
    out, err = capsys.readouterr()
    [line] = err.splitlines()
    assert out == "" and line.startswith(f"malformed JSON: {doc}: Exceeds the limit (4300")
    doc.write_bytes(b'{"format": "arcdist.pair/1", "n": ' + b"7" * default_digit_limit + b"}")
    assert serialize.load_doc(doc)["n"] == int("7" * default_digit_limit)  # at the limit it still reads


@pytest.mark.parametrize(
    "argv, prog, error",
    [
        (["dist"], "arcdist dist", "the following arguments are required: PAIR.json"),
        (["dist", "pair.json", "--max-len", "abc"], "arcdist dist", "argument --max-len: invalid int value: 'abc'"),
        ([], "arcdist", "the following arguments are required: command"),
    ],
    ids=["dist-without-pair", "max-len-abc", "no-command"],
)
def test_a_usage_error_exits_2_with_the_usage_line(tmp_path, argv, prog, error):
    """A command line argparse cannot read exits 2, the code malformed JSON
    also uses: the usage line and the error on stderr, nothing on stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "arcdist.cli", *argv], capture_output=True, cwd=tmp_path, env=_cli_env(), timeout=120
    )
    lines = done.stderr.decode().splitlines()
    assert (done.returncode, done.stdout) == (2, b"")
    assert lines[0].startswith(f"usage: {prog} ") and lines[-1] == f"{prog}: error: {error}"


@pytest.mark.parametrize(
    "command",
    [
        lambda d: (["dist", str(d / "pair.json"), "-o", str(d / "missing" / "cert.json")], d / "missing" / "cert.json"),
        lambda d: (["tri", "--standard", "1", "-o", str(d / "missing" / "tri.json")], d / "missing" / "tri.json"),
        lambda d: (["examples", "--emit", str(d / "v.json")], d / "v.json"),
        lambda d: (["render", str(d / "pair.json"), "--svg", str(d / "v.json")], d / "v.json"),
        lambda d: (["dist", str(d / "pair.json"), "-o", str(d)], d),
    ],
    ids=["dist", "tri", "examples", "render", "directory"],
)
def test_an_unwritable_output_path_is_invalid_input(workdir, capsys, command):
    argv, path = command(workdir)
    assert main(argv) == 5
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"invalid input: cannot write {path}: ")


def _stdout_of(argv, capsys) -> bytes:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("old", ["longer", "shorter", "equal"])
@pytest.mark.parametrize(
    "command", [["dist", "pair.json"], ["level", "shadows.json"], ["tri", "--standard", "2"]], ids=["dist", "level", "tri"]
)
def test_an_output_file_is_rewritten_in_place(workdir, capsys, command, old):
    """-o over an existing file leaves exactly the stdout bytes, in the same
    inode with the same mode and links, whatever the old file's length."""
    argv = [str(workdir / a) if a.endswith(".json") else a for a in command]
    expected = _stdout_of(argv, capsys)
    out = workdir / "out.json"
    out.write_bytes({"longer": b"x" * (2 * len(expected) + 7), "shorter": b"{}\n", "equal": b"y" * len(expected)}[old])
    out.chmod(0o640)
    os.link(out, workdir / "link.json")
    before = out.stat()
    assert main([*argv, "-o", str(out)]) == 0
    after = out.stat()
    assert out.read_bytes() == (workdir / "link.json").read_bytes() == expected
    assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)


@pytest.mark.skipif(
    not os.path.exists(os.devnull) or not stat.S_ISCHR(os.stat(os.devnull).st_mode),
    reason="os.devnull is not a character device",
)
def test_an_output_to_a_device_is_written_and_never_cut(workdir, capsys):
    for argv in (["dist", str(workdir / "pair.json")], ["tri", "--standard", "2"]):
        assert main([*argv, "-o", os.devnull]) == 0
        assert capsys.readouterr() == (f"wrote {os.devnull}\n", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_an_output_to_a_fifo_reaches_its_reader(workdir, capsys):
    argv = ["dist", str(workdir / "pair.json")]
    expected = _stdout_of(argv, capsys)
    fifo = workdir / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main([*argv, "-o", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert got == [expected]


def test_render_over_a_longer_figure_leaves_only_the_new_one(workdir):
    fresh, stale = workdir / "fresh", workdir / "stale"
    assert main(["render", str(workdir / "pair.json"), "--svg", str(fresh)]) == 0
    figure = (fresh / "pair.svg").read_bytes()
    stale.mkdir()
    (stale / "pair.svg").write_bytes(figure + b"<!-- an older, longer figure -->\n" * 40)
    assert main(["render", str(workdir / "pair.json"), "--svg", str(stale)]) == 0
    assert (stale / "pair.svg").read_bytes() == figure


@pytest.mark.parametrize(
    "command, target",
    [
        (lambda d: ["dist", str(d / "pair.json"), "-o", str(d / "cert.json")], "cert.json"),
        (lambda d: ["render", str(d / "pair.json"), "--svg", str(d / "figs")], "figs/pair.svg"),
    ],
    ids=["dist", "render"],
)
def test_an_output_rewrite_never_truncates_to_zero(workdir, capsys, monkeypatch, command, target):
    """Truncating a non-empty file to zero blocks for tens of milliseconds on
    ext4, so a rewrite opens without O_TRUNC and cuts only a longer tail."""
    argv, path = command(workdir), workdir / target
    assert main(argv) == 0
    expected = path.read_bytes()
    path.write_bytes(expected + b" " * 100)
    truncations, written, cut = [], [], []

    def watch_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            truncations.append(("open", file, mode))
        return real_open(file, mode, *args, **kwargs)

    def watch_os_open(file, flags, *args, **kwargs):
        if flags & os.O_TRUNC:
            truncations.append(("os.open", file, flags))
        if flags & (os.O_WRONLY | os.O_RDWR):
            written.append(os.fspath(file))
        return real_os_open(file, flags, *args, **kwargs)

    def watch_truncate(name, real):
        def watched(file, length):
            (cut if length else truncations).append((name, file, length))
            return real(file, length)

        return watched

    real_open, real_os_open = builtins.open, os.open
    with monkeypatch.context() as m:
        m.setattr(builtins, "open", watch_open)
        m.setattr(io, "open", watch_open)
        m.setattr(os, "open", watch_os_open)
        m.setattr(os, "ftruncate", watch_truncate("os.ftruncate", os.ftruncate))
        m.setattr(os, "truncate", watch_truncate("os.truncate", os.truncate))
        assert main(argv) == 0
    assert truncations == []
    assert written == [os.fspath(path)] and len(cut) == 1
    assert path.read_bytes() == expected


@pytest.mark.parametrize("flag", ["--max-len", "--max-depth"])
def test_dist_rejects_a_lone_search_bound(tmp_path, g1, capsys, flag):
    pair = tmp_path / "pair.json"
    serialize.write_doc(pair, serialize.pair_dict(random_arc(g1, 31010, 30), random_arc(g1, 31011, 30)))
    assert main(["dist", str(pair), flag, "4"]) == 5
    assert "search bounds" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [("0", "1"), ("1", "0"), ("-5", "-1")])
def test_dist_rejects_a_non_positive_search_bound_whatever_the_verdict(tmp_path, g1, capsys, bounds):
    """A disjoint pair, settled before any search, once exited 0 on these
    bounds where a pair with a bounds verdict exited 5; an exact-2 pair is
    settled before any search too."""
    pair, cert = tmp_path / "pair.json", tmp_path / "cert.json"
    pairs = [(edge_word(g1, 2), edge_word(g1, 3)), (random_arc(g1, 31010, 30), random_arc(g1, 31011, 30))]
    for v, w in [*pairs, _crossing_pair(g1)]:
        serialize.write_doc(pair, serialize.pair_dict(v, w))
        assert main(["dist", str(pair), "--max-len", bounds[0], "--max-depth", bounds[1], "-o", str(cert)]) == 5
        assert capsys.readouterr().err == "invalid input: search bounds must be positive\n"
        assert not cert.exists()


@pytest.mark.parametrize("equal", [False, True], ids=["edge-and-word", "word-twice"])
def test_dist_rejects_a_non_embedded_arc(tmp_path, g1, capsys, equal):
    """Such a pair once failed the overlay's Euler check (exit 1, read as an
    engine defect), or, paired with itself, was certified exact(0) in a
    certificate that check-cert then rejected."""
    bad = self_crossing_word(g1)
    v = bad if equal else ArcWord(g1, Corner(0, 2), (), Corner(0, 0))
    pair, cert = tmp_path / "pair.json", tmp_path / "cert.json"
    serialize.write_doc(pair, serialize.pair_dict(v, bad))
    assert main(["dist", str(pair), "-o", str(cert)]) == 5
    place = "v" if equal else "w"
    assert capsys.readouterr().err == f"invalid input: {pair}.{place}: arc is not embedded (self-crossings: 1)\n"
    assert not cert.exists()


def _sequence_doc(base, arcs):
    return {"format": "arcdist.arc_sequence/1", "triangulation": base.to_json_dict(), "arcs": [a.to_json_dict() for a in arcs]}


@pytest.mark.parametrize(
    "build, place",
    [
        (lambda g1, bad, d: (["check-cert"], classify(bad, bad).to_json_dict()), "document.pair.v"),
        (lambda g1, bad, d: (["path", str(d / "v.json")], arc_file_dict(bad)), "{file}.arc"),
        (lambda g1, bad, d: (["level"], ShadowPairInput(g1, (edge_word(g1, 2),), (bad,)).to_json_dict()), "{file}.w_side[0]"),
        (lambda g1, bad, d: (["check-cert"], _sequence_doc(g1, [edge_word(g1, 2), bad])), "document.arcs[1]"),
        (lambda g1, bad, d: (["render", "--svg", str(d / "figs")], _sequence_doc(g1, [bad])), "{file}.arcs[0]"),
    ],
    ids=["certificate", "arc-file", "shadow-pair", "sequence", "render"],
)
def test_a_non_embedded_arc_in_any_input_file_is_invalid_input(workdir, g1, capsys, build, place):
    """Every arc read from a document is checked to be embedded, wherever it
    sits; the exact(0) certificate of a self-crossing word paired with
    itself, which the in-process engine still writes, is refused too."""
    argv, doc = build(g1, self_crossing_word(g1), workdir)
    path = workdir / "input.json"
    serialize.write_doc(path, doc)
    argv.insert(1, str(path))
    assert main(argv) == 5
    place = place.format(file=path)
    assert capsys.readouterr().err == f"invalid input: {place}: arc is not embedded (self-crossings: 1)\n"


@pytest.mark.parametrize("argv", [["tri", "--standard", "4"], ["examples"]], ids=["tri", "examples"])
def test_a_closed_stdout_exits_141_quietly(argv):
    """A reader that stops early is not a failure: the process exits 141 (a
    shell's status for SIGPIPE) and writes nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the first write to stdout breaks the pipe
    env = _cli_env()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "arcdist.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_examples_pass_and_emit(tmp_path, capsys):
    emit = tmp_path / "emitted"
    assert main(["examples", "--emit", str(emit)]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") >= 5 and "FAIL" not in out
    names = [name.removesuffix(".report.json") for name in os.listdir(emit) if name.endswith(".report.json")]
    assert "trivial-knot" in names
    # every emitted report re-verifies from its serialized form alone, and
    # draws its level position, or its pair when it has none (distance 0)
    for name in names:
        report, figs = emit / f"{name}.report.json", tmp_path / "figs" / name
        assert main(["check-cert", str(report)]) == 0
        assert main(["render", str(report), "--svg", str(figs)]) == 0
        drawn = "levels.svg" if "level_certificate" in json.loads(report.read_text()) else "pair.svg"
        assert os.listdir(figs) == [drawn] and (figs / drawn).read_text().startswith("<svg")
    assert os.listdir(tmp_path / "figs" / "trivial-knot") == ["pair.svg"]


def test_examples_seeded_spot_check(monkeypatch, capsys):
    for seed in ("3", "11"):
        monkeypatch.setenv("ARCDIST_SEED", seed)
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "stable under transport" in out


def test_examples_spot_check_flips_once_per_step(monkeypatch, capsys):
    """Both arcs of a record are rewritten onto one walk's tables, so each of
    the spot check's four steps per record makes one flip."""
    flip = Triangulation.flip
    calls = []

    def counted(self, e):
        calls.append(e)
        return flip(self, e)

    monkeypatch.setattr(Triangulation, "flip", counted)
    monkeypatch.setenv("ARCDIST_SEED", "11")
    assert main(["examples"]) == 0
    assert "stable under transport" in capsys.readouterr().out
    assert len(calls) == 4 * len(load_bundled_examples()) == 20


def test_examples_rejects_a_bad_seed_before_running(monkeypatch, capsys):
    calls = []

    def counted(records):
        calls.append(records)
        return run_examples(records)

    monkeypatch.setattr("arcdist.corpus.run_examples", counted)
    monkeypatch.setenv("ARCDIST_SEED", "x")
    assert main(["examples"]) == 5
    out, err = capsys.readouterr()
    assert out == "" and calls == []
    assert "ARCDIST_SEED" in err and "'x'" in err


def test_corpus_is_byte_stable():
    from importlib import resources

    bundled = resources.files("arcdist.data").joinpath("examples/corpus.json").read_bytes()
    assert corpus_json_bytes(load_bundled_examples()) == bundled
    assert corpus_json_bytes(build_examples()) == bundled


def test_corpus_contract():
    records = load_bundled_examples()
    assert len(records) >= 4
    assert all(r.genus == 1 for r in records)
    names = {r.name for r in records}
    assert "trivial-knot" in names and "figure-eight" in names
    assert sum(1 for r in records if r.name.startswith("torus-knot")) >= 2


def test_outputs_match_schemas(workdir):
    """Every output satisfies its shipped schema, by ``jsonschema`` and by
    the checker the loaders use."""
    jsonschema = pytest.importorskip("jsonschema")

    def check(doc):
        jsonschema.validate(doc, inlined_schema(doc["format"]))
        serialize.check_doc(doc, doc["format"], "output")

    cert = workdir / "cert.json"
    main(["dist", str(workdir / "pair.json"), "-o", str(cert)])
    check(json.loads(cert.read_text()))
    seq = workdir / "seq.json"
    main(["path", str(workdir / "v.json"), str(workdir / "w.json"), "-o", str(seq)])
    check(json.loads(seq.read_text()))
    rep = workdir / "rep.json"
    main(["level", str(workdir / "shadows.json"), "-o", str(rep)])
    check(json.loads(rep.read_text()))
    check(build_standard_triangulation(1).to_json_dict())
    check(json.loads(corpus_json_bytes(build_examples())))


def _crossing_pair(g1):
    v, w = seeded_pairs(g1, "cli-malformed", 1, max_steps=8, require_crossing=True)[0]
    assert len(v) > 0 and len(w) > 0
    return v, w


def _break_edge(arc):
    arc["crossings"][0]["edge"] = "x"


def _drop_side(arc):
    del arc["crossings"][0]["side"]


def _short_corner(arc):
    arc["start_corner"] = arc["start_corner"][:1]


def _crossing_not_object(arc):
    arc["crossings"][0] = 3


def _wrong_arc_format(arc):
    arc["format"] = "arcdist.arc/2"


@pytest.mark.parametrize("fmt", ["pair", "shadow", "sequence", "certificate"])
@pytest.mark.parametrize("damage", [_break_edge, _drop_side, _short_corner, _crossing_not_object, _wrong_arc_format])
def test_malformed_arc_is_a_schema_violation(tmp_path, g1, fmt, damage):
    v, w = _crossing_pair(g1)
    if fmt == "pair":
        doc, argv = serialize.pair_dict(v, w), ["dist"]
        arc = doc["v"]
    elif fmt == "shadow":
        doc, argv = ShadowPairInput(g1, (v,), (w,)).to_json_dict(), ["level"]
        arc = doc["v_side"][0]
    elif fmt == "sequence":
        doc, argv = path_between(v, w).to_json_dict(), ["check-cert"]
        arc = doc["arcs"][0]
    else:
        doc, argv = classify(v, w).to_json_dict(), ["check-cert"]
        arc = doc["pair"]["v"]
    damage(arc)
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main([*argv, str(path)]) == 3


@pytest.mark.parametrize("fmt", ["certificate", "sequence", "level-certificate"])
def test_check_cert_reports_a_crossing_stored_path(tmp_path, g1, capsys, fmt):
    v, w = _crossing_pair(g1)
    crossing = [w.to_json_dict(), v.to_json_dict()]
    if fmt == "certificate":
        doc = classify(v, w).to_json_dict()
        doc["evidence"]["path"] = crossing
    elif fmt == "sequence":
        doc = path_between(v, w).to_json_dict()
        doc["arcs"] = crossing
    else:
        doc = sequence_to_level_certificate(path_between(v, w))
        doc["sequence"] = crossing
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main(["check-cert", str(path)]) == 1
    assert "failed: index 1: consecutive arcs intersect" in capsys.readouterr().out


def test_check_cert_reports_an_empty_stored_path(tmp_path, g1, capsys):
    doc = classify(*_bounds_pair(g1)).to_json_dict()
    doc["evidence"]["path"] = []
    serialize.write_doc(tmp_path / "cert.json", doc)
    assert main(["check-cert", str(tmp_path / "cert.json")]) == 1
    assert capsys.readouterr().out == "failed: sequence: empty\n"


def test_check_cert_reports_triangulation_violations(tmp_path, g1, capsys):
    """A table that glues into no surface fails check-cert as it fails
    tri --check: exit 1 with its violations.  The second table splits each
    marked point in two, and a pair file over it is invalid input."""
    bad = build_standard_triangulation(1).to_json_dict()
    bad["triangles"][0] = [3, 1, 4]
    split = {**bad, "p1_corner": [0, 0], "triangles": [[4, 1, -4], [3, 2, -5], [5, -1, -6], [6, -2, -3]]}
    for doc in (bad, split):
        serialize.write_doc(tmp_path / "bad.json", doc)
        assert main(["tri", "--check", str(tmp_path / "bad.json")]) == 1
        violations = [line.removeprefix("violation: ") for line in capsys.readouterr().out.splitlines()]
        assert violations
        assert main(["check-cert", str(tmp_path / "bad.json")]) == 1
        assert capsys.readouterr().out.splitlines() == [f"failed: {p}" for p in violations]
    split_vertices = "vertex count: corner tracing yields 4 classes (expected 2)"
    assert split_vertices in violations
    pair = {**serialize.pair_dict(edge_word(g1, 2), edge_word(g1, 3)), "triangulation": split}
    serialize.write_doc(tmp_path / "pair.json", pair)
    assert main(["dist", str(tmp_path / "pair.json")]) == 5
    assert capsys.readouterr().err.startswith(f"invalid input: {split_vertices}; euler: ")


def test_check_cert_rejects_a_wrong_recorded_intersection(tmp_path, g1):
    crossing = _crossing_pair(g1)
    disjoint = (edge_word(g1, 2), edge_word(g1, 3))
    for v, w in (crossing, disjoint):
        doc = classify(v, w).to_json_dict()
        doc["evidence"]["intersection_vw"] = 999
        path = tmp_path / "cert.json"
        serialize.write_doc(path, doc)
        assert main(["check-cert", str(path)]) == 1


def test_check_cert_rejects_a_flipped_checked_distance_two(tmp_path, g1, capsys):
    for v, w in (_crossing_pair(g1), (edge_word(g1, 2), edge_word(g1, 3))):
        doc = classify(v, w).to_json_dict()
        doc["evidence"]["checked_distance_two"] = not doc["evidence"]["checked_distance_two"]
        path = tmp_path / "cert.json"
        serialize.write_doc(path, doc)
        assert main(["check-cert", str(path)]) == 1
        assert "failed: evidence: checked_distance_two is" in capsys.readouterr().out


def _pair_g2(g2):
    return seeded_pairs(g2, "cli-triangulation", 1, max_steps=8)[0]


def _format_doc(fmt, v, w):
    """A valid document of one input format, and the command that loads it."""
    if fmt == "pair":
        return serialize.pair_dict(v, w), ["dist"]
    if fmt == "shadow":
        return ShadowPairInput(v.base, (v,), (w,)).to_json_dict(), ["level"]
    if fmt == "sequence":
        return path_between(v, w).to_json_dict(), ["check-cert"]
    if fmt == "certificate":
        return classify(v, w).to_json_dict(), ["check-cert"]
    if fmt == "level-report":
        return level_number_report(ShadowPairInput(v.base, (v,), (w,))), ["check-cert"]
    if fmt == "level-certificate":
        return sequence_to_level_certificate(path_between(v, w)), ["check-cert"]
    assert fmt == "surgery-trace"
    return surgery_step(v, w).to_json_dict(), ["check-cert"]


def _short_p1_corner(tri):
    tri["p1_corner"] = [0]


def _triangle_not_list(tri):
    tri["triangles"][0] = 5


def _string_label(tri):
    tri["triangles"][0][0] = "x"


def _two_sided_triangle(tri):
    tri["triangles"][0] = tri["triangles"][0][:2]


def _zero_label(tri):
    tri["triangles"][0][0] = 0


def _genus_zero(tri):
    tri["genus"] = 0


def _negative_p1_corner(tri):
    tri["p1_corner"] = [0, -1]


_FORMATS = ["pair", "shadow", "sequence", "certificate"]


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize(
    "damage",
    [_short_p1_corner, _triangle_not_list, _string_label, _two_sided_triangle, _zero_label,
     _genus_zero, _negative_p1_corner],
)
def test_malformed_triangulation_is_a_schema_violation(tmp_path, g2, fmt, damage):
    doc, argv = _format_doc(fmt, *_pair_g2(g2))
    damage(doc["triangulation"])
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main([*argv, str(path)]) == 3


@pytest.mark.parametrize("fmt", _FORMATS)
def test_inconsistent_triangulation_table_is_invalid_input(tmp_path, g2, fmt):
    """Well-formed fields that do not glue into a surface keep exit 5."""
    doc, argv = _format_doc(fmt, *_pair_g2(g2))
    doc["triangulation"]["triangles"][0][0] *= -1  # one edge now has two sides of one sign
    path = tmp_path / "doc.json"
    serialize.write_doc(path, doc)
    assert main([*argv, str(path)]) == 5


def test_tri_check_rejects_a_malformed_table(tmp_path):
    doc = build_standard_triangulation(1).to_json_dict()
    _triangle_not_list(doc)
    serialize.write_doc(tmp_path / "bad.json", doc)
    assert main(["tri", "--check", str(tmp_path / "bad.json")]) == 3


def _json_paths(node, prefix=()):
    """Every key or index path into a JSON tree, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_DELETE = object()
_JUNK = [_DELETE, None, True, 0, -1, 7, 2.5, "x", [], [0], [0, 0, 0], [1, 2], {}, {"edge": 0}]


_CERTIFICATES = ["level-report", "level-certificate", "surgery-trace"]


def _bounds_pair(g1):
    """A crossing genus-1 pair at distance >= 3: its report carries a path."""
    v, w = seeded_pairs(g1, "cli-mutated", 4, max_steps=12, require_crossing=True)[3]
    assert classify(v, w).verdict.kind == "bounds"
    return v, w


@pytest.fixture(scope="module")
def valid_docs(g1, g2):
    docs = {fmt: _format_doc(fmt, *_pair_g2(g2)) for fmt in _FORMATS}
    docs.update({fmt: _format_doc(fmt, *_bounds_pair(g1)) for fmt in _CERTIFICATES})
    return docs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_end_in_a_documented_exit_code(tmp_path_factory, valid_docs, data):
    """One field of a valid document replaced or deleted: the command
    returns a documented exit code and never raises, and it returns 3
    exactly when the damaged document breaks its format's schema."""
    jsonschema = pytest.importorskip("jsonschema")

    fmt = data.draw(st.sampled_from(_FORMATS + _CERTIFICATES))
    doc, argv = valid_docs[fmt]
    schema = inlined_schema(doc["format"])
    doc = copy.deepcopy(doc)
    where = data.draw(st.sampled_from(list(_json_paths(doc))))
    junk = data.draw(st.sampled_from(_JUNK))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if junk is _DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = copy.deepcopy(junk)
    path = tmp_path_factory.mktemp("mutated") / "doc.json"
    serialize.write_doc(path, doc)
    code = main([*argv, str(path)])
    assert code in (0, 1, 2, 3, 4, 5)
    broken = not jsonschema.Draft202012Validator(schema).is_valid(doc)
    assert (code == 3) == broken, (fmt, where, junk, code)


def _object_kinds(doc):
    """The root of ``doc`` and the first object of each kind inside it; an
    object's kind is its format tag, or else the key it sits under."""
    out = {"root": doc}
    for where in _json_paths(doc):
        node = doc
        for key in where:
            node = node[key]
        if isinstance(node, dict):
            kind = node.get("format") or next(k for k in reversed(where) if isinstance(k, str))
            out.setdefault(kind, node)
    return out


@pytest.mark.parametrize("fmt", [*_FORMATS, *_CERTIFICATES, "arc-file", "triangulation", "tri-check"])
def test_unknown_field_is_a_schema_violation(tmp_path, g1, valid_docs, fmt):
    """``additionalProperties: false``: an extra key in any object of any
    input format is exit 3, at the top level and nested."""
    if fmt == "arc-file":
        v, w = _bounds_pair(g1)
        doc, argv = arc_file_dict(w), ["path", str(tmp_path / "v.json")]
        serialize.write_doc(tmp_path / "v.json", arc_file_dict(v))
    elif fmt == "triangulation":
        doc, argv = g1.to_json_dict(), ["check-cert"]
    elif fmt == "tri-check":
        doc, argv = g1.to_json_dict(), ["tri", "--check"]
    else:
        doc, argv = valid_docs[fmt]
    kinds = _object_kinds(doc)
    for kind in kinds:
        damaged = copy.deepcopy(doc)
        _object_kinds(damaged)[kind]["note"] = "extra"
        serialize.write_doc(tmp_path / "doc.json", damaged)
        assert main([*argv, str(tmp_path / "doc.json")]) == 3, kind


def test_library_loaders_check_their_schema(g1):
    arc = edge_word(g1, 2)
    assert serialize.load_triangulation(g1.to_json_dict()) == g1
    assert serialize.load_arc(arc.to_json_dict(), g1) == arc
    with pytest.raises(SchemaError, match="unknown field 'note'"):
        serialize.load_triangulation({**g1.to_json_dict(), "note": 1})
    with pytest.raises(SchemaError, match="unknown field 'note'"):
        serialize.load_arc({**arc.to_json_dict(), "note": 1}, g1)


def _level_report(g1, a, b):
    """The report of a disjoint pair of connector edge words: exact 1."""
    return level_number_report(ShadowPairInput(g1, (edge_word(g1, a),), (edge_word(g1, b),)))


def _bounds_without_upper(doc):
    doc["level_number"] = {"kind": "bounds", "lower": 1}


def _level_certificate_not_object(doc):
    doc["level_certificate"] = 5


def _format_not_string(doc):
    doc["format"] = [doc["format"]]


def _levels_not_integer(doc):
    doc["level_certificate"]["level_position"]["n_levels"] = "x"


def _float_level(doc):
    doc["level_number"]["value"] = 1.0  # integral, but not an integer


@pytest.mark.parametrize(
    "damage",
    [_bounds_without_upper, _level_certificate_not_object, _format_not_string, _levels_not_integer, _float_level],
)
def test_malformed_level_report_is_a_schema_violation(tmp_path, g1, damage):
    doc = _level_report(g1, 2, 3)
    damage(doc)
    serialize.write_doc(tmp_path / "doc.json", doc)
    assert main(["check-cert", str(tmp_path / "doc.json")]) == 3


def _too_many_levels(doc):
    doc["level_certificate"]["level_position"]["n_levels"] = 5


def _crossing_sequence(doc):
    v, w = _crossing_pair(build_standard_triangulation(1))
    doc["level_certificate"]["sequence"] = [v.to_json_dict(), w.to_json_dict()]


@pytest.mark.parametrize(
    "damage, code",
    [
        pytest.param(damage, code, id=damage.__name__)
        for damage, code in [
            (_level_certificate_not_object, 3),
            (_levels_not_integer, 3),
            (_too_many_levels, 0),  # the stored position is not what is drawn
            (_crossing_sequence, 5),  # as render on a crossing arc sequence
        ]
    ],
)
def test_render_checks_a_level_report(tmp_path, g1, damage, code):
    doc = _level_report(g1, 2, 3)
    damage(doc)
    serialize.write_doc(tmp_path / "doc.json", doc)
    assert main(["render", str(tmp_path / "doc.json"), "--svg", str(tmp_path / "figs")]) == code


@pytest.mark.parametrize("fmt", ["level-report", "level-certificate"])
def test_render_draws_the_level_position_of_a_valid_document(tmp_path, g1, fmt):
    report = _level_report(g1, 2, 3)
    doc = report if fmt == "level-report" else report["level_certificate"]
    serialize.write_doc(tmp_path / "doc.json", doc)
    assert main(["render", str(tmp_path / "doc.json"), "--svg", str(tmp_path / "figs")]) == 0
    assert (tmp_path / "figs" / "levels.svg").read_text() == render_levels_svg(report["level_certificate"])


@pytest.mark.parametrize("argv", [["dist"], ["level"], ["tri", "--check"]])
def test_loaders_reject_a_format_tag_that_is_not_a_string(tmp_path, g1, argv):
    doc = {**serialize.pair_dict(edge_word(g1, 2), edge_word(g1, 3)), "format": {}}
    serialize.write_doc(tmp_path / "doc.json", doc)
    assert main([*argv, str(tmp_path / "doc.json")]) == 3


def _foreign_level_certificate(doc, g1, g2):
    doc["level_certificate"] = _level_report(g1, 4, 5)["level_certificate"]


def _foreign_triangulation(doc, g1, g2):
    doc["triangulation"] = g2.to_json_dict()


def _trivial_flag(doc, g1, g2):
    doc["level_number"] = {"kind": "trivial"}


def _level_certificate_dropped(doc, g1, g2):
    del doc["level_certificate"]


def _level_number_raised(doc, g1, g2):
    doc["level_number"]["value"] = 2


def _level_number_as_bounds(doc, g1, g2):
    doc["level_number"] = {"kind": "bounds", "lower": 1, "upper": 2}


def _level_number_kind(doc, g1, g2):
    doc["level_number"] = {"kind": "bounds", "lower": 1, "upper": 1}


def _cycle_entry_moved(doc, g1, g2):
    doc["level_certificate"]["level_position"]["cycle"][0][3] = "p@1"


@pytest.mark.parametrize(
    "damage, message",
    [
        (_foreign_level_certificate, "report: the level certificate does not run from v to w"),
        (_foreign_triangulation, "report: the distance certificate is over another triangulation"),
        (_foreign_triangulation, "report: the level certificate is over another triangulation"),
        (_trivial_flag, "report: trivial flag without a distance-0 verdict"),
        (_level_certificate_dropped, "report: level certificate missing"),
        (_level_number_raised, "report: level number disagrees with the distance verdict"),
        (_level_number_as_bounds, "report: level bounds disagree with the distance verdict"),
        (_level_number_kind, "report: level bounds disagree with the distance verdict"),
        (_cycle_entry_moved, "level certificate: stored level position disagrees with the sequence"),
    ],
    ids=[
        "foreign-level-certificate",
        "foreign-triangulation",
        "foreign-triangulation-level-certificate",
        "trivial-flag",
        "level-certificate-dropped",
        "level-number-raised",
        "level-number-as-bounds",
        "level-number-kind",
        "cycle-entry-moved",
    ],
)
def test_check_cert_binds_a_level_report_to_its_parts(tmp_path, g1, g2, capsys, damage, message):
    """One edit to a valid exact-1 report fails re-checking, exit 1, with
    the refusal named: a level certificate of another pair, a report
    triangulation that neither certificate is over (two refusals), a
    trivial flag, a dropped level certificate, a level number or bounds
    other than the verdict, the verdict's bounds 1..1 in place of exact 1,
    or a cycle entry moved in the stored position."""
    doc = _level_report(g1, 2, 3)
    damage(doc, g1, g2)
    serialize.write_doc(tmp_path / "doc.json", doc)
    assert main(["check-cert", str(tmp_path / "doc.json")]) == 1
    assert f"failed: {message}" in capsys.readouterr().out.splitlines()


def test_examples_classify_each_record_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr("arcdist.distance.classify", counted)
    monkeypatch.delenv("ARCDIST_SEED", raising=False)
    records = len(load_bundled_examples())
    assert main(["examples"]) == 0
    assert len(calls) == records
    assert main(["examples", "--emit", str(tmp_path)]) == 0
    assert len(calls) == 2 * records


def test_check_cert_validates_a_bounds_report_path_once(tmp_path, g1, monkeypatch, capsys):
    """The level certificate of a bounds report carries the certificate's
    path read from v to w: it is compared as arcs, not validated again."""
    v, w = _bounds_pair(g1)
    serialize.write_doc(tmp_path / "report.json", level_number_report(ShadowPairInput(g1, (v,), (w,))))
    calls = []

    def counted(seq):
        calls.append(seq)
        return validate_sequence(seq)

    for module in ("leveling", "distance", "serialize"):
        monkeypatch.setattr(f"arcdist.{module}.validate_sequence", counted)
    assert main(["check-cert", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out == "verified: arcdist.level_report/1\n"
    assert len(calls) == 1


def test_check_cert_realizes_an_exact_two_report_pair_once(g1, monkeypatch):
    """The level certificate of an exact-2 report is the path v, u, w
    through the witness, whose two hops ``verify_certificate`` has just
    checked: one realization per distinct pair, (v, w), (u, v) and (u, w)."""
    v, w = random_arc(g1, 0, 20), random_arc(g1, 1, 20)
    doc = json.loads(serialize.dumps(level_number_report(ShadowPairInput(g1, (v,), (w,)))))
    assert doc["distance"]["verdict"] == {"kind": "exact", "value": 2}
    calls = []
    init = Realization.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Realization, "__init__", counted)
    assert serialize.verify_document(doc) == []
    assert len(calls) == 3


# ----------------------------------------------------------------------
# forged certificates: one edit of a valid certificate or surgery trace per
# refusal of verify_certificate and the trace checker.  An edit that the
# document schema or loader refuses is made to the certificate itself.


def _exact_one(g1):
    return classify(edge_word(g1, 2), edge_word(g1, 3))


def _exact_two(g1):
    cert = classify(*_crossing_pair(g1))
    assert (cert.verdict.value, cert.intersection_vw) == (2, 4)
    return cert


def _bounds(g1):
    return classify(*_bounds_pair(g1))


def _trace(g1):
    trace = surgery_step(*_bounds_pair(g1)).to_json_dict()
    assert (trace["intersections_before"], trace["intersections_after"]) == (6, 2)
    return trace


def _with(doc, edit):
    edit(doc)
    return doc


THREE = {"kind": "bounds", "lower": 3, "upper": 3}
# name: (forgery, its refusals, check-cert's exit code for its document)
FORGERIES = {
    "base-mismatch": (
        lambda g1, g2: _exact_one(g1)._replace(w=random_arc(g2, 3, 4)),
        ("pair: base mismatch",),
        4,  # a document has one triangulation: the loader refuses the other arc
    ),
    "lower-above-upper": (
        lambda g1, g2: _bounds(g1)._replace(verdict=Verdict("bounds", lower=3, upper=2)),
        ("verdict: lower exceeds upper",),
        3,
    ),
    "exact-three": (
        lambda g1, g2: _bounds(g1)._replace(verdict=Verdict("exact", value=3)),
        ("exact(3): no exact criterion beyond 2",),
        3,
    ),
    "lower-bound-two": (
        lambda g1, g2: _bounds(g1)._replace(verdict=Verdict("bounds", lower=2, upper=3)),
        ("bounds: lower bound must be 3 (the 0/1/2 checks)",),
        3,
    ),
    "crossing-pair-as-exact-one": (
        lambda g1, g2: _with(_exact_two(g1).to_json_dict(), lambda d: d.update(verdict={"kind": "exact", "value": 1})),
        ("exact(1): arcs intersect in 4 points",),
        1,
    ),
    "disjoint-pair-as-exact-two": (
        # the verdict re-labelled, with a witness that is disjoint from both
        lambda g1, g2: _exact_one(g1)
        ._replace(verdict=Verdict("exact", value=2), witness=edge_word(g1, 4))
        .to_json_dict(),
        ("exact(2): arcs are disjoint, distance would be <= 1",),
        1,
    ),
    "witness-dropped": (
        lambda g1, g2: _with(_exact_two(g1).to_json_dict(), lambda d: d["evidence"].pop("witness")),
        ("exact(2): witness missing",),
        1,
    ),
    "witness-is-v": (
        lambda g1, g2: _with(_exact_two(g1).to_json_dict(), lambda d: d["evidence"].update(witness=d["pair"]["v"])),
        ("exact(2): witness is not disjoint from both arcs", "exact(2): witness coincides with an endpoint"),
        1,
    ),
    "disjoint-pair-as-bounds": (
        lambda g1, g2: _with(_exact_one(g1).to_json_dict(), lambda d: d.update(verdict=THREE)),
        ("bounds: arcs are disjoint, distance would be <= 1",),
        1,
    ),
    "distance-two-pair-as-bounds": (
        lambda g1, g2: _with(_exact_two(g1).to_json_dict(), lambda d: d.update(verdict=THREE)),
        ("bounds: a distance-2 witness exists",),
        1,
    ),
    "path-dropped": (
        lambda g1, g2: _with(_bounds(g1).to_json_dict(), lambda d: d["evidence"].pop("path")),
        ("bounds: path evidence missing",),
        1,
    ),
    "path-reversed": (
        lambda g1, g2: _with(_bounds(g1).to_json_dict(), lambda d: d["evidence"]["path"].reverse()),
        ("bounds: path does not join the pair",),
        1,
    ),
    "trace-before-raised": (
        lambda g1, g2: _with(_trace(g1), lambda d: d.update(intersections_before=7)),
        ("trace: v.w = 6, recorded 7",),
        1,
    ),
    "trace-after-raised": (
        lambda g1, g2: _with(_trace(g1), lambda d: d.update(intersections_after=3)),
        ("trace: v.w' = 2, recorded 3",),
        1,
    ),
    "trace-w-prime-is-v": (
        lambda g1, g2: _with(_trace(g1), lambda d: d.update(w_prime=d["v"], intersections_after=0)),
        ("trace: w and w' intersect",),
        1,
    ),
    "trace-w-prime-is-w": (
        lambda g1, g2: _with(_trace(g1), lambda d: d.update(w_prime=d["w"], intersections_after=6)),
        ("trace: no strict descent",),
        1,
    ),
}


@pytest.mark.parametrize("name", list(FORGERIES))
def test_each_certificate_refusal_is_reached_by_a_forgery(tmp_path, g1, g2, capsys, name):
    """A forged document fails ``check-cert`` (exit 1) with each refusal
    named.  A forgery that the schema (exit 3) or the loader (exit 4)
    refuses as a document is a certificate, refused by
    ``verify_certificate`` with the messages."""
    forge, messages, code = FORGERIES[name]
    doc = forge(g1, g2)
    if code != 1:
        assert set(messages) <= set(verify_certificate(doc))
        doc = doc.to_json_dict()
    serialize.write_doc(tmp_path / "doc.json", doc)
    assert main(["check-cert", str(tmp_path / "doc.json")]) == code
    if code == 1:
        assert {f"failed: {m}" for m in messages} <= set(capsys.readouterr().out.splitlines())


# ----------------------------------------------------------------------
# start-up: a command imports only what it runs

LAZY_MODULES = ("dataclasses", "arcdist.corpus", "arcdist.render", "arcdist._overlay_reference")


def test_importing_the_cli_loads_no_lazy_module():
    """``import arcdist.cli`` in a fresh process adds none of the modules
    that only one command, or only the test suite, needs.  The modules
    present before the import are left out, so a site hook that loads one
    of them does not count."""
    src = os.path.dirname(os.path.dirname(arcdist.__file__))
    probe = "import sys; before = set(sys.modules); import arcdist.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error"}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "arcdist.cli" in added
    assert added.isdisjoint(LAZY_MODULES), sorted(added.intersection(LAZY_MODULES))


def test_the_overlay_reference_is_reached_through_overlay():
    from arcdist import _overlay_reference, overlay
    from arcdist.overlay import OverlayFace, _OverlayBuilder, build_overlay, complement_components

    assert build_overlay is _overlay_reference.build_overlay
    assert (OverlayFace, _OverlayBuilder, complement_components) == (
        _overlay_reference.OverlayFace,
        _overlay_reference._OverlayBuilder,
        _overlay_reference.complement_components,
    )
    with pytest.raises(AttributeError):
        overlay.no_such_name
