"""Tests for the command line interface: output, exit codes, file flags."""

import errno
import json
import os
import re
import subprocess
import sys
import time

import pytest

from freegroups import cli, verify
from freegroups.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- word arithmetic commands ---


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "abBA")
    assert code == 0
    assert out == "\n"  # everything cancels
    code, out, _ = run(capsys, "reduce", "aab")
    assert (code, out) == (0, "a^2b\n")


def test_reduce_index_form(capsys):
    code, out, _ = run(capsys, "reduce", "1 2 -2 1")
    assert (code, out) == (0, "a^2\n")


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "ab", "Ba")
    assert (code, out) == (0, "a^2\n")


def test_conjugate_exit_codes(capsys):
    code, out, _ = run(capsys, "conjugate", "ab", "ba")
    assert (code, out) == (0, "conjugate\n")
    code, out, _ = run(capsys, "conjugate", "a", "b")
    assert (code, out) == (1, "not conjugate\n")


def test_conjugate_long_words_quickly(capsys):
    # about 200,000 letters; an offset-by-offset rotation scan takes tens of seconds
    start = time.perf_counter()
    code, out, _ = run(capsys, "conjugate", "a^99999b", "ba^99999")
    assert (code, out) == (0, "conjugate\n")
    code, out, _ = run(capsys, "conjugate", "a^99999b", "Ba^99999")
    assert (code, out) == (1, "not conjugate\n")
    assert time.perf_counter() - start < 10


# --- graph commands ---


def test_wgraph(capsys):
    code, out, _ = run(capsys, "wgraph", "abab", "--rank", "2")
    assert code == 0
    assert "vertices: 4" in out
    assert "edges: 4" in out
    assert "e1 -- e2^-1" in out


def test_wgraph_dot_file(capsys, tmp_path):
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "wgraph", "ab", "--rank", "2", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("graph whitehead {")
    assert f"wrote {target}" in out


def test_wgraph_dot_refused_at_huge_rank(tmp_path):
    # DOT lists all 2*rank letters: refuse before printing anything
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", "wgraph", "ab", "--rank", "1000000000000",
         "--dot", str(tmp_path / "g.dot")],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --dot")
    assert not (tmp_path / "g.dot").exists()


def test_cutvertex_verdicts(capsys):
    code, out, _ = run(capsys, "cutvertex", "ababa", "--rank", "2")
    assert (code, out) == (0, "cut vertex: e1\n")
    code, out, _ = run(capsys, "cutvertex", "abAB", "--rank", "2")
    assert (code, out) == (1, "no cut vertex\n")
    code, out, _ = run(capsys, "cutvertex", "ab", "--rank", "3")
    assert (code, out) == (0, "disconnected\n")


def test_cutvertex_at_huge_rank_stays_small():
    # the graph of ab at rank 10^12 spans two generators; the separation
    # check must not touch the other letters of the rank
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", "cutvertex", "ab", "--rank", "1000000000000"],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "disconnected\n", "")


def test_cutvertex_deeper_than_recursion_limit(capsys):
    # e1 e2^2 ... e800^2 has a path of 1600 letters as its Whitehead graph
    word = " ".join(["1"] + [f"{i} {i}" for i in range(2, 801)])
    code, out, err = run(capsys, "cutvertex", word, "--rank", "800")
    assert (code, out, err) == (0, "cut vertex: e2\n", "")


# --- primitivity commands ---


def test_primitive_plain(capsys):
    code, out, _ = run(capsys, "primitive", "ababa", "--rank", "2")
    assert (code, out) == (0, "primitive\n")
    code, out, _ = run(capsys, "primitive", "aabb", "--rank", "2")
    assert (code, out) == (1, "not primitive\n")
    code, out, _ = run(capsys, "primitive", "1 200 1 200 1", "--rank", "100000")
    assert (code, out) == (0, "primitive\n")


def test_primitive_trace(capsys):
    code, out, _ = run(capsys, "primitive", "ababa", "--rank", "2", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("5 -> 3")
    assert "(e1; {e1, e2^-1})" in lines[0]
    assert lines[1].startswith("3 -> 2")
    assert lines[2].startswith("2 -> 1")
    assert lines[3].startswith("terminal cyclic word:")
    assert lines[4] == "primitive"


def test_primitive_trace_above_alphabet(capsys):
    # the rank, not the word, picks the text form of the terminal word
    code, out, _ = run(capsys, "primitive", "1 2 1 2 1", "--rank", "30", "--trace")
    assert code == 0
    assert out == (
        "5 -> 3  (e1; {e1, e2^-1})\n"
        "3 -> 2  (e2; {e1^-1, e2})\n"
        "2 -> 1  (e1; {e1, e2^-1})\n"
        "terminal cyclic word: 2\n"
        "primitive\n"
    )


def test_nielsen(capsys):
    code, out, _ = run(capsys, "nielsen", "a", "ba")
    assert (code, out) == (0, "basis pair\n")
    code, out, _ = run(capsys, "nielsen", "ab", "ba")
    assert (code, out) == (1, "not a basis pair\n")


# --- subgroup commands ---


def test_fold_summary(capsys):
    code, out, _ = run(capsys, "fold", "aa", "b", "--rank", "2")
    assert code == 0
    assert "vertices: 2" in out
    assert "edges: 3" in out
    assert "subgroup rank: 2" in out
    assert "generates whole group: no" in out


def test_fold_at_huge_rank(capsys):
    # one generator of a rank far beyond memory: the whole-group test must
    # not build a list of the rank's generators
    code, out, err = run(capsys, "fold", "a", "--rank", "10000000000000000000")
    assert (code, err) == (0, "")
    assert "generates whole group: no" in out


def test_fold_rose_and_dot(capsys, tmp_path):
    target = tmp_path / "rose.dot"
    code, out, _ = run(capsys, "fold", "a", "b", "--rank", "2", "--dot", str(target))
    assert code == 0
    assert "generates whole group: yes" in out
    assert target.read_text().startswith("digraph subgroup {")


def test_member(capsys):
    code, out, _ = run(capsys, "member", "aab", "--rank", "2", "--subgroup", "aa", "b")
    assert (code, out) == (0, "member\n")
    code, out, _ = run(capsys, "member", "a", "--rank", "2", "--subgroup", "aa", "b")
    assert (code, out) == (1, "not a member\n")


def test_density(capsys):
    code, out, _ = run(capsys, "density", "--rank", "2", "--max-len", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("length")
    assert "1.000000" in lines[1]
    assert "0.666667" in lines[2]


# --- verify command ---


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "npbig", "--rank", "2", "--max-len", "1")
    assert code == 0
    assert out.startswith("npbig [max_len=1 rank=2] pass (5 checked")


def test_verify_all_small(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--max-len", "0", "--truncation", "2"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 11
    assert all(" pass (" in l for l in lines)


def test_verify_json_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "fincov",
        "--rank",
        "2",
        "--max-len",
        "1",
        "--json",
        str(target),
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert isinstance(data, list) and len(data) == 1
    assert data[0]["claim_id"] == "fincov"
    assert data[0]["stats"]["seconds"] == 0.0
    assert f"wrote {target}" in out


def test_verify_failing_claim_exits_1(capsys, tmp_path, monkeypatch):
    # a primitivity test that says yes to every word breaks claimII
    monkeypatch.setattr(verify, "is_primitive", lambda w, rank: True)
    witnesses = ["b^3c^2", "c^2", "b^3c^3d^2", "d^2"]
    report = verify.verify_claim_two(2)
    assert report.status == "fail" and not report.passed
    assert report.counterexamples == witnesses
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "claimII", "--truncation", "2", "--json", str(target))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("claimII [truncation=2] fail (4 checked, ")
    assert lines[1:] == [f"  counterexample: {w}" for w in witnesses] + [f"wrote {target}"]
    expected = [
        {
            "claim_id": "claimII",
            "counterexamples": witnesses,
            "parameters": {"truncation": 2},
            "stats": {"seconds": 0.0, "words_checked": 4},
            "status": "fail",
        }
    ]
    assert target.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_verify_section3(capsys):
    code, out, _ = run(capsys, "verify", "section3", "--truncation", "2")
    assert code == 0
    assert out.startswith("section3 [truncation=2] pass")


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "error:" in err


def test_verify_empty_filter(capsys):
    # rank 3 has no fact1 row
    code, _, err = run(capsys, "verify", "fact1", "--rank", "3")
    assert code == 2
    assert "no grid entries" in err


# --- error handling ---


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "reduce", "ab!c")
    assert code == 2
    assert "position 2" in err


def test_huge_exponent_exits_2(capsys):
    code, out, err = run(capsys, "reduce", "a^99999999999999999999999")
    assert (code, out) == (2, "")
    assert err.startswith("error: exponent exceeds")


def test_oversized_word_exits_2(capsys):
    code, out, err = run(capsys, "reduce", "a^3000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: exponent exceeds")
    code, out, err = run(capsys, "reduce", "a^600000b^600000")
    assert (code, out) == (2, "")
    assert err.startswith("error: word expands past")


def test_internal_error_exits_3(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "_cmd_reduce", boom)
    code, out, err = run(capsys, "reduce", "ab")
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == "internal error: RuntimeError: broken invariant"


@pytest.mark.parametrize(
    "argv",
    [
        ["wgraph", "ab", "--rank", "2", "--dot"],
        ["fold", "ab", "--rank", "2", "--dot"],
        ["verify", "claimI", "--json"],
    ],
)
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    # a missing directory and a directory in place of the file
    for target in (tmp_path / "missing" / "out", tmp_path):
        code, out, err = run(capsys, *argv, str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert "wrote" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["wgraph", "ab", "--rank", "2", "--dot"],
        ["fold", "ab", "--rank", "2", "--dot"],
        ["verify", "claimI", "--json"],
    ],
)
def test_dash_output_is_refused_as_a_bad_flag(capsys, tmp_path, monkeypatch, argv):
    # "-" would name a file in the working directory, not standard output,
    # so argparse refuses it before the command runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-1]}: '-' names no file here; write to /dev/stdout" in err
    assert list(tmp_path.iterdir()) == []


# --- output files: overwritten in place, never truncated to zero on open ---

OUTPUT_ARGV = [
    ["wgraph", "ab", "--rank", "2", "--dot"],
    ["fold", "ab", "--rank", "2", "--dot"],
    ["verify", "claimI", "--json"],
]


def _fresh_output(capsys, tmp_path, argv):
    """The bytes argv writes to a path that did not exist before."""
    target = tmp_path / "fresh"
    code, _, _ = run(capsys, *argv, str(target))
    assert code == 0
    return target.read_bytes()


@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_over_longer_file_leaves_new_bytes(capsys, tmp_path, argv):
    expected = _fresh_output(capsys, tmp_path, argv)
    target = tmp_path / "out"
    target.write_bytes(b"#" * (len(expected) + 4096))
    code, out, _ = run(capsys, *argv, str(target))
    assert code == 0
    assert out.endswith(f"wrote {target}\n")
    assert target.read_bytes() == expected


@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_rerun_leaves_same_bytes(capsys, tmp_path, argv):
    target = tmp_path / "out"
    contents = []
    for _ in range(2):
        code, _, _ = run(capsys, *argv, str(target))
        assert code == 0
        contents.append(target.read_bytes())
    assert contents[0] == contents[1]


@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_written_through_symlink(capsys, tmp_path, argv):
    expected = _fresh_output(capsys, tmp_path, argv)
    real = tmp_path / "real"
    real.write_bytes(b"#" * 10_000)
    link = tmp_path / "link"
    link.symlink_to(real)
    code, _, _ = run(capsys, *argv, str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_bytes() == expected


@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_to_dev_null_exits_0(capsys, argv):
    # ftruncate fails on /dev/null, so only a regular file is cut
    code, out, err = run(capsys, *argv, "/dev/null")
    assert (code, err) == (0, "")
    assert out.endswith("wrote /dev/null\n")


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes through file permissions")
@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_read_only_file_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "out"
    target.write_bytes(b"old report")
    target.chmod(0o444)
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert "wrote" not in out
    assert target.read_bytes() == b"old report"


@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_denied_on_open_exits_2(capsys, tmp_path, monkeypatch, argv):
    # the read-only case above skips as root, who writes through the file
    # mode, so the denial is planted at the open instead
    target = tmp_path / "out"
    target.write_bytes(b"old report")
    real_open = os.open

    def denied_open(path, flags, *rest, **kwargs):
        if os.fspath(path) == str(target):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *rest, **kwargs)

    monkeypatch.setattr(cli.os, "open", denied_open)
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2
    assert err == f"error: cannot write {target}: Permission denied\n"
    assert "wrote" not in out
    assert target.read_bytes() == b"old report"


@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_path_with_nul_byte_exits_2(capsys, tmp_path, argv):
    # the CLI property draws this path too; os.open refuses it with a
    # ValueError, not an OSError; it is refused as a write of that path,
    # with the NUL byte shown as the text \x00
    code, out, err = run(capsys, *argv, f"{tmp_path}/o\x00ut")
    assert code == 2
    assert err == f"error: cannot write {tmp_path}/o\\x00ut: embedded null byte\n"
    assert "\x00" not in err and "Traceback" not in err
    assert "wrote" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", OUTPUT_ARGV)
def test_output_never_opened_with_o_trunc(capsys, tmp_path, monkeypatch, argv):
    expected = _fresh_output(capsys, tmp_path, argv)
    target = tmp_path / "out"
    target.write_bytes(b"#" * (len(expected) + 4096))
    flags_seen = []
    real_open = os.open

    def spy_open(path, flags, *rest, **kwargs):
        flags_seen.append(flags)
        return real_open(path, flags, *rest, **kwargs)

    monkeypatch.setattr(cli.os, "open", spy_open)
    code, _, _ = run(capsys, *argv, str(target))
    assert code == 0
    assert flags_seen, "the writer no longer opens through os.open"
    assert not any(flags & os.O_TRUNC for flags in flags_seen)
    assert target.read_bytes() == expected


def untimed(data):
    """Console output with the wall time of each verify line masked."""
    return re.sub(rb"\d+\.\d+s\)", b"s)", data)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "claimI", "--truncation", "2", "--json"],
        ["fold", "ab", "ba", "--rank", "2", "--dot"],
    ],
)
def test_dev_stdout_redirected_to_a_file_matches_a_pipe(tmp_path, argv):
    # /dev/stdout names the file a shell redirected standard output to;
    # opened afresh, the report would land at offset 0, under the console
    # lines, so it is written through standard output, in order
    command = [sys.executable, "-m", "freegroups", *argv]
    report = tmp_path / "report"
    assert subprocess.run([*command, str(report)], capture_output=True, timeout=60).returncode == 0
    piped = subprocess.run([*command, "/dev/stdout"], capture_output=True, timeout=60)
    redirected = tmp_path / "out"
    with open(redirected, "wb") as out:
        code = subprocess.run([*command, "/dev/stdout"], stdout=out, timeout=60).returncode
    assert piped.returncode == code == 0
    assert untimed(redirected.read_bytes()) == untimed(piped.stdout)
    assert piped.stdout.endswith(report.read_bytes() + b"wrote /dev/stdout\n")


def test_closed_stdout_exits_2():
    # the trace is about 90 KB, more than a pipe buffers, so the writer
    # is still printing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "freegroups", "primitive", "ba^3000", "--rank", "2", "--trace"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == "3001 -> 3000  (e1; {e1, e2^-1})\n"
    assert (proc.returncode, err) == (2, "")


def test_rank_cap_error_exits_2(capsys):
    code, _, err = run(capsys, "wgraph", "abc", "--rank", "2")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["wgraph", "ab"])  # missing required --rank
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", "reduce", "abB"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "a\n"
