"""Tests for the command line interface: output, exit codes, file flags."""

import json

import pytest

from freegroups import cli
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


def test_cutvertex_verdicts(capsys):
    code, out, _ = run(capsys, "cutvertex", "ababa", "--rank", "2")
    assert (code, out) == (0, "cut vertex: e1\n")
    code, out, _ = run(capsys, "cutvertex", "abAB", "--rank", "2")
    assert (code, out) == (1, "no cut vertex\n")
    code, out, _ = run(capsys, "cutvertex", "ab", "--rank", "3")
    assert (code, out) == (0, "disconnected\n")


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

    monkeypatch.setitem(cli._HANDLERS, "reduce", boom)
    code, out, err = run(capsys, "reduce", "ab")
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == "internal error: RuntimeError: broken invariant"


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
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", "reduce", "abB"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "a\n"
