"""Robustness of the command line: exit code 3 is kept for faults in the
program, so no argv may reach it.  Hypothesis builds argv for every
subcommand from hostile pieces: huge exponents and ranks, mixed word
forms, non-ASCII digits, empty words and output paths that cannot be
written.  A handful of fixed cases also run in a subprocess under a 1 GiB
address space limit.

Values that make a sweep expensive once clamped to its caps (a large
--max-len for fincov, npbig or all) are drawn only where the clamped run
stays under a second; every other number may be huge.  The examples are
derandomized by the profile in conftest.py.
"""

import contextlib
import io
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.cli import main
from freegroups.verify import CLAIM_IDS

HUGE = ["1000000000000", "99999999999999999999999999999", str(2**64), "9" * 5000]
# Arabic-Indic three and fullwidth two parse as ints; the rest do not
ODD_NUMBERS = ["٣", "２", "²", "-0", "0x10", "1e3", ""]

SMALL = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["٣", "²", ""]))
NUMBER = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(HUGE + ODD_NUMBERS))

EXPONENT = st.one_of(
    st.integers(-12, 12).map(str),
    st.sampled_from(["", "-", "00", "1000001", "99999999999999999999999", "٣"]),
)
FORM_A = st.lists(
    st.one_of(
        st.sampled_from(list("abcxzABCXZ ^") + ["é"]),
        st.builds("{}^{}".format, st.sampled_from("abAB"), EXPONENT),
    ),
    max_size=8,
).map("".join)
FORM_B = st.lists(
    st.one_of(st.integers(-5, 5), st.sampled_from([10**12, -(10**12), 10**30])),
    max_size=6,
).map(lambda xs: " ".join(map(str, xs)))
ODD_WORDS = st.sampled_from(
    ["", " ", "a^600000b^600000", "١ ٢", "a^١", "1 ²", "ab\x00", "a 1", "9" * 5000]
)
WORD = st.one_of(FORM_A, FORM_B, ODD_WORDS)
# an output path under a fresh directory TMP: writable, in a missing
# directory, the directory itself, or with a NUL
TMP = "{tmp}"
OUTPUT = st.sampled_from([f"{TMP}/out", f"{TMP}/missing/out", TMP, f"{TMP}/o\x00ut"])
# claims whose runs stay short when --max-len is clamped to their caps
CHEAP_AT_CAP = {"fact1", "prop24", "nielsen-xcheck", "claimI", "claimII", "lemma38", "section3"}


@st.composite
def argv(draw):
    command = draw(
        st.sampled_from(
            ["reduce", "mul", "conjugate", "wgraph", "cutvertex", "primitive",
             "nielsen", "fold", "member", "density", "verify"]
        )
    )
    out = [command]
    if command == "verify":
        claim = draw(st.sampled_from(list(CLAIM_IDS) + ["section3", "all", "bogus"]))
        out.append(claim)
        for flag, values in (
            ("--rank", NUMBER),
            ("--max-len", NUMBER if claim in CHEAP_AT_CAP else SMALL),
            ("--truncation", NUMBER),
            ("--json", OUTPUT),
        ):
            if draw(st.booleans()):
                out += [flag, draw(values)]
        return out
    if command == "density":
        return out + ["--rank", draw(NUMBER), "--max-len", draw(NUMBER)]
    arity = {"mul": 2, "conjugate": 2, "nielsen": 2}.get(command, 1)
    if command == "fold":
        arity = draw(st.integers(1, 3))
    out += [draw(WORD) for _ in range(arity)]
    if command in ("reduce", "mul", "conjugate", "nielsen"):
        return out
    out += ["--rank", draw(NUMBER)]
    if command in ("wgraph", "fold") and draw(st.booleans()):
        out += ["--dot", draw(OUTPUT)]
    if command == "primitive" and draw(st.booleans()):
        out.append("--trace")
    if command == "member":
        out += ["--subgroup"] + draw(st.lists(WORD, min_size=1, max_size=3))
    return out


def in_dir(args, tmp) -> list:
    return [a.replace(TMP, str(tmp)) for a in args]


@settings(max_examples=300)  # 60 examples draw too few output paths
@given(argv())
def test_random_argv_never_exits_3(args):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(in_dir(args, tmp))
            except SystemExit as exc:  # argparse refuses bad usage with exit 2
                code = exc.code
    assert code in (0, 1, 2), (args, code, err.getvalue())
    assert "internal error" not in err.getvalue()


# four words at the letter cap: each parses, but together they pass it
AT_CAP = ["a^1000000", "b^1000000", "c^1000000", "d^1000000"]


@pytest.mark.parametrize(
    "args", [["fold", *AT_CAP, "--rank", "4"], ["member", "a", "--rank", "4", "--subgroup", *AT_CAP]]
)
def test_words_past_the_letter_cap_together_exit_2(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(args) == 2
    assert "together have more than 1000000 letters" in err.getvalue()


def test_words_at_the_letter_cap_together_fold():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fold", "a^500000", "b^500000", "--rank", "2"]) == 0


@pytest.mark.parametrize(
    "args",
    [
        ["wgraph", "ab", "--rank", HUGE[1], "--dot", f"{TMP}/missing/g.dot"],
        ["fold", "a b", "1 1000000000000", "--rank", HUGE[0], "--dot", f"{TMP}/missing/g.dot"],
        ["primitive", "1000000000000 -1000000000000 5 5", "--rank", HUGE[0], "--trace"],
        ["member", "ab", "--rank", HUGE[1], "--subgroup", "a", "1 2", ""],
        ["verify", "all", "--rank", HUGE[0], "--json", f"{TMP}/missing/r.json"],
        ["verify", "claimI", "--truncation", HUGE[1], "--json", TMP],
        ["density", "--rank", HUGE[0], "--max-len", "3"],
        ["nielsen", "a^999999", "b"],
        ["fold", *AT_CAP, "--rank", "4"],
        ["member", "a", "--rank", "4", "--subgroup", *AT_CAP],
    ],
)
def test_hostile_argv_in_small_address_space(args, tmp_path):
    import resource
    import subprocess
    import sys

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", *in_dir(args, tmp_path)],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_primitive_power_word_at_the_parse_cap_answers_quickly():
    # b a^999999 is 1,000,000 letters, the most the parser admits; its
    # verdict descent takes power steps, so it answers well inside the limit
    import resource
    import subprocess
    import sys

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "freegroups", "primitive", "ba^999999", "--rank", "2"],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "primitive\n", "")
