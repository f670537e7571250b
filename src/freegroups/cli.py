"""Command line front end.

Verdict subcommands (conjugate, cutvertex, primitive, nielsen, member,
verify) exit 0 when the answer is yes / everything passed and 1 otherwise;
malformed words, bad ranks, bad flags, a --dot or --json file that
cannot be written, and a standard output closed before the command ends
(as by `| head`) exit 2.  Any other exception is a fault in the program,
not a verdict: it prints its traceback and an "internal error:" line and
exits 3.  Word arguments take either letter form ("abA", "a^3B") or
whitespace separated indices ("1 2 -1").

--dot and --json overwrite an existing file in place, through a symlink
and keeping its permissions, and cut it to the new length; they never
truncate it to zero first.  A crash in mid-write can leave a partial
file, as with any plain write.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import traceback

from .primitivity import is_basis_pair_f2, is_primitive, whitehead_minimize
from .stallings import build_subgroup_graph
from .verify import primitive_density, reports_to_json, run_claims
from .whitehead_graph import build_whitehead_graph
from .words import PARSE_LETTER_CAP, Word, are_conjugate, format_word, letter_name, parse_word


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="freegroups",
        description="Reduced words, Whitehead graphs, primitivity, and "
        "subgroup folding in finitely generated free groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("reduce", help="freely reduce a word")
    s.add_argument("word")

    s = sub.add_parser("mul", help="multiply two words")
    s.add_argument("w1")
    s.add_argument("w2")

    s = sub.add_parser("conjugate", help="test whether two words are conjugate")
    s.add_argument("w1")
    s.add_argument("w2")

    s = sub.add_parser("wgraph", help="print the Whitehead graph of a word")
    s.add_argument("word")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--dot", metavar="FILE", help="also write DOT to FILE")

    s = sub.add_parser("cutvertex", help="report separability of the Whitehead graph")
    s.add_argument("word")
    s.add_argument("--rank", type=int, required=True)

    s = sub.add_parser("primitive", help="test whether a word is primitive")
    s.add_argument("word")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--trace", action="store_true", help="print the minimization steps")

    s = sub.add_parser("nielsen", help="test whether two words form a rank 2 basis")
    s.add_argument("a")
    s.add_argument("b")

    s = sub.add_parser("fold", help="fold generators into a subgroup graph")
    s.add_argument("gens", nargs="+", metavar="gen")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--dot", metavar="FILE", help="also write DOT to FILE")

    s = sub.add_parser("member", help="test subgroup membership by folding")
    s.add_argument("word")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--subgroup", nargs="+", required=True, metavar="gen")

    s = sub.add_parser("density", help="count primitives per word length")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--max-len", type=int, required=True)

    s = sub.add_parser("verify", help="run batch claim checks")
    s.add_argument("claim", metavar="claim_id", help='a claim id, "section3", or "all"')
    s.add_argument("--rank", type=int)
    s.add_argument("--max-len", type=int)
    s.add_argument("--truncation", type=int)
    s.add_argument("--json", metavar="FILE", help="write the JSON report array to FILE")

    return p


def _write(path: str, text: str) -> None:
    """Write an output file; failing to is a usage error, not a fault.

    The file is opened without O_TRUNC and cut to the new length after
    the write.  Truncating a file that holds data to zero on open stalled
    for 55-80 ms on an ext4 root mounted with discard, likely its
    replace-via-truncate handling (auto_da_alloc).  Only a regular file
    is cut: ftruncate fails on /dev/null and on pipes.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            f = open(fd, "w")
        except BaseException:
            os.close(fd)
            raise
        with f:
            f.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                f.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def _parse_words(texts) -> list[Word]:
    """Parse the words of one command, refusing them as soon as their
    letters together pass PARSE_LETTER_CAP, so no more than one word past
    the cap is ever held."""
    words = []
    total = 0
    for text in texts:
        words.append(parse_word(text))
        total += len(words[-1])
        if total > PARSE_LETTER_CAP:
            raise ValueError(f"the words together have more than {PARSE_LETTER_CAP} letters")
    return words


def _cmd_reduce(args) -> int:
    print(format_word(parse_word(args.word)))
    return 0


def _cmd_mul(args) -> int:
    print(format_word(parse_word(args.w1) * parse_word(args.w2)))
    return 0


def _answer(yes: bool, yes_text: str, no_text: str) -> int:
    """Print the answer to a yes/no question; exit 0 means yes, 1 no."""
    print(yes_text if yes else no_text)
    return 0 if yes else 1


def _cmd_conjugate(args) -> int:
    conjugate = are_conjugate(parse_word(args.w1), parse_word(args.w2))
    return _answer(conjugate, "conjugate", "not conjugate")


def _cmd_wgraph(args) -> int:
    g = build_whitehead_graph(parse_word(args.word), args.rank)
    if args.dot and 2 * args.rank > PARSE_LETTER_CAP:
        raise ValueError(
            f"--dot lists all 2*rank letters; rank must be at most "
            f"{PARSE_LETTER_CAP // 2}, got {args.rank}"
        )
    print(f"vertices: {2 * args.rank}")
    print(f"edges: {g.edge_count}")
    for u, v in g.edges:
        print(f"{letter_name(u)} -- {letter_name(v)}")
    if args.dot:
        _write(args.dot, g.to_dot())
    return 0


def _cmd_cutvertex(args) -> int:
    g = build_whitehead_graph(parse_word(args.word), args.rank)
    verdict = g.find_cut_vertex()
    if not verdict.connected:
        print("disconnected")
        return 0
    if verdict.cut_vertex is not None:
        print(f"cut vertex: {letter_name(verdict.cut_vertex)}")
        return 0
    print("no cut vertex")
    return 1


def _cmd_primitive(args) -> int:
    w = parse_word(args.word)
    if args.trace:
        trace = whitehead_minimize(w, args.rank)
        length = len(trace.start.cyclic_core())
        for aut, new_len in trace.steps:
            print(f"{length} -> {new_len}  {aut}")
            length = new_len
        print(f"terminal cyclic word: {format_word(trace.final.word, args.rank)}")
        primitive = len(trace.final) == 1  # the empty word ends at length 0
    else:
        primitive = is_primitive(w, args.rank)
    return _answer(primitive, "primitive", "not primitive")


def _cmd_nielsen(args) -> int:
    basis = is_basis_pair_f2(parse_word(args.a), parse_word(args.b))
    return _answer(basis, "basis pair", "not a basis pair")


def _cmd_fold(args) -> int:
    g = build_subgroup_graph(_parse_words(args.gens), args.rank)
    print(f"vertices: {g.num_vertices}")
    print(f"edges: {g.num_edges}")
    print(f"subgroup rank: {g.subgroup_rank()}")
    print(f"generates whole group: {'yes' if g.generates_whole_group() else 'no'}")
    if args.dot:
        _write(args.dot, g.to_dot())
    return 0


def _cmd_member(args) -> int:
    g = build_subgroup_graph(_parse_words(args.subgroup), args.rank)
    return _answer(g.contains(parse_word(args.word)), "member", "not a member")


def _cmd_density(args) -> int:
    rows = primitive_density(args.rank, args.max_len)
    print("length  primitives  total  ratio")
    for length, prims, total, ratio in rows:
        print(f"{length:>6}  {prims:>10}  {total:>5}  {ratio:.6f}")
    return 0


def _cmd_verify(args) -> int:
    reports = run_claims(
        claim_id=args.claim,
        rank=args.rank,
        max_len=args.max_len,
        truncation=args.truncation,
    )
    if not reports:
        print("no grid entries match the given filters", file=sys.stderr)
        return 2
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
        print(
            f"{r.claim_id} [{params}] {r.status} "
            f"({r.stats['words_checked']} checked, {r.stats['seconds']:.2f}s)"
        )
        for c in r.counterexamples:
            print(f"  counterexample: {c}")
    if args.json:
        _write(args.json, reports_to_json(reports))
    return 0 if all(r.passed for r in reports) else 1


_HANDLERS = {
    "reduce": _cmd_reduce,
    "mul": _cmd_mul,
    "conjugate": _cmd_conjugate,
    "wgraph": _cmd_wgraph,
    "cutvertex": _cmd_cutvertex,
    "primitive": _cmd_primitive,
    "nielsen": _cmd_nielsen,
    "fold": _cmd_fold,
    "member": _cmd_member,
    "density": _cmd_density,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # covers WordParseError and rank/cap errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout was closed early, as by `| head`
        # the flush at exit would raise again, so send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except Exception as exc:  # exit 1 means "no", so a fault must not reach it
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
