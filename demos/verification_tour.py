"""
Batch verification sweeps
=========================

Each claim checker enumerates a full ball of reduced words and returns a
report; the command line front end wraps the same calls.
"""

from freegroups import (
    build_w,
    format_word,
    parse_word,
    run_claims,
    select_wij,
    verify_fact1,
    verify_npbig,
    wij_family,
)

# the seed word of the covering family, rank 2 and 3 instances
print("seed words:", format_word(build_w(2)), "and", format_word(build_w(3)))

# the n^2 translates e_i w e_j, a fresh dict keyed by (i, j), and the
# selection rule that keeps the product with a given word cyclically
# reduced; the rule reads only the word
fam = wij_family(2)
for text in ("", "ba", "Ab"):
    a = parse_word(text)
    i, j = select_wij(a)
    t = fam[i, j] * a
    print(f"a = {text!r:5} -> pair ({i}, {j}), translate {format_word(t)}")

# the per word claim: every selected translate is non-primitive
report = verify_npbig(2, 3)
print("\nnpbig at rank 2, ball radius 3:", report.status)
print("stats:", report.stats)

# power blocks resist every single shortening move
report = verify_fact1(rank=3)
print("\nfact1 through rank 3:", report.status, report.stats)

# the full grid, shrunk for a quick run; JSON is byte stable across reruns
reports = run_claims(max_len=2, truncation=3)
print("\nfull grid at reduced scale:")
for r in reports:
    params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
    print(f"  {r.claim_id:15} [{params}] {r.status}")
print("all pass:", all(r.passed for r in reports))

# one serialized report, wall time zeroed for determinism
print("\nJSON shape:")
print(reports[0].to_json())
