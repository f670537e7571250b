"""Shared test settings.

Hypothesis runs under one profile: examples come from a fixed derivation
rather than a random seed, nothing is written to an example database, and
no per-example deadline applies, so the suite is deterministic, bounded
in time and leaves no files behind.
"""

from hypothesis import settings

settings.register_profile(
    "freegroups", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("freegroups")
