"""Shared test settings.

Hypothesis runs under one profile: examples come from a fixed derivation
rather than a random seed, nothing is written to an example database, and
no per-example deadline applies, so the suite is deterministic, bounded
in time and leaves no files behind.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "freegroups", derandomize=True, database=None, deadline=None, max_examples=60
    )
    settings.load_profile("freegroups")
