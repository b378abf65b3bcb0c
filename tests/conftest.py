"""Hypothesis settings shared by the suite.

Derandomized with a fixed example budget and no example database, so every
run of the suite checks the same examples and leaves nothing behind.
"""

from hypothesis import settings

settings.register_profile(
    "railwarn", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("railwarn")
