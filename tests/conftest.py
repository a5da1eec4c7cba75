"""Hypothesis profiles: `tier1` (the default) replays the same derandomized
examples on every run, with no example database; `fresh` draws new ones,
e.g. ``python -m pytest -m hypothesis --hypothesis-profile=fresh``."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fresh")
settings.load_profile("tier1")
