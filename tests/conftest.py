"""Hypothesis profiles for the suite.

`suite` is loaded by default and keeps the whole run to seconds; run
`pytest --hypothesis-profile=thorough` for twenty times the examples.
Tests that pin max_examples in their own @settings keep it under both.
"""

from hypothesis import settings

settings.register_profile("suite", max_examples=200, deadline=None)
settings.register_profile("thorough", max_examples=2000, deadline=None)
settings.load_profile("suite")
