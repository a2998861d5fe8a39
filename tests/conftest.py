"""Hypothesis settings for the property tests.

Examples are derived from each test's name rather than drawn at random, so
every run checks the same inputs, and no example database is written.
There is no deadline, because timings on a shared host vary too much to
judge a single example.
"""
from hypothesis import settings

settings.register_profile("speccap", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("speccap")
