"""Hypothesis settings for the property tests, and a spy on LAPACK's eigensolver.

Examples are derived rather than drawn at random, so every run of the same
tree checks the same inputs, and no example database is written.  They are
derived from each test's name and also from the literals Hypothesis
collects from the source of the loaded non-test modules (``src/speccap``):
it mixes those numbers and strings into its draws.  So editing a literal
there can change the examples a property test meets, and so can running one
test file instead of the whole suite, which loads other modules.
There is no deadline, because timings on a shared host vary too much to
judge a single example.
"""
import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("speccap", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("speccap")


@pytest.fixture
def lapack_shapes(monkeypatch):
    """The shape of every matrix that reaches ``np.linalg.eigvalsh`` during the test, in call order."""
    shapes = []
    solve = np.linalg.eigvalsh

    def spied(matrix):
        shapes.append(matrix.shape)
        return solve(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", spied)
    return shapes
