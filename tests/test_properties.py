"""Invariants checked over random inputs drawn by hypothesis.

The exact reference for tabulated inputs is computed here, without
speccap's numerics: linearly interpolated letters and channel make the
integrand a degree-4 polynomial on every grid segment, which a 3-point
Gauss-Legendre rule integrates exactly.
"""
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from speccap.channel import EncodingEnsemble, compute_gram, output_spectrum, reweight
from speccap.spectral import (
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    TabulatedAmplitude,
    TabulatedResponse,
    modulated_overlap,
    quadrature_gram,
)

gaussian_letters = st.lists(
    st.builds(GaussianAmplitude, st.floats(-5.0, 5.0), st.floats(0.3, 3.0)), min_size=1, max_size=6
)
closed_form_channels = st.one_of(
    st.builds(FlatResponse, st.floats(0.1, 1.0)),
    st.builds(GaussianPeakResponse, st.floats(0.1, 1.0), st.floats(0.5, 5.0)),
)


@st.composite
def tabulated_inputs(draw, max_letters=4):
    """One random grid shared by 1..max_letters complex letters and the channel."""
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=15))
    grid = draw(st.floats(-5.0, 0.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    samples = st.lists(st.floats(-1.0, 1.0), min_size=grid.size, max_size=grid.size)
    letters = []
    for _ in range(draw(st.integers(1, max_letters))):
        values = np.array(draw(samples)) + 1j * np.array(draw(samples))
        assume(np.max(np.abs(values)) > 1e-3)
        letters.append(TabulatedAmplitude(grid, values))
    eta = np.abs(draw(samples))
    return grid, letters, TabulatedResponse(grid, eta)


def exact_tabulated_gram(grid, letters, eta):
    t = 0.5 + 0.5 * np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
    weights = np.array([5.0, 8.0, 5.0]) / 18.0

    def at_nodes(values):
        return values[:-1, None] + np.diff(values)[:, None] * t

    psi = np.stack([at_nodes(letter.values) for letter in letters])
    weight = np.diff(grid)[:, None] * weights * at_nodes(eta) ** 2
    return np.einsum("isk,sk,jsk->ij", psi.conj(), weight, psi)


@given(gaussian_letters, closed_form_channels)
def test_quadrature_matches_the_gaussian_closed_form(letters, response):
    closed = compute_gram(EncodingEnsemble.uniform(letters), response).gram.entries
    assert np.max(np.abs(quadrature_gram(letters, response) - closed)) <= 1e-10
    pair = modulated_overlap(letters[0], letters[-1], response, method="quadrature")
    assert abs(pair - closed[0, -1]) <= 1e-10


@given(tabulated_inputs())
def test_tabulated_gram_is_the_exact_segment_sum(inputs):
    grid, letters, response = inputs
    data = compute_gram(EncodingEnsemble.uniform(letters), response)
    exact = exact_tabulated_gram(grid, letters, response.values)
    assert np.max(np.abs(data.gram.entries - exact)) <= 1e-12


@given(tabulated_inputs(), st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_tabulated_reweight_matches_a_fresh_gram_and_conserves_probability(inputs, raw):
    _, letters, response = inputs
    priors = np.array(raw[: len(letters)]) / sum(raw[: len(letters)])
    shifted = reweight(compute_gram(EncodingEnsemble.uniform(letters), response), priors)
    fresh = compute_gram(EncodingEnsemble(letters, priors), response)
    assert np.max(np.abs(shifted.weighted.entries - fresh.weighted.entries)) <= 1e-14
    assert shifted.mean_loss == pytest.approx(fresh.mean_loss, abs=1e-14)
    spectrum, mean_loss = output_spectrum(shifted)
    assert spectrum.sum() + mean_loss == pytest.approx(1.0, abs=1e-12)
