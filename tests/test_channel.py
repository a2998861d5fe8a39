import numpy as np
import pytest

from oracles import explicit_basis_spectrum, quadrature_overlap_matrix
from speccap.channel import EncodingEnsemble, GramData, compute_gram, output_spectrum, reweight
from speccap.errors import ComputationError, ConvergenceError, ValidationError
from speccap.numerics import HermitianMatrix, QuadratureSpec, hermitian_eigenvalues
from speccap.spectral import (
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    TabulatedResponse,
    make_gaussian_basis,
    modulated_overlap,
)


def test_ensemble_validation():
    letters = make_gaussian_basis(2, 1.0, 1.0)
    with pytest.raises(ValidationError):
        EncodingEnsemble(letters, [0.6, 0.6])
    with pytest.raises(ValidationError):
        EncodingEnsemble(letters, [1.2, -0.2])
    with pytest.raises(ValidationError):
        EncodingEnsemble((), [])


def test_non_finite_priors_are_rejected_where_they_enter():
    letters = make_gaussian_basis(2, 1.0, 1.0)
    data = compute_gram(EncodingEnsemble.uniform(letters), FlatResponse(1.0))
    for priors in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValidationError, match="prior probabilities must be finite"):
            EncodingEnsemble(letters, priors)
        with pytest.raises(ValidationError, match="prior probabilities must be finite"):
            reweight(data, priors)


def test_uniform_factory():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(4, 1.0, 1.0))
    assert np.allclose(ensemble.priors, 0.25)


def test_single_letter_transparent_channel():
    data = compute_gram(EncodingEnsemble.uniform(make_gaussian_basis(1, 0.0, 1.0)), FlatResponse(1.0))
    assert data.gram.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert data.mean_loss == pytest.approx(0.0, abs=1e-12)
    assert data.weighted.entries[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_letters_flat_channel():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(2, 40.0, 1.0))
    data = compute_gram(ensemble, FlatResponse(0.8))
    assert data.gram.entries[0, 0] == pytest.approx(0.64, abs=1e-12)
    assert data.gram.entries[1, 1] == pytest.approx(0.64, abs=1e-12)
    assert abs(data.gram.entries[0, 1]) <= 1e-14
    assert data.mean_loss == pytest.approx(0.36, abs=1e-12)
    spectrum, _ = output_spectrum(data)
    assert spectrum == pytest.approx([0.32, 0.32], abs=1e-12)


def test_gram_off_diagonal_matches_quadrature():
    letters = make_gaussian_basis(2, 2.0, 1.0, "symmetric")
    response = GaussianPeakResponse(1.0, 1.0)
    data = compute_gram(EncodingEnsemble.uniform(letters), response)
    reference = quadrature_overlap_matrix(letters, response)
    assert np.max(np.abs(data.gram.entries - reference)) <= 1e-10


def test_identical_letters_rank_one():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(5, 0.0, 1.0))
    data = compute_gram(ensemble, GaussianPeakResponse(1.0, 2.0))
    spectrum, mean_loss = output_spectrum(data)
    assert spectrum[0] == pytest.approx(data.survival[0], abs=1e-10)
    assert np.max(np.abs(spectrum[1:])) <= 1e-10
    assert spectrum.sum() + mean_loss == pytest.approx(1.0, abs=1e-10)


def test_orthogonal_letters_spectrum_is_uniform():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(4, 50.0, 1.0))
    data = compute_gram(ensemble, FlatResponse(0.6))
    spectrum, _ = output_spectrum(data)
    assert spectrum == pytest.approx([0.36 / 4] * 4, abs=1e-12)


def test_spectrum_matches_explicit_orthogonalization():
    letters = make_gaussian_basis(3, 1.0, 1.0, "zero-start")
    priors = np.array([1 / 3, 1 / 3, 1 / 3])
    response = GaussianPeakResponse(1.0, 2.0)
    data = compute_gram(EncodingEnsemble(letters, priors), response)
    spectrum, _ = output_spectrum(data)
    reference = explicit_basis_spectrum(letters, priors, response)
    assert np.max(np.abs(spectrum - reference)) <= 1e-10


def test_spectrum_matches_explicit_orthogonalization_random_ensembles():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5, 6):
        letters = [
            GaussianAmplitude(rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0)) for _ in range(n)
        ]
        priors = rng.dirichlet(np.ones(n))
        priors = priors / priors.sum()
        response = GaussianPeakResponse(rng.uniform(0.3, 1.0), rng.uniform(0.5, 3.0))
        data = compute_gram(EncodingEnsemble(letters, priors), response)
        spectrum, _ = output_spectrum(data)
        reference = explicit_basis_spectrum(letters, priors, response)
        assert np.max(np.abs(spectrum - reference)) <= 1e-10


def test_flat_channel_scales_lossless_gram():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(4, 1.5, 1.0))
    lossless = compute_gram(ensemble, FlatResponse(1.0))
    lossy = compute_gram(ensemble, FlatResponse(0.7))
    assert np.max(np.abs(lossy.gram.entries - 0.49 * lossless.gram.entries)) <= 1e-12
    s0, _ = output_spectrum(lossless)
    s1, _ = output_spectrum(lossy)
    assert np.max(np.abs(s1 - 0.49 * s0)) <= 1e-12


def test_permutation_leaves_spectrum_unchanged():
    letters = [GaussianAmplitude(c, 1.0) for c in (-1.0, 0.5, 2.0)]
    priors = np.array([0.5, 0.3, 0.2])
    response = GaussianPeakResponse(0.9, 1.5)
    data = compute_gram(EncodingEnsemble(letters, priors), response)
    order = [2, 0, 1]
    permuted = compute_gram(
        EncodingEnsemble([letters[i] for i in order], priors[order]), response
    )
    assert np.allclose(permuted.survival, data.survival[order])
    assert np.allclose(permuted.loss, data.loss[order])
    s0, _ = output_spectrum(data)
    s1, _ = output_spectrum(permuted)
    assert np.max(np.abs(s0 - s1)) <= 1e-12


def test_gram_data_invariants():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(3, 1.0, 1.0))
    data = compute_gram(ensemble, GaussianPeakResponse(0.8, 1.0))
    assert np.all(data.survival >= 0.0) and np.all(data.survival <= 1.0)
    assert np.all(data.loss >= 0.0) and np.all(data.loss <= 1.0)
    trace = float(np.trace(data.weighted.entries).real)
    assert trace == pytest.approx(1.0 - data.mean_loss, abs=1e-10)
    assert hermitian_eigenvalues(data.weighted).min() >= -1e-10


def test_convergence_failure_names_the_letter_pair():
    # Narrow letters under a wide tabulated response need more than one
    # panel split to resolve.
    letters = [GaussianAmplitude(-3.0, 0.05), GaussianAmplitude(3.0, 0.05)]
    response = TabulatedResponse([-8.0, 8.0], [1.0, 1.0])
    tight = QuadratureSpec(max_subdivisions=1)
    with pytest.raises(ConvergenceError, match=r"\(0, 0\)") as excinfo:
        compute_gram(EncodingEnsemble.uniform(letters), response, spec=tight)
    assert excinfo.value.error_estimate is not None


def test_narrow_letters_under_a_wide_tabulated_response_converge():
    # The first panels over [-8, 8] all but miss the narrow peaks.  The
    # tolerance must follow the estimate as the peaks are found, not stay at
    # abs_tolerance while the segments are halved below roundoff.
    letters = [GaussianAmplitude(-3.0, 0.05), GaussianAmplitude(3.0, 0.05)]
    response = TabulatedResponse([-8.0, 8.0], [1.0, 1.0])
    for letter in letters:
        assert modulated_overlap(letter, letter, response) == pytest.approx(1.0, abs=1e-12)
    data = compute_gram(EncodingEnsemble.uniform(letters), response)
    assert data.gram.entries.diagonal() == pytest.approx([1.0, 1.0], abs=1e-12)


def test_reweight_keeps_gram_and_updates_statistics():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(3, 1.0, 1.0, "zero-start"))
    response = GaussianPeakResponse(1.0, 1.0)
    data = compute_gram(ensemble, response)
    shifted = reweight(data, [0.6, 0.3, 0.1])
    assert shifted.gram is data.gram
    assert shifted.mean_loss == pytest.approx(float(np.dot([0.6, 0.3, 0.1], data.loss)), abs=1e-14)
    direct = compute_gram(EncodingEnsemble(ensemble.letters, [0.6, 0.3, 0.1]), response)
    assert np.max(np.abs(shifted.weighted.entries - direct.weighted.entries)) <= 1e-14
    record = GramData(data.gram, [0.6, 0.3, 0.1])
    assert record.gram is shifted.gram
    for name in ("priors", "survival", "loss", "mean_loss"):
        assert np.array_equal(getattr(record, name), getattr(shifted, name))
    assert np.array_equal(record.weighted.entries, shifted.weighted.entries)
    with pytest.raises(ValidationError):
        reweight(data, [0.5, 0.5])


def test_gram_diagonal_outside_the_unit_interval_raises():
    for diagonal in ([1.0 + 1e-9, 0.5], [0.5, -1e-9]):
        with pytest.raises(ComputationError, match="survival"):
            GramData(HermitianMatrix(np.diag(diagonal)), [0.5, 0.5])
    data = GramData(HermitianMatrix(np.diag([1.0 + 1e-11, -1e-11])), [0.5, 0.5])
    assert np.array_equal(data.survival, [1.0, 0.0])
    assert data.mean_loss == 0.5
