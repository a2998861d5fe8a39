import tracemalloc

import numpy as np
import pytest

from oracles import explicit_basis_spectrum, quadrature_overlap_matrix
from speccap import spectral
from speccap.channel import EncodingEnsemble, GramData, MirrorGramData, compute_gram, output_spectrum
from speccap.errors import ComputationError, ValidationError
from speccap.numerics import hermitian_eigenvalues, mirror_quarter
from speccap.spectral import (
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    TabulatedAmplitude,
    TabulatedResponse,
    make_gaussian_basis,
    modulated_overlap,
    survival_probability,
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
            GramData(data.gram, priors)


def test_uniform_factory():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(4, 1.0, 1.0))
    assert np.allclose(ensemble.priors, 0.25)


def test_single_letter_transparent_channel():
    data = compute_gram(EncodingEnsemble.uniform(make_gaussian_basis(1, 0.0, 1.0)), FlatResponse(1.0))
    assert data.gram[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert data.mean_loss == pytest.approx(0.0, abs=1e-12)
    assert data.weighted[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_letters_flat_channel():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(2, 40.0, 1.0))
    data = compute_gram(ensemble, FlatResponse(0.8))
    assert data.gram[0, 0] == pytest.approx(0.64, abs=1e-12)
    assert data.gram[1, 1] == pytest.approx(0.64, abs=1e-12)
    assert abs(data.gram[0, 1]) <= 1e-14
    assert data.mean_loss == pytest.approx(0.36, abs=1e-12)
    spectrum, _ = output_spectrum(data)
    assert spectrum == pytest.approx([0.32, 0.32], abs=1e-12)


def test_gram_off_diagonal_matches_quadrature():
    letters = make_gaussian_basis(2, 2.0, 1.0, "symmetric")
    response = GaussianPeakResponse(1.0, 1.0)
    data = compute_gram(EncodingEnsemble.uniform(letters), response)
    reference = quadrature_overlap_matrix(letters, response)
    assert np.max(np.abs(data.gram - reference)) <= 1e-10


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
    assert np.max(np.abs(lossy.gram - 0.49 * lossless.gram)) <= 1e-12
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
    trace = float(np.trace(data.weighted).real)
    assert trace == pytest.approx(1.0 - data.mean_loss, abs=1e-10)
    assert hermitian_eigenvalues(data.weighted).min() >= -1e-10


def test_an_eigensolve_that_breaks_conservation_raises(monkeypatch):
    # The spectrum plus the mean loss must sum to 1; more than 1e-10 off means the eigensolve went wrong.
    data = compute_gram(EncodingEnsemble.uniform(make_gaussian_basis(3, 1.0, 1.0)), GaussianPeakResponse(0.8, 1.0))
    monkeypatch.setattr("speccap.channel.hermitian_eigenvalues", lambda matrix: (1.0 + 1e-8) * hermitian_eigenvalues(matrix))
    with pytest.raises(ComputationError, match="output spectrum plus mean loss sums to .*, expected 1"):
        output_spectrum(data)


def test_narrow_letters_under_a_wide_tabulated_response_converge():
    # A rule on [-8, 8] alone all but misses the narrow peaks; the breakpoints
    # at every width of each letter resolve them.
    letters = [GaussianAmplitude(-3.0, 0.05), GaussianAmplitude(3.0, 0.05)]
    response = TabulatedResponse([-8.0, 8.0], [1.0, 1.0])
    for letter in letters:
        assert modulated_overlap(letter, letter, response) == pytest.approx(1.0, abs=1e-12)
    data = compute_gram(EncodingEnsemble.uniform(letters), response)
    assert data.gram.diagonal() == pytest.approx([1.0, 1.0], abs=1e-12)


def test_new_priors_keep_gram_and_update_statistics():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(3, 1.0, 1.0, "zero-start"))
    response = GaussianPeakResponse(1.0, 1.0)
    data = compute_gram(ensemble, response)
    shifted = GramData(data.gram, [0.6, 0.3, 0.1])
    assert shifted.gram is data.gram
    assert np.array_equal(shifted.survival, data.survival)
    assert shifted.mean_loss == pytest.approx(float(np.dot([0.6, 0.3, 0.1], data.loss)), abs=1e-14)
    direct = compute_gram(EncodingEnsemble(ensemble.letters, [0.6, 0.3, 0.1]), response)
    assert np.max(np.abs(shifted.weighted - direct.weighted)) <= 1e-14
    with pytest.raises(ValidationError):
        GramData(data.gram, [0.5, 0.5])


def test_gram_diagonal_outside_the_unit_interval_raises(monkeypatch):
    for diagonal in ([1.0 + 1e-9, 0.5], [0.5, -1e-9]):
        with pytest.raises(ComputationError, match="survival"):
            GramData(np.diag(diagonal), [0.5, 0.5])
    data = GramData(np.diag([1.0 + 1e-11, -1e-11]), [0.5, 0.5])
    assert np.array_equal(data.survival, [1.0, 0.0])
    assert data.mean_loss == 0.5
    # A lone survival probability passes the same window, NaN included.
    for overlap, survival in ((1.0 + 1e-9, None), (-1e-9, None), (np.nan, None), (1.0 + 1e-11, 1.0), (-1e-11, 0.0)):
        monkeypatch.setattr(spectral, "modulated_overlap", lambda a, b, response: complex(overlap))
        if survival is None:
            with pytest.raises(ComputationError, match="survival"):
                survival_probability(GaussianAmplitude(), FlatResponse(1.0))
        else:
            assert survival_probability(GaussianAmplitude(), FlatResponse(1.0)) == survival


def test_gram_data_rejects_a_non_square_gram_and_a_nan_diagonal():
    for gram in (np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3, 2))):
        with pytest.raises(ValidationError, match="square"):
            GramData(gram, [0.5, 0.5])
    # NaN fails the survival range check, so mean_loss is never silently NaN.
    with pytest.raises(ComputationError, match="survival"):
        GramData(np.diag([np.nan, 0.5]), [0.5, 0.5])
    # Off the diagonal, finiteness is checked where the matrix meets the eigensolver.
    data = GramData([[0.5, np.nan], [np.nan, 0.5]], [0.5, 0.5])
    with pytest.raises(ValidationError, match="finite"):
        output_spectrum(data)


def test_gram_data_of_a_stack_carries_its_leading_axes():
    members = [np.diag([0.9, 0.4]), np.array([[0.5, 0.25j], [-0.25j, 0.5]]), np.diag([1.0, 0.0])]
    priors = [0.7, 0.3]
    stack = GramData(np.stack(members).reshape(3, 1, 2, 2), priors)
    assert stack.n == 2 and stack.survival.shape == (3, 1, 2) and stack.mean_loss.shape == (3, 1)
    spectra, losses = output_spectrum(stack)
    for k, member in enumerate(members):
        single = GramData(member, priors)
        assert np.array_equal(stack.survival[k, 0], single.survival)
        assert stack.mean_loss[k, 0] == single.mean_loss and isinstance(single.mean_loss, float)
        assert np.array_equal(stack.weighted[k, 0], single.weighted)
        spectrum, loss = output_spectrum(single)
        assert np.array_equal(spectra[k, 0], spectrum) and losses[k, 0] == loss
    # One member's survival out of range fails the whole stack.
    with pytest.raises(ComputationError, match="survival"):
        GramData(np.stack([members[0], np.diag([1.5, 0.0])]), priors)


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_mirror_gram_data_is_gram_data_of_the_whole_matrices(n):
    # A stack of complex Gram matrices, each exactly Hermitian and centrosymmetric,
    # positive definite with its diagonal near 1/2, and uniform priors.
    parts = np.random.default_rng(n).normal(size=(2, 2, n, n))
    hermitian = parts[0] + 1j * parts[1] + (parts[0] - 1j * parts[1]).swapaxes(-1, -2)
    whole = (hermitian + hermitian[..., ::-1, ::-1] + 16 * n * np.eye(n)) / (32 * n)
    assert np.array_equal(whole, whole[..., ::-1, ::-1]) and np.array_equal(whole, whole.conj().swapaxes(-1, -2))
    priors = np.full(n, 1.0 / n)
    rows, cols = mirror_quarter(n)
    quarter = whole[..., rows, cols]
    dense, mirror = GramData(whole, priors), MirrorGramData(quarter, priors)
    assert mirror.n == n and mirror.quarter is not quarter and not mirror.quarter.flags.writeable
    assert not hasattr(mirror, "gram")  # no GramData consumer can read the entries as a matrix
    for name in ("priors", "survival", "loss", "mean_loss"):
        assert getattr(mirror, name).tobytes() == getattr(dense, name).tobytes(), name
    assert mirror.weighted.tobytes() == dense.weighted[..., rows, cols].tobytes()
    values, loss = output_spectrum(mirror)
    assert np.array_equal(values, output_spectrum(dense)[0]) and loss.tobytes() == dense.mean_loss.tobytes()
    if n > 2:
        weights = 1.0 + np.arange(n) * np.arange(n)[::-1]  # a mirror, but not uniform
        with pytest.raises(ValidationError, match="must be uniform"):
            MirrorGramData(quarter, weights / weights.sum())
    with pytest.raises(ValidationError, match=f"expected {rows.size} distinct Gram entries"):
        MirrorGramData(quarter[..., 1:], priors)


def test_gram_data_holds_a_read_only_copy_of_a_caller_array():
    caller = np.diag([0.9, 0.4]).astype(complex)  # asarray would not copy it
    data = GramData(caller, [0.5, 0.5])
    caller[0, 0] = 0.0
    assert caller.flags.writeable
    assert data.gram.dtype == complex and data.gram[0, 0] == 0.9
    assert np.array_equal(data.survival, [0.9, 0.4])
    for name in ("gram", "survival"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, name)[0] = 0.0


def _traced_gram_data(gram, priors):
    tracemalloc.start()
    try:
        data = GramData(gram, priors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return data, peak


def test_gram_data_keeps_a_real_gram_real_and_copies_or_converts_it_once():
    n = 256
    real = np.diag(np.linspace(0.1, 0.9, n))
    priors = np.full(n, 1.0 / n)
    data, peak = _traced_gram_data(real, priors)
    assert peak < 1.5 * 8 * n * n  # one float64 n x n copy, not a second one
    assert data.gram.dtype == np.float64 and not data.gram.flags.writeable
    assert not np.shares_memory(data.gram, real)
    assert np.array_equal(data.gram, real)
    assert GramData(data.gram, priors).gram is data.gram
    for other in (np.eye(n, dtype=int), np.eye(n, dtype=bool), real.astype(np.float32)):
        converted, peak = _traced_gram_data(other, priors)
        assert peak < 1.5 * 8 * n * n  # converted once, not converted and then copied
        assert converted.gram.dtype == np.float64 and not converted.gram.flags.writeable
        assert np.array_equal(converted.gram, other.astype(np.float64))
    for dtype in (np.complex64, np.complex128):
        caller = real.astype(dtype)
        kept = GramData(caller, priors)
        assert kept.gram.dtype == np.complex128 and not kept.gram.flags.writeable
        assert not np.shares_memory(kept.gram, caller)
        assert np.array_equal(kept.gram, caller)
        assert GramData(kept.gram, priors).gram is kept.gram


class _QuadratureReached(Exception):
    pass


def test_only_inputs_without_the_closed_form_reach_quadrature(monkeypatch):
    # Quadrature here is the fixed 10-point rule; all-tabulated inputs take the exact 3-node rule.
    def refuse(edges):
        raise _QuadratureReached

    monkeypatch.setattr("speccap.spectral._gauss_rule", refuse)
    letters = make_gaussian_basis(3, 1.0, 0.8)
    tabulated = [TabulatedAmplitude([-3.0, 0.0, 3.0], [0.0, 1.0, 0.0]), TabulatedAmplitude([-1.0, 2.0], [1.0, 0.5j])]
    tabulated_channel = TabulatedResponse([-8.0, 8.0], [1.0, 1.0])
    gaussian_channel = GaussianPeakResponse(0.9, 2.0)
    for group, response in (
        (letters, FlatResponse(0.7)),
        (letters, gaussian_channel),
        (tabulated, FlatResponse(0.7)),
        (tabulated, tabulated_channel),
    ):
        modulated_overlap(group[0], group[1], response)
        survival_probability(group[0], response)
        compute_gram(EncodingEnsemble.uniform(group), response)
    mixes = (
        (letters[0], tabulated[0], FlatResponse(0.7)),
        (letters[0], tabulated[0], tabulated_channel),
        (letters[0], tabulated[0], gaussian_channel),
        (letters[0], letters[1], tabulated_channel),
        (tabulated[0], tabulated[1], gaussian_channel),
    )
    for a, b, response in mixes:
        for compute in (
            lambda: modulated_overlap(a, b, response),
            lambda: compute_gram(EncodingEnsemble.uniform([a, b]), response),
        ):
            with pytest.raises(_QuadratureReached):
                compute()
    for letter, response in ((letters[1], tabulated_channel), (tabulated[0], gaussian_channel)):
        with pytest.raises(_QuadratureReached):
            survival_probability(letter, response)


def test_closed_form_gram_is_read_only_exactly_hermitian_and_the_mirrored_triangle(monkeypatch):
    handed = []

    def spy(gram, priors):
        handed.append(gram)
        return GramData(gram, priors)

    monkeypatch.setattr("speccap.channel.GramData", spy)
    widths = (0.4, 1.7, 0.8, 3.1, 0.25, 1.0)
    letters = [GaussianAmplitude(c, w) for c, w in zip((-1.3, 0.2, 0.9, 2.5, 3.0, 3.7), widths)]
    response = GaussianPeakResponse(0.8, 1.6)
    gram = compute_gram(EncodingEnsemble.uniform(letters), response).gram
    assert gram is handed[0] and not gram.flags.writeable  # read-only, so GramData keeps it uncopied
    assert np.all(gram == gram.conj().T) and np.all(gram.diagonal().imag == 0.0)
    n = len(letters)
    triangle = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            triangle[i, j] = modulated_overlap(letters[i], letters[j], response)
    mirrored = triangle + np.triu(triangle, 1).conj().T
    assert gram.tobytes() == mirrored.tobytes()
