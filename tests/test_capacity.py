import math

import numpy as np
import pytest

from speccap import capacity
from speccap.capacity import (
    binary_capacity,
    binary_entropy,
    erasure_bounds,
    holevo_bound,
    optimal_alphabet_size,
    optimize_priors,
    two_state_exact,
    two_state_max,
)
from speccap.channel import EncodingEnsemble, compute_gram
from speccap.errors import ConvergenceError, ValidationError
from speccap.spectral import (
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    make_gaussian_basis,
    modulated_overlap,
    survival_probability,
)


def uniform_report(n, spacing, width, response, centering="symmetric"):
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(n, spacing, width, centering))
    return holevo_bound(compute_gram(ensemble, response))


def pipeline_two_state(delta, lam, p_peak):
    """Two-letter capacity assembled from survival and overlap primitives."""
    letters = make_gaussian_basis(2, delta, lam, "symmetric")
    response = GaussianPeakResponse(p_peak, 1.0)
    q0 = survival_probability(letters[0], response)
    q1 = survival_probability(letters[1], response)
    cross = modulated_overlap(letters[0], letters[1], response)
    c = abs(cross) / math.sqrt(q0 * q1)
    return q0 * binary_capacity(0.5 * (1.0 - math.sqrt(1.0 - c * c)))


def test_binary_entropy_extremes():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_capacity(0.0) == 1.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_capacity(0.5) == pytest.approx(0.0, abs=1e-15)


def test_binary_entropy_value():
    assert binary_entropy(0.36) == pytest.approx(0.942683189255492245, abs=1e-14)


def test_binary_entropy_domain():
    with pytest.raises(ValidationError):
        binary_entropy(-0.01)
    with pytest.raises(ValidationError):
        binary_entropy(1.01)
    # fp slop just outside [0, 1] is tolerated
    assert binary_entropy(1.0 + 1e-13) == 0.0


def test_perfect_flat_channel_reaches_alphabet_limit():
    report = uniform_report(32, 10.0, 1.0, FlatResponse(1.0))
    assert report.holevo_bits == pytest.approx(5.0, abs=1e-3)
    assert report.mean_loss == pytest.approx(0.0, abs=1e-12)


def test_identical_letters_carry_nothing():
    for response in (FlatResponse(0.9), GaussianPeakResponse(1.0, 2.0)):
        report = uniform_report(8, 0.0, 1.0, response)
        assert report.holevo_bits <= 1e-9
        assert report.post_selected_bits <= 1e-9


def test_orthogonal_letters_flat_loss_closed_form():
    report = uniform_report(4, 40.0, 1.0, FlatResponse(0.8))
    assert report.holevo_bits == pytest.approx(0.64 * 2.0, abs=1e-5)


def test_letter_entropies_and_spectrum_are_reported():
    report = uniform_report(3, 1.0, 1.0, GaussianPeakResponse(0.8, 1.5))
    assert report.letter_entropies.shape == (3,)
    assert report.spectrum.shape == (3,)
    assert report.spectrum.sum() + report.mean_loss == pytest.approx(1.0, abs=1e-10)


def test_erasure_bounds_matched_widths():
    bounds = erasure_bounds(1.0, 1.0, 1.0, 32)
    assert bounds.q_max == pytest.approx(0.707106781186547524, abs=1e-14)
    assert bounds.bound_bits == pytest.approx(3.53553390593273762, abs=1e-12)
    assert bounds.erasure_probability == pytest.approx(1.0 - bounds.q_max, abs=1e-15)


def test_erasure_bounds_limits():
    wide = erasure_bounds(1.0, 1e6, 1.0, 32)
    assert wide.q_max == pytest.approx(1.0, abs=1e-9)
    assert wide.bound_bits == pytest.approx(5.0, abs=1e-8)
    assert erasure_bounds(1.0, 1.0, 0.0, 32).bound_bits == 0.0


def test_erasure_bounds_validation():
    with pytest.raises(ValidationError):
        erasure_bounds(0.0, 1.0, 1.0, 4)
    with pytest.raises(ValidationError):
        erasure_bounds(1.0, 1.0, 1.5, 4)
    with pytest.raises(ValidationError):
        erasure_bounds(1.0, 1.0, 1.0, 0)


def test_two_state_exact_zero_separation():
    assert two_state_exact(0.0, 1.0, 1.0) == 0.0


def test_two_state_exact_huge_separation():
    assert two_state_exact(100.0, 1.0, 1.0) <= 1e-100


def test_two_state_exact_reference_value():
    # q0 = e^(-1/4)/sqrt(2), squared modulated overlap e^(-1/2).
    assert two_state_exact(2.0, 1.0, 1.0) == pytest.approx(0.168620893011873768, abs=1e-14)


def test_two_state_exact_validation():
    with pytest.raises(ValidationError):
        two_state_exact(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        two_state_exact(1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        two_state_exact(1.0, 1.0, 1.5)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p_peak", [0.5, 1.0])
def test_two_state_exact_matches_pipeline(delta, lam, p_peak):
    closed = two_state_exact(delta, lam, p_peak)
    assert closed == pytest.approx(pipeline_two_state(delta, lam, p_peak), abs=1e-8)


def test_two_state_holevo_dominance():
    for delta in (0.5, 1.0, 2.0, 4.0):
        for lam in (0.5, 1.0, 2.0):
            ensemble = EncodingEnsemble.uniform(make_gaussian_basis(2, delta, lam, "symmetric"))
            report = holevo_bound(compute_gram(ensemble, GaussianPeakResponse(1.0, 1.0)))
            assert report.holevo_bits >= two_state_exact(delta, lam, 1.0) - 1e-10


def test_two_state_max_narrow_photon_approaches_one_bit():
    best, separation = two_state_max(0.01, 1.0)
    assert best == pytest.approx(1.0, abs=0.02)
    assert separation > 0


def test_two_state_max_wide_photon_is_negligible():
    best, _ = two_state_max(100.0, 1.0)
    assert best < 0.01


def test_two_state_max_linear_in_peak_probability():
    full, sep_full = two_state_max(0.7, 1.0)
    half, sep_half = two_state_max(0.7, 0.5)
    assert half == pytest.approx(0.5 * full, abs=0)
    assert sep_half == sep_full


def _dense_scan_two_state_max(lam, points=20001):
    grid = np.linspace(1e-6, 1000.0, points)
    values = [two_state_exact(float(d), lam) for d in grid]
    i = int(np.argmax(values))
    fine = np.linspace(grid[i - 1], grid[i + 1], 2001)
    return max(two_state_exact(float(d), lam) for d in fine)


@pytest.mark.parametrize("lam", [18.0, 20.0, 50.0])
def test_two_state_max_wide_photon_matches_dense_scan(lam):
    # The best separation (about 2.83 * lam) lies beyond 50 from lam ~ 18 on.
    best, separation = two_state_max(lam)
    assert best == pytest.approx(_dense_scan_two_state_max(lam), rel=1e-9)
    assert separation == pytest.approx(2.83 * lam, rel=0.01)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 2.5, 5.0])
def test_two_state_max_separation_does_not_depend_on_the_coarse_grid(lam, monkeypatch):
    # The maximum is flat, but the derivative crosses zero steeply, so the
    # best separation is found to rounding whichever bracket the grid gives.
    _, separation = two_state_max(lam)
    monkeypatch.setattr(capacity, "TWO_STATE_COARSE_POINTS", 1001)
    _, finer = two_state_max(lam)
    assert finer == pytest.approx(separation, rel=1e-12)


def test_two_state_max_raises_on_window_edge():
    # Best separation ~2.8e-7 lies below the window start 1e-6.
    with pytest.raises(ConvergenceError, match="window edge"):
        two_state_max(1e-7)


def test_two_state_max_opaque_peak_is_zero():
    bits, separation = two_state_max(1.0, 0.0)
    assert bits == 0.0
    assert separation == two_state_max(1.0)[1]


def test_opaque_channel_reports_positive_zero():
    report = uniform_report(4, 2.0, 1.0, FlatResponse(0.0))
    for bits in (report.holevo_bits, report.post_selected_bits):
        assert bits == 0.0 and math.copysign(1.0, bits) == 1.0


def test_optimize_priors_symmetric_pair_is_uniform():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(2, 2.0, 1.0, "symmetric"))
    priors, report = optimize_priors(ensemble, GaussianPeakResponse(1.0, 1.0))
    assert priors == pytest.approx([0.5, 0.5], abs=1e-6)
    uniform = holevo_bound(compute_gram(ensemble, GaussianPeakResponse(1.0, 1.0)))
    assert report.holevo_bits >= uniform.holevo_bits - 1e-12


def test_optimize_priors_beats_uniform_on_asymmetric_ensemble():
    letters = [GaussianAmplitude(c, 1.0) for c in (0.0, 1.0, 2.0)]
    ensemble = EncodingEnsemble.uniform(letters)
    response = GaussianPeakResponse(1.0, 1.0)
    uniform = holevo_bound(compute_gram(ensemble, response))
    priors, report = optimize_priors(ensemble, response)
    assert report.holevo_bits >= uniform.holevo_bits
    assert priors.sum() == pytest.approx(1.0, abs=1e-12)


def test_optimize_priors_noiseless_binary_limit():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(2, 60.0, 1.0))
    priors, report = optimize_priors(ensemble, FlatResponse(1.0))
    assert priors == pytest.approx([0.5, 0.5], abs=1e-6)
    assert report.holevo_bits == pytest.approx(1.0, abs=1e-9)


def test_optimize_priors_survives_a_weight_reaching_zero():
    # Some weights of this ensemble underflow to exactly 0; a central
    # difference there used to step to a negative weight and a NaN matrix.
    centers = [
        -0.555589156825707, 2.17092814875397, -0.8678548374084185, 1.0938455721269813,
        -0.029483202819451826, 2.243244758876581, 1.994665347246122, 1.3927786083665108,
    ]
    widths = [
        0.6717377037519929, 1.3892721064332911, 0.685876422062587, 1.0579234301126366,
        0.7423657787541658, 0.8087398751172872, 1.0191604857700496, 0.5843000302551501,
    ]
    ensemble = EncodingEnsemble.uniform([GaussianAmplitude(c, w) for c, w in zip(centers, widths)])
    response = GaussianPeakResponse(0.9, 1.5)
    uniform = holevo_bound(compute_gram(ensemble, response))
    priors, report = optimize_priors(ensemble, response)
    assert np.all(priors >= 0.0) and priors.sum() == pytest.approx(1.0, abs=1e-12)
    assert report.holevo_bits >= uniform.holevo_bits


def test_optimize_priors_out_of_iterations_carries_the_duality_gap():
    ensemble = EncodingEnsemble.uniform([GaussianAmplitude(c, 1.0) for c in (0.0, 1.0, 2.0)])
    response = GaussianPeakResponse(1.0, 1.0)
    _, optimum = optimize_priors(ensemble, response)
    uniform = holevo_bound(compute_gram(ensemble, response)).holevo_bits
    gaps = []
    for iterations in (0, 1):
        with pytest.raises(ConvergenceError) as caught:
            optimize_priors(ensemble, response, max_iterations=iterations)
        gaps.append(caught.value.error_estimate)
    # With no step taken the iterate is the uniform prior, so the gap
    # max_i D_i - chi must cover the whole distance to the optimum.
    assert gaps[0] >= optimum.holevo_bits - uniform > 0.05
    # One step closes part of it; the Holevo value (about 0.35 bits) is not a gap.
    assert 0.0 < gaps[1] < gaps[0] < 0.2


def test_optimize_priors_needs_two_letters():
    ensemble = EncodingEnsemble.uniform(make_gaussian_basis(1, 0.0, 1.0))
    with pytest.raises(ValidationError):
        optimize_priors(ensemble, FlatResponse(1.0))


def test_optimal_alphabet_flat_channel_is_monotone():
    best_n, best_bits, curve = optimal_alphabet_size(
        FlatResponse(1.0), 1.0, 10.0, "symmetric", n_max=8
    )
    assert best_n == 8
    bits = [b for _, b in curve]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bits, bits[1:]))
    assert best_bits == pytest.approx(3.0, abs=1e-3)


def test_optimal_alphabet_single_letter():
    best_n, best_bits, curve = optimal_alphabet_size(
        GaussianPeakResponse(1.0, 2.0), 1.0, 2.0, "symmetric", n_max=1
    )
    assert best_n == 1
    assert best_bits == pytest.approx(0.0, abs=1e-12)
    assert curve == [(1, best_bits)]


def test_optimal_alphabet_interior_peak_for_narrow_channel():
    best_n, best_bits, curve = optimal_alphabet_size(
        GaussianPeakResponse(1.0, 2.0), 1.0, 2.0, "symmetric", n_max=16
    )
    assert 1 < best_n < 16
    assert best_bits > curve[-1][1]


def test_flat_channel_post_selection_equality():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        letters = [
            GaussianAmplitude(rng.uniform(-4, 4), rng.uniform(0.4, 2.5)) for _ in range(n)
        ]
        priors = rng.dirichlet(np.ones(n))
        for eta in (0.2, 0.5, 0.9):
            report = holevo_bound(compute_gram(EncodingEnsemble(letters, priors), FlatResponse(eta)))
            assert abs(report.holevo_bits - report.post_selected_bits) <= 1e-10


def test_gaussian_channel_post_selection_never_higher():
    for n in (2, 3, 4, 8):
        for sigma_eta in (1.0, 2.0):
            report = uniform_report(n, 2.0, 1.0, GaussianPeakResponse(1.0, sigma_eta))
            assert report.post_selected_bits <= report.holevo_bits + 1e-10


def test_gaussian_channel_post_selection_strictly_lower_when_losses_differ():
    # Letters at distinct distances from the passband lose photons at
    # different rates, so discarding no-photon events discards information.
    for n in (3, 4, 8):
        report = uniform_report(n, 2.0, 1.0, GaussianPeakResponse(1.0, 2.0))
        assert report.post_selected_bits < report.holevo_bits - 1e-6


def test_holevo_monotone_in_letter_spacing_flat_channel():
    previous = -1.0
    for spacing in np.arange(0.0, 10.5, 0.5):
        report = uniform_report(4, float(spacing), 1.0, FlatResponse(0.8))
        assert report.holevo_bits >= previous - 1e-10
        previous = report.holevo_bits


def test_holevo_monotone_in_flat_transmission():
    previous = -1.0
    for eta in np.arange(0.0, 1.05, 0.1):
        report = uniform_report(3, 2.0, 1.0, FlatResponse(min(float(eta), 1.0)))
        assert report.holevo_bits >= previous - 1e-10
        previous = report.holevo_bits


def test_report_conservation_and_ranges():
    cases = [
        (2, 1.0, FlatResponse(0.5)),
        (4, 2.0, GaussianPeakResponse(0.9, 1.0)),
        (8, 0.7, GaussianPeakResponse(1.0, 3.0)),
    ]
    for n, spacing, response in cases:
        report = uniform_report(n, spacing, 1.0, response)
        assert report.spectrum.sum() + report.mean_loss == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= report.holevo_bits <= math.log2(n)
        assert 0.0 <= report.post_selected_bits <= math.log2(n)
        assert report.spectrum.min() >= 0.0
