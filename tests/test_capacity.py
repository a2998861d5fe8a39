import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import continuum_holevo
from speccap import capacity
from speccap.capacity import (
    _letter_divergences,
    binary_capacity,
    binary_entropy,
    erasure_bounds,
    holevo_bound,
    optimal_alphabet_size,
    optimize_priors,
    two_state_exact,
    two_state_max,
)
from speccap.channel import EncodingEnsemble, GramData, compute_gram
from speccap.errors import ComputationError, ConvergenceError, ValidationError
from speccap.spectral import (
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    TabulatedResponse,
    comb_grams,
    gaussian_comb,
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


def _bound_cells(stack, priors):
    report = holevo_bound(GramData(stack, priors))
    return np.stack([report.holevo_bits, report.post_selected_bits, report.mean_loss], axis=-1)


@pytest.mark.parametrize("seed", range(20))
def test_a_stack_gives_each_member_its_solo_bounds_bitwise(seed):
    # A symmetric comb's Gram matrices through Gaussian channels are centrosymmetric, a zero-start comb's are
    # not; as whole matrices both, and a stack mixing the two, are solved whole, member by member bitwise.
    rng = np.random.default_rng(seed)
    n, spacing, width = int(rng.integers(2, 13)), rng.uniform(0.05, 3.0), rng.uniform(0.3, 2.0)
    responses = [GaussianPeakResponse(rng.uniform(0.2, 1.0), sigma) for sigma in rng.uniform(0.3, 5.0, 3)]
    symmetric = comb_grams(gaussian_comb(n, spacing, width, "symmetric"), responses)
    zero_start = comb_grams(gaussian_comb(n, spacing, width, "zero-start"), responses)
    assert np.array_equal(symmetric, symmetric[..., ::-1, ::-1])
    assert not any(np.array_equal(gram, gram[::-1, ::-1]) for gram in zero_start)
    priors = np.full(n, 1.0 / n)
    for stack in (symmetric, zero_start, np.stack([symmetric[0], zero_start[0]])):
        assert np.array_equal(_bound_cells(stack, priors), [_bound_cells(gram, priors) for gram in stack])


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
    # At every corner of the letter's and the channel's width ranges q_max stays finite.
    for sigma_psi in (4.4e-78, 1.0, 1.34e154):
        for sigma_eta in (6.2e-78, 1.0, 1.34e154):
            q_max = erasure_bounds(sigma_psi, sigma_eta, 1.0, 4).q_max
            assert q_max == pytest.approx(1.0 / math.hypot(1.0, sigma_psi / sigma_eta), rel=1e-14)


def test_erasure_bounds_validation():
    with pytest.raises(ValidationError):
        erasure_bounds(0.0, 1.0, 1.0, 4)
    with pytest.raises(ValidationError):
        erasure_bounds(1.0, 1.0, 1.5, 4)
    with pytest.raises(ValidationError):
        erasure_bounds(1.0, 1.0, 1.0, 0)
    # Widths outside the letter's and the channel's closed-form ranges, whose
    # sigma**-2 once overflowed.
    for sigma_psi, sigma_eta in ((1e-200, 1.0), (1e200, 1e-200), (1.0, 1e200), (np.float64(1e-200), 1.0)):
        with pytest.raises(ValidationError, match="width .* outside the closed form's range"):
            erasure_bounds(sigma_psi, sigma_eta, 1.0, 4)


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


def test_letter_divergences_of_identical_letters_are_zero():
    # The Gram matrix of 5 identical letters has a roundoff eigenvalue near
    # 1.7e-48; as a support direction it would make every D_i 2.5e16 bits.
    gram = np.ones((5, 5), dtype=complex)
    divergences = _letter_divergences(gram, np.zeros(5), np.full(5, 0.2))
    assert np.all(np.abs(divergences) <= 1e-12)


@pytest.mark.parametrize("lam", [1e-320, 1e-200, 1e-160, 3.7e-155, 8.2e76, 1e200, math.inf])
def test_two_state_rejects_a_width_ratio_outside_the_closed_form_range(lam):
    # The overlap rate 1 / (4 lam^2 (1 + lam^2)) divides by zero, is inf or
    # is 0 there, so the search would meet a division by zero, an inf or a NaN
    # instead of a range check.
    for compute in (lambda: two_state_exact(1.0, lam), lambda: two_state_max(lam)):
        with pytest.raises(ValidationError, match="width ratio .* outside the closed form's range"):
            compute()


def test_two_state_accepts_the_ends_of_the_width_ratio_range():
    assert two_state_exact(1.0, 3.8e-155) == pytest.approx(math.exp(-1.0 / 8.0))
    assert two_state_exact(1.0, 8.1e76) == 0.0
    # The best separation, 2.8e-155, lies below the window start.
    with pytest.raises(ConvergenceError, match="window edge"):
        two_state_max(3.8e-155)
    with pytest.raises(ValidationError, match="letter separation must be non-negative"):
        two_state_exact(math.nan, 1.0)


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


def _dense_scan_two_state_max(lam, grid):
    """Best value and its separation: the argmax on ``grid``, refined on 2001 points between its neighbours."""
    i = int(np.argmax([two_state_exact(float(d), lam) for d in grid]))
    fine = np.linspace(grid[i - 1], grid[i + 1], 2001)
    values = [two_state_exact(float(d), lam) for d in fine]
    j = int(np.argmax(values))
    return values[j], float(fine[j])


@pytest.mark.parametrize("lam", [18.0, 20.0, 50.0])
def test_two_state_max_wide_photon_matches_dense_scan(lam):
    # The best separation (about 2.83 * lam) lies beyond 50 from lam ~ 18 on.
    best, separation = two_state_max(lam)
    assert best == pytest.approx(_dense_scan_two_state_max(lam, np.linspace(1e-6, 1000.0, 20001))[0], rel=1e-9)
    assert separation == pytest.approx(2.83 * lam, rel=0.01)


@pytest.mark.parametrize("lam", [9e-8, 1e-7, 0.1, 0.5, 1.0, 2.5, 5.0, 1e8])
def test_two_state_max_separation_is_where_the_slope_changes_sign(lam):
    # The maximum is flat, but the derivative crosses zero steeply, so
    # bisection on its sign finds the best separation to rounding.
    _, separation = two_state_max(lam)
    assert capacity._two_state_slope(separation * (1.0 - 1e-12), lam) > 0.0
    assert capacity._two_state_slope(separation * (1.0 + 1e-12), lam) < 0.0


@pytest.mark.parametrize("lam", [9e-8, 1e-7, 1.5e-7, 2e-7])
def test_two_state_max_just_inside_the_window_start_matches_a_dense_geometric_scan(lam):
    # The best separation, 1.08e-6 to 2.34e-6 here, lies just above the window start 1e-6.
    scan_best, scan_separation = _dense_scan_two_state_max(lam, np.geomspace(1e-7, 1e-4, 20001))
    best, separation = two_state_max(lam)
    assert best == pytest.approx(scan_best, rel=1e-9)
    # On the flat maximum the scan's argmax is good only to about 0.5%.
    assert separation == pytest.approx(scan_separation, rel=1e-2)


@pytest.mark.parametrize("lam", [1e-8, 5e-8])
def test_two_state_max_raises_on_window_edge(lam):
    # The best separation (1.2e-7 at lam = 1e-8, 6.1e-7 at 5e-8) lies below the window start 1e-6.
    with pytest.raises(ConvergenceError, match="window edge 1e-06"):
        two_state_max(lam)


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


def test_optimize_priors_out_of_iterations_carries_the_duality_gap(monkeypatch):
    ensemble = EncodingEnsemble.uniform([GaussianAmplitude(c, 1.0) for c in (0.0, 1.0, 2.0)])
    response = GaussianPeakResponse(1.0, 1.0)
    _, optimum = optimize_priors(ensemble, response)
    uniform = holevo_bound(compute_gram(ensemble, response)).holevo_bits
    gaps = []
    for iterations in (0, 1):
        monkeypatch.setattr(capacity, "MAX_PRIOR_ITERATIONS", iterations)
        with pytest.raises(ConvergenceError, match=f"within {iterations} iterations") as caught:
            optimize_priors(ensemble, response)
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


@pytest.mark.parametrize("centering", ["symmetric", "zero-start"])
@pytest.mark.parametrize("response", [FlatResponse(0.8), GaussianPeakResponse(0.9, 2.5)], ids=["flat", "peak"])
@pytest.mark.parametrize("spacing", [0.7, 2.0])
def test_optimal_alphabet_curve_is_the_holevo_bound_of_each_comb(centering, response, spacing):
    # The comb route of the scan against each alphabet's letters through the pair loop, one by one.
    n_max = 40
    for post_select in (False, True):
        best_n, best_bits, curve = optimal_alphabet_size(response, 1.1, spacing, centering, n_max, post_select)
        assert [n for n, _ in curve] == list(range(1, n_max + 1))
        for n, bits in curve:
            report = uniform_report(n, spacing, 1.1, response, centering)
            want = report.post_selected_bits if post_select else report.holevo_bits
            assert abs(bits - want) <= 1e-12, (n, bits, want)
        assert (best_n, best_bits) == max(curve, key=lambda point: (point[1], -point[0]))


def test_optimal_alphabet_makes_no_pair_loop_call(monkeypatch):
    def refused(*args):
        raise AssertionError("modulated_overlap called")

    monkeypatch.setattr("speccap.spectral.modulated_overlap", refused)
    for centering in ("symmetric", "zero-start"):
        optimal_alphabet_size(GaussianPeakResponse(1.0, 2.0), 1.0, 2.0, centering, n_max=12)


def test_optimal_alphabet_rejects_a_channel_without_a_closed_form(monkeypatch):
    built = []
    monkeypatch.setattr("speccap.capacity.gaussian_comb", lambda *args: built.append(args))
    response = TabulatedResponse([-1.0, 0.0, 1.0], [0.5, 1.0, 0.5])
    with pytest.raises(ValidationError, match="flat or Gaussian-peak channel, got TabulatedResponse"):
        optimal_alphabet_size(response, 1.0, 2.0, n_max=4)
    assert built == []


@pytest.mark.parametrize("n_max", [0, 2.0])
def test_optimal_alphabet_rejects_a_maximum_size_that_is_not_a_positive_integer(monkeypatch, n_max):
    built = []
    monkeypatch.setattr("speccap.capacity.gaussian_comb", lambda *args: built.append(args))
    with pytest.raises(ValidationError, match="maximum alphabet size must be a positive integer"):
        optimal_alphabet_size(GaussianPeakResponse(1.0, 2.0), 1.0, 2.0, n_max=n_max)
    assert built == []


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


def test_bounds_outside_zero_to_log2_n_raise(monkeypatch):
    # Two orthogonal letters that each lose 0.2944 of the photon.  A spectrum
    # of three halves gives more than log2(2) bits, and a pure one with no
    # vacuum less than 0, by more than roundoff; neither may be clipped into range.
    data = compute_gram(EncodingEnsemble.uniform(make_gaussian_basis(2, 20.0, 1.0)), FlatResponse(0.84))
    for spectrum, mean_loss, sign in (([0.5, 0.5, 0.5], data.mean_loss, ""), ([1.0, 0.0], 0.0, "-")):
        monkeypatch.setattr(capacity, "output_spectrum", lambda gram_data: (np.array(spectrum), mean_loss))
        with pytest.raises(ComputationError, match=rf"capacity {sign}[0-9.]+ outside \[0, 1\.0\]"):
            holevo_bound(data)


@pytest.mark.parametrize("exponent", [1e-300, 1e-100, 1e-16, 1e-8, 1e-3, 0.1, 0.5])
def test_two_pure_state_bits_match_their_series(exponent):
    # 1 - h((1 - s) / 2) = sum_k s^(2k) / (2k (2k - 1) ln 2); at s = 1e-8, 1 - h cancelled to 0
    # where the value is 7.2e-17.
    s_sq = -math.expm1(-exponent)
    series = math.fsum(s_sq**k / (2 * k * (2 * k - 1)) for k in range(1, 200)) / math.log(2.0)
    assert capacity._two_pure_state_bits(exponent) == pytest.approx(series, rel=4e-15, abs=0.0)


def test_two_pure_state_bits_of_orthogonal_states_is_one_bit():
    assert capacity._two_pure_state_bits(40.0) == 1.0
    assert capacity._two_pure_state_bits(math.inf) == 1.0
    # Near s = 1, 1 - h(x) at x = c^2 / (2 (1 + s)), exact as s -> 1, is the reference.
    s = math.sqrt(-math.expm1(-30.0))
    assert capacity._two_pure_state_bits(30.0) == pytest.approx(binary_capacity(math.exp(-30.0) / (2.0 * (1.0 + s))), rel=1e-15)


@pytest.mark.parametrize("lam", [1e5, 1e8, 1e20, 1e76])
def test_two_state_max_of_very_wide_letters_approaches_its_asymptote(lam):
    # For lam >> 1, delta_star -> 2 sqrt(2) lam, where q0 -> 1 / (e lam) and 1 - h -> 1 / (lam^2 ln 2).
    best, separation = two_state_max(lam)
    assert separation / lam == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)
    assert best * lam**3 == pytest.approx(1.0 / (math.e * math.log(2.0)), rel=1e-9, abs=0.0)


def gaussian_prior_comb_report(channel, n, spacing):
    """Bounds of an n-letter comb whose priors sample the centre distribution ``N(0, center_std^2)``."""
    width, channel_width, p_peak, center_std = channel
    letters = make_gaussian_basis(n, spacing, width)
    centers = np.array([letter.center for letter in letters])
    priors = np.exp(-(centers**2) / (2.0 * center_std**2))
    ensemble = EncodingEnsemble(letters, priors / priors.sum())
    return holevo_bound(compute_gram(ensemble, GaussianPeakResponse(p_peak, channel_width)))


# (width, channel width, peak probability, centre std), letter count and spacing.
# Each comb reaches at least 6 centre stds on either side of its mean.
@pytest.mark.parametrize(
    "channel, n, spacing",
    [((1.0, 2.0, 0.9, 1.0), 128, 0.1), ((1.0, 2.0, 0.9, 1.0), 64, 0.2), ((1.0, 1.0, 1.0, 0.7), 128, 0.08)],
)
def test_a_fine_comb_with_gaussian_priors_reaches_the_continuum_limit(channel, n, spacing):
    holevo, post_selected, q = continuum_holevo(*channel)
    report = gaussian_prior_comb_report(channel, n, spacing)
    assert abs(report.holevo_bits - holevo) <= 1e-9
    assert abs(report.post_selected_bits - post_selected) <= 1e-9
    assert abs(report.spectrum[1] / report.spectrum[0] - q) <= 1e-12


@given(st.floats(0.2, 5.0), st.floats(0.3, 4.0), st.floats(0.3, 1.0), st.floats(0.3, 1.0))
def test_a_comb_spanning_12_5_centre_stds_reaches_the_continuum_limit(width, channel_ratio, p_peak, center_ratio):
    # 128 letters at spacing 12.5 s_c / 127 reach 6.25 centre stds on either
    # side, beyond which the prior has about 4e-10 of its mass.
    channel = (width, channel_ratio * width, p_peak, center_ratio * width)
    holevo, post_selected, q = continuum_holevo(*channel)
    report = gaussian_prior_comb_report(channel, 128, 12.5 * channel[3] / 127)
    assert abs(report.holevo_bits - holevo) <= 1e-8
    assert abs(report.post_selected_bits - post_selected) <= 1e-8
    assert abs(report.spectrum[1] / report.spectrum[0] - q) <= 1e-9


def test_a_comb_that_cuts_off_the_prior_tails_misses_the_continuum_limit():
    # 128 letters at spacing 0.1 reach 4.2 centre stds of 1.5 on either side: about 2.3e-5 bits short.
    channel = (0.5, 3.0, 0.8, 1.5)
    holevo, _, _ = continuum_holevo(*channel)
    assert 1e-5 < holevo - gaussian_prior_comb_report(channel, 128, 0.1).holevo_bits < 1e-4
