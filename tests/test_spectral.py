import math
import re
from dataclasses import replace

import numpy as np
import pytest

from speccap.errors import ValidationError
from speccap.spectral import (
    MAX_LETTERS,
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    TabulatedAmplitude,
    TabulatedResponse,
    comb_grams,
    gaussian_comb,
    load_tabulated_amplitude,
    load_tabulated_response,
    make_gaussian_basis,
    modulated_overlap,
    quadrature_gram,
    survival_probability,
)

PEAK_VALUE = 0.631618777746064701  # (2 pi)^(-1/4)


def stacked_overlaps(amp_a, amp_b, responses):
    """The ``(a, b)`` overlap through each of ``responses``, read from one :func:`comb_grams` stack."""
    letters = (amp_a,) if amp_a is amp_b else (amp_a, amp_b)
    return comb_grams(np.array([(letter.center, letter.width) for letter in letters]).T, responses)[:, 0, -1]


def test_gaussian_amplitude_peak_value():
    amp = GaussianAmplitude(0.0, 1.0)
    assert amp.value(0.0) == pytest.approx(PEAK_VALUE, abs=1e-12)


def test_gaussian_amplitude_translated_peak():
    amp = GaussianAmplitude(3.0, 1.0)
    assert amp.value(3.0) == pytest.approx(PEAK_VALUE, abs=1e-12)


def test_gaussian_amplitude_rejects_bad_width():
    with pytest.raises(ValidationError):
        GaussianAmplitude(0.0, 0.0)


def test_gaussian_amplitude_rejects_non_finite_parameters():
    # Each used to be accepted: NaN overlaps, or a bare ZeroDivisionError
    # from the closed form's A = a + b + k = 0 under a flat channel.
    for center, width in ((np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.inf)):
        with pytest.raises(ValidationError):
            GaussianAmplitude(center, width)
    with pytest.raises(ValidationError):
        replace(GaussianAmplitude(0.0, 1.0), center=np.nan)


def test_gaussian_amplitude_rejects_a_width_outside_the_closed_form_range():
    # Above about 1.34e154, width^2 overflows and a = 1/(4 width^2) is 0, so a
    # flat channel divides by A = 0; width^2 = 0 at 1e-200 divides by zero in
    # the constructor; below about 4.3e-78, a * a overflows and a
    # self-overlap is inf * 0 = NaN.  A numpy scalar is held as a float, so
    # it meets the same limits instead of an overflow warning.
    for number in (float, np.float64):
        for width in (1e200, 1e-200, 1e-100):
            with pytest.raises(ValidationError, match="amplitude width .* outside the closed form's range"):
                GaussianAmplitude(0.0, number(width))
        with pytest.raises(ValidationError, match="amplitude width .* outside the closed form's range"):
            make_gaussian_basis(3, 1.0, number(1e-100))
        for width in (1.34e154, 4.4e-78):
            letter = GaussianAmplitude(0.0, number(width))
            assert modulated_overlap(letter, letter, FlatResponse(1.0)) == pytest.approx(1.0, abs=1e-15)
            survival = modulated_overlap(letter, letter, GaussianPeakResponse(1.0, 1.0))
            assert survival == pytest.approx(1.0 / math.sqrt(1.0 + width * width), rel=1e-15)


def test_tabulated_amplitude_zero_outside_grid():
    tab = TabulatedAmplitude([0.0, 1.0], [1.0, 1.0])
    assert tab.value(-0.5) == 0.0
    assert tab.value(1.5) == 0.0


def test_tabulated_amplitude_is_renormalized():
    grid = np.linspace(-6.0, 6.0, 401)
    tab = TabulatedAmplitude(grid, 7.3 * np.exp(-(grid**2) / 4.0))
    norm = survival_probability(tab, FlatResponse(1.0))
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_tabulated_amplitude_interpolates_linearly():
    tab = TabulatedAmplitude([0.0, 1.0], [0.0, 1.0 + 1.0j])
    mid = tab.value(0.25)
    scale = tab.values[1]
    assert mid == pytest.approx(0.25 * scale, abs=1e-12)


TABULATED_CASES = [
    (TabulatedAmplitude, [0.0], [1.0], "at least 2 points"),
    (TabulatedAmplitude, [0.0, 0.0], [1.0, 1.0], "strictly ascending"),
    (TabulatedAmplitude, [1.0, 0.0], [1.0, 1.0], "strictly ascending"),
    (TabulatedAmplitude, [0.0, 1.0, 2.0], [0.0, 0.0, 0.0], "identically zero"),
    (TabulatedAmplitude, [0.0, 1.0, 2.0], [1.0, np.nan, 1.0], "must be finite"),
    (TabulatedAmplitude, [0.0, 1.0, 2.0], [1.0, 1.0j * np.inf, 1.0], "must be finite"),
    (TabulatedAmplitude, [0.0, 1.0, np.inf], [1.0, 1.0, 1.0], "must be finite"),
    (TabulatedAmplitude, [np.nan, 1.0, 2.0], [1.0, 1.0, 1.0], "must be finite"),
    (TabulatedAmplitude, [0.0, 1.0, 2.0], [1.0, 1.0], "equal length"),
    (TabulatedResponse, [0.0], [1.0], "at least 2 points"),
    (TabulatedResponse, [[0.0, 1.0]], [[1.0, 1.0]], "at least 2 points"),
    (TabulatedResponse, [0.0, 1.0, 2.0], [1.0, 1.0], "equal length"),
    (TabulatedResponse, [0.0, 0.0], [1.0, 1.0], "strictly ascending"),
    (TabulatedResponse, [1.0, 0.0], [1.0, 1.0], "strictly ascending"),
    (TabulatedResponse, [0.0, 1.0, 2.0], [0.5, 1.5, 0.5], r"must lie in \[0, 1\]"),
    (TabulatedAmplitude, [-1e308, 1e308], [1.0, 1.0], "span a finite width"),
    (TabulatedResponse, [-1e308, 0.0, 1e308], [1.0, 1.0, 1.0], "span a finite width"),
]


# The ids number the cases as a bare grid,values parametrization would.
@pytest.mark.parametrize(
    "cls,grid,values,message",
    [pytest.param(*case, id=f"grid{k}-values{k}") for k, case in enumerate(TABULATED_CASES)],
)
def test_tabulated_amplitude_validation(cls, grid, values, message):
    with pytest.raises(ValidationError, match=message):
        cls(grid, values)


def test_gaussian_peak_response_rejects_a_width_outside_the_closed_form_range():
    # 1e-200 squares to 0 (a ZeroDivisionError), 1e-160 to a subnormal whose
    # rate 0.5 / width^2 is inf, and 1e200 overflows; below about 6.1e-78 the
    # rate squared overflows, as a letter's a does.  An infinite width is a
    # FlatResponse.  A numpy scalar meets the same limits, as for a letter.
    letter = GaussianAmplitude(0.0, 1.0)
    for number in (float, np.float64):
        for width in (1e-320, 1e-200, 1e-160, 1e-100, 1e200, math.inf):
            with pytest.raises(ValidationError, match="channel width .* outside the closed form's range"):
                GaussianPeakResponse(1.0, number(width))
        for width in (6.2e-78, 1.34e154):
            survival = modulated_overlap(letter, letter, GaussianPeakResponse(number(1.0), number(width)))
            assert survival == pytest.approx(1.0 / math.sqrt(1.0 + 1.0 / (width * width)), rel=1e-15)


def test_channel_response_validation():
    with pytest.raises(ValidationError):
        FlatResponse(1.2)
    with pytest.raises(ValidationError):
        GaussianPeakResponse(-0.1, 1.0)
    with pytest.raises(ValidationError):
        GaussianPeakResponse(0.5, 0.0)
    with pytest.raises(ValidationError):
        TabulatedResponse([0.0, 1.0], [-0.2, 0.5])
    with pytest.raises(ValidationError):
        TabulatedResponse([0.0, 1.0], [0.5, 1.5])


@pytest.mark.parametrize(
    "grid,values",
    [
        ([0.0, 1.0, 2.0], [0.5, np.nan, 0.5]),
        ([0.0, 1.0, 2.0], [0.5, 0.5, np.inf]),
        ([0.0, 1.0, np.inf], [0.5, 0.5, 0.5]),
        ([-np.inf, 1.0, 2.0], [0.5, 0.5, 0.5]),
    ],
)
def test_tabulated_response_rejects_non_finite_input(grid, values):
    with pytest.raises(ValidationError, match="finite"):
        TabulatedResponse(grid, values)


def test_overlap_identical_through_matched_gaussian_channel():
    amp = GaussianAmplitude(0.0, 1.0)
    value = modulated_overlap(amp, amp, GaussianPeakResponse(1.0, 1.0))
    assert value.real == pytest.approx(0.707106781186547524, abs=1e-12)


def test_overlap_identical_through_transparent_channel():
    amp = GaussianAmplitude(1.7, 0.8)
    value = modulated_overlap(amp, amp, FlatResponse(1.0))
    assert value == pytest.approx(1.0, abs=1e-10)


def test_overlap_separated_gaussians_flat_channel():
    value = modulated_overlap(
        GaussianAmplitude(-1.0, 1.0), GaussianAmplitude(1.0, 1.0), FlatResponse(1.0)
    )
    assert value.real == pytest.approx(0.606530659712633424, abs=1e-12)


def test_overlap_of_a_narrow_letter_far_from_zero_is_exact():
    # B^2/A - D cancels two terms near 5e5 here; the stable form has none to cancel.
    amp = GaussianAmplitude(4.99, 0.0051)
    value = modulated_overlap(amp, amp, FlatResponse(1.0))
    assert value == pytest.approx(1.0, abs=1e-14)


def test_flat_channel_overlap_of_a_letter_beyond_1e154_is_finite():
    # a c^2 overflows to inf there; a flat channel (k = 0) must add no
    # k * inf = NaN term to the exponent.  A numpy scalar centre overflows
    # as a float does, without a warning.
    # The stack holds both kinds of channel, so the flat members meet a k > 0.
    for number in (float, np.float64):
        far = GaussianAmplitude(number(1e160), 1.0)
        assert modulated_overlap(far, far, FlatResponse(number(1.0))) == 1.0
        assert modulated_overlap(far, far, FlatResponse(number(0.5))) == pytest.approx(0.25, abs=1e-15)
        assert modulated_overlap(far, far, GaussianPeakResponse(1.0, 1.0)) == 0.0
        assert modulated_overlap(GaussianAmplitude(number(1e200), 1.0), GaussianAmplitude(), FlatResponse(1.0)) == 0j
        responses = [FlatResponse(number(1.0)), GaussianPeakResponse(1.0, 1.0), FlatResponse(number(0.5))]
        stacked = stacked_overlaps(far, far, responses)
        assert stacked[0] == 1.0 and stacked[1] == 0.0 and stacked[2] == pytest.approx(0.25, abs=1e-15)
        assert stacked_overlaps(GaussianAmplitude(number(1e200), 1.0), GaussianAmplitude(), responses).tolist() == [0j] * 3


def test_overlap_of_letters_further_apart_than_1e154_is_zero():
    # (c_a - c_b) ** 2 overflows there: the square is inf, not an OverflowError.
    left, right = GaussianAmplitude(-5e159, 1.0), GaussianAmplitude(5e159, 1.0)
    responses = (FlatResponse(1.0), GaussianPeakResponse(1.0, 1.0))
    for response in responses:
        assert modulated_overlap(left, right, response) == 0.0
        assert modulated_overlap(right, left, response) == 0.0
    assert stacked_overlaps(left, right, responses).tolist() == stacked_overlaps(right, left, responses).tolist() == [0j] * 2
    for number in (float, np.float64):
        assert modulated_overlap(*make_gaussian_basis(2, number(1e300), 1.0), FlatResponse(1.0)) == 0j
        assert stacked_overlaps(*make_gaussian_basis(2, number(1e300), 1.0), responses).tolist() == [0j] * 2


@pytest.mark.parametrize("center,width", [(5e154, 1e100), (9e307, 1e100), (9e307, 1.0), (5e159, 1e150)])
def test_orthogonal_pair_overlap_is_zero_when_a_b_underflows_or_the_gap_is_inf(center, width):
    # At widths near 1e100, a * b underflows to 0 and would meet the inf
    # square as NaN; at +-9e307 the gap c_a - c_b is itself inf.
    left, right = GaussianAmplitude(-center, width), GaussianAmplitude(center, width)
    responses = (FlatResponse(1.0), GaussianPeakResponse(1.0, 1.0))
    for response in responses:
        assert modulated_overlap(left, right, response) == 0j
        assert modulated_overlap(right, left, response) == 0j
    assert stacked_overlaps(left, right, responses).tolist() == stacked_overlaps(right, left, responses).tolist() == [0j] * 2


def test_closed_form_squares_the_centre_gap_with_pow():
    # With glibc, gap * gap and gap ** 2 differ in the last bit here, and so
    # do the overlaps they give; the closed form keeps the ** 2 rounding.
    gap = 1.3939
    expected = math.exp(-(0.0625 * (0.0 - gap) ** 2) / 0.5)
    pair = GaussianAmplitude(0.0, 1.0), GaussianAmplitude(gap, 1.0)
    assert modulated_overlap(*pair, FlatResponse(1.0)) == expected
    assert stacked_overlaps(*pair, [FlatResponse(1.0)]).tolist() == [expected]


def test_analytic_path_matches_quadrature_on_parameter_grid():
    responses = [FlatResponse(0.3), FlatResponse(1.0)]
    responses += [
        GaussianPeakResponse(p_peak, sigma_eta)
        for sigma_eta in (0.5, 1.0, 5.0)
        for p_peak in (0.3, 1.0)
    ]
    worst = 0.0
    for d_a in range(-3, 4):
        for d_b in range(-3, 4):
            for width in (0.5, 1.0, 2.0):
                a = GaussianAmplitude(float(d_a), width)
                b = GaussianAmplitude(float(d_b), width)
                for response in responses:
                    closed = modulated_overlap(a, b, response)
                    quad = quadrature_gram((a, b), response)[0, -1]
                    worst = max(worst, abs(closed - quad))
    assert worst <= 1e-10


def test_quadrature_gram_matches_the_closed_form_on_gaussian_inputs():
    letter = GaussianAmplitude(0.4, 0.9)
    other = GaussianAmplitude(-0.7, 1.3)
    response = GaussianPeakResponse(0.8, 1.5)
    analytic = modulated_overlap(letter, other, response)
    assert quadrature_gram((letter, other), response)[0, -1] == pytest.approx(analytic, abs=1e-12)


def test_replaced_parameters_give_the_new_overlap():
    letter, other = GaussianAmplitude(0.2, 1.0), GaussianAmplitude(-0.5, 0.7)
    for response in (FlatResponse(0.9), GaussianPeakResponse(0.8, 2.0)):
        modulated_overlap(letter, other, response)
        moved = replace(letter, width=0.45, center=1.3)
        changed = replace(response, transmission=0.4) if isinstance(response, FlatResponse) else replace(response, width=0.6)
        for a, b, r in ((moved, other, response), (letter, other, changed), (moved, other, changed)):
            expected = quadrature_gram((a, b), r)[0, -1]
            assert modulated_overlap(a, b, r) == pytest.approx(expected, abs=1e-12)


def test_closed_form_constants_stay_out_of_equality_hash_and_repr():
    pairs = [
        (GaussianAmplitude(0.3, 1.2), GaussianAmplitude(0.3, 1.2)),
        (FlatResponse(0.7), FlatResponse(0.7)),
        (GaussianPeakResponse(0.8, 2.0), GaussianPeakResponse(0.8, 2.0)),
    ]
    for first, second in pairs:
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second)
    assert repr(pairs[0][0]) == "GaussianAmplitude(center=0.3, width=1.2)"
    assert repr(pairs[1][0]) == "FlatResponse(transmission=0.7)"
    assert repr(pairs[2][0]) == "GaussianPeakResponse(peak_probability=0.8, width=2.0)"
    assert GaussianAmplitude(0.3, 1.2) != GaussianAmplitude(0.3, 1.3)


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(5)
    grid = np.linspace(-5.0, 5.0, 41)
    tab = TabulatedAmplitude(grid, rng.normal(size=41) + 1j * rng.normal(size=41))
    gauss = GaussianAmplitude(0.5, 1.0)
    response = GaussianPeakResponse(0.9, 2.0)
    ab = modulated_overlap(tab, gauss, response)
    ba = modulated_overlap(gauss, tab, response)
    assert ab == pytest.approx(np.conj(ba), abs=1e-12)


def test_overlap_cauchy_schwarz():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = GaussianAmplitude(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        b = GaussianAmplitude(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        response = GaussianPeakResponse(rng.uniform(0.2, 1.0), rng.uniform(0.5, 3.0))
        cross = abs(modulated_overlap(a, b, response)) ** 2
        bound = survival_probability(a, response) * survival_probability(b, response)
        assert cross <= bound + 1e-10


def test_overlaps_invariant_under_common_translation_flat_channel():
    response = FlatResponse(0.7)
    for shift in (0.0, 1.5, -20.0):
        a = GaussianAmplitude(-1.0 + shift, 1.0)
        b = GaussianAmplitude(1.0 + shift, 1.0)
        value = modulated_overlap(a, b, response)
        assert value.real == pytest.approx(0.49 * 0.606530659712633424, abs=1e-12)


def test_survival_probability_gaussian_channel_closed_form():
    # Displaced letter through a wider passband, peak transmission 0.9.
    q = survival_probability(GaussianAmplitude(1.0, 1.0), GaussianPeakResponse(0.9, 2.0))
    assert q == pytest.approx(0.728380071112967948, abs=1e-12)
    q_quad = quadrature_gram((GaussianAmplitude(1.0, 1.0),), GaussianPeakResponse(0.9, 2.0))[0, 0].real
    assert q_quad == pytest.approx(q, abs=1e-10)


def test_survival_probability_flat_channel():
    amp = GaussianAmplitude(4.2, 1.3)
    assert survival_probability(amp, FlatResponse(0.8)) == pytest.approx(0.64, abs=1e-12)
    assert survival_probability(amp, FlatResponse(0.0)) == 0.0


FLAT_TABLE = TabulatedResponse([-8.0, 8.0], [1.0, 1.0])


@pytest.mark.parametrize("width", [0.05, 0.01, 0.001])
def test_narrow_letter_under_a_flat_tabulated_channel_survives(width):
    # Narrower letters fall between all the nodes of the panel they sit in;
    # the breakpoints seeded at each letter's centre and tails find them.
    assert survival_probability(GaussianAmplitude(3.0, width), FLAT_TABLE) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("center", [1.0, -3.0, 100.0, 1e4, -7e5, 1e8])
def test_quadrature_refuses_a_letter_narrower_than_its_centre_resolves(center):
    # Nodes near c are rounded by up to eps |c| / 2, a relative change of
    # about eps |c| / (2 w) in a Gaussian of width w; it stays within
    # 1e-10 down to w = 1.11e-6 |c|, and narrower letters raise.
    response = TabulatedResponse([-2.0 * abs(center) - 8.0, 2.0 * abs(center) + 8.0], [0.9, 0.9])
    for ratio in (1e-3, 1e-5, 3e-6, 1.5e-6, 1.2e-6, 1.12e-6):
        letter = GaussianAmplitude(center, ratio * abs(center))
        assert quadrature_gram((letter,), response)[0, 0] == pytest.approx(0.81, rel=1e-10)
    for ratio in (1.1e-6, 1e-6, 3e-7, 1e-7, 1e-12, 1e-20):
        letter = GaussianAmplitude(center, ratio * abs(center))
        message = re.escape(f"letter centred at {center!r} with width {letter.width!r} is narrower than quadrature")
        with pytest.raises(ValidationError, match=message):
            quadrature_gram((GaussianAmplitude(0.0, 1.0), letter), response)
        with pytest.raises(ValidationError, match=message):
            survival_probability(letter, response)


def test_quadrature_refuses_breakpoints_whose_span_overflows():
    # Each factor spans a finite width; the merged grids, with or without a Gaussian factor's breakpoints, do not.
    left = TabulatedAmplitude([-1e308, -9e307], [1.0, 1.0])
    right = TabulatedResponse([9e307, 1e308], [1.0, 1.0])
    for letters in ((left,), (left, GaussianAmplitude(0.0, 1.0))):
        with pytest.raises(ValidationError, match="span more than the largest float"):
            quadrature_gram(letters, right)
    assert quadrature_gram((left,), FlatResponse(1.0))[0, 0] == pytest.approx(1.0, rel=1e-15)
    # Breakpoints near the float limits that span less than it: the segment midpoints do not overflow.
    wide = TabulatedResponse([-1e307, 1e307], [1.0, 1.0])
    assert quadrature_gram((GaussianAmplitude(0.0, 1.0),), wide)[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert quadrature_gram((GaussianAmplitude(0.0, 1.0),), right)[0, 0] == 0.0
    far = TabulatedAmplitude(right.grid, [1.0, 1.0])
    gram = quadrature_gram((GaussianAmplitude(0.0, 1.0), far), FlatResponse(1.0))
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-15


def test_quadrature_resolves_a_letter_at_zero_of_any_width():
    for width in (1e-3, 1e-12, 1e-30, 1e-60):
        assert survival_probability(GaussianAmplitude(0.0, width), FLAT_TABLE) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("shift", [-17.0, -3.5, 0.0, 2.25, 40.0])
def test_quadrature_of_a_normalized_letter_is_translation_invariant(shift):
    flat = TabulatedResponse([shift - 50.0, shift + 50.0], [1.0, 1.0])
    assert quadrature_gram((GaussianAmplitude(shift, 1.0),), flat)[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_quadrature_of_a_complex_letter_against_a_gaussian_one():
    # A tabulated letter linear on [-12, 12], ten widths past the Gaussian on either side:
    # its overlap is the Gaussian's whole-line moments M0 and c M0 of the linear function.
    u, v, g0, g1 = 0.3 - 0.8j, -0.5 + 0.2j, -12.0, 12.0
    norm_sq = (g1 - g0) * (abs(u) ** 2 + (u.conjugate() * (v - u)).real + abs(v - u) ** 2 / 3.0)
    beta = (v - u) / (g1 - g0)
    letter = GaussianAmplitude(1.5, 0.8)
    m0 = PEAK_VALUE / math.sqrt(letter.width) * 2.0 * letter.width * math.sqrt(math.pi)
    expected = (u + beta * (letter.center - g0)) * m0 / math.sqrt(norm_sq)
    for response in (FlatResponse(1.0), TabulatedResponse([-30.0, 30.0], [1.0, 1.0])):
        gram = quadrature_gram((letter, TabulatedAmplitude([g0, g1], [u, v])), response)
        assert gram[0, 1] == pytest.approx(expected, abs=1e-14)
        assert np.array_equal(gram, gram.conj().T) and np.all(gram.diagonal().imag == 0.0)
        assert gram.diagonal().real == pytest.approx([1.0, 1.0], abs=1e-14)


def test_quadrature_of_an_odd_letter_against_an_even_one_vanishes():
    odd = TabulatedAmplitude([-20.0, 20.0], [-1.0, 1.0])
    gram = quadrature_gram((GaussianAmplitude(0.0, 1.0), odd), GaussianPeakResponse(0.8, 2.0))
    assert abs(gram[0, 1]) <= 1e-15


def test_quadrature_is_linear_in_a_tabulated_letter():
    # The combined letter is renormalized at construction by the factor its first sample shows.
    grid = np.linspace(-6.0, 6.0, 25)
    f = TabulatedAmplitude(grid, np.exp(-(grid**2) / 4.0))
    g = TabulatedAmplitude(grid, np.cos(grid) * np.exp(-(grid**2) / 2.0 + 0.5j * grid))
    raw = 2.5 * f.values - 1.25 * g.values
    combined = TabulatedAmplitude(grid, raw)
    gram = quadrature_gram((GaussianAmplitude(0.5, 0.7), f, g, combined), GaussianPeakResponse(0.9, 2.0))
    scale = raw[0] / combined.values[0]
    assert gram[0, 3] * scale == pytest.approx(2.5 * gram[0, 1] - 1.25 * gram[0, 2], abs=1e-14)


def test_quadrature_of_two_gaussian_letters_two_widths_apart():
    # Unit-width normalized amplitudes two units apart overlap by exp(-1/2).
    flat = TabulatedResponse([-30.0, 30.0], [1.0, 1.0])
    gram = quadrature_gram((GaussianAmplitude(-1.0, 1.0), GaussianAmplitude(1.0, 1.0)), flat)
    assert gram[0, 1] == pytest.approx(0.606530659712633424, abs=1e-14)
    assert gram.diagonal().real == pytest.approx([1.0, 1.0], abs=1e-14)


@pytest.mark.parametrize("width", [0.05, 1.0, 3.0])
def test_quadrature_of_a_constant_letter_through_a_gaussian_channel(width):
    # eta^2 = p exp(-omega^2 / (2 width^2)) integrates to p width sqrt(2 pi); the
    # letter is 1 / sqrt(80) on [-40, 40], past ten widths of every channel here.
    letter = TabulatedAmplitude([-40.0, 40.0], [1.0, 1.0])
    gram = quadrature_gram((letter,), GaussianPeakResponse(0.8, width))
    assert gram[0, 0].real == pytest.approx(0.8 * width * math.sqrt(2.0 * math.pi) / 80.0, rel=1e-14)
    assert gram[0, 0].imag == 0.0


KINKED_GRID = np.linspace(-10.0, 10.0, 81) + 0.3  # a kink at 0.3, on a grid point


@pytest.mark.parametrize(
    "response",
    [TabulatedResponse([-12.0, 0.0, 12.0], [0.2, 1.0, 0.6]), GaussianPeakResponse(0.9, 2.0), FlatResponse(0.7)],
    ids=["tabulated", "gaussian", "flat"],
)
def test_mixed_quadrature_is_exactly_hermitian(response):
    kinked = TabulatedAmplitude(
        KINKED_GRID, np.abs(KINKED_GRID - 0.3) * np.exp(-(KINKED_GRID**2) / 8.0 + 0.7j * KINKED_GRID)
    )
    letters = (GaussianAmplitude(0.2, 0.4), kinked, GaussianAmplitude(-1.0, 2.0), TabulatedAmplitude([-1.0, 2.0], [1.0, 0.5j]))
    gram = quadrature_gram(letters, response)
    assert np.array_equal(gram, gram.conj().T)
    assert np.all(gram.diagonal().imag == 0.0) and np.all(gram.diagonal().real > 0.0)


def test_quadrature_over_two_halves_adds_up_to_the_whole():
    # A letter linear on [-10, 0.3] and on [0.3, 10] is the sum of one on each half:
    # its overlap with a Gaussian letter is the sum of theirs, once each is unnormalized.
    a, b, c = 0.4 + 0.2j, 1.0 - 0.5j, -0.3 + 0.8j
    halves = (TabulatedAmplitude([-10.0, 0.3], [a, b]), TabulatedAmplitude([0.3, 10.0], [b, c]))
    whole = TabulatedAmplitude([-10.0, 0.3, 10.0], [a, b, c])
    gram = quadrature_gram((GaussianAmplitude(0.5, 0.7), *halves, whole), GaussianPeakResponse(0.9, 3.0))
    left, right, both = (gram[0, k] * raw / letter.values[0] for k, raw, letter in zip((1, 2, 3), (a, b, a), (*halves, whole)))
    assert both == pytest.approx(left + right, abs=1e-14)


def test_mixed_input_is_sampled_once_at_ten_nodes_per_segment(monkeypatch):
    # The segments lie between the channel's grid points and c + k w, k = -10 ... 10, of every letter.
    rng = np.random.default_rng(3)
    grid = np.cumsum(rng.uniform(0.1, 1.0, 41)) - 12.0
    channel = TabulatedResponse(grid, rng.uniform(0.0, 1.0, grid.size))
    letters = [GaussianAmplitude(-2.0, 0.3), GaussianAmplitude(1.0, 1.5), GaussianAmplitude(4.0, 0.05)]
    edges = np.unique(np.concatenate([grid, *(a.center + a.width * np.arange(-10.0, 11.0) for a in letters)]))
    sampled = []
    value = TabulatedResponse.value

    def counted(self, omega):
        sampled.append(omega.size)
        return value(self, omega)

    monkeypatch.setattr(TabulatedResponse, "value", counted)
    quadrature_gram(letters, channel)
    assert sampled == [10 * (edges.size - 1)]


def test_narrow_letter_off_centre_of_a_wide_passband_matches_the_closed_form():
    letter = GaussianAmplitude(-4.76, 0.079)
    response = GaussianPeakResponse(0.97, 4.0)
    analytic = modulated_overlap(letter, letter, response)
    assert analytic.real == pytest.approx(0.478, abs=1e-3)
    assert quadrature_gram((letter,), response)[0, 0] == pytest.approx(analytic, abs=1e-12)


def test_make_gaussian_basis_symmetric_pair():
    basis = make_gaussian_basis(2, 4.0, 1.0, "symmetric")
    assert [amp.center for amp in basis] == [-2.0, 2.0]


def test_make_gaussian_basis_single_letter():
    assert [amp.center for amp in make_gaussian_basis(1, 3.0, 1.0, "symmetric")] == [0.0]
    assert [amp.center for amp in make_gaussian_basis(1, 3.0, 1.0, "zero-start")] == [0.0]


def test_make_gaussian_basis_zero_start():
    basis = make_gaussian_basis(5, 1.0, 1.0, "zero-start")
    assert [amp.center for amp in basis] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_a_symmetric_comb_out_to_the_largest_float_is_finite():
    # Each centre is one product, spacing (j - (n - 1) / 2), so no partial
    # sum overflows on the way to an end at 1e308.
    assert gaussian_comb(3, 1e308, 1.0)[0].tolist() == [-1e308, 0.0, 1e308]
    with pytest.raises(ValidationError, match="^amplitude center must be finite$"):
        gaussian_comb(5, 1e308, 1.0)


@pytest.mark.parametrize("centering", ["symmetric", "zero-start"])
def test_a_comb_may_have_at_most_max_letters(monkeypatch, centering):
    # Past the cap nothing is built: np.arange is never asked for the comb.
    center, width = gaussian_comb(MAX_LETTERS, 0.5, 1.0, centering)
    assert center.shape == width.shape == (MAX_LETTERS,)
    arange = np.arange

    def guarded(n, *args, **kwargs):
        assert n <= MAX_LETTERS, f"arange({n})"
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    for n in (MAX_LETTERS + 1, 10**18):
        with pytest.raises(ValidationError, match=f"^letter count {n} is more than {MAX_LETTERS}, the most a comb may have$"):
            gaussian_comb(n, 0.5, 1.0, centering)
    # The other arguments are checked first, with their own messages.
    with pytest.raises(ValidationError, match="^letter spacing must be non-negative$"):
        gaussian_comb(10**18, float("nan"), 1.0, centering)


@pytest.mark.parametrize(
    "n,spacing,width,centering",
    [(0, 1.0, 1.0, "symmetric"), (3, -1.0, 1.0, "symmetric"), (3, 1.0, 0.0, "symmetric"), (3, 1.0, 1.0, "diagonal")],
)
def test_make_gaussian_basis_validation(n, spacing, width, centering):
    with pytest.raises(ValidationError):
        make_gaussian_basis(n, spacing, width, centering)


def test_make_gaussian_basis_names_a_nan_spacing():
    with pytest.raises(ValidationError, match="^letter spacing must be non-negative$"):
        make_gaussian_basis(3, math.nan, 1.0)


def test_tabulated_amplitude_file_roundtrip(tmp_path):
    path = tmp_path / "amp.csv"
    path.write_text(
        "# omega, re, im\n"
        "-2.0, 0.1, 0.0\n"
        "-1.0, 0.5, 0.25\n"
        " 0.0, 1.0, 0.0\n"
        " 1.0, 0.5, -0.25\n"
        " 2.0, 0.1, 0.0\n",
        encoding="utf-8",
    )
    amp = load_tabulated_amplitude(path)
    assert survival_probability(amp, FlatResponse(1.0)) == pytest.approx(1.0, abs=1e-8)


def test_tabulated_response_file_roundtrip(tmp_path):
    path = tmp_path / "channel.csv"
    path.write_text("-5,0.2\n0,1.0\n5,0.2\n", encoding="utf-8")
    response = load_tabulated_response(path)
    assert response.value(0.0) == 1.0
    assert response.value(10.0) == 0.0


def test_tabulated_file_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0\n1,oops,0\n2,1,0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"bad\.csv:2"):
        load_tabulated_amplitude(path)


def test_tabulated_file_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"bad\.csv:1"):
        load_tabulated_amplitude(path)


def test_tabulated_file_non_ascending_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0\n0,1,0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="ascending"):
        load_tabulated_amplitude(path)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("0,1,0\r\n1,oops,0\r\n2,1,0\r\n", 2),
        ("0,1,0\r1,oops,0\r2,1,0\r", 2),
        ("# omega,re,im\n\n   # indented\n0,1,0\n \t \n1,oops,0\n", 6),
        ("0,1\x0c,0\n1,oops,0\n", 2),
        ("0,1,0\n\x0c\n1,oops,0\n", 3),
        ("0,1,0\n1,oops,0\n2,1\n", 2),
        ("0,1,0\n1,1\n2,oops,0\n", 2),
        ("0,1,0\n1,,0\n", 2),
        ("0,1\n1,1,0,0\n2,1,0\n", 1),
        ("\n \n0,1,0\n1,oops,0\n", 4),
    ],
    ids=["crlf", "cr", "comments-and-blanks", "formfeed-in-line", "formfeed-line", "number-before-columns",
         "columns-before-number", "empty-field", "column-counts-that-add-up", "leading-blanks"],
)
def test_tabulated_file_error_names_the_first_bad_line(tmp_path, text, lineno):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValidationError, match=rf"bad\.csv:{lineno}: "):
        load_tabulated_amplitude(path)


@pytest.mark.parametrize(
    "text",
    [
        "-0.5,0.25\n1e3,1\n",
        "-0.5,0.25\r\n1e3,1\r\n",
        "# omega,eta\n\n  # indented comment\n -0.5 , 0.25 \n\t\n1e3,\x0c1\n# end",
        "-0.5,\x1c0.25\n1_000,1",
    ],
    ids=["plain", "crlf", "comments-blanks-padding", "float-syntax"],
)
def test_tabulated_file_accepted_syntax(tmp_path, text):
    path = tmp_path / "channel.csv"
    path.write_bytes(text.encode("utf-8"))
    response = load_tabulated_response(path)
    assert response.grid.tolist() == [-0.5, 1000.0]
    assert response.values.tolist() == [0.25, 1.0]


@pytest.mark.parametrize("text", ["", "\n\n", "# omega,eta\n", "0,1\n", "# a\n0,1\n\n# b\n"])
def test_tabulated_file_needs_two_data_rows(tmp_path, text):
    path = tmp_path / "short.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=r"short\.csv: needs at least 2 data rows"):
        load_tabulated_response(path)


@pytest.mark.parametrize(
    "loader,text",
    [
        (load_tabulated_amplitude, "0,1,0\n1,nan,0\n2,1,0\n"),
        (load_tabulated_amplitude, "0,1,0\n1,1,-inf\n2,1,0\n"),
        (load_tabulated_response, "0,0.5\ninf,0.5\n"),
        (load_tabulated_response, "0,0.5\n1,NaN\n"),
    ],
)
def test_tabulated_file_non_finite_value_is_rejected_with_path(tmp_path, loader, text):
    path = tmp_path / "nonfinite.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match=r"nonfinite\.csv: .*finite"):
        loader(path)


def test_a_gaussian_letter_at_the_top_of_its_width_range_has_its_peak_value():
    # 2 pi w^2 overflows at w = 6e153, which once made the norm, and every sample, exactly 0.
    width = 6e153
    expected = (2.0 * math.pi) ** -0.25 / math.sqrt(width)
    assert GaussianAmplitude(0.0, width).value(0.0) == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert GaussianAmplitude(1e150, width).value(1e150 + 2.0 * width) == pytest.approx(expected * math.exp(-1.0), rel=1e-15, abs=0.0)


def test_gaussian_factors_are_sampled_without_overflow_at_any_accepted_width():
    # pytest turns numpy's overflow RuntimeWarning into an error.
    wide = GaussianPeakResponse(1.0, 1.3e154)
    assert wide.value(np.array([0.0, 2.6e154])).tolist() == pytest.approx([1.0, math.exp(-1.0)], rel=1e-15)
    scaled = 1.3e155 / (2.0 * 1.3e154)  # 5, to rounding
    assert GaussianAmplitude(0.0, 1.3e154).value(1.3e155) == pytest.approx(
        (2.0 * math.pi) ** -0.25 / math.sqrt(1.3e154) * math.exp(-scaled * scaled), rel=1e-15, abs=0.0
    )


def test_quadrature_samples_a_narrow_letter_far_from_its_centre_as_zero_without_a_warning():
    # The window reaches 1e101 from a letter of width 1e-70: its scaled square
    # passes the largest float there, and pytest turns the overflow warning into an error.
    narrow, wide = GaussianAmplitude(0.0, 1e-70), GaussianAmplitude(0.0, 1e100)
    with np.errstate(over="ignore"):
        assert narrow.value(np.array([1e101, -1e300])).tolist() == [0.0, 0.0]
        assert GaussianPeakResponse(1.0, 1.0).value(1e200) == 0.0
    gram = quadrature_gram([narrow, wide], FlatResponse(1.0))
    overlap = math.sqrt(2.0 * 1e-70 * 1e100 / (1e-140 + 1e200))
    assert gram.diagonal().real.tolist() == pytest.approx([1.0, 1.0], rel=1e-10)
    assert gram[0, 1].real == pytest.approx(overlap, rel=1e-10)
