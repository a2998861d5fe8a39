"""Invariants checked over random inputs drawn by hypothesis.

The exact reference for tabulated inputs is computed here, without
speccap's numerics: linearly interpolated letters and channel make the
integrand a degree-4 polynomial on every grid segment, which a 3-point
Gauss-Legendre rule integrates exactly.  speccap builds all-tabulated Gram
matrices by that rule too, so they are also checked against speccap's
10-point Gauss-Legendre rule, a different rule that is exact there too.
Gaussian letters are checked against closed forms: through flat and
Gaussian channels, and through a linear tabulated one
(``oracles.linear_channel_gram``).
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import linear_channel_gram
from speccap.capacity import (
    _entropy_bits,
    _letter_divergences,
    _plog2p,
    binary_entropy,
    erasure_bounds,
    holevo_bound,
)
from speccap.channel import (
    EncodingEnsemble,
    GramData,
    MirrorGramData,
    comb_gram_data,
    compute_gram,
    is_mirror_comb,
    output_spectrum,
)
from speccap.errors import ValidationError
from speccap.numerics import mirror_halves, upper_triangle
from speccap.spectral import (
    TRUNCATION_SIGMAS,
    FlatResponse,
    GaussianAmplitude,
    GaussianPeakResponse,
    TabulatedAmplitude,
    TabulatedResponse,
    _gauss_rule,
    _parse_lines,
    _parse_table,
    comb_grams,
    comb_overlaps,
    gaussian_comb,
    gram_matrix,
    make_gaussian_basis,
    quadrature_gram,
)

gaussian_letter = st.builds(GaussianAmplitude, st.floats(-5.0, 5.0), st.floats(0.3, 3.0))
gaussian_letters = st.lists(gaussian_letter, min_size=1, max_size=6)
closed_form_channels = st.one_of(
    st.builds(FlatResponse, st.floats(0.1, 1.0)),
    st.builds(GaussianPeakResponse, st.floats(0.1, 1.0), st.floats(0.5, 5.0)),
)


# Widths log-uniform down to 0.005: narrow letters fall between all the
# nodes of a wide panel unless breakpoints are seeded at them.
narrow_gaussian_letters = st.lists(
    st.builds(GaussianAmplitude, st.floats(-5.0, 5.0), st.floats(math.log(0.005), math.log(3.0)).map(math.exp)),
    min_size=1,
    max_size=6,
)
# (channel for quadrature, closed-form channel with the same overlaps).  The
# two-point tabulated channel is flat far past every letter's tails.
quadrature_channels = st.one_of(
    closed_form_channels.map(lambda response: (response, response)),
    st.floats(0.1, 1.0).map(lambda t: (TabulatedResponse([-50.0, 50.0], [t, t]), FlatResponse(t))),
)


def stable_gaussian_gram(letters, response):
    """Closed-form Gram matrix of Gaussian letters through a flat or Gaussian-peak channel.

    The same completing-the-square form as the package's, but with the
    exponent ``B^2/A - D`` written as ``-(a b (c_a - c_b)^2 + k (a c_a^2 +
    b c_b^2)) / A``, a sum of non-negative terms: for a narrow letter far
    from 0, ``B^2/A`` and ``D`` are large and nearly equal, and their
    difference loses up to about 1e-10 relative.
    """
    centers = np.array([letter.center for letter in letters])
    widths = np.array([letter.width for letter in letters])
    a = 0.25 / widths**2
    if isinstance(response, FlatResponse):
        power, k = response.transmission**2, 0.0
    else:
        power, k = response.peak_probability, 0.5 / response.width**2
    quad = a[:, None] + a + k
    spread = np.outer(a, a) * np.subtract.outer(centers, centers) ** 2
    offset = k * np.add.outer(a * centers**2, a * centers**2)
    exponent = (spread + offset) / quad
    norm = (2.0 * math.pi) ** -0.5 / np.sqrt(np.outer(widths, widths))
    return power * norm * np.sqrt(math.pi / quad) * np.exp(-exponent)


@st.composite
def gaussian_ensembles(draw):
    """Random Gaussian letters with random priors."""
    letters = draw(gaussian_letters)
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(letters), max_size=len(letters))))
    return EncodingEnsemble(letters, raw / raw.sum())


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


# quadrature_gram's a-priori bound for Gaussian letters through a channel with
# eta <= 1: 3e-14 from the 10-point rule, 1e-11 sqrt(w_i / w_j) from the tails
# past ten widths, and eps |c| / (2 w), 1.1e-13 here, from rounded nodes.
QUADRATURE_BOUND = 1e-11


@given(gaussian_letters, closed_form_channels)
def test_quadrature_matches_the_gaussian_closed_form(letters, response):
    closed = compute_gram(EncodingEnsemble.uniform(letters), response).gram
    assert np.max(np.abs(quadrature_gram(letters, response) - closed)) <= QUADRATURE_BOUND
    pair = quadrature_gram((letters[0], letters[-1]), response)[0, -1]
    assert abs(pair - closed[0, -1]) <= QUADRATURE_BOUND


# Twice the profile's examples: with 50, none puts a letter narrow enough
# between a wide segment's nodes for a rule without breakpoints at every width to miss.
@settings(max_examples=100)
@given(narrow_gaussian_letters, quadrature_channels)
def test_quadrature_matches_the_closed_form_for_narrow_letters(letters, channels):
    response, closed_form = channels
    closed = stable_gaussian_gram(letters, closed_form)
    assert np.max(np.abs(quadrature_gram(letters, response) - closed)) <= QUADRATURE_BOUND
    pair = quadrature_gram((letters[0], letters[-1]), response)[0, -1]
    assert abs(pair - closed[0, -1]) <= QUADRATURE_BOUND


@st.composite
def linear_channels(draw, letters):
    """A two-point ``TabulatedResponse`` whose grid reaches ten widths, and up to 20 more, past every letter."""
    lo = min(letter.center - TRUNCATION_SIGMAS * letter.width for letter in letters)
    hi = max(letter.center + TRUNCATION_SIGMAS * letter.width for letter in letters)
    margins = st.floats(0.0, 20.0)
    return TabulatedResponse([lo - draw(margins), hi + draw(margins)], [draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])


@given(narrow_gaussian_letters.flatmap(lambda letters: st.tuples(st.just(letters), linear_channels(letters))))
def test_quadrature_matches_the_linear_channel_oracle(inputs):
    # The quadratic eta^2 of a tabulated channel, against a closed form with no quadrature.
    letters, response = inputs
    assert np.max(np.abs(quadrature_gram(letters, response) - linear_channel_gram(letters, response))) <= QUADRATURE_BOUND


@given(narrow_gaussian_letters, closed_form_channels)
def test_closed_form_gram_matches_the_stable_form_for_narrow_letters(letters, response):
    entries = compute_gram(EncodingEnsemble.uniform(letters), response).gram
    reference = stable_gaussian_gram(letters, response)
    assert np.all(np.abs(entries - reference) <= 1e-13 * np.abs(reference))


# Combs as a sweep builds them, with spacings from 0 past the 1e154 where
# the centre gap's square overflows, and widths over four decades; or those
# combs' centres with a width drawn for each letter, which no sweep builds and
# comb_overlaps takes pair by pair instead of once per comb.
comb_widths = st.floats(math.log(0.01), math.log(100.0)).map(math.exp)


@st.composite
def gaussian_combs(draw):
    letters = draw(
        st.builds(
            make_gaussian_basis,
            st.integers(1, 8),
            st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(1e150, 1e300)),
            comb_widths,
            st.sampled_from(["symmetric", "zero-start"]),
        )
    )
    if draw(st.booleans()):
        widths = draw(st.lists(comb_widths, min_size=len(letters), max_size=len(letters)))
        letters = [GaussianAmplitude(letter.center, width) for letter, width in zip(letters, widths)]
    return letters


def letter_arrays(letters):
    """The ``(center, width)`` arrays of Gaussian ``letters``, as :func:`comb_grams` takes them."""
    return np.array([(letter.center, letter.width) for letter in letters]).T


@given(gaussian_combs(), st.lists(closed_form_channels, min_size=1, max_size=5))
def test_a_closed_form_stack_holds_each_channel_s_gram_matrix(letters, responses):
    # numpy's exp and libm's round up to 1 ulp apart; a subnormal entry is
    # compared on the scale of the smallest normal float.
    stack = comb_grams(letter_arrays(letters), responses)
    assert stack.shape == (len(responses), len(letters), len(letters))
    for entries, response in zip(stack, responses):
        reference = gram_matrix(letters, response)
        scale = np.maximum(np.abs(reference), np.finfo(float).smallest_normal)
        assert np.all(np.abs(entries - reference) <= 1e-15 * scale)
        assert np.all(entries[reference == 0] == 0)
        assert np.all(entries == entries.conj().T) and np.all(entries.diagonal().imag == 0)


# Every comb size of the README sweeps and below; spacings from 0 through a
# subnormal, past the 1e154 where a c^2 overflows and to 1e308, where only the
# last centre may overflow, then NaN, inf and a negative one; and widths near
# both ends of the closed form's range (about 4.3e-78 and 1.34e154), inside
# and outside it.
comb_arguments = st.tuples(
    st.integers(1, 64),
    st.one_of(st.sampled_from([0.0, 5e-324, 1e300, 1e308, math.nan, math.inf, -1.0]), st.floats(0.0, 10.0)),
    st.one_of(st.floats(1e-78, 1e-77), st.floats(1e153, 1e155), st.floats(0.1, 10.0)),
    st.sampled_from(["symmetric", "zero-start"]),
)


def bits(array):
    return array.dtype, array.shape, array.tobytes()


def letter_by_letter(n, spacing, width, centering):
    """The comb as N letters, each centred in Python floats and checked on its own (for the arguments drawn here)."""
    if not spacing >= 0:
        raise ValidationError("letter spacing must be non-negative")
    shift = 0.0 if centering == "zero-start" else (n - 1) / 2
    return [GaussianAmplitude(spacing * (j - shift), width) for j in range(n)]


@given(comb_arguments, st.lists(closed_form_channels, min_size=1, max_size=3))
@example((2, 1e308, 1.0, "zero-start"), [FlatResponse(1.0)])  # only the last centre is inf
@example((3, 1e308, 1.0, "symmetric"), [FlatResponse(1.0)])  # finite: -1e308, 0, 1e308
def test_a_comb_s_arrays_are_its_letters_fields_bit_for_bit(arguments, responses):
    # The comb path checks only the first and last letter; it must give the
    # same centres and widths, and the same closed-form stack, as N letters
    # built one by one, or the same first error.
    try:
        letters = letter_by_letter(*arguments)
    except ValidationError as exc:
        for build in (gaussian_comb, make_gaussian_basis):
            with pytest.raises(ValidationError) as error:
                build(*arguments)
            assert str(error.value) == str(exc)
        return
    comb = gaussian_comb(*arguments)
    assert [bits(array) for array in comb] == [bits(array) for array in letter_arrays(letters)]
    assert make_gaussian_basis(*arguments) == letters
    assert bits(comb_grams(comb, responses)) == bits(comb_grams(letter_arrays(letters), responses))


@given(
    comb_arguments,
    st.floats(-1e308, 1e308),
    st.one_of(st.floats(1e-78, 1e-77), st.floats(1e153, 1e155), st.floats(0.1, 10.0)),
    st.lists(closed_form_channels, min_size=1, max_size=3),
)
@example((32, 0.5, 1.0, "symmetric"), 0.0, 2.0, [FlatResponse(1.0), GaussianPeakResponse(0.8, 1.5)])
def test_a_letter_of_another_width_leaves_the_comb_s_overlaps_bit_for_bit(arguments, center, width, responses):
    # A comb of one width has its width terms computed once per comb and response; one letter of
    # another width appended makes comb_overlaps compute them for each pair.  Every pair of the
    # comb's own letters must keep its value, byte for byte.
    try:
        comb = gaussian_comb(*arguments)
    except ValidationError:
        return
    assume(width != comb[1][0])
    longer = tuple(np.append(array, value) for array, value in zip(comb, (center, width)))
    pairs = upper_triangle(comb[0].size)
    assert bits(comb_overlaps(longer, responses, pairs)) == bits(comb_overlaps(comb, responses, pairs))


# Spacings as a sweep grid in steps of 0.1 makes them, most not binary
# fractions, and the smallest subnormal and largest floats.
grid_spacings = st.one_of(st.integers(0, 100).map(lambda k: k * 0.1), st.sampled_from([5e-324, 1e300, 1e308]))


@given(st.integers(1, 256), grid_spacings)
@example(32, 0.30000000000000004)
def test_a_symmetric_comb_is_an_exact_mirror(n, spacing):
    # So its Gram matrices through an even channel are exactly
    # centrosymmetric and split into half-size eigenproblems.
    try:
        center = gaussian_comb(n, spacing, 1.0)[0]
    except ValidationError as exc:
        # Only where the end letters' centres, spacing (n - 1) / 2 from 0, overflow.
        assert str(exc) == "amplitude center must be finite" and math.isinf(spacing * ((n - 1) / 2))
        return
    assert np.array_equal(center, -center[::-1])


# A sweep block's channels: flat ones, transmission 0 among them, and Gaussian peaks, peak probability 0 and -0.0 among them.
sweep_block_channels = st.lists(
    st.one_of(
        st.builds(FlatResponse, st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        st.builds(
            GaussianPeakResponse, st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0)), st.floats(0.05, 50.0)
        ),
    ),
    min_size=1,
    max_size=16,
)


def _entropy_roundoff_bound(n, delta, arrival):
    """How far the bounds may move when each of ``n`` eigenvalues moves by at most ``delta``.

    With ``h(x) = -x log2 x``, ``|h(x) - h(y)| <= h(|x - y|)`` for ``|x - y| <= 1/2``, so the spectrum's
    entropy moves by at most ``n h(delta)``; its sum, which the post-selected bound scales by
    ``log2(arrival)``, by ``n delta``.  Every term of a bound is below 8 bits, so adding them up and
    clipping round by at most 4 ulps of 8, ``2^-48``.
    """
    entropy = -delta * np.log2(np.where(delta > 0.0, delta, 1.0))
    scale = np.abs(np.log2(np.where(arrival > 0.0, arrival, 1.0)))  # no photon arrives: both post-selected bounds are 0
    return n * (entropy + delta * scale) + 2.0**-48


@given(st.integers(1, 64), grid_spacings, st.floats(0.3, 3.0), sweep_block_channels)
@example(1, 0.0, 1.0, [FlatResponse(0.0), GaussianPeakResponse(-0.0, 1.0)])
@example(64, 1e300, 1.0, [GaussianPeakResponse(0.8, 2.0), FlatResponse(1.0)])
@example(33, 5e-324, 0.3, [GaussianPeakResponse(-0.0, 2.0), GaussianPeakResponse(0.0, 0.05)])
@example(7, 0.30000000000000004, 2.5, [FlatResponse(0.0), FlatResponse(1.0), GaussianPeakResponse(1.0, 3.5)])
def test_a_mirror_comb_s_distinct_entries_give_the_whole_matrices_bounds(n, spacing, width, responses):
    # The sweep's route for a mirror comb builds only the distinct Gram entries
    # and solves even and odd blocks formed from them.  Against the whole stack
    # through GramData, the per-letter statistics are the same byte for byte,
    # each eigenvalue within 1e-13 ||A||, and the bounds within what that moves
    # them by.  An eigensolver's error scales with the norm ||A||, the largest
    # eigenvalue, not with max|A|: at spacing 0 every letter is the same, and
    # ||A|| = N max|A|.  Below the smallest normal float, entries lose their
    # relative precision to underflow (a transmission of 1e-155 gives powers
    # near 1e-310), so that much more is allowed.  A member's bounds are those
    # of its response built alone, byte for byte.
    try:
        comb = gaussian_comb(n, spacing, width)
    except ValidationError:
        return  # the end letters' centres overflow
    stack, gram_data = comb_gram_data(comb, responses)
    mirror = gram_data(stack)
    dense = GramData(comb_grams(comb, responses), np.full(n, 1.0 / n))
    assert type(mirror) is MirrorGramData
    for name in ("priors", "survival", "loss", "mean_loss"):
        assert getattr(mirror, name).tobytes() == getattr(dense, name).tobytes(), name
    # At peak probability -0.0 the entries are -0.0, which the whole stack's mirror turns into 0.0 off the diagonal.
    rows, cols = mirror_halves(n)
    assert np.array_equal(mirror.weighted, dense.weighted[..., rows, cols])
    blocks, whole = holevo_bound(mirror), holevo_bound(dense)
    assert blocks.letter_entropies.tobytes() == whole.letter_entropies.tobytes()
    delta = 1e-13 * whole.spectrum[:, 0] + np.finfo(float).smallest_normal
    assert np.all(np.abs(blocks.spectrum - whole.spectrum) <= delta[:, None])
    tolerance = _entropy_roundoff_bound(n, delta, 1.0 - whole.mean_loss)
    for field in ("holevo_bits", "post_selected_bits"):
        assert np.all(np.abs(getattr(blocks, field) - getattr(whole, field)) <= tolerance), field
    for member, response in enumerate(responses):
        solo_stack, solo_data = comb_gram_data(comb, [response])
        alone = holevo_bound(solo_data(solo_stack[0]))
        for field in ("holevo_bits", "post_selected_bits", "mean_loss", "spectrum"):
            assert np.asarray(getattr(alone, field)).tobytes() == getattr(blocks, field)[member].tobytes(), field


# A sweep block's spacings: a grid's, 0 among them, and some near where a c^2 (about 1e154) and the end
# centres (1e308) overflow.
block_spacings = st.lists(st.one_of(grid_spacings, st.floats(1e153, 1e155)), min_size=2, max_size=5)


@given(
    st.integers(1, 64), block_spacings, st.sampled_from(["symmetric", "zero-start"]), st.floats(0.3, 3.0), sweep_block_channels
)
@example(5, [0.5, 0.0, 1.0, 1.5], "zero-start", 1.0, [FlatResponse(0.5), GaussianPeakResponse(1.0, 2.0)])
@example(64, [1.2e154, 0.0, 1e300, 1e308], "symmetric", 0.3, [GaussianPeakResponse(-0.0, 2.0), FlatResponse(0.0)])
@example(1, [0.0, 5e-324], "zero-start", 3.0, [FlatResponse(1.0), GaussianPeakResponse(0.8, 0.05)])
def test_a_block_of_combs_gives_each_point_what_it_gets_alone(n, spacings, centering, width, responses):
    # A sweep block stacks combs of one Gram route as (D, N) arrays against its channel values.  Each
    # comb's overlaps in the stack are those of its own call, and each point's bounds and spectrum
    # those of its comb through its response alone, byte for byte.  A zero-start comb at spacing 0
    # is a mirror and its others are not, so both routes are met.
    combs = []
    for spacing in spacings:
        try:
            combs.append(gaussian_comb(n, spacing, width, centering))
        except ValidationError:
            pass  # the end letters' centres overflow
    pairs = upper_triangle(n)
    for route in (True, False):
        group = [comb for comb in combs if is_mirror_comb(comb) == route]
        if not group:
            continue
        stacked = tuple(np.stack(arrays) for arrays in zip(*group))
        assert is_mirror_comb(stacked) == route
        overlaps = comb_overlaps(stacked, responses, pairs)
        assert overlaps.shape == (len(group), len(responses), pairs[0].size)
        stack, gram_data = comb_gram_data(stacked, responses)
        block = holevo_bound(gram_data(stack))
        for d, comb in enumerate(group):
            assert overlaps[d].tobytes() == comb_overlaps(comb, responses, pairs).tobytes()
            for b, response in enumerate(responses):
                solo_stack, solo_data = comb_gram_data(comb, [response])
                assert stack[d, b].tobytes() == solo_stack[0].tobytes()
                alone = holevo_bound(solo_data(solo_stack[0]))
                for field in ("holevo_bits", "post_selected_bits", "mean_loss", "spectrum"):
                    assert np.asarray(getattr(alone, field)).tobytes() == getattr(block, field)[d, b].tobytes(), field


@pytest.mark.parametrize("spacing", [0.0, 0.5, 1e200])
@pytest.mark.parametrize("n", [32, 128])
def test_a_closed_form_stack_at_sweep_sizes_holds_each_channel_s_gram_matrix(n, spacing):
    # The comb sizes a sweep builds, which the property above does not reach:
    # each member against the pair loop, and mirrored bit for bit.
    letters = make_gaussian_basis(n, spacing, 1.0)
    responses = [FlatResponse(1.0), FlatResponse(0.3), GaussianPeakResponse(0.8, 1.5), GaussianPeakResponse(1.0, 20.0)]
    stack = comb_grams(letter_arrays(letters), responses)
    assert stack.shape == (len(responses), n, n) and stack.dtype == np.float64
    bits = stack.view(np.uint64)
    assert np.array_equal(bits, bits.swapaxes(1, 2))
    for entries, response in zip(stack, responses):
        reference = gram_matrix(letters, response)
        scale = np.maximum(np.abs(reference), np.finfo(float).smallest_normal)
        assert np.all(np.abs(entries - reference) <= 1e-15 * scale)
        assert np.all(entries[reference == 0] == 0)


@given(tabulated_inputs())
def test_tabulated_gram_is_the_exact_segment_sum(inputs):
    grid, letters, response = inputs
    data = compute_gram(EncodingEnsemble.uniform(letters), response)
    exact = exact_tabulated_gram(grid, letters, response.values)
    assert np.max(np.abs(data.gram - exact)) <= 1e-12


@st.composite
def separately_gridded_inputs(draw):
    """1..4 complex letters and a flat or tabulated channel, each tabulated factor on a grid of its own."""

    def grid_and_samples():
        steps = draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=10))
        grid = draw(st.floats(-5.0, 0.0)) + np.concatenate([[0.0], np.cumsum(steps)])
        return grid, st.lists(st.floats(-1.0, 1.0), min_size=grid.size, max_size=grid.size)

    letters = []
    for _ in range(draw(st.integers(1, 4))):
        grid, samples = grid_and_samples()
        values = np.array(draw(samples)) + 1j * np.array(draw(samples))
        assume(np.max(np.abs(values)) > 1e-3)
        letters.append(TabulatedAmplitude(grid, values))
    if draw(st.booleans()):
        return letters, FlatResponse(draw(st.floats(0.0, 1.0)))
    grid, samples = grid_and_samples()
    return letters, TabulatedResponse(grid, np.abs(draw(samples)))


@given(separately_gridded_inputs())
def test_ten_point_rule_agrees_with_the_tabulated_gram(inputs):
    letters, response = inputs
    gram = compute_gram(EncodingEnsemble.uniform(letters), response).gram
    grids = [part.grid for part in (*letters, response) if hasattr(part, "grid")]
    nodes, weights = _gauss_rule(np.unique(np.concatenate(grids)))
    columns = np.stack([letter.value(nodes) for letter in letters], axis=-1)
    ten_point = (columns.conj().T * (weights * response.value(nodes) ** 2)) @ columns
    # Both rules are exact for the degree-4 integrand: they differ by roundoff.
    tolerance = np.maximum(1e-13 * np.abs(gram), 1e-14)
    assert np.all(np.abs(ten_point - gram) <= tolerance)


@given(tabulated_inputs(), st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_tabulated_reweight_matches_a_fresh_gram_and_conserves_probability(inputs, raw):
    _, letters, response = inputs
    priors = np.array(raw[: len(letters)]) / sum(raw[: len(letters)])
    shifted = GramData(compute_gram(EncodingEnsemble.uniform(letters), response).gram, priors)
    fresh = compute_gram(EncodingEnsemble(letters, priors), response)
    assert np.max(np.abs(shifted.weighted - fresh.weighted)) <= 1e-14
    assert shifted.mean_loss == pytest.approx(fresh.mean_loss, abs=1e-14)
    assert float(np.trace(shifted.weighted).real) == pytest.approx(1.0 - shifted.mean_loss, abs=1e-12)
    spectrum, mean_loss = output_spectrum(shifted)
    assert spectrum.sum() + mean_loss == pytest.approx(1.0, abs=1e-12)


@st.composite
def gram_stacks(draw):
    """1..16 Gram matrices of one set of random Gaussian or tabulated letters, each through its own channel.

    Returns the stack and random priors.
    """
    count = draw(st.integers(1, 16))
    if draw(st.booleans()):
        letters = draw(gaussian_letters)
        channels = draw(st.lists(closed_form_channels, min_size=count, max_size=count))
    else:
        grid, letters, _ = draw(tabulated_inputs())
        eta = st.lists(st.floats(0.0, 1.0), min_size=grid.size, max_size=grid.size)
        channels = [TabulatedResponse(grid, draw(eta)) for _ in range(count)]
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(letters), max_size=len(letters))))
    ensemble = EncodingEnsemble.uniform(letters)
    return np.stack([compute_gram(ensemble, channel).gram for channel in channels]), raw / raw.sum()


@given(gram_stacks())
def test_a_stack_of_gram_matrices_gives_each_the_bounds_of_its_own_solve(inputs):
    stack, priors = inputs
    report = holevo_bound(GramData(stack, priors))
    for k, gram in enumerate(stack):
        single = holevo_bound(GramData(gram, priors))
        for field in dataclasses.fields(single):
            assert np.array_equal(getattr(report, field.name)[k], getattr(single, field.name)), field.name
        assert all(type(bits) is float for bits in (single.holevo_bits, single.post_selected_bits, single.mean_loss))


@st.composite
def real_gram_stacks(draw):
    """The real closed-form stack of a random Gaussian comb through 1..16 flat or Gaussian-peak channels.

    Spacing 0, a rank-one comb, is drawn on its own.  Returns the stack and random priors.
    """
    n = draw(st.integers(1, 24))
    spacing = draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
    width, centering = draw(st.floats(0.3, 3.0)), draw(st.sampled_from(["symmetric", "zero-start"]))
    letters = make_gaussian_basis(n, spacing, width, centering)
    channels = draw(st.lists(closed_form_channels, min_size=1, max_size=16))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return comb_grams(letter_arrays(letters), channels), raw / raw.sum()


@given(real_gram_stacks())
def test_a_real_gram_stack_gives_the_bounds_of_its_complex_solve(inputs):
    stack, priors = inputs
    real, widened = GramData(stack, priors), GramData(stack.astype(complex), priors)
    assert real.gram.dtype == np.float64 and widened.gram.dtype == np.complex128
    assert np.array_equal(real.survival, widened.survival)
    report, widened_report = holevo_bound(real), holevo_bound(widened)
    assert np.array_equal(report.mean_loss, widened_report.mean_loss)
    for field in ("holevo_bits", "post_selected_bits"):
        assert np.max(np.abs(getattr(report, field) - getattr(widened_report, field))) <= 1e-12, field


@given(gaussian_ensembles(), closed_form_channels)
def test_gaussian_ensembles_conserve_probability_and_order_the_bounds(ensemble, response):
    report = holevo_bound(compute_gram(ensemble, response))
    assert report.spectrum.sum() + report.mean_loss == pytest.approx(1.0, abs=1e-12)
    # holevo - post_selected = h(mean loss) - sum p_i h(loss_i) is zero for
    # equal loss rates, so only rounding may put it below zero.
    assert 0.0 <= report.post_selected_bits <= report.holevo_bits + 1e-12
    assert report.holevo_bits <= math.log2(ensemble.n)


# Peak transmissions down to 1e-12, where the arrival probability is
# roundoff-sized, and opaque channels.
faint_channels = st.one_of(
    st.builds(FlatResponse, st.one_of(st.sampled_from([0.0, 1e-6, 1.0]), st.floats(0.0, 1.0))),
    st.builds(
        GaussianPeakResponse,
        st.one_of(st.sampled_from([0.0, 1e-12, 1e-6, 1.0]), st.floats(0.0, 1.0)),
        st.floats(0.5, 5.0),
    ),
)


@given(st.lists(gaussian_letter, min_size=1, max_size=8), faint_channels)
def test_post_selected_bits_are_the_arrival_weighted_entropy_of_the_renormalized_spectrum(letters, response):
    report = holevo_bound(compute_gram(EncodingEnsemble.uniform(letters), response))
    arrival = 1.0 - report.mean_loss
    if arrival <= 0.0:
        assert report.post_selected_bits == 0.0
        return
    renormalized = [x / arrival for x in report.spectrum]
    expected = arrival * -sum(x * math.log2(x) for x in renormalized if x > 0.0)
    assert report.post_selected_bits == pytest.approx(expected, abs=1e-12)


@given(gaussian_letters, st.floats(0.5, 5.0))
def test_an_opaque_channel_post_selects_exactly_zero_bits(letters, width):
    for response in (FlatResponse(0.0), GaussianPeakResponse(0.0, width)):
        report = holevo_bound(compute_gram(EncodingEnsemble.uniform(letters), response))
        assert report.post_selected_bits == 0.0
        assert math.copysign(1.0, report.post_selected_bits) == 1.0


@given(
    st.integers(1, 16),
    st.floats(0.0, 6.0),
    st.floats(0.3, 3.0),
    st.floats(0.3, 5.0),
    st.floats(0.0, 1.0),
    st.sampled_from(["symmetric", "zero-start"]),
)
def test_holevo_stays_below_the_erasure_bound(n, spacing, sigma_psi, sigma_eta, p_peak, centering):
    letters = make_gaussian_basis(n, spacing, sigma_psi, centering)
    report = holevo_bound(compute_gram(EncodingEnsemble.uniform(letters), GaussianPeakResponse(p_peak, sigma_eta)))
    assert report.holevo_bits <= erasure_bounds(sigma_psi, sigma_eta, p_peak, n).bound_bits + 1e-12


@st.composite
def letter_sets(draw):
    """Gaussian letters, tabulated letters on one random grid, or both, and that grid's tabulated channel."""
    _, tabulated, channel = draw(tabulated_inputs(max_letters=3))
    gaussian = draw(st.lists(gaussian_letter, min_size=1, max_size=3))
    return draw(st.sampled_from([gaussian, tabulated, gaussian + tabulated])), channel


@given(letter_sets(), closed_form_channels, st.booleans())
def test_a_channel_gram_lies_below_the_free_gram_in_loewner_order(inputs, closed_form, tabulated):
    # The lost part F - G = integral (1 - eta^2) conj(psi_i) psi_j is a Gram matrix too.
    letters, channel = inputs
    response = channel if tabulated else closed_form
    lost = gram_matrix(letters, FlatResponse(1.0)) - gram_matrix(letters, response)
    assert np.linalg.eigvalsh(lost).min() >= -1e-10


@given(letter_sets(), st.floats(0.0, 1.0), st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
def test_a_flat_channel_scales_the_holevo_bound_by_its_power_and_post_selects_it_whole(inputs, eta, raw):
    # A flat channel erases every letter alike: G = eta^2 F, and the loss
    # entropy h(1 - eta^2) is the same for every letter.
    letters, _ = inputs
    raw = np.array(raw[: len(letters)])
    ensemble = EncodingEnsemble(letters, raw / raw.sum())
    lossless = holevo_bound(compute_gram(ensemble, FlatResponse(1.0)))
    report = holevo_bound(compute_gram(ensemble, FlatResponse(eta)))
    assert report.holevo_bits == pytest.approx(eta * eta * lossless.holevo_bits, abs=1e-12)
    assert report.post_selected_bits == pytest.approx(report.holevo_bits, abs=1e-12)


# Up to 7 entries, which numpy sums in order as Python's sum does, so only
# log2 rounding separates the two.
probability_entries = st.lists(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.floats(0.0, 2.2250738585072014e-308)),
    max_size=7,
)


@given(probability_entries)
def test_entropy_bits_matches_the_scalar_sums_without_warnings(entries):
    x = np.array(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entropy = _entropy_bits(x)
        binary = _entropy_bits(np.stack([x, 1.0 - x], axis=-1))
    assert entropy == pytest.approx(-sum(_plog2p(v) for v in entries), abs=1e-15)
    assert binary.shape == x.shape
    assert np.all(np.abs(binary - [binary_entropy(v) for v in entries]) <= 1e-15)


def test_entropy_bits_of_certain_coins_is_zero():
    assert _entropy_bits(np.array([[0.0, 1.0], [1.0, 0.0]])).tolist() == [0.0, 0.0]


@st.composite
def gram_data_with_random_priors(draw):
    """Gram data of random Gaussian or tabulated letters, with random priors."""
    if draw(st.booleans()):
        return compute_gram(draw(gaussian_ensembles()), draw(closed_form_channels))
    _, letters, response = draw(tabulated_inputs())
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(letters), max_size=len(letters))))
    return GramData(compute_gram(EncodingEnsemble.uniform(letters), response).gram, raw / raw.sum())


def holevo_along(data, i, j, t):
    """The Holevo quantity at the priors moved by ``t`` along ``e_i - e_j``."""
    priors = data.priors.copy()
    priors[i] += t
    priors[j] -= t
    return holevo_bound(GramData(data.gram, priors)).holevo_bits


@given(gram_data_with_random_priors())
def test_letter_divergences_average_to_the_holevo_quantity_and_give_its_gradient(data):
    divergences = _letter_divergences(data.gram, data.loss, data.priors)
    assert data.priors @ divergences == pytest.approx(holevo_bound(data).holevo_bits, abs=1e-10)
    # The gradient in prior i is D_i - log2 e, so the derivative along
    # e_i - e_j is D_i - D_j.
    for i in range(data.n - 1):
        j = i + 1
        h = 1e-4 * min(data.priors[i], data.priors[j])
        slope = (holevo_along(data, i, j, h) - holevo_along(data, i, j, -h)) / (2.0 * h)
        assert divergences[i] - divergences[j] == pytest.approx(slope, abs=1e-6)


def test_a_zero_prior_on_a_duplicated_letter_gives_a_finite_divergence():
    letters = [GaussianAmplitude(c, w) for c, w in ((-1.0, 0.8), (0.5, 1.0), (2.0, 1.3))]
    response = GaussianPeakResponse(0.9, 1.5)
    priors = np.array([0.2, 0.3, 0.5])
    data = compute_gram(EncodingEnsemble(letters + letters[:1], np.append(priors, 0.0)), response)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        divergences = _letter_divergences(data.gram, data.loss, data.priors)
    assert np.all(np.isfinite(divergences))
    # The twin has the same output state, so the same divergence.
    assert divergences[3] == pytest.approx(divergences[0], abs=1e-10)
    chi = holevo_bound(compute_gram(EncodingEnsemble(letters, priors), response)).holevo_bits
    assert data.priors @ divergences == pytest.approx(chi, abs=1e-12)


# Tabulated files from a hostile alphabet: float syntax, separators, comment
# marks, whitespace that str.strip, float and numpy's parser each treat their
# own way (\x0c, \x1c, NBSP), underscores and Arabic-Indic digits, which only
# float accepts; blank and comment lines, and every line end.
_FIELD_TOKENS = [*"0123456789.eE+-_,#", "inf", "nan", " ", "\t", "\x0c", "\x1c", "\xa0", "١", "٧"]
_PADDING = st.sampled_from(["", " ", "\t", "\x0c", "\x1c", "\xa0"])
_numbers = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1_000", "١٢", "1e3", "-0.5", ".5", "5.", "1e999", "-inf", "NaN", "+nan", "Infinity"]),
)
_padded = st.tuples(_PADDING, _numbers, _PADDING).map("".join)
# Mostly numbers, so that a fair share of files parse whole.
_hostile = st.lists(st.sampled_from(_FIELD_TOKENS), max_size=6).map("".join)
_fields = st.one_of(_numbers, _numbers, _numbers, _numbers, _padded, _padded, _hostile)
_OTHER_LINES = ["", " ", "\t", "\x0c", "\x1c", "#", "# omega,eta", "  # 1,2", "\xa0#x"]


@st.composite
def table_files(draw):
    """``(columns, text)``: mostly rows of ``columns`` fields, so that whole files parse."""
    columns = draw(st.sampled_from([2, 3]))
    widths = st.one_of(st.just(columns), st.just(columns), st.just(columns), st.integers(1, 4))
    rows = widths.flatmap(lambda k: st.lists(_fields, min_size=k, max_size=k)).map(",".join)
    # "#" starts a comment only at the start of a line, so a row with a trailing one is bad.
    commented = st.tuples(rows, st.sampled_from(["#", " # eta"])).map("".join)
    lines = st.one_of(rows, rows, rows, commented, st.sampled_from(_OTHER_LINES))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return columns, draw(st.lists(st.tuples(lines, ends).map("".join), max_size=8).map("".join))


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "table.csv"


def _table_or_message(parse, path, columns):
    try:
        return parse(path, columns).tobytes()
    except ValidationError as exc:
        return str(exc)


def _line_by_line_table(path, columns):
    """The table as ``_parse_lines`` alone reads it, with ``_parse_table``'s row-count check."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle.read().split("\n")]
    values = _parse_lines(path, lines, columns)
    if len(values) < 2 * columns:
        raise ValidationError(f"{path}: needs at least 2 data rows")
    return np.array(values, dtype=float).reshape(-1, columns)


@settings(max_examples=200)
@given(table_files())
def test_table_parse_equals_the_line_by_line_parse(table_path, table):
    columns, text = table
    table_path.write_bytes(text.encode("utf-8"))
    assert _table_or_message(_parse_table, table_path, columns) == _table_or_message(
        _line_by_line_table, table_path, columns
    )
