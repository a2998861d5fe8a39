import math

import numpy as np
import pytest

from speccap import numerics, spectral
from speccap.errors import ComputationError, ConvergenceError, PsdViolationError, ValidationError
from speccap.numerics import (
    clamp_spectrum,
    hermitian_eigenvalues,
    weighted_gram,
)


def gaussian_pdf(omega):
    return np.exp(-0.5 * omega**2) / math.sqrt(2.0 * math.pi)


def window(center, width):
    sigmas = spectral.TRUNCATION_SIGMAS
    return [center - sigmas * width, center + sigmas * width]


def sampler(weight, *functions):
    """``sample`` for weighted_gram: the functions as columns, with one weight."""
    return lambda omega: (np.stack([f(omega) for f in functions], axis=-1), weight(omega))


def one(omega):
    return np.ones_like(omega)


def test_weighted_gram_of_a_normalized_gaussian_density():
    gram = weighted_gram(sampler(gaussian_pdf, one), window(0.0, 1.0))
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_weighted_gram_of_two_gaussian_amplitudes():
    # Two unit-width normalized Gaussian amplitudes two units apart.
    norm = (2.0 * math.pi) ** -0.25
    left = lambda w: norm * np.exp(-((w + 1.0) ** 2) / 4.0)  # noqa: E731
    right = lambda w: norm * np.exp(-((w - 1.0) ** 2) / 4.0)  # noqa: E731
    gram = weighted_gram(sampler(one, left, right), window(0.0, 1.0))
    assert gram[0, 1] == pytest.approx(0.606530659712633424, abs=1e-12)
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert gram[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_weighted_gram_of_an_odd_function_vanishes():
    gram = weighted_gram(sampler(lambda w: np.exp(-(w**2)), one, lambda w: w), window(0.0, 1.0))
    assert abs(gram[0, 1]) <= 1e-12


def test_weighted_gram_is_linear():
    f = gaussian_pdf
    g = lambda w: np.cos(w) * np.exp(-(w**2))  # noqa: E731
    combined = lambda w: 2.5 * f(w) - 1.25 * g(w)  # noqa: E731
    gram = weighted_gram(sampler(one, one, f, g, combined), window(0.0, 1.0))
    assert gram[:, 3] == pytest.approx(2.5 * gram[:, 1] - 1.25 * gram[:, 2], abs=1e-12)


@pytest.mark.parametrize("shift", [-17.0, -3.5, 0.0, 2.25, 40.0])
def test_weighted_gram_is_translation_invariant(shift):
    gram = weighted_gram(sampler(lambda w: gaussian_pdf(w - shift), one), window(shift, 1.0))
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_weighted_gram_handles_complex_integrands():
    gram = weighted_gram(sampler(gaussian_pdf, one, lambda w: np.exp(1j * w)), window(0.0, 1.0))
    # Characteristic function of a standard normal at t = 1.
    assert gram[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-10)
    assert abs(gram[0, 1].imag) <= 1e-12
    assert gram[1, 0] == np.conj(gram[0, 1])
    assert gram[1, 1] == pytest.approx(1.0, abs=1e-10)


def test_weighted_gram_rejects_bad_edges():
    sample = sampler(gaussian_pdf, one)
    for edges in ([0.0, 0.0], [1.0, 0.0], [0.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValidationError):
            weighted_gram(sample, edges)


def test_weighted_gram_convergence_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_SUBDIVISIONS", 1)
    spike = lambda w: np.exp(-((w / 0.05) ** 2))  # noqa: E731
    with pytest.raises(ConvergenceError, match=r"\(0, 0\)") as excinfo:
        weighted_gram(sampler(one, spike), window(0.0, 1.0))
    assert excinfo.value.error_estimate is not None
    assert excinfo.value.error_estimate > 0


def test_gram_is_exactly_hermitian_and_segments_add_up():
    # A kinked, complex integrand: splitting at the kink changes nothing but accuracy.
    functions = (one, lambda w: np.abs(w - 0.3) * np.exp(-(w**2) + 0.7j * w), np.cos)
    sample = sampler(gaussian_pdf, *functions)
    split = weighted_gram(sample, [-10.0, 0.3, 10.0])
    assert np.array_equal(split, split.conj().T)
    assert np.all(split.diagonal().imag == 0.0)
    halves = weighted_gram(sample, [-10.0, 0.3]) + weighted_gram(sample, [0.3, 10.0])
    assert np.max(np.abs(split - halves)) <= 1e-12


def test_subdivision_budget_counts_every_split(monkeypatch):
    # A narrow spike away from every bisection point costs one split per
    # level, so a budget that counted levels would let one split through.
    # The budget is shared by the whole matrix: a second spike in another
    # column does not fit in what the first one alone needs.
    spike = lambda c: lambda w: np.exp(-(((w - c) / 0.05) ** 2))  # noqa: E731
    one_spike, two_spikes = sampler(one, spike(-3.0)), sampler(one, spike(-3.0), spike(3.0))
    edges = [-10.0, 0.0, 10.0]
    assert weighted_gram(one_spike, edges)[0, 0] == pytest.approx(0.05 * math.sqrt(math.pi / 2.0), rel=1e-10)

    def converges(sample, budget):
        monkeypatch.setattr(numerics, "MAX_SUBDIVISIONS", budget)
        try:
            weighted_gram(sample, edges)
        except ConvergenceError:
            return False
        return True

    needed = next(budget for budget in range(1, 200) if converges(one_spike, budget))
    assert needed > 1
    assert not converges(two_spikes, needed)


def test_gauss_nodes_are_the_10_point_legendre_nodes():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(numerics._GK_NODES[numerics._GAUSS] - nodes)) <= 1e-15
    assert np.max(np.abs(numerics._GAUSS_WEIGHTS - weights)) <= 1e-15


@pytest.mark.parametrize(
    "nodes, weights, degree",
    [
        (numerics._GK_NODES, numerics._KRONROD_WEIGHTS, 31),
        (numerics._GK_NODES[numerics._GAUSS], numerics._GAUSS_WEIGHTS, 19),
    ],
    ids=["kronrod21", "gauss10"],
)
def test_rule_integrates_monomials_exactly_up_to_its_degree(nodes, weights, degree):
    exact = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(degree + 2)]
    errors = [abs(weights @ nodes**k - value) for k, value in enumerate(exact)]
    assert max(errors[: degree + 1]) <= 1e-15
    assert errors[degree + 1] > 1e-13  # and no further


def test_piecewise_linear_input_is_sampled_once_per_segment():
    # Linear letters and channel make every segment's integrand a quartic,
    # which both rules integrate exactly, so nothing is bisected.
    rng = np.random.default_rng(3)
    grid = np.cumsum(rng.uniform(0.1, 1.0, 41))
    letters = rng.normal(size=(3, grid.size)) + 1j * rng.normal(size=(3, grid.size))
    eta = rng.uniform(0.0, 1.0, grid.size)
    sampled = []

    def sample(omega):
        sampled.append(omega.size)
        columns = np.stack([np.interp(omega, grid, letter) for letter in letters], axis=-1)
        return columns, np.interp(omega, grid, eta) ** 2

    gram = weighted_gram(sample, grid)
    assert sum(sampled) == 21 * (grid.size - 1)
    # Three Gauss-Legendre points per segment are exact for a quartic too.
    nodes, weights = np.polynomial.legendre.leggauss(3)
    half = 0.5 * np.diff(grid)[:, None]
    omega = (0.5 * (grid[:-1] + grid[1:]))[:, None] + half * nodes
    columns, weight = sample(omega.ravel())
    exact = columns.conj().T @ (columns * (weight * (half * weights).ravel())[:, None])
    assert np.max(np.abs(gram - exact)) <= 1e-12


def test_quadrature_constant_values():
    assert numerics.REL_TOLERANCE == 1e-10
    assert numerics.ABS_TOLERANCE == 1e-14
    assert numerics.MAX_SUBDIVISIONS == 4096
    assert spectral.TRUNCATION_SIGMAS == 10.0


def test_identity_eigenvalues():
    values = hermitian_eigenvalues(np.eye(3))
    assert np.allclose(values, [1.0, 1.0, 1.0], atol=1e-14)


def test_rank_one_projector_eigenvalues():
    values = hermitian_eigenvalues([[0.5, 0.5], [0.5, 0.5]])
    assert values == pytest.approx([1.0, 0.0], abs=1e-13)


# A fixed complex Hermitian matrix; the expected eigenvalues were obtained
# from the roots of its characteristic polynomial (Faddeev-LeVerrier
# coefficients, 50-digit polynomial root refinement), an independent route.
_FIXED_4X4 = np.array(
    [
        [
            0.0012301533574825742 + 0j,
            -0.077962623831626332 + 0.69205963837575712j,
            -0.38317218695677357 - 1.0289869132125347j,
            -0.39258879487968784 - 0.62051839719195201j,
        ],
        [
            -0.077962623831626332 - 0.69205963837575712j,
            -0.99164655499646237 + 0j,
            -0.28016564861125098 - 0.54025776840687445j,
            0.20487360042316444 + 0.078977686409196973j,
        ],
        [
            -0.38317218695677357 + 1.0289869132125347j,
            -0.28016564861125098 + 0.54025776840687445j,
            0.48984205018519822 + 0j,
            0.16381759284839362 + 0.49572143482937847j,
        ],
        [
            -0.39258879487968784 + 0.62051839719195201j,
            0.20487360042316444 - 0.078977686409196973j,
            0.16381759284839362 - 0.49572143482937847j,
            0.69530319445828781 + 0j,
        ],
    ]
)

_FIXED_4X4_EIGENVALUES = [
    1.8560396566090107,
    0.7888532280787618,
    -0.7352326317932197,
    -1.7149314098900465,
]


def test_fixed_hermitian_matches_characteristic_polynomial_roots():
    values = hermitian_eigenvalues(_FIXED_4X4)
    assert values == pytest.approx(_FIXED_4X4_EIGENVALUES, abs=1e-10)


def test_fixed_hermitian_matches_runtime_polynomial_oracle():
    # Rebuild the characteristic polynomial at run time (Faddeev-LeVerrier)
    # and take companion-matrix roots; no Hermitian eigensolver involved.
    m = _FIXED_4X4
    n = m.shape[0]
    b = np.eye(n, dtype=complex)
    coeffs = [1.0]
    for k in range(1, n + 1):
        mb = m @ b
        c = -np.trace(mb) / k
        coeffs.append(c)
        b = mb + c * np.eye(n)
    roots = np.sort(np.roots([c.real for c in coeffs]).real)[::-1]
    values = hermitian_eigenvalues(m)
    assert values == pytest.approx(list(roots), abs=1e-10)


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 9, 16):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        matrix = 0.5 * (raw + raw.conj().T)
        values = hermitian_eigenvalues(matrix)
        trace = float(np.trace(matrix).real)
        assert np.sum(values) == pytest.approx(trace, abs=1e-10 * max(1.0, abs(trace)))
        assert np.all(np.diff(values) <= 0)


def test_gram_matrix_eigenvalues_nonnegative():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        vectors = rng.normal(size=(n, 3 * n)) + 1j * rng.normal(size=(n, 3 * n))
        gram = vectors @ vectors.conj().T / (3 * n)
        values = hermitian_eigenvalues(gram)
        assert values.min() >= -1e-10


def test_non_hermitian_rejected():
    # The last is a stack whose second member alone is not Hermitian.
    for matrix in ([[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.5 + 1e-11], [0.5, 1.0]], [np.eye(2), [[1.0, 2.0], [0.0, 1.0]]]):
        for vectors in (False, True):
            with pytest.raises(ValidationError, match="not Hermitian"):
                hermitian_eigenvalues(matrix, vectors=vectors)


@pytest.mark.parametrize("matrix", [3.0, np.zeros(3), np.zeros((2, 3)), np.zeros((4, 2, 3)), np.zeros((2, 3, 3, 1))])
def test_non_square_rejected(matrix):
    with pytest.raises(ValidationError, match="matrix must be square"):
        hermitian_eigenvalues(matrix)


@pytest.mark.parametrize(
    "entries",
    [
        [[math.nan]],
        [[math.inf]],
        [[1.0, complex(0.0, math.nan)], [complex(0.0, math.nan), 1.0]],
        [[1.0, -math.inf], [-math.inf, 1.0]],
        [[[1.0]], [[math.nan]], [[1.0]]],  # a stack with one non-finite member
    ],
)
def test_non_finite_entries_rejected(entries):
    for vectors in (False, True):
        with pytest.raises(ValidationError, match="matrix entries must be finite"):
            hermitian_eigenvalues(entries, vectors=vectors)


def test_eigensolver_failure_is_computation_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ComputationError, match="did not converge"):
        hermitian_eigenvalues(np.eye(2))


def test_eigenvectors_on_request():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    matrix = 0.5 * (raw + raw.conj().T)
    values, vectors = hermitian_eigenvalues(matrix, vectors=True)
    assert np.max(np.abs(values - hermitian_eigenvalues(matrix))) <= 1e-12
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(6))) <= 1e-12
    assert np.max(np.abs(vectors @ np.diag(values) @ vectors.conj().T - matrix)) <= 1e-12


def test_eigenvector_solve_failure_is_computation_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ComputationError, match="did not converge"):
        hermitian_eigenvalues(np.eye(2), vectors=True)


def test_small_asymmetry_is_symmetrized():
    # Below the 1e-12 bound, the eigensolver sees the exact Hermitian part
    # (A + A^H) / 2, not either triangle of A.
    m = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]], dtype=complex)
    hermitian_part = 0.5 * (m + m.conj().T)
    assert np.array_equal(hermitian_eigenvalues(m), np.linalg.eigvalsh(hermitian_part)[::-1])
    values, _ = hermitian_eigenvalues(m, vectors=True)
    assert np.array_equal(values, np.linalg.eigh(hermitian_part)[0][::-1])


def _random_hermitian_stack(shape, seed=7):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (raw + raw.conj().swapaxes(-1, -2))


def test_a_stack_gives_each_member_its_own_eigenpairs():
    stack = _random_hermitian_stack((2, 3, 5, 5))
    values, vectors = hermitian_eigenvalues(stack, vectors=True)
    assert values.shape == (2, 3, 5) and vectors.shape == (2, 3, 5, 5)
    assert np.max(np.abs(hermitian_eigenvalues(stack) - values)) <= 1e-12  # eigvalsh against eigh
    for index in np.ndindex(2, 3):
        assert np.array_equal(hermitian_eigenvalues(stack)[index], hermitian_eigenvalues(stack[index]))
        member_values, member_vectors = hermitian_eigenvalues(stack[index], vectors=True)
        assert np.array_equal(values[index], member_values) and np.array_equal(vectors[index], member_vectors)
        # Descending, with eigenvectors as columns in the same order.
        assert np.all(np.diff(values[index]) <= 0.0)
        assert np.max(np.abs(stack[index] @ vectors[index] - vectors[index] * values[index])) <= 1e-12


def test_clamp_spectrum():
    clamped = clamp_spectrum([1.0, 0.0, -5e-11])
    assert np.all(clamped >= 0.0)
    assert clamped[2] == 0.0
    with pytest.raises(PsdViolationError):
        clamp_spectrum([1.0, -1e-9])


def _blocks_of_a_mixed_gram(monkeypatch, panel_matrices=numerics._panel_matrices):
    """Gram matrix of 4 tabulated and 4 Gaussian letters through a Gaussian channel, and its block sizes.

    The narrow letter's segments are bisected, so the blocks span two levels.
    """
    rng = np.random.default_rng(7)
    grid = np.linspace(-12.0, 12.0, 121)
    letters = [
        *(spectral.TabulatedAmplitude(grid, np.exp(-((grid - c) ** 2) / 4.0 + 1j * k * grid))
          for c, k in rng.uniform(-4.0, 4.0, (4, 2))),
        *(spectral.GaussianAmplitude(c, w) for c, w in zip(rng.uniform(-4.0, 4.0, 4), [0.05, 0.3, 1.0, 2.0])),
    ]
    sizes = []

    def recorded(sample, lo, hi):
        sizes.append(lo.size)
        return panel_matrices(sample, lo, hi)

    monkeypatch.setattr(numerics, "_panel_matrices", recorded)
    return spectral.quadrature_gram(letters, spectral.GaussianPeakResponse(0.9, 3.0)), sizes


def test_blocking_does_not_change_the_gram_matrix(monkeypatch):
    gram, sizes = _blocks_of_a_mixed_gram(monkeypatch)
    assert sizes == [64, 64, 10, 4]  # 138 segments, then the 4 halves of the narrow letter's two
    monkeypatch.setattr(numerics, "_BLOCK_SEGMENTS", 1)
    one_each, singles = _blocks_of_a_mixed_gram(monkeypatch)
    assert set(singles) == {1} and len(singles) == sum(sizes)
    monkeypatch.setattr(numerics, "_BLOCK_SEGMENTS", 10**9)
    whole, levels = _blocks_of_a_mixed_gram(monkeypatch)
    assert levels == [138, 4]  # each level at once
    assert one_each.tobytes() == gram.tobytes() == whole.tobytes()

    # The block size does not depend on N: at N = 128 a block still holds 64 segments.
    monkeypatch.undo()
    sampled = []
    weighted = numerics.weighted_gram

    def recorded(sample, edges):
        def counted(omega):
            columns, weight = sample(omega)
            sampled.append(columns.size)
            return columns, weight

        return weighted(counted, edges)

    monkeypatch.setattr(spectral, "weighted_gram", recorded)
    letters = spectral.make_gaussian_basis(128, 0.5, 1.0)
    spectral.quadrature_gram(letters, spectral.TabulatedResponse([-40.0, 0.0, 40.0], [0.5, 1.0, 0.5]))
    assert max(sampled) == 64 * 21 * 128
