import math

import numpy as np
import pytest

from speccap.errors import ComputationError, ConvergenceError, PsdViolationError, ValidationError
from speccap.numerics import (
    DEFAULT_QUADRATURE,
    HermitianMatrix,
    QuadratureSpec,
    clamp_spectrum,
    hermitian_eigenvalues,
    integrate,
)


def gaussian_pdf(omega):
    return np.exp(-0.5 * omega**2) / math.sqrt(2.0 * math.pi)


def test_integrate_normalized_gaussian_density():
    assert integrate(gaussian_pdf, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_integrate_gaussian_amplitude_product():
    # Two unit-width normalized Gaussian amplitudes two units apart.
    norm = (2.0 * math.pi) ** -0.25

    def product(omega):
        return norm**2 * np.exp(-((omega + 1.0) ** 2) / 4.0 - ((omega - 1.0) ** 2) / 4.0)

    value = integrate(product, 0.0, 1.0)
    assert value == pytest.approx(0.606530659712633424, abs=1e-12)


def test_integrate_odd_function_vanishes():
    value = integrate(lambda w: w * np.exp(-(w**2)), 0.0, 1.0)
    assert abs(value) <= 1e-12


def test_integrate_is_linear():
    f = gaussian_pdf
    g = lambda w: np.cos(w) * np.exp(-(w**2))  # noqa: E731
    combined = integrate(lambda w: 2.5 * f(w) - 1.25 * g(w), 0.0, 1.0)
    separate = 2.5 * integrate(f, 0.0, 1.0) - 1.25 * integrate(g, 0.0, 1.0)
    assert combined == pytest.approx(separate, abs=1e-12)


@pytest.mark.parametrize("shift", [-17.0, -3.5, 0.0, 2.25, 40.0])
def test_integrate_translation_invariant(shift):
    value = integrate(lambda w: gaussian_pdf(w - shift), shift, 1.0)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_integrate_handles_complex_integrands():
    value = integrate(lambda w: np.exp(1j * w) * gaussian_pdf(w), 0.0, 1.0)
    # Characteristic function of a standard normal at t = 1.
    assert value == pytest.approx(math.exp(-0.5), abs=1e-10)
    assert abs(value.imag) <= 1e-12


def test_integrate_rejects_bad_width():
    with pytest.raises(ValidationError):
        integrate(gaussian_pdf, 0.0, 0.0)


def test_integrate_convergence_error_carries_estimate():
    tight = QuadratureSpec(max_subdivisions=1)
    spike = lambda w: np.exp(-((w / 0.05) ** 2))  # noqa: E731
    with pytest.raises(ConvergenceError) as excinfo:
        integrate(spike, 0.0, 1.0, tight)
    assert excinfo.value.error_estimate is not None
    assert excinfo.value.error_estimate > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tolerance": 0.0},
        {"abs_tolerance": -1e-3},
        {"truncation_sigmas": 5.0},
        {"max_subdivisions": 0},
    ],
)
def test_quadrature_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        QuadratureSpec(**kwargs)


def test_default_quadrature_spec_values():
    assert DEFAULT_QUADRATURE.rel_tolerance == 1e-10
    assert DEFAULT_QUADRATURE.abs_tolerance == 1e-14
    assert DEFAULT_QUADRATURE.truncation_sigmas == 10.0
    assert DEFAULT_QUADRATURE.max_subdivisions == 4096


def test_identity_eigenvalues():
    values = hermitian_eigenvalues(HermitianMatrix(np.eye(3)))
    assert np.allclose(values, [1.0, 1.0, 1.0], atol=1e-14)


def test_rank_one_projector_eigenvalues():
    values = hermitian_eigenvalues(HermitianMatrix([[0.5, 0.5], [0.5, 0.5]]))
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
    values = hermitian_eigenvalues(HermitianMatrix(_FIXED_4X4))
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
    values = hermitian_eigenvalues(HermitianMatrix(m))
    assert values == pytest.approx(list(roots), abs=1e-10)


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 9, 16):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        matrix = HermitianMatrix(0.5 * (raw + raw.conj().T))
        values = hermitian_eigenvalues(matrix)
        trace = float(np.trace(matrix.entries).real)
        assert np.sum(values) == pytest.approx(trace, abs=1e-10 * max(1.0, abs(trace)))
        assert np.all(np.diff(values) <= 0)


def test_gram_matrix_eigenvalues_nonnegative():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        vectors = rng.normal(size=(n, 3 * n)) + 1j * rng.normal(size=(n, 3 * n))
        gram = vectors @ vectors.conj().T / (3 * n)
        values = hermitian_eigenvalues(HermitianMatrix(gram))
        assert values.min() >= -1e-10


def test_non_hermitian_rejected():
    with pytest.raises(ValidationError):
        HermitianMatrix([[1.0, 2.0], [0.0, 1.0]])


def test_non_square_rejected():
    with pytest.raises(ValidationError):
        HermitianMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "entries",
    [
        [[math.nan]],
        [[math.inf]],
        [[1.0, complex(0.0, math.nan)], [complex(0.0, math.nan), 1.0]],
        [[1.0, -math.inf], [-math.inf, 1.0]],
    ],
)
def test_non_finite_entries_rejected(entries):
    with pytest.raises(ValidationError):
        HermitianMatrix(entries)


def test_eigensolver_failure_is_computation_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ComputationError, match="did not converge"):
        hermitian_eigenvalues(HermitianMatrix(np.eye(2)))


def test_small_asymmetry_is_symmetrized():
    m = HermitianMatrix([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
    assert m.entries[0, 1] == pytest.approx(np.conj(m.entries[1, 0]), abs=0)


def test_clamp_spectrum():
    clamped = clamp_spectrum([1.0, 0.0, -5e-11])
    assert np.all(clamped >= 0.0)
    assert clamped[2] == 0.0
    with pytest.raises(PsdViolationError):
        clamp_spectrum([1.0, -1e-9])
