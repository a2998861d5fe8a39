import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from speccap import spectral
from speccap.errors import ComputationError, PsdViolationError, ValidationError
from speccap.numerics import (
    centrosymmetric_eigenvalues,
    clamp_spectrum,
    hermitian_eigenvalues,
    mirror_diagonal,
    mirror_halves,
    mirror_upper,
)


def test_mirror_upper_mirrors_each_matrix_of_a_stack_as_it_mirrors_one():
    # Packed upper triangles with parts of both signed zeros; each member must be,
    # bit for bit, the triangle plus its adjoint with the diagonal's real part.
    rng = np.random.default_rng(3)
    rows, cols = np.triu_indices(4)
    parts = rng.choice([-0.0, 0.0, -1.5, 2.0], size=(2, 2, 3, rows.size)) * rng.normal(size=(2, 2, 3, rows.size))
    for stack in (parts[0], parts[0] + 1j * parts[1]):
        mirrored = mirror_upper(stack)
        assert mirrored.shape == (2, 3, 4, 4) and mirrored.dtype == stack.dtype
        for index in np.ndindex(2, 3):
            alone = mirror_upper(stack[index])
            assert mirrored[index].tobytes() == alone.tobytes()
            full = np.zeros((4, 4), dtype=stack.dtype)
            full[rows, cols] = stack[index]
            want = np.triu(full, 1)
            want += want.conj().T
            want[np.diag_indices(4)] = full.diagonal().real
            assert alone.tobytes() == want.tobytes()
            assert np.array_equal(alone, alone.conj().T) and np.all(alone.diagonal().imag == 0.0)


def test_gauss_nodes_are_the_10_point_legendre_nodes():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(spectral._GAUSS_NODES - nodes)) <= 1e-15
    assert np.max(np.abs(spectral._GAUSS_WEIGHTS - weights)) <= 1e-15


@pytest.mark.parametrize(
    "rule, degree",
    [
        (spectral._segment_rule(np.array([-1.0, 1.0])), 5),
        ((spectral._GAUSS_NODES, spectral._GAUSS_WEIGHTS), 19),
    ],
    ids=["gauss3", "gauss10"],
)
def test_rule_integrates_monomials_exactly_up_to_its_degree(rule, degree):
    nodes, weights = rule
    exact = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(degree + 2)]
    errors = [abs(weights @ nodes**k - value) for k, value in enumerate(exact)]
    assert max(errors[: degree + 1]) <= 1e-15
    assert errors[degree + 1] > 1e-13  # and no further


def test_quadrature_constant_values():
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 1e308], [-1e308, 1.0]],
        [[1.0, complex(1e308, 1e308)], [complex(-1e308, 1e308), 1.0]],
        [np.eye(2), [[1.0, -1.5e308], [1.5e308, 1.0]]],  # a stack whose second member alone is asymmetric
    ],
)
def test_an_asymmetry_past_the_largest_float_is_rejected_without_a_warning(matrix):
    # A - A^H overflows to inf here; that is an asymmetry to reject, not a float error.
    for vectors in (False, True):
        with pytest.raises(ValidationError, match=r"not Hermitian \(max asymmetry inf\)"):
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


# Exactly Hermitian matrices with entries past half the largest float, and their
# eigenvalues: averaging A with A^H would overflow them to inf and then NaN.
NEAR_FLOAT_LIMIT = [
    (np.diag([1e308, 1.0]), [1e308, 1.0]),
    (np.array([[1.0, 1e308], [1e308, 1.0]]), [1e308, -1e308]),
    (np.array([[1.0, 1e308j], [-1e308j, 1.0]]), [1e308, -1e308]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix, expected", NEAR_FLOAT_LIMIT)
def test_an_exactly_hermitian_matrix_near_the_float_limit_is_solved_as_it_is(matrix, expected):
    for arr in (matrix, matrix.astype(complex)):
        assert np.allclose(hermitian_eigenvalues(arr), expected, rtol=1e-15, atol=0.0)
        values, vectors = hermitian_eigenvalues(arr, vectors=True)
        assert np.allclose(values, expected, rtol=1e-15, atol=0.0) and np.all(np.isfinite(vectors))


@pytest.mark.filterwarnings("error")
def test_a_stack_near_the_float_limit_is_solved_as_it_is():
    matrices, expected = zip(*NEAR_FLOAT_LIMIT)
    for count in (2, 3):  # the two real matrices, then all three as a complex stack
        values = hermitian_eigenvalues(np.stack(matrices[:count]))
        assert np.allclose(values, expected[:count], rtol=1e-15, atol=0.0)


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


def _centrosymmetric_stack(count, n, seed):
    """A real ``(count, n, n)`` stack, each member exactly symmetric and exactly centrosymmetric, ``J A J = A``."""
    raw = np.random.default_rng(seed).normal(size=(count, n, n))
    symmetric = raw + raw.swapaxes(-1, -2)
    # Entry (i, j) and its mirror (N-1-i, N-1-j) add the same two numbers, and so do (i, j) and (j, i).
    return symmetric + symmetric[..., ::-1, ::-1]


@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_a_centrosymmetric_stack_is_solved_by_halves_to_the_dense_spectrum(count, n, seed):
    stack = _centrosymmetric_stack(count, n, seed)
    assert np.array_equal(stack, stack.swapaxes(-1, -2)) and np.array_equal(stack, stack[..., ::-1, ::-1])
    rows, cols = mirror_halves(n)
    assert rows.size == (n - n // 2) * (n - n // 2 + 1)
    halves = stack[..., rows, cols]
    values = centrosymmetric_eigenvalues(halves, n)
    assert values.shape == (count, n) and np.all(np.diff(values, axis=-1) <= 0.0)
    dense = np.linalg.eigvalsh(stack)[..., ::-1]
    assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(stack))
    assert mirror_diagonal(halves, n).tobytes() == np.diagonal(stack, axis1=1, axis2=2).tobytes()


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_mirror_halves_are_the_upper_triangles_of_the_two_half_blocks(n, seed):
    # Every place is one of a symmetric centrosymmetric matrix's distinct entries, evaluated as (i, j) with
    # i <= j; the two packed triangles unpack to the top-left K x K block and the top-right one with its
    # columns reversed, byte for byte.
    rows, cols = mirror_halves(n)
    assert np.all(rows <= cols) and np.all(rows + cols <= n - 1)
    assert not rows.flags.writeable and not cols.flags.writeable
    stack, k = _centrosymmetric_stack(2, n, seed), n - n // 2
    left, right = np.split(stack[..., rows, cols], 2, axis=-1)
    assert mirror_upper(left).tobytes() == stack[:, :k, :k].tobytes()
    assert mirror_upper(right).tobytes() == stack[:, :k, ::-1][:, :, :k].tobytes()


@pytest.mark.parametrize("n", [4, 5])
def test_a_centrosymmetric_matrix_reaches_lapack_as_its_two_halves(lapack_shapes, n):
    # For odd N the even half also takes the middle row and column.
    rows, cols = mirror_halves(n)
    centrosymmetric_eigenvalues(_centrosymmetric_stack(2, n, seed=5)[..., rows, cols], n)
    assert lapack_shapes == [(2, n - n // 2, n - n // 2), (2, n // 2, n // 2)]


def _whole(name):
    centro = _centrosymmetric_stack(2, 6, seed=2)
    return {
        "complex": _random_hermitian_stack((6, 6)),
        "real stack": _random_hermitian_stack((2, 7, 7)).real,
        "centrosymmetric": centro,
        "one centrosymmetric member of two": np.stack([centro[0], _random_hermitian_stack((6, 6)).real]),
        "1 x 1": np.ones((1, 1)),
    }[name]


@pytest.mark.parametrize("name", ["complex", "real stack", "centrosymmetric", "one centrosymmetric member of two", "1 x 1"])
def test_a_whole_matrix_is_solved_whole_bit_for_bit(lapack_shapes, name):
    # Whatever its symmetry, a whole matrix or stack reaches LAPACK as it is, in one call.
    matrix = _whole(name)
    values = hermitian_eigenvalues(matrix)
    assert lapack_shapes == [matrix.shape]
    assert values.tobytes() == np.linalg.eigvalsh(matrix)[..., ::-1].tobytes()


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[math.nan, 1.0], [1.0, math.nan]], "matrix entries must be finite"),
        ([[1.0, math.inf, 0.0], [math.inf, 2.0, math.inf], [0.0, math.inf, 1.0]], "matrix entries must be finite"),
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 4.0], [3.0, 2.0, 1.0]], "not Hermitian"),  # J A J = A, but A != A^T
        ([[1.0, 1j, 0.0], [1j, 1.0, 1j], [0.0, 1j, 1.0]], "not Hermitian"),
        ([[1.0, 1.0 + 2e-12, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0 + 2e-12, 1.0]], "not Hermitian"),
    ],
)
def test_a_centrosymmetric_matrix_is_checked_before_any_solve(lapack_shapes, matrix, message):
    assert np.array_equal(np.asarray(matrix), np.asarray(matrix)[::-1, ::-1], equal_nan=True)
    with pytest.raises(ValidationError, match=message):
        hermitian_eigenvalues(matrix)
    if message == "matrix entries must be finite":  # the only check left when only the distinct entries are given
        rows, cols = mirror_halves(len(matrix))
        with pytest.raises(ValidationError, match=message):
            centrosymmetric_eigenvalues(np.asarray(matrix)[rows, cols], len(matrix))
    assert lapack_shapes == []


def test_a_failure_on_either_half_is_computation_error(monkeypatch):
    solve = np.linalg.eigvalsh
    halves = _centrosymmetric_stack(1, 6, seed=3)[0][mirror_halves(6)]
    for failing in (1, 2):
        calls = []

        def fail_on_one(half):
            calls.append(half.shape)
            if len(calls) == failing:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(half)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_one)
        with pytest.raises(ComputationError, match="did not converge"):
            centrosymmetric_eigenvalues(halves, 6)
        assert calls == [(3, 3), (3, 3)][:failing]


def test_clamp_spectrum():
    clamped = clamp_spectrum([1.0, 0.0, -5e-11])
    assert np.all(clamped >= 0.0)
    assert clamped[2] == 0.0
    with pytest.raises(PsdViolationError):
        clamp_spectrum([1.0, -1e-9])
