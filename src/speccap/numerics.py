"""Numerical primitives: the Hermitian mirror of packed Gram triangles and small Hermitian eigenproblems.

Every Gram route of ``spectral`` (closed form, exact rule and fixed rule)
ends in :func:`mirror_upper`.  Eigenvalues come from LAPACK through
``numpy.linalg.eigvalsh`` (``eigh`` when eigenvectors are asked for);
matrices have at most ``spectral.MAX_LETTERS`` (1024) rows and are plain
arrays, or stacks of them solved in one call, validated in :func:`hermitian_eigenvalues` on their way
in.  A real matrix stays real, so LAPACK solves it as a real symmetric one,
and a whole matrix is always solved whole.  A caller that knows its real
matrices are centrosymmetric, as the Gram matrices of a symmetric comb
through an even channel are, builds only their distinct entries, at the
:func:`mirror_quarter` places, and :func:`centrosymmetric_eigenvalues`
solves them as two half-size blocks, even and odd.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ComputationError, PsdViolationError, ValidationError

PSD_FLOOR = -1e-10


@functools.lru_cache(maxsize=16)
def upper_triangle(n):
    """``np.triu_indices(n)``: the ``N (N + 1) / 2`` upper-triangle places of an N x N matrix, row by row; cached, read-only."""
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=16)
def mirror_quarter(n):
    """The ``(N + 1)^2 // 4`` places ``(i, j)``, ``i <= j`` and ``i + j <= N - 1``, row by row; cached, read-only.

    They hold every distinct entry of a Hermitian centrosymmetric matrix,
    ``A = A^H = J A J`` with ``J`` the reversal: each other entry equals one
    of them or its conjugate.
    """
    rows, cols = upper_triangle(n)
    keep = rows + cols <= n - 1
    rows, cols = rows[keep], cols[keep]
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=16)
def _quarter_index(n):
    """Where each entry of an N x N real symmetric centrosymmetric matrix reads its :func:`mirror_quarter` entries.

    ``(i, j)``, ``(j, i)`` and their mirrors ``(N - 1 - i, N - 1 - j)`` and
    ``(N - 1 - j, N - 1 - i)`` read place ``p`` of quarter entry ``(i, j)``.
    Returns the N x N index, read-only.
    """
    rows, cols = mirror_quarter(n)
    places = np.arange(rows.size)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = places
    index[n - 1 - rows, n - 1 - cols] = index[n - 1 - cols, n - 1 - rows] = places
    index.setflags(write=False)
    return index


def mirror_diagonal(quarter, n):
    """The diagonals, C-ordered, of the centrosymmetric N x N matrices whose quarter entries are ``quarter``."""
    return np.take(quarter, _quarter_index(n).diagonal(), axis=-1)  # np.take orders its result as C


@functools.lru_cache(maxsize=32)
def _mirror_index(size, hermitian):
    """Where :func:`mirror_upper` reads each entry of an N x N matrix, ``size = N (N + 1) / 2``, and a zero per place.

    ``(i, j)`` reads packed place ``p`` of ``(min(i, j), max(i, j))``, and below the diagonal of a ``hermitian``
    triangle ``size + p``, its conjugated second half.  The zero, -0.0 on the diagonal, changes only a -0.0 off it.
    """
    n = (math.isqrt(8 * size + 1) - 1) // 2
    rows, cols = upper_triangle(n)
    index = np.empty((n, n), dtype=np.intp)
    index[cols, rows] = np.arange(size) + hermitian * size
    index[rows, cols] = np.arange(size)
    zero = np.where(rows == cols, -0.0, 0.0)
    index.setflags(write=False)
    zero.setflags(write=False)
    return index, zero


def mirror_upper(upper):
    """The exactly Hermitian matrix, with a real diagonal, whose upper triangle is the packed ``upper``.

    ``upper`` has shape ``(..., N (N + 1) / 2)``: the upper triangle of each
    matrix in :func:`upper_triangle` order, which is also the order of a
    pair loop over ``itertools.combinations_with_replacement``.  Each value
    is gathered to ``(i, j)`` and its conjugate to ``(j, i)``, so the result
    is Hermitian by construction.  Off the diagonal both are added to a zero,
    ``u + conj(0)`` and ``conj(u) + 0``, which turns a -0.0 part into 0.0 as
    ``triu(A, 1) + triu(A, 1)^H`` does; a real triangle is gathered once, by
    a symmetric index.  The one mirror of every Gram route: the three of
    ``spectral.gram_matrix`` (closed form, exact rule and fixed rule) and
    ``spectral.comb_grams``.
    """
    hermitian = np.iscomplexobj(upper)
    index, zeros = _mirror_index(upper.shape[-1], hermitian)
    if not hermitian:
        return np.take(upper + zeros, index, axis=-1)
    zero = np.zeros((), upper.dtype)
    gram = np.take(np.concatenate([upper + zero.conj(), upper.conj() + zero], axis=-1), index, axis=-1)
    places = np.arange(len(index))
    gram[..., places, places] = upper[..., index.diagonal()].real
    return gram


def hermitian_eigenvalues(matrix, *, vectors=False):
    """All eigenvalues of a Hermitian matrix, or of each in a stack, sorted descending (LAPACK ``eigvalsh``).

    The one check every whole matrix passes before LAPACK: ``matrix`` (any
    array-like of shape ``(..., N, N)``) is read as float64 if it is real and
    as complex128 otherwise; non-finite entries or asymmetry ``|A - A^H|``
    above 1e-12 anywhere in it raise ValidationError.  An exactly Hermitian
    matrix, found by one comparison with ``A^H``, is solved as it is; only
    any other has its asymmetry measured, and is solved as ``(A + A^H) / 2``.
    A stack is solved whole, in one LAPACK call, so each member's values are
    bitwise those of its solo solve.  ``vectors=True`` returns ``(values,
    vectors)`` from ``eigh``, eigenvectors as columns.
    """
    arr = np.asarray(matrix)
    arr = arr.astype(np.result_type(arr, float), copy=False)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValidationError("matrix must be square")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix entries must be finite")
    adjoint = arr.conj().swapaxes(-1, -2)  # for a real arr, a view of arr itself: never written to
    if not np.array_equal(arr, adjoint):
        with np.errstate(over="ignore"):  # a difference past the largest float is inf, and rejected
            deviation = np.max(np.abs(arr - adjoint))
        if deviation > 1e-12:
            raise ValidationError(f"matrix is not Hermitian (max asymmetry {deviation:.3e})")
        arr = 0.5 * (arr + adjoint)
    if vectors:
        values, basis = _lapack(np.linalg.eigh, arr)
        return values[..., ::-1], basis[..., ::-1]
    return _lapack(np.linalg.eigvalsh, arr)[..., ::-1]


def centrosymmetric_eigenvalues(quarter, n):
    """All eigenvalues, descending, of real symmetric centrosymmetric N x N matrices given by their quarter entries.

    ``quarter`` is a real ``(..., Q)`` stack: the :func:`mirror_quarter`
    entries of each matrix ``A``.  Non-finite entries raise ValidationError,
    as in :func:`hermitian_eigenvalues`; ``A`` is symmetric and
    centrosymmetric by construction, so nothing else is checked.  With ``k =
    N - N // 2`` and ``m = N // 2``, the top-left ``k x k`` block ``L`` of
    ``A`` and its top-right one with columns reversed, ``R``, are gathered
    from the quarter.  The even block is ``L + R`` and the odd one ``L - R``
    of their leading ``m x m`` parts; for odd N the even block's middle row
    and column are scaled by sqrt(1/2) and its centre by 1/2, undoing the
    sum's doubling.  They are ``A`` in the orthonormal basis of even and odd
    vectors, ``(e_i +- e_{N-1-i}) / sqrt(2)``, so their spectra together are
    ``A``'s (Cantoni & Butler, Linear Algebra Appl. 13, 275, 1976).  Each is
    solved as one LAPACK stack, even first, and the values merged.
    """
    if not np.all(np.isfinite(quarter)):
        raise ValidationError("matrix entries must be finite")
    index, m, k = _quarter_index(n), n // 2, n - n // 2
    left, right = np.take(quarter, index[:k, :k], axis=-1), np.take(quarter, index[:k, : -k - 1 : -1], axis=-1)
    even = left + right
    odd = left[..., :m, :m] - right[..., :m, :m]
    if k > m:  # the sum doubled the middle row, column and centre
        even[..., m, :m] *= math.sqrt(0.5)
        even[..., :m, m] *= math.sqrt(0.5)
        even[..., m, m] *= 0.5
    values = np.concatenate([_lapack(np.linalg.eigvalsh, even), _lapack(np.linalg.eigvalsh, odd)], axis=-1)
    return np.sort(values, axis=-1)[..., ::-1]


def _lapack(solve, matrix):
    """``solve(matrix)``, a LAPACK failure raised as ComputationError."""
    try:
        return solve(matrix)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"Hermitian eigensolve failed: {exc}") from exc


def clamp_spectrum(values):
    """Zero out roundoff-negative eigenvalues; reject real negativity.

    Values in ``[PSD_FLOOR, 0)`` become 0; anything below ``PSD_FLOOR``, in
    any spectrum of a stack, raises PsdViolationError.
    """
    vals = np.asarray(values, dtype=float)
    smallest = float(vals.min()) if vals.size else 0.0
    if smallest < PSD_FLOOR:
        raise PsdViolationError(
            f"eigenvalue {smallest:.3e} below the positive-semidefinite floor {PSD_FLOOR:.1e}"
        )
    return np.where(vals < 0.0, 0.0, vals)
