"""Numerical primitives: the Hermitian mirror of packed Gram triangles and small Hermitian eigenproblems.

Every Gram route of ``spectral`` (closed form, exact rule and fixed rule)
ends in :func:`mirror_upper`.  Eigenvalues come from LAPACK through
``numpy.linalg.eigvalsh`` (``eigh`` when eigenvectors are asked for);
matrices are small (N up to ~128) and are plain arrays, or stacks of them
solved in one call, validated in :func:`hermitian_eigenvalues` on their way
in.  A real matrix stays real, so LAPACK solves it as a real symmetric one.
A stack whose every member is exactly centrosymmetric, as the Gram matrices
of a mirror-symmetric set of letters through an even channel are, has its
eigenvalues solved as two half-size blocks, even and odd; every other
matrix, and every eigenvector solve, is solved whole.
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

    The one check every matrix passes before LAPACK: ``matrix`` (any array-like
    of shape ``(..., N, N)``) is read as float64 if it is real and as complex128
    otherwise; non-finite entries or asymmetry ``|A - A^H|`` above 1e-12
    anywhere in it raise ValidationError.  An exactly Hermitian matrix, found
    by one comparison with ``A^H``, is solved as it is; only any other has its
    asymmetry measured, and is solved as ``(A + A^H) / 2``.  A stack is solved
    in one call.
    A stack whose every member is then exactly centrosymmetric (``J A J = A``,
    ``J`` the reversal) is solved as its even and odd halves, two LAPACK calls
    of half the size whose values are merged in descending order.  That is
    every Gram matrix of a symmetric comb, whose centres are exact mirrors,
    through a flat or Gaussian-peak channel; any other matrix is solved whole.
    ``vectors=True`` returns ``(values, vectors)`` from ``eigh``, eigenvectors
    as columns, always of the whole matrix.
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
    try:
        if vectors:
            values, basis = np.linalg.eigh(arr)
            return values[..., ::-1], basis[..., ::-1]
        halves = _centrosymmetric_halves(arr)
        if halves is None:
            return np.linalg.eigvalsh(arr)[..., ::-1]
        values = np.concatenate([np.linalg.eigvalsh(half) for half in halves], axis=-1)
        return np.sort(values, axis=-1)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"Hermitian eigensolve failed: {exc}") from exc


def _centrosymmetric_halves(arr):
    """The even and odd blocks of a stack whose every member is exactly centrosymmetric, ``J A J = A``; else None.

    With ``m = N // 2``, ``A_h`` the leading ``m x m`` block and ``B_h J`` the
    top-right one with its columns reversed, the blocks are ``A_h + B_h J`` and
    ``A_h - B_h J``; for odd N the even block also takes the middle row and
    column times sqrt(2), and the centre as it is.  They are ``A`` in the
    orthonormal basis of even and odd vectors, ``(e_i +- e_{N-1-i}) / sqrt(2)``,
    so their spectra together are ``A``'s (Cantoni & Butler, Linear Algebra
    Appl. 13, 275, 1976).  A reversed diagonal is checked first, so most other
    input costs one comparison of N numbers.
    """
    n = arr.shape[-1]
    diagonal = np.diagonal(arr, axis1=-2, axis2=-1)
    if n < 2 or not np.array_equal(diagonal, diagonal[..., ::-1]) or not np.array_equal(arr, arr[..., ::-1, ::-1]):
        return None
    m, k = n // 2, n - n // 2
    even = arr[..., :k, :k] + arr[..., :k, : -k - 1 : -1]
    odd = arr[..., :m, :m] - arr[..., :m, : -m - 1 : -1]
    if k > m:  # the sum doubled the middle row, column and centre
        even[..., m, :m] *= math.sqrt(0.5)
        even[..., :m, m] *= math.sqrt(0.5)
        even[..., m, m] *= 0.5
    return even, odd


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
