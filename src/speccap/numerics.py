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
matrix, and every eigenvector solve, is solved whole.  The blocks are formed
in one place, :func:`centrosymmetric_blocks`, from a matrix's two top
half-blocks: sliced from a whole matrix found to be centrosymmetric, or, by
:func:`centrosymmetric_eigenvalues`, gathered from the distinct entries at
the :func:`mirror_quarter` places that a caller built instead.
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


@functools.lru_cache(maxsize=32)
def _quarter_index(n, hermitian):
    """Where each entry of an N x N Hermitian centrosymmetric matrix reads its :func:`mirror_quarter` entries.

    ``(i, j)`` and ``(N - 1 - i, N - 1 - j)`` read place ``p`` of quarter
    entry ``(i, j)``; its transposed images read ``Q + p``, the conjugated
    second half, when ``hermitian`` (of a real matrix, ``p`` itself).
    Returns the N x N index, read-only.
    """
    rows, cols = mirror_quarter(n)
    places = np.arange(rows.size)
    index = np.empty((n, n), dtype=np.intp)
    index[cols, rows] = index[n - 1 - cols, n - 1 - rows] = places + hermitian * rows.size
    index[rows, cols] = index[n - 1 - rows, n - 1 - cols] = places
    index.setflags(write=False)
    return index


def mirror_diagonal(quarter, n):
    """The real diagonals, C-ordered, of Hermitian centrosymmetric N x N matrices whose quarter entries are ``quarter``."""
    return np.take(quarter, _quarter_index(n, False).diagonal(), axis=-1).real  # np.take orders its result as C


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
    A stack is solved in one call.
    A stack whose every member is then exactly centrosymmetric (``J A J = A``,
    ``J`` the reversal) is solved as its even and odd blocks, two LAPACK calls
    of half the size whose values are merged in descending order.  That is
    every Gram matrix of a symmetric comb, whose centres are exact mirrors,
    through a flat or Gaussian-peak channel; any other matrix, and a stack with
    one, is solved whole.  So a member's values are bitwise those of its solo
    solve only if all or none of its stack is centrosymmetric.  A caller that
    builds only a centrosymmetric stack's distinct entries hands them to
    :func:`centrosymmetric_eigenvalues` instead, which forms the same blocks.
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
    if vectors:
        values, basis = _lapack(np.linalg.eigh, arr)
        return values[..., ::-1], basis[..., ::-1]
    halves = _centrosymmetric_halves(arr)
    if halves is None:
        return _lapack(np.linalg.eigvalsh, arr)[..., ::-1]
    return _merged_eigenvalues(halves)


def centrosymmetric_eigenvalues(quarter, n):
    """All eigenvalues, descending, of Hermitian centrosymmetric N x N matrices given by their quarter entries.

    ``quarter`` has shape ``(..., Q)``: the :func:`mirror_quarter` entries of
    each matrix of a stack.  Non-finite entries raise
    ValidationError, as in :func:`hermitian_eigenvalues`; the matrix is
    Hermitian and centrosymmetric by construction, so nothing else is
    checked.  The two top half-blocks are gathered from the quarter, each
    entry a quarter entry or its conjugate as the whole matrix holds it; their
    even and odd :func:`centrosymmetric_blocks` are solved by LAPACK and the
    values merged, as those of a whole matrix found to be centrosymmetric are,
    so the values are bitwise the same.
    """
    if not np.all(np.isfinite(quarter)):
        raise ValidationError("matrix entries must be finite")
    hermitian = np.iscomplexobj(quarter)
    if hermitian:
        quarter = np.concatenate([quarter, quarter.conj()], axis=-1)
    index, k = _quarter_index(n, hermitian), n - n // 2
    left, right = np.take(quarter, index[:k, :k], axis=-1), np.take(quarter, index[:k, : -k - 1 : -1], axis=-1)
    return _merged_eigenvalues(centrosymmetric_blocks(left, right, n))


def _lapack(solve, matrix):
    """``solve(matrix)``, a LAPACK failure raised as ComputationError."""
    try:
        return solve(matrix)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"Hermitian eigensolve failed: {exc}") from exc


def _merged_eigenvalues(blocks):
    """The values of each of ``blocks`` (``eigvalsh``, one LAPACK call per block), merged in descending order."""
    values = np.concatenate([_lapack(np.linalg.eigvalsh, block) for block in blocks], axis=-1)
    return np.sort(values, axis=-1)[..., ::-1]


def _centrosymmetric_halves(arr):
    """The even and odd blocks of a stack whose every member is exactly centrosymmetric, ``J A J = A``; else None.

    A reversed diagonal is checked first, so most other input costs one
    comparison of N numbers; the blocks are formed from slices of the stack.
    """
    n = arr.shape[-1]
    diagonal = np.diagonal(arr, axis1=-2, axis2=-1)
    if n < 2 or not np.array_equal(diagonal, diagonal[..., ::-1]) or not np.array_equal(arr, arr[..., ::-1, ::-1]):
        return None
    k = n - n // 2
    return centrosymmetric_blocks(arr[..., :k, :k], arr[..., :k, : -k - 1 : -1], n)


def centrosymmetric_blocks(left, right, n):
    """The even and odd blocks of Hermitian centrosymmetric N x N matrices ``A`` from two top half-blocks.

    With ``k = N - N // 2`` and ``m = N // 2``, ``left`` is ``A[..., :k, :k]``
    and ``right`` the top-right ``k x k`` block with its columns reversed,
    ``A[..., :k, ::-1][..., :k]``.  The even block is ``left + right`` and the
    odd one ``left - right`` of their leading ``m x m`` parts; for odd N the
    even block also takes the middle row and column times sqrt(2), and the
    centre as it is.  They are ``A`` in the orthonormal basis of even and odd vectors,
    ``(e_i +- e_{N-1-i}) / sqrt(2)``, so their spectra together are ``A``'s
    (Cantoni & Butler, Linear Algebra Appl. 13, 275, 1976).
    """
    m, k = n // 2, n - n // 2
    even = left + right
    odd = left[..., :m, :m] - right[..., :m, :m]
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
