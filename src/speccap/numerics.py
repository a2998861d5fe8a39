"""Numerical primitives: quadrature Gram matrices and small Hermitian eigenproblems.

Quadrature is one node rule for a whole set of functions: the embedded
21-point Gauss-Kronrod / 10-point Gauss pair of QUADPACK on every segment
between given breakpoints.  Each segment is sampled once, at the 21
Kronrod nodes; a matmul per rule gives its panel matrices of weighted
overlaps, and their difference is the per-entry error estimate.  Segments
whose estimate is too large are bisected level by level.  Eigenvalues come
from LAPACK through ``numpy.linalg.eigvalsh`` (``eigh`` when eigenvectors
are asked for); matrices are small (N up to ~128) and are plain arrays, or
stacks of them solved in one call, validated in :func:`hermitian_eigenvalues`
on their way in.  A real matrix stays real, so LAPACK solves it as a real
symmetric one.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ComputationError, ConvergenceError, PsdViolationError, ValidationError

# QUADPACK dqk21 (Piessens et al., 1983): the 21-point Kronrod abscissae in
# [0, 1], descending, with their weights; every other one, from the second,
# is a node of the 10-point Gauss rule, whose weights are ``_WG``.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980529070, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# The Kronrod nodes on [-1, 1], ascending, and their weights; the Gauss
# nodes are the ones at ``_GAUSS``.
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS = slice(1, None, 2)
_GAUSS_WEIGHTS = np.concatenate([_WG, _WG[::-1]])

# Panel matrices are formed for a block of segments at a time, which bounds
# the memory the samples take.
_BLOCK_SEGMENTS = 64

PSD_FLOOR = -1e-10

# Accuracy targets and subdivision budget of :func:`weighted_gram`, read at call time.
REL_TOLERANCE = 1e-10
ABS_TOLERANCE = 1e-14
MAX_SUBDIVISIONS = 4096


def _panel_matrices(sample, lo, hi):
    """Kronrod panel matrices, one per panel ``[lo[k], hi[k]]``, and their per-entry error estimates.

    Each panel is sampled once, at its 21 Kronrod nodes; the estimate is
    ``|K21 - G10|``.  ``wK - wG`` changes sign, so the difference is not one
    weighted product: each rule's matrix is formed on its own, with the
    square root of its (positive) weights in both factors.
    """
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    columns, weight = sample(nodes.ravel())
    columns = np.reshape(columns, (*nodes.shape, -1))
    weight = np.reshape(weight, nodes.shape) * half[:, None]
    kronrod = np.sqrt(weight * _KRONROD_WEIGHTS)[:, :, None] * columns
    gauss = np.sqrt(weight[:, _GAUSS] * _GAUSS_WEIGHTS)[:, :, None] * columns[:, _GAUSS]
    panels = np.matmul(kronrod.conj().transpose(0, 2, 1), kronrod)
    return panels, np.abs(panels - np.matmul(gauss.conj().transpose(0, 2, 1), gauss))


def weighted_gram(sample, edges):
    """Gram matrix ``G[i, j] = integral w conj(f_i) f_j`` over ``[edges[0], edges[-1]]``.

    ``sample(omega)`` takes a 1-D array of abscissae and returns
    ``(columns, weight)``: the N functions there as an array of shape
    ``(omega.size, N)`` and the non-negative weight ``w`` as an array of
    shape ``(omega.size,)``.  ``edges`` are the ascending ends of the segments on
    which the integrand is smooth.

    Every segment gets the same Gauss-Kronrod pair, so a panel's matrix is
    ``X^H diag(weights * w) X`` for either rule's weights, formed for a block
    of segments by batched matmuls.  A segment is accepted when, in every
    entry, its Kronrod and Gauss matrices agree within the segment's share of
    ``max(REL_TOLERANCE * |G_ij|, ABS_TOLERANCE)``; the other segments are
    bisected, level by level, and ``|G_ij|`` is re-estimated at every level.
    The upper triangle is mirrored, so the result is exactly Hermitian.

    Raises ConvergenceError naming the worst entry, and carrying its error
    estimate, when more than ``MAX_SUBDIVISIONS`` bisections are needed.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValidationError("quadrature edges must be at least two ascending points")
    lo, hi = edges[:-1], edges[1:]
    # Fraction of each entry's tolerance a segment may spend; halved on bisection.
    share = np.full(lo.size, 1.0 / lo.size)
    min_width = 1e-14 * (edges[-1] - edges[0])
    total = 0.0
    splits = 0
    while lo.size:
        blocks = [
            _panel_matrices(sample, lo[start : start + _BLOCK_SEGMENTS], hi[start : start + _BLOCK_SEGMENTS])
            for start in range(0, lo.size, _BLOCK_SEGMENTS)
        ]
        panels, errors = (np.concatenate(parts) for parts in zip(*blocks))
        tolerance = np.maximum(REL_TOLERANCE * np.abs(total + panels.sum(axis=0)), ABS_TOLERANCE)
        keep = ~(np.all(errors <= share[:, None, None] * tolerance, axis=(1, 2)) | (hi - lo <= min_width))
        total = total + panels[~keep].sum(axis=0)
        splits += np.count_nonzero(keep)
        if splits > MAX_SUBDIVISIONS:
            pending = errors[keep].sum(axis=0)
            i, j = np.unravel_index(np.argmax(np.triu(pending / tolerance)), tolerance.shape)
            raise ConvergenceError(
                f"Gram entry ({i}, {j}) did not converge within {MAX_SUBDIVISIONS} "
                f"subdivisions (error estimate {pending[i, j]:.3e})",
                error_estimate=float(pending[i, j]),
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        share = 0.5 * np.concatenate([share[keep], share[keep]])
    return mirror_upper(total[upper_triangle(len(total))])


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
    ``spectral.gram_matrix`` (closed form, exact and adaptive quadrature)
    and ``spectral.comb_grams``.
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
    ``vectors=True`` returns ``(values, vectors)`` from ``eigh``, eigenvectors
    as columns.
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
        return np.linalg.eigvalsh(arr)[..., ::-1]
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
