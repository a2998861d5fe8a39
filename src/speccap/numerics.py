"""Numerical primitives: quadrature Gram matrices and small Hermitian eigenproblems.

Quadrature is one node rule for a whole set of functions: a fixed-order
Gauss-Legendre rule on every segment between given breakpoints, so each
panel's matrix of weighted overlaps is one matmul, with the segments whose
whole-panel and half-panel matrices disagree bisected level by level.  It is
deterministic and robust for the smooth, rapidly decaying integrands here.
Eigenvalues come from LAPACK through ``numpy.linalg.eigvalsh``; matrices are
small (N up to ~128).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ConvergenceError, PsdViolationError, ValidationError

# Fixed panel rule. 21 points integrate smooth Gaussian-type factors to
# machine precision on panels comparable to the integrand width.
_GL_ORDER = 21
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# Segments whose panel matrices are formed together; bounds the sampled block.
_SEGMENT_BLOCK = 16

PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy targets, subdivision budget and domain truncation for :func:`weighted_gram`."""

    rel_tolerance: float = 1e-10
    abs_tolerance: float = 1e-14
    truncation_sigmas: float = 10.0
    max_subdivisions: int = 4096

    def __post_init__(self):
        if not (self.rel_tolerance > 0 and self.abs_tolerance > 0):
            raise ValidationError("quadrature tolerances must be positive")
        if self.truncation_sigmas < 6:
            raise ValidationError("truncation_sigmas must be at least 6")
        if self.max_subdivisions < 1:
            raise ValidationError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _panel_matrices(sample, lo, hi):
    """Fixed-order Gauss-Legendre Gram matrices, one per panel ``[lo[k], hi[k]]``."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
    columns, weight = sample(nodes.ravel())
    # sqrt(weights * w) goes into both factors, so only the conjugate is copied.
    scale = np.sqrt(np.reshape(weight, nodes.shape) * half[:, None] * _GL_WEIGHTS)
    columns = np.reshape(columns, (*nodes.shape, -1)) * scale[:, :, None]
    return np.matmul(columns.conj().transpose(0, 2, 1), columns)


def weighted_gram(sample, edges, spec=DEFAULT_QUADRATURE):
    """Gram matrix ``G[i, j] = integral w conj(f_i) f_j`` over ``[edges[0], edges[-1]]``.

    ``sample(omega)`` takes a 1-D array of abscissae and returns
    ``(columns, weight)``: the N functions there as an array of shape
    ``(omega.size, N)`` and the non-negative weight ``w`` as an array of
    shape ``(omega.size,)``.  ``edges`` are the ascending ends of the segments on
    which the integrand is smooth.

    Every segment gets the same fixed Gauss-Legendre rule, so a panel's matrix
    is ``X^H diag(weights * w) X``, formed for a block of segments by one
    batched matmul.  A segment is accepted when, in every entry, its
    whole-panel matrix and the sum of its two halves agree within the
    segment's share of ``max(rel_tolerance * |G_ij|, abs_tolerance)``; the
    other segments are bisected, level by level, and ``|G_ij|`` is
    re-estimated at every level.  The upper triangle is mirrored, so the
    result is exactly Hermitian.

    Raises ConvergenceError naming the worst entry, and carrying its error
    estimate, when more than ``max_subdivisions`` bisections are needed.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValidationError("quadrature edges must be at least two ascending points")
    lo, hi = edges[:-1], edges[1:]
    # Fraction of each entry's tolerance a segment may spend; halved on bisection.
    share = np.full(lo.size, 1.0 / lo.size)
    blocks = range(0, lo.size, _SEGMENT_BLOCK)
    # Whole-panel matrices of the active segments, one array per block.
    wholes = [_panel_matrices(sample, lo[k : k + _SEGMENT_BLOCK], hi[k : k + _SEGMENT_BLOCK]) for k in blocks]
    min_width = 1e-14 * (edges[-1] - edges[0])
    total = np.zeros_like(wholes[0][0])
    splits = 0
    while lo.size:
        estimate = total + sum(whole.sum(axis=0) for whole in wholes)
        tolerance = np.maximum(spec.rel_tolerance * np.abs(estimate), spec.abs_tolerance)
        mid = 0.5 * (lo + hi)
        done = np.empty(lo.size, dtype=bool)
        pending = np.zeros(tolerance.shape)
        lefts, rights = [], []
        for k, whole in zip(blocks, wholes):
            block = slice(k, k + _SEGMENT_BLOCK)
            a, m, b = lo[block], mid[block], hi[block]
            halves = _panel_matrices(sample, np.concatenate([a, m]), np.concatenate([m, b]))
            left, right = halves[: a.size], halves[a.size :]
            refined = left + right
            error = np.abs(refined - whole)
            ok = np.all(error <= share[block, None, None] * tolerance, axis=(1, 2)) | (b - a <= min_width)
            total += refined[ok].sum(axis=0)
            pending += error[~ok].sum(axis=0)
            # The halves of a bisected segment are the whole panels of its children.
            lefts.append(left[~ok])
            rights.append(right[~ok])
            done[block] = ok
        keep = ~done
        splits += np.count_nonzero(keep)
        if splits > spec.max_subdivisions:
            i, j = np.unravel_index(np.argmax(np.triu(pending / tolerance)), tolerance.shape)
            raise ConvergenceError(
                f"Gram entry ({i}, {j}) did not converge within {spec.max_subdivisions} "
                f"subdivisions (error estimate {pending[i, j]:.3e})",
                error_estimate=float(pending[i, j]),
            )
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        share = 0.5 * np.concatenate([share[keep], share[keep]])
        blocks = range(0, lo.size, _SEGMENT_BLOCK)
        children = np.concatenate(lefts + rights)
        wholes = [children[k : k + _SEGMENT_BLOCK] for k in blocks]
    gram = np.triu(total) + np.triu(total, 1).conj().T
    np.fill_diagonal(gram, total.diagonal().real)
    return gram


@dataclass(frozen=True)
class HermitianMatrix:
    """A square complex matrix symmetrized to be exactly Hermitian.

    Construction rejects non-finite entries and inputs whose asymmetry
    ``|A - A^H|`` exceeds 1e-12 anywhere; smaller asymmetry is averaged away.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("matrix must be square")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("matrix entries must be finite")
        deviation = np.max(np.abs(arr - arr.conj().T)) if arr.size else 0.0
        if deviation > 1e-12:
            raise ValidationError(
                f"matrix is not Hermitian (max asymmetry {deviation:.3e})"
            )
        arr = 0.5 * (arr + arr.conj().T)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self):
        return self.entries.shape[0]


def hermitian_eigenvalues(matrix: HermitianMatrix) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted descending (LAPACK ``eigvalsh``)."""
    try:
        values = np.linalg.eigvalsh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"Hermitian eigensolve failed: {exc}") from exc
    return values[::-1]


def clamp_spectrum(values, floor=PSD_FLOOR):
    """Zero out roundoff-negative eigenvalues; reject real negativity.

    Values in ``[floor, 0)`` become 0; anything below ``floor`` raises
    PsdViolationError.
    """
    vals = np.asarray(values, dtype=float)
    smallest = float(vals.min()) if vals.size else 0.0
    if smallest < floor:
        raise PsdViolationError(
            f"eigenvalue {smallest:.3e} below the positive-semidefinite floor {floor:.1e}"
        )
    return np.where(vals < 0.0, 0.0, vals)
