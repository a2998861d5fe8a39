"""Numerical primitives: adaptive quadrature on the line and small Hermitian eigenproblems.

Quadrature uses fixed-order Gauss-Legendre panels refined by bisection,
which is deterministic and robust for the smooth, rapidly decaying
integrands here.  Eigenvalues come from LAPACK through
``numpy.linalg.eigvalsh``; matrices are small (N up to ~128).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ConvergenceError, PsdViolationError, ValidationError

# Fixed panel rule. 21 points integrate smooth Gaussian-type factors to
# machine precision on panels comparable to the integrand width.
_GL_ORDER = 21
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy targets and domain truncation for :func:`integrate`."""

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


def _panel(f, a, b):
    """Fixed-order Gauss-Legendre estimate of the integral over [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    values = np.asarray(f(mid + half * _GL_NODES))
    return complex(half * np.dot(_GL_WEIGHTS, values))


def integrate(f, center, width, spec=DEFAULT_QUADRATURE):
    """Integrate ``f`` over ``center +- truncation_sigmas * width``.

    ``f`` must accept a numpy array of abscissae and return complex (or real)
    values of the same shape.  The domain is subdivided adaptively until the
    bisection error estimate of every panel is below its share of
    ``max(rel_tolerance * |integral|, abs_tolerance)``.

    Raises ConvergenceError (carrying the worst error estimate) when the
    subdivision budget runs out.
    """
    if not width > 0:
        raise ValidationError("width must be positive")
    lo = center - spec.truncation_sigmas * width
    hi = center + spec.truncation_sigmas * width

    whole = _panel(f, lo, hi)
    tolerance = max(spec.rel_tolerance * abs(whole), spec.abs_tolerance)

    splits_left = spec.max_subdivisions
    total = 0.0 + 0.0j
    worst_error = 0.0
    # Work stack of (a, b, parent_estimate, tolerance_share); LIFO with the
    # left half pushed last so panels are accepted left to right.
    stack = [(lo, hi, whole, tolerance)]
    while stack:
        a, b, parent, tol = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel(f, a, mid)
        right = _panel(f, mid, b)
        err = abs(left + right - parent)
        if err <= tol or (b - a) <= 1e-14 * (hi - lo):
            total += left + right
            worst_error = max(worst_error, err)
            continue
        if splits_left <= 0:
            raise ConvergenceError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (error estimate {err:.3e})",
                error_estimate=err,
            )
        splits_left -= 1
        stack.append((mid, b, right, 0.5 * tol))
        stack.append((a, mid, left, 0.5 * tol))
    return total


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
