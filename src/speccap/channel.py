"""Encoding ensembles and the Gram-matrix data behind every capacity bound.

The output state of the channel decomposes into a vacuum component (weight
``mean_loss``) and a single-photon block whose nonzero spectrum equals that
of the small matrix ``T[i][j] = sqrt(p_i p_j) <chi_i|chi_j>`` built from the
modulated letters ``chi_i = eta * psi_i``.  Working with T reduces an
infinite-dimensional diagonalization to an N x N Hermitian one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .numerics import (
    DEFAULT_QUADRATURE,
    HermitianMatrix,
    clamp_spectrum,
    hermitian_eigenvalues,
)
from .spectral import closed_form_applies, modulated_overlap, quadrature_gram


def _validated_priors(priors, n):
    arr = np.array(priors, dtype=float)
    if arr.shape != (n,):
        raise ValidationError(f"expected {n} prior probabilities, got shape {arr.shape}")
    if np.any(arr < 0.0):
        raise ValidationError("prior probabilities must be non-negative")
    if abs(float(arr.sum()) - 1.0) > 1e-12:
        raise ValidationError(f"prior probabilities must sum to 1 (got {arr.sum()!r})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EncodingEnsemble:
    """Letters (spectral amplitudes) with their prior probabilities."""

    letters: tuple
    priors: np.ndarray

    def __post_init__(self):
        letters = tuple(self.letters)
        if len(letters) < 1:
            raise ValidationError("ensemble needs at least one letter")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "priors", _validated_priors(self.priors, len(letters)))

    @classmethod
    def uniform(cls, letters):
        letters = tuple(letters)
        return cls(letters, np.full(len(letters), 1.0 / len(letters)))

    @property
    def n(self):
        return len(self.letters)


@dataclass(frozen=True)
class GramData:
    """Modulated-letter Gram matrix plus the derived per-letter statistics.

    ``gram[i][j] = integral eta^2 conj(psi_i) psi_j``; ``survival[i]`` is its
    diagonal, ``loss = 1 - survival``, and ``weighted`` is the prior-weighted
    matrix carrying the output spectrum.
    """

    gram: HermitianMatrix
    weighted: HermitianMatrix
    priors: np.ndarray
    survival: np.ndarray
    loss: np.ndarray
    mean_loss: float

    def __post_init__(self):
        n = self.gram.dimension
        priors = _validated_priors(self.priors, n)
        survival = np.asarray(self.survival, dtype=float)
        loss = np.asarray(self.loss, dtype=float)
        if self.weighted.dimension != n or survival.shape != (n,) or loss.shape != (n,):
            raise ValidationError("inconsistent Gram data shapes")
        for name, values in (("survival", survival), ("loss", loss)):
            if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
                raise ValidationError(f"{name} probabilities must lie in [0, 1]")
        if not -1e-12 <= self.mean_loss <= 1.0 + 1e-12:
            raise ValidationError("mean loss must lie in [0, 1]")
        trace = float(np.trace(self.weighted.entries).real)
        if abs(trace - (1.0 - self.mean_loss)) > 1e-10:
            raise ValidationError(
                f"weighted Gram trace {trace!r} inconsistent with mean loss {self.mean_loss!r}"
            )
        object.__setattr__(self, "priors", priors)

    @property
    def n(self):
        return self.gram.dimension


def _weighted_from_gram(gram_entries, priors):
    root = np.sqrt(priors)
    return root[:, None] * gram_entries * root[None, :]


def compute_gram(ensemble, response, spec=DEFAULT_QUADRATURE):
    """Gram data of an ensemble pushed through a channel response.

    Gaussian letters through a flat or Gaussian channel take the closed form
    pair by pair; only the upper triangle is computed and its mirror image
    keeps the matrix exactly Hermitian.  Every other ensemble goes through
    one quadrature node rule for the whole matrix.
    """
    n = ensemble.n
    if closed_form_applies(ensemble.letters, response):
        entries = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                value = modulated_overlap(ensemble.letters[i], ensemble.letters[j], response, spec=spec)
                entries[i, j] = value
                entries[j, i] = np.conj(value)
    else:
        entries = quadrature_gram(ensemble.letters, response, spec)
    survival = entries.diagonal().real.copy()
    if np.any(survival < -1e-10) or np.any(survival > 1.0 + 1e-10):
        raise ComputationError(f"survival probabilities outside [0, 1]: {survival!r}")
    survival = np.clip(survival, 0.0, 1.0)
    loss = 1.0 - survival
    priors = ensemble.priors
    return GramData(
        gram=HermitianMatrix(entries),
        weighted=HermitianMatrix(_weighted_from_gram(entries, priors)),
        priors=priors,
        survival=survival,
        loss=loss,
        mean_loss=float(priors @ loss),
    )


def reweight(gram_data, priors):
    """Same letters and channel, different priors; no integrals recomputed."""
    priors = _validated_priors(priors, gram_data.n)
    return GramData(
        gram=gram_data.gram,
        weighted=HermitianMatrix(_weighted_from_gram(gram_data.gram.entries, priors)),
        priors=priors,
        survival=gram_data.survival,
        loss=gram_data.loss,
        mean_loss=float(priors @ gram_data.loss),
    )


def output_spectrum(gram_data):
    """Eigenvalues of the single-photon output block, descending, clamped.

    The spectrum plus the vacuum weight must form a probability vector;
    deviation beyond 1e-10 means the eigensolve went wrong.
    """
    values = clamp_spectrum(hermitian_eigenvalues(gram_data.weighted))
    total = float(values.sum()) + gram_data.mean_loss
    if abs(total - 1.0) > 1e-10:
        raise ComputationError(
            f"output spectrum plus mean loss sums to {total!r}, expected 1"
        )
    return values, gram_data.mean_loss
