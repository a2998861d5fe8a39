"""Encoding ensembles and the Gram-matrix data behind every capacity bound.

The output state of the channel decomposes into a vacuum component (weight
``mean_loss``) and a single-photon block whose nonzero spectrum equals that
of the small matrix ``T[i][j] = sqrt(p_i p_j) <chi_i|chi_j>`` built from the
modulated letters ``chi_i = eta * psi_i``.  Working with T reduces an
infinite-dimensional diagonalization to an N x N Hermitian one.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ComputationError, ValidationError
from .numerics import clamp_spectrum, hermitian_eigenvalues
from .spectral import closed_form_applies, modulated_overlap, quadrature_gram


def _validated_priors(priors, n):
    arr = np.array(priors, dtype=float)
    if arr.shape != (n,):
        raise ValidationError(f"expected {n} prior probabilities, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("prior probabilities must be finite")
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
    """Modulated-letter Gram matrix and priors; the per-letter statistics derive from them.

    ``gram[i][j] = integral eta^2 conj(psi_i) psi_j`` is kept as a read-only
    complex array: a read-only complex one is shared, a writable one copied
    and any other converted once; ``survival[i]`` is its diagonal
    clipped to [0, 1], computed once here, ``loss = 1 - survival``,
    ``mean_loss`` is the prior-weighted loss, and ``weighted = sqrt(P) gram
    sqrt(P)`` is the matrix carrying the output spectrum, checked by
    :func:`~speccap.numerics.hermitian_eigenvalues`.  Construction raises
    ``ValidationError`` for a non-square gram and ``ComputationError`` when
    the diagonal is NaN or leaves [0, 1] by more than 1e-10.
    """

    gram: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=complex)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValidationError(f"Gram matrix must be square, got shape {gram.shape}")
        if gram.flags.writeable and np.may_share_memory(gram, self.gram):  # the caller's array: copy it
            gram = gram.copy()
        gram.setflags(write=False)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "priors", _validated_priors(self.priors, self.n))
        diagonal = gram.diagonal().real
        if not np.all((diagonal >= -1e-10) & (diagonal <= 1.0 + 1e-10)):  # NaN fails too
            raise ComputationError(f"survival probabilities outside [0, 1]: {diagonal!r}")
        survival = np.clip(diagonal, 0.0, 1.0)
        survival.setflags(write=False)
        object.__setattr__(self, "_survival", survival)

    @property
    def n(self):
        return self.gram.shape[0]

    @property
    def survival(self):
        return self._survival

    @property
    def loss(self):
        return 1.0 - self.survival

    @property
    def mean_loss(self):
        return float(self.priors @ self.loss)

    @property
    def weighted(self):
        root = np.sqrt(self.priors)
        return root[:, None] * self.gram * root[None, :]


def compute_gram(ensemble, response):
    """Gram data of an ensemble pushed through a channel response.

    Gaussian letters through a flat or Gaussian channel take the closed form
    pair by pair, in one pass over the upper triangle; adding the conjugate
    transpose and halving the diagonal mirrors it, which keeps the matrix
    exactly Hermitian.  Every other ensemble goes through one quadrature
    node rule for the whole matrix.  The result pairs that matrix, read-only
    so it is not copied, with the ensemble's priors; a survival probability
    outside [0, 1] raises ``ComputationError``.
    """
    n = ensemble.n
    if closed_form_applies(ensemble.letters, response):
        entries = np.zeros((n, n), dtype=complex)
        entries[np.tri(n, dtype=bool).T] = [  # the upper triangle, row by row
            modulated_overlap(a, b, response) for a, b in combinations_with_replacement(ensemble.letters, 2)
        ]
        entries += entries.T.conj()
        entries.flat[:: n + 1] *= 0.5
    else:
        entries = quadrature_gram(ensemble.letters, response)
    entries.setflags(write=False)
    return GramData(entries, ensemble.priors)


def output_spectrum(gram_data):
    """Eigenvalues of the single-photon output block, descending, clamped.

    The spectrum plus the vacuum weight must form a probability vector;
    deviation beyond 1e-10 means the eigensolve went wrong.
    """
    values = clamp_spectrum(hermitian_eigenvalues(gram_data.weighted))
    mean_loss = gram_data.mean_loss
    total = float(values.sum()) + mean_loss
    if abs(total - 1.0) > 1e-10:
        raise ComputationError(
            f"output spectrum plus mean loss sums to {total!r}, expected 1"
        )
    return values, mean_loss
