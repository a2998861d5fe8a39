"""Encoding ensembles and the Gram-matrix data behind every capacity bound.

The output state of the channel decomposes into a vacuum component (weight
``mean_loss``) and a single-photon block whose nonzero spectrum equals that
of the small matrix ``T[i][j] = sqrt(p_i p_j) <chi_i|chi_j>`` built from the
modulated letters ``chi_i = eta * psi_i``, whose Gram matrix comes from
:func:`speccap.spectral.gram_matrix`.  Working with T reduces an
infinite-dimensional diagonalization to an N x N Hermitian one.
:func:`comb_gram_data` is the one route of a comb given as arrays, or of a
stack of combs, for the ``sweep`` and the alphabet-size scan alike: a comb
whose centres and widths are an exact mirror (:func:`is_mirror_comb`) has
centrosymmetric Gram matrices, kept as the upper triangles of their two half
blocks by :class:`MirrorGramData` and solved as even and odd blocks; any
other comb's whole matrices are kept by :class:`GramData` and solved whole.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .numerics import (
    centrosymmetric_eigenvalues,
    clamp_spectrum,
    hermitian_eigenvalues,
    mirror_diagonal,
    mirror_halves,
)
from .spectral import comb_grams, comb_overlaps, gram_matrix, survival_window


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
        return cls(letters, np.ones(len(letters)) / len(letters))  # no letters: empty priors, no 1 / 0

    @property
    def n(self):
        return len(self.letters)


def _read_only(entries):
    """``entries`` read-only as float64 or complex128: shared if read-only of that dtype, else copied or converted once."""
    arr = np.asarray(entries)
    arr = arr.astype(np.result_type(arr, float), copy=False)
    if arr.flags.writeable and np.may_share_memory(arr, entries):  # the caller's array: copy it
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GramData:
    """Modulated-letter Gram matrix and priors; the per-letter statistics derive from them.

    ``gram[i][j] = integral eta^2 conj(psi_i) psi_j`` is kept as a read-only
    array, float64 if it is real and complex128 otherwise: a read-only one of
    that dtype is shared, a writable one copied and any other converted
    once; ``survival[i]`` is its diagonal, computed once here by
    :func:`~speccap.spectral.survival_window`, ``loss = 1 - survival``,
    ``mean_loss`` is the prior-weighted loss, and ``weighted = sqrt(P) gram
    sqrt(P)`` is the matrix carrying the output spectrum, checked by
    :func:`~speccap.numerics.hermitian_eigenvalues`.  ``gram`` may also be a
    ``(..., N, N)`` stack of matrices sharing the priors; every statistic
    then carries the stack's leading axes, and ``mean_loss`` is an array
    instead of a float.  Construction raises ``ValidationError`` for a
    non-square gram or bad priors and ``ComputationError`` when a diagonal
    is NaN or leaves [0, 1] by more than 1e-10.
    """

    gram: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        gram = _read_only(self.gram)
        if gram.ndim < 2 or gram.shape[-1] != gram.shape[-2]:
            raise ValidationError(f"Gram matrix must be square, got shape {gram.shape}")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "priors", _validated_priors(self.priors, self.n))
        object.__setattr__(self, "survival", survival_window(gram.diagonal(axis1=-2, axis2=-1).real))

    @property
    def n(self):
        return self.gram.shape[-1]

    @property
    def loss(self):
        return 1.0 - self.survival

    @property
    def mean_loss(self):
        mean = np.vecdot(self.loss, self.priors)  # the bits of priors @ loss, per matrix of a stack
        return float(mean) if mean.ndim == 0 else mean

    @property
    def weighted(self):
        root = np.sqrt(self.priors)
        weighted = root[:, None] * self.gram
        weighted *= root
        return weighted

    def _eigenvalues(self):
        return hermitian_eigenvalues(self.weighted)


class MirrorGramData:
    """Uniform-prior Gram data of real centrosymmetric Gram matrices, ``G = J G J``, kept as their two half blocks.

    A comb whose centres and widths are an exact mirror, through a flat or
    Gaussian-peak channel, has such matrices (``J`` is the reversal).
    ``halves`` is the real ``(..., K (K + 1))`` stack of their entries at the
    :func:`~speccap.numerics.mirror_halves` places of ``N = len(priors)``,
    kept read-only as GramData keeps a matrix; a complex ``halves``, one of
    any other length, or priors that are not uniform raise
    ``ValidationError``.  ``priors``, ``survival``, ``loss`` and
    ``mean_loss`` are those of GramData of the whole matrices, bit for bit,
    and ``weighted`` holds the same entries of ``sqrt(P) G sqrt(P)``, each
    ``(r g) r`` with ``r = sqrt(1 / N)``; its even and odd blocks are solved
    by :func:`~speccap.numerics.centrosymmetric_eigenvalues`, whose values
    agree with the whole matrices' to eigensolver roundoff.  The whole
    matrices are never formed, so there is no ``gram``.
    """

    __slots__ = ("halves", "priors", "survival")
    loss = GramData.loss
    mean_loss = GramData.mean_loss

    def __init__(self, halves, priors):
        priors = _validated_priors(priors, np.size(priors))
        if np.any(priors != priors[0]):
            raise ValidationError("priors of MirrorGramData must be uniform")
        halves = _read_only(halves)
        if np.iscomplexobj(halves):
            raise ValidationError("half-block Gram entries of MirrorGramData must be real")
        places = mirror_halves(priors.size)[0].size
        if halves.ndim < 1 or halves.shape[-1] != places:
            raise ValidationError(f"expected {places} half-block Gram entries, got shape {halves.shape}")
        self.halves, self.priors = halves, priors
        self.survival = survival_window(mirror_diagonal(halves, self.n))

    @property
    def n(self):
        return self.priors.size

    @property
    def weighted(self):
        root = np.sqrt(self.priors[0])
        weighted = self.halves * root
        weighted *= root
        return weighted

    def _eigenvalues(self):
        return centrosymmetric_eigenvalues(self.weighted, self.n)


def is_mirror_comb(comb):
    """Whether the centres and widths of ``comb``, or of every comb of a ``(D, N)`` stack, are an exact mirror.

    That is ``center == -center[::-1]`` and ``width == width[::-1]``, as every
    symmetric comb's are: the rule by which :func:`comb_gram_data` picks a
    comb's route, and a sweep keeps combs of the two routes apart and sizes
    their blocks.
    """
    center, width = comb
    return np.array_equal(center, -center[..., ::-1]) and np.array_equal(width, width[..., ::-1])


def comb_gram_data(comb, responses):
    """The Gram entries of ``comb``'s letters through each of ``responses``, and how to read them as Gram data.

    ``comb`` is the letters' ``center`` and ``width`` arrays, as
    :func:`~speccap.spectral.gaussian_comb` returns them, or ``(D, N)``
    stacks of D such combs, and the responses are flat or Gaussian peaks, so
    every channel is even.  Returns ``(stack, gram_data)``: ``stack`` has a
    member per response, ``(B, ...)``, or per comb and response, ``(D, B,
    ...)``; ``gram_data(stack)`` is the Gram data of the whole stack and
    ``gram_data(member)`` that of one member alone, both with uniform priors
    and sharing the read-only stack.  Combs that
    are all an exact mirror (:func:`is_mirror_comb`), as every symmetric
    comb is, have centrosymmetric Gram matrices: ``stack`` holds only the
    upper triangles of their two half blocks,
    :func:`~speccap.spectral.comb_overlaps` at the
    :func:`~speccap.numerics.mirror_halves` places, read by
    :class:`MirrorGramData`.  Any other ``stack`` is the whole matrices,
    :func:`~speccap.spectral.comb_grams`, read by :class:`GramData`.  Each
    comb's entries are bitwise those it gets alone, on the same route.
    """
    n = comb[0].shape[-1]
    if is_mirror_comb(comb):
        stack, gram_data = comb_overlaps(comb, responses, mirror_halves(n)), MirrorGramData
    else:
        stack, gram_data = comb_grams(comb, responses), GramData
    stack.setflags(write=False)  # so the Gram data shares it instead of copying
    return stack, functools.partial(gram_data, priors=np.full(n, 1.0 / n))


def compute_gram(ensemble, response):
    """Gram data of an ensemble pushed through a channel response.

    :func:`~speccap.spectral.gram_matrix` builds the matrix by the closed
    form or by quadrature; it is paired, read-only so it is not copied, with
    the ensemble's priors.  A survival probability outside [0, 1] raises
    ``ComputationError``.
    """
    entries = gram_matrix(ensemble.letters, response)
    entries.setflags(write=False)
    return GramData(entries, ensemble.priors)


def output_spectrum(gram_data):
    """Eigenvalues of the single-photon output block, descending, clamped, and the mean loss.

    For a stack of Gram matrices both carry its leading axes, from one
    eigensolve, bitwise those of each matrix alone.  The eigensolve is that
    of :func:`~speccap.numerics.hermitian_eigenvalues` on the whole weighted
    matrix, or, for :class:`MirrorGramData`, of its even and odd blocks built
    from its half blocks, which gives the same values to eigensolver
    roundoff and the same mean loss bit for bit.  Each spectrum plus its
    vacuum weight must form a probability vector; deviation beyond 1e-10
    means the eigensolve went wrong.
    """
    values = clamp_spectrum(gram_data._eigenvalues())
    mean_loss = gram_data.mean_loss
    total = values.sum(axis=-1) + mean_loss
    wrong = np.abs(total - 1.0) > 1e-10
    if wrong.any():
        raise ComputationError(
            f"output spectrum plus mean loss sums to {float(np.extract(wrong, total)[0])!r}, expected 1"
        )
    return values, mean_loss
