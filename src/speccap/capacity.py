"""Capacity bounds: Holevo quantity, erasure-channel bound, exact two-letter case, optimal priors and alphabet size.

Everything is reported in bits per transmitted photon.  The Holevo quantity
bounds the mutual information of any receiver; the post-selected variant
conditions on photon arrival and rescales by the arrival probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GramData, comb_gram_data, compute_gram, output_spectrum
from .errors import ComputationError, ConvergenceError, ValidationError
from .numerics import clamp_spectrum, hermitian_eigenvalues
from .spectral import FlatResponse, GaussianAmplitude, GaussianPeakResponse, gaussian_comb

# Stopping gain in bits and iteration budget of :func:`optimize_priors`, read at call time.
PRIOR_TOLERANCE = 1e-9
MAX_PRIOR_ITERATIONS = 100_000


def _plog2p(x):
    return x * math.log2(x) if x > 0.0 else 0.0


def _entropy_bits(probabilities):
    """``-sum p log2 p`` over the last axis in bits, ``0 log2 0 = 0``; ``[x, 1 - x]`` rows give ``h(x)``."""
    p = np.asarray(probabilities, dtype=float)
    return -np.sum(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=-1)


def _binary_entropies(loss):
    """``_entropy_bits`` of each ``[loss, 1 - loss]``, unstacked: a loss ``1 - survival`` has no -0.0 term to sum."""
    kept = 1.0 - loss
    return -(loss * np.log2(np.where(loss > 0.0, loss, 1.0)) + kept * np.log2(np.where(kept > 0.0, kept, 1.0)))


def binary_entropy(x):
    """Entropy h(x) of a biased coin, in bits, with h(0) = h(1) = 0."""
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(float(x), 0.0), 1.0)
    return -_plog2p(x) - _plog2p(1.0 - x)


def binary_capacity(x):
    """Capacity complement 1 - h(x): 1 at x in {0, 1}, 0 at x = 1/2."""
    return 1.0 - binary_entropy(x)


@dataclass(frozen=True)
class CapacityReport:
    """Holevo and post-selected bounds plus the quantities behind them.

    Each field carries the leading axes of a stack of Gram matrices; for one
    matrix the three scalars are floats.
    """

    holevo_bits: float
    post_selected_bits: float
    mean_loss: float
    letter_entropies: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        for name in ("holevo_bits", "post_selected_bits", "mean_loss"):
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, float(value) if value.ndim == 0 else value)
        object.__setattr__(self, "letter_entropies", np.asarray(self.letter_entropies, dtype=float))
        object.__setattr__(self, "spectrum", np.asarray(self.spectrum, dtype=float))


@dataclass(frozen=True)
class ErasureBounds:
    """Erasure-channel cap on classical and quantum capacities alike."""

    q_max: float
    erasure_probability: float
    bound_bits: float


def _clip_bits(value, upper):
    outside = (value < -1e-9) | (value > upper + 1e-9)
    if outside.any():
        raise ComputationError(f"capacity {float(np.extract(outside, value)[0])!r} outside [0, {upper}]")
    # <= also turns -0.0 into +0.0, which the CSV would print as "-0".
    return np.where(value <= 0.0, 0.0, np.minimum(value, upper))


def holevo_bound(gram_data):
    """Holevo and post-selected capacity bounds for precomputed Gram data.

    The output-state entropy splits into the vacuum term and the
    single-photon spectrum; each letter contributes a binary
    transmitted-or-lost entropy.  A stack of Gram matrices is solved by one
    eigensolve and one entropy pass, and each matrix gets exactly the bounds
    of a solve of it alone.  A :class:`~speccap.channel.MirrorGramData`
    stack, the distinct entries of centrosymmetric matrices under uniform
    priors, has its even and odd blocks built from those entries directly
    (:func:`~speccap.channel.output_spectrum`); its bounds are those of
    ``GramData`` of the whole matrices to eigensolver roundoff.
    """
    spectrum, mean_loss = output_spectrum(gram_data)
    loss = gram_data.loss
    letter_entropies = _binary_entropies(loss)
    spectrum_entropy = _entropy_bits(spectrum)
    vacuum = -mean_loss * np.log2(np.where(mean_loss > 0.0, mean_loss, 1.0))
    holevo = vacuum + spectrum_entropy - np.vecdot(letter_entropies, gram_data.priors)
    # arrival * H(spectrum / arrival), from the same entropy pass.
    arrival = 1.0 - mean_loss
    post_selected = np.where(
        arrival > 0.0,
        spectrum_entropy + spectrum.sum(axis=-1) * np.log2(np.where(arrival > 0.0, arrival, 1.0)),
        0.0,
    )

    max_bits = math.log2(gram_data.n) if gram_data.n > 1 else 0.0
    return CapacityReport(
        holevo_bits=_clip_bits(holevo, max_bits),
        post_selected_bits=_clip_bits(post_selected, max_bits),
        mean_loss=mean_loss,
        letter_entropies=letter_entropies,
        spectrum=spectrum,
    )


def erasure_bounds(sigma_psi, sigma_eta, p_peak, n_letters):
    """Best-case survival through a Gaussian passband caps all capacities.

    The survival probability of a Gaussian letter is maximised by centring
    it on the passband; treating every transmission failure as a flagged
    erasure bounds the classical and both quantum capacities by
    ``q_max * log2(N)``, finite in the ranges of the letter and channel that check its arguments.
    """
    letter = GaussianAmplitude(0.0, sigma_psi)
    response = GaussianPeakResponse(p_peak, sigma_eta)
    if not (isinstance(n_letters, (int, np.integer)) and n_letters >= 1):
        raise ValidationError("letter count must be a positive integer")
    q_max = response.peak_probability / (letter.width * math.sqrt(letter.width**-2 + response.width**-2))
    return ErasureBounds(
        q_max=q_max,
        erasure_probability=1.0 - q_max,
        bound_bits=q_max * math.log2(n_letters),
    )


def _check_width_ratio(lam):
    """ValidationError unless the overlap rate ``1 / (4 lam^2 (1 + lam^2))`` is a positive finite float.

    That holds for ``lam`` from about 3.7e-155 to about 8.2e76.
    """
    if not lam > 0:
        raise ValidationError("width ratio must be positive")
    lam = float(lam)
    denominator = 4.0 * lam * lam * (1.0 + lam * lam)
    if not (denominator > 0.0 and 0.0 < 1.0 / denominator < math.inf):
        raise ValidationError(f"width ratio {lam!r} is outside the closed form's range")


def two_state_exact(delta, lam, p_peak=1.0):
    """Exact capacity of two symmetric Gaussian letters through a Gaussian passband.

    ``delta`` is the letter separation and ``lam`` the letter width, both in
    units of the channel width.  The two modulated letters are again
    Gaussian; their survival probability and normalized overlap c give the
    known two-pure-state capacity q0 * (1 - h((1 - sqrt(1 - c^2)) / 2)).
    A ``lam`` outside :func:`_check_width_ratio`'s range raises ValidationError.
    """
    if not delta >= 0:
        raise ValidationError("letter separation must be non-negative")
    _check_width_ratio(lam)
    if not 0.0 <= p_peak <= 1.0:
        raise ValidationError("peak transmission probability must lie in [0, 1]")
    lam_sq1 = 1.0 + lam * lam
    q0 = p_peak * math.exp(-(delta * delta) / (8.0 * lam_sq1)) / math.sqrt(lam_sq1)
    return q0 * _two_pure_state_bits((delta * delta) / (4.0 * lam * lam * lam_sq1))


def _two_pure_state_bits(exponent):
    """``1 - h((1 - s) / 2)`` in bits for two pure states with overlap ``c^2 = exp(-exponent)``, ``s = sqrt(1 - c^2)``.

    That is ``((1 + s) ln(1 + s) + (1 - s) ln(1 - s)) / (2 ln 2)``, whose two
    terms are about ``+-s`` and cancel to ``s^2 / (2 ln 2)`` as ``s -> 0``, as
    ``1 - h`` does.  With ``ln(1 - s^2) = -exponent`` it is
    ``(2 s log1p(s) - (1 - s) exponent) / (2 ln 2)``, whose terms cancel at
    most by half: within 2e-15 relative for every exponent.
    """
    s = math.sqrt(-math.expm1(-exponent))
    if s == 1.0:
        return 1.0  # also for an infinite exponent, where (1 - s) * exponent is NaN
    return (2.0 * s * math.log1p(s) - (1.0 - s) * exponent) / (2.0 * math.log(2.0))


def _two_state_slope(delta, lam):
    """A positive multiple of ``d two_state_exact / d delta`` at ``delta > 0``.

    With ``r = 1 / (4 lam^2 (1 + lam^2))``, ``c^2 = exp(-r delta^2)``,
    ``s = sqrt(1 - c^2)`` and ``x = (1 - s) / 2``, the derivative is
    ``q0 * delta`` times ``r c^2 atanh(s) / (s ln 2) - (1 - h(x)) / (4 (1 + lam^2))``.
    ``atanh(s)`` is taken as ``log1p(s) + r delta^2 / 2``, finite as
    ``c -> 0``, and ``1 - h(x)`` from :func:`_two_pure_state_bits`, exact
    to rounding as ``s -> 0``, where both terms are about ``r / ln 2``.
    """
    lam_sq1 = 1.0 + lam * lam
    rate = 1.0 / (4.0 * lam * lam * lam_sq1)
    exponent = rate * delta * delta
    overlap_sq = math.exp(-exponent)
    s = math.sqrt(-math.expm1(-exponent))
    gain = rate * overlap_sq * ((math.log1p(s) + 0.5 * exponent) / s) / math.log(2.0)  # rate * s may underflow
    return gain - _two_pure_state_bits(exponent) / (4.0 * lam_sq1)


def two_state_max(lam, p_peak=1.0):
    """Maximise :func:`two_state_exact` over the letter separation.

    Bisection on the sign of the analytic derivative over the window
    [1e-6, max(50, 10 * lam)], down to adjacent floating-point numbers; the
    derivative changes sign once, from positive to negative.  The best
    separation, about 2.83 * lam for wide letters, does not depend on
    ``p_peak`` (the capacity is proportional to it), so the search runs at
    unit peak.  Below ``lam`` of about 8e-8 it lies under the window start,
    and a derivative that is not positive at the start and negative at the
    end raises ConvergenceError naming that window edge.  Returns
    ``(best_bits, best_separation)``.  The derivative crosses zero with a
    nonzero slope, so ``best_separation`` is well conditioned even though
    the maximum itself is flat.
    """
    _check_width_ratio(lam)
    a, b = 1e-6, max(50.0, 10.0 * lam)
    for edge, inward in ((a, 1.0), (b, -1.0)):
        if not inward * _two_state_slope(edge, lam) > 0.0:  # the capacity rises into the window
            raise ConvergenceError(
                f"separation maximum lies on the search window edge {edge!r}", error_estimate=b - a
            )
    mid = 0.5 * (a + b)
    while a < mid < b:
        if _two_state_slope(mid, lam) > 0.0:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return two_state_exact(mid, lam, p_peak), mid


def _letter_divergences(gram, loss, weights):
    """Every letter's divergence ``D_i = D(rho_i || rho)`` from the mixture, in bits, by one ``eigh``.

    With ``sqrt(W) G sqrt(W) = U diag(lam) U^H`` and ``M = U^H sqrt(W) G``,
    ``<chi_i| log rho |chi_i> = sum_k |M_ki|^2 log lam_k / lam_k``.  No
    weight is divided by, so a zero weight still gives a finite ``D_i``: that
    of the part of letter i inside the support of ``rho``.  ``weights @ D``
    is the Holevo quantity, and ``D_i - log2 e`` its derivative in weight i.
    An eigenvalue within roundoff of 0 (at most ``eps lam_max``) counts as
    null space: its ``M_ki``, exactly ``lam_k conj(U_ik) / sqrt(w_i)``, is
    resolved only to about ``eps``, so ``|M_ki|^2 / lam_k`` would be noise
    (a roundoff eigenvalue of 1.7e-48 makes every ``D_i`` of 5 identical
    letters 2.5e16).  So does one at or below 1e-300, where ``log2(lam) /
    lam`` overflows.
    """
    root = np.sqrt(weights)
    rows = root[:, None] * gram  # sqrt(W) G, the left factor of both products below
    values, vectors = hermitian_eigenvalues(rows * root, vectors=True)
    values = clamp_spectrum(values)
    floor = max(np.finfo(float).eps * values[0], 1e-300)
    safe = np.where(values > floor, values, 1.0)  # log2(1) / 1 = 0 drops the null space
    photon = (np.log2(safe) / safe) @ np.abs(vectors.conj().T @ rows) ** 2
    mean_loss = float(weights @ loss)
    vacuum = loss * math.log2(mean_loss) if mean_loss > 0.0 else 0.0
    return -_binary_entropies(loss) - vacuum - photon


def optimize_priors(ensemble, response):
    """Priors raising the Holevo bound, by over-relaxed Blahut-Arimoto steps.

    The gradient in prior i is ``D_i - log2 e`` (:func:`_letter_divergences`).
    From the uniform prior, each iteration tries ``p_i <- p_i e^{step D_i} / Z``
    (Nagaoka 1998; Matz & Duhamel, ITW 2004), doubling ``step`` (to at most
    1e6) after a gain and halving it until the Holevo quantity rises.  The
    stop, a gain below ``PRIOR_TOLERANCE`` bits or none, is a heuristic: where
    the objective is flat it can fall well short of the maximum.  Returns
    ``(priors, report)``, never worse than the uniform prior.  Running out of
    ``MAX_PRIOR_ITERATIONS`` raises ConvergenceError carrying ``max_i D_i - chi``,
    which bounds the distance to capacity from above while every prior is positive.
    """
    if ensemble.n < 2:
        raise ValidationError("prior optimization needs at least two letters")
    base = compute_gram(ensemble, response)
    loss = base.loss

    weights = np.full(ensemble.n, 1.0 / ensemble.n)
    divergences = _letter_divergences(base.gram, loss, weights)
    value = float(weights @ divergences)
    step = 1.0

    for _ in range(MAX_PRIOR_ITERATIONS):
        # The letter with the largest divergence in the support keeps the factor
        # e^0, so the sum stays positive; no factor exceeds 1, so 0 stays 0.
        exponent = np.minimum(divergences - divergences[weights > 0.0].max(), 0.0)
        improvement = -math.inf  # stays below PRIOR_TOLERANCE if no step gains
        while step > 1e-14:
            candidate = weights * np.exp(step * exponent)
            candidate /= candidate.sum()
            candidate_divergences = _letter_divergences(base.gram, loss, candidate)
            candidate_value = float(candidate @ candidate_divergences)
            if candidate_value > value:
                improvement = candidate_value - value
                weights, divergences, value = candidate, candidate_divergences, candidate_value
                step = min(step * 2.0, 1e6)
                break
            step *= 0.5
        if improvement < PRIOR_TOLERANCE:
            break
    else:
        raise ConvergenceError(
            f"prior optimization did not converge within {MAX_PRIOR_ITERATIONS} iterations",
            error_estimate=float(divergences.max()) - value,
        )

    final = GramData(base.gram, weights / weights.sum())
    return final.priors, holevo_bound(final)


def optimal_alphabet_size(
    response,
    sigma_psi,
    spacing,
    centering="symmetric",
    n_max=64,
    post_select=False,
):
    """Scan alphabet sizes 1..n_max of a Gaussian comb with uniform priors; return the best.

    For band-limited channels the bound peaks at a finite size: extra
    letters eventually sit where the channel is opaque and only dilute the
    ensemble.  Ties break toward the smaller alphabet.  Returns
    ``(best_n, best_bits, curve)`` where curve lists ``(n, bits)``.
    ``response`` must be a ``FlatResponse`` or a ``GaussianPeakResponse``,
    the channels of the closed form; any other raises ValidationError.
    Each comb is built as :func:`~speccap.spectral.gaussian_comb` arrays and
    solved by the sweep's route, :func:`~speccap.channel.comb_gram_data`.
    The largest comb is checked first: its centres reach furthest, so it
    raises the ValidationError a smaller one would, or the letter cap's,
    before any work is done.
    """
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 1):
        raise ValidationError("maximum alphabet size must be a positive integer")
    if not isinstance(response, (FlatResponse, GaussianPeakResponse)):
        raise ValidationError(f"alphabet-size scan needs a flat or Gaussian-peak channel, got {type(response).__name__}")
    gaussian_comb(n_max, spacing, sigma_psi, centering)
    curve = []
    best_n, best_bits = 1, -math.inf
    for n in range(1, n_max + 1):
        stack, gram_data = comb_gram_data(gaussian_comb(n, spacing, sigma_psi, centering), [response])
        report = holevo_bound(gram_data(stack[0]))
        bits = report.post_selected_bits if post_select else report.holevo_bits
        curve.append((n, bits))
        if bits > best_bits:
            best_n, best_bits = n, bits
    return best_n, best_bits, curve
