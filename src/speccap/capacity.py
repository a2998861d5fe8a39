"""Capacity bounds: Holevo quantity, erasure-channel bound, exact two-letter case.

Everything is reported in bits per transmitted photon.  The Holevo quantity
bounds the mutual information of any receiver; the post-selected variant
conditions on photon arrival and rescales by the arrival probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EncodingEnsemble, GramData, compute_gram, output_spectrum
from .errors import ComputationError, ConvergenceError, ValidationError
from .numerics import clamp_spectrum, hermitian_eigenvalues
from .spectral import make_gaussian_basis


def _plog2p(x):
    return x * math.log2(x) if x > 0.0 else 0.0


def _entropy_bits(probabilities):
    """``-sum p log2 p`` over the last axis in bits, ``0 log2 0 = 0``; ``[x, 1 - x]`` rows give ``h(x)``."""
    p = np.asarray(probabilities, dtype=float)
    return -np.sum(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=-1)


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
    """Holevo and post-selected bounds plus the quantities behind them."""

    holevo_bits: float
    post_selected_bits: float
    mean_loss: float
    letter_entropies: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "letter_entropies", np.asarray(self.letter_entropies, dtype=float))
        object.__setattr__(self, "spectrum", np.asarray(self.spectrum, dtype=float))


@dataclass(frozen=True)
class ErasureBounds:
    """Erasure-channel cap on classical and quantum capacities alike."""

    q_max: float
    erasure_probability: float
    bound_bits: float


def _clip_bits(value, upper):
    if value < -1e-9 or value > upper + 1e-9:
        raise ComputationError(f"capacity {value!r} outside [0, {upper}]")
    if value <= 0.0:
        return 0.0  # also turns -0.0 into +0.0, which the CSV would print as "-0"
    return min(value, upper)


def holevo_bound(gram_data):
    """Holevo and post-selected capacity bounds for precomputed Gram data.

    The output-state entropy splits into the vacuum term and the
    single-photon spectrum; each letter contributes a binary
    transmitted-or-lost entropy.
    """
    spectrum, mean_loss = output_spectrum(gram_data)
    loss = gram_data.loss
    letter_entropies = _entropy_bits(np.stack([loss, 1.0 - loss], axis=-1))
    spectrum_entropy = float(_entropy_bits(spectrum))
    holevo = -_plog2p(mean_loss) + spectrum_entropy - float(gram_data.priors @ letter_entropies)
    # arrival * H(spectrum / arrival), from the same entropy pass.
    arrival = 1.0 - mean_loss
    post_selected = spectrum_entropy + float(spectrum.sum()) * math.log2(arrival) if arrival > 0.0 else 0.0

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
    ``q_max * log2(N)``.
    """
    if not (sigma_psi > 0 and sigma_eta > 0):
        raise ValidationError("widths must be positive")
    if not 0.0 <= p_peak <= 1.0:
        raise ValidationError("peak transmission probability must lie in [0, 1]")
    if not (isinstance(n_letters, (int, np.integer)) and n_letters >= 1):
        raise ValidationError("letter count must be a positive integer")
    q_max = p_peak / (sigma_psi * math.sqrt(sigma_psi**-2 + sigma_eta**-2))
    return ErasureBounds(
        q_max=q_max,
        erasure_probability=1.0 - q_max,
        bound_bits=q_max * math.log2(n_letters),
    )


def two_state_exact(delta, lam, p_peak=1.0):
    """Exact capacity of two symmetric Gaussian letters through a Gaussian passband.

    ``delta`` is the letter separation and ``lam`` the letter width, both in
    units of the channel width.  The two modulated letters are again
    Gaussian; their survival probability and normalized overlap c give the
    known two-pure-state capacity q0 * (1 - h((1 - sqrt(1 - c^2)) / 2)).
    """
    if delta < 0:
        raise ValidationError("letter separation must be non-negative")
    if not lam > 0:
        raise ValidationError("width ratio must be positive")
    if not 0.0 <= p_peak <= 1.0:
        raise ValidationError("peak transmission probability must lie in [0, 1]")
    lam_sq1 = 1.0 + lam * lam
    q0 = p_peak * math.exp(-(delta * delta) / (8.0 * lam_sq1)) / math.sqrt(lam_sq1)
    overlap_sq = math.exp(-(delta * delta) / (4.0 * lam * lam * lam_sq1))
    return q0 * binary_capacity(0.5 * (1.0 - math.sqrt(1.0 - overlap_sq)))


def _two_state_slope(delta, lam):
    """A positive multiple of ``d two_state_exact / d delta`` at ``delta > 0``.

    With ``r = 1 / (4 lam^2 (1 + lam^2))``, ``c^2 = exp(-r delta^2)``,
    ``s = sqrt(1 - c^2)`` and ``x = (1 - s) / 2``, the derivative is
    ``q0 * delta`` times ``r c^2 atanh(s) / (s ln 2) - (1 - h(x)) / (4 (1 + lam^2))``.
    ``atanh(s)`` is taken as ``log1p(s) + r delta^2 / 2``, finite as
    ``c -> 0``, and ``x`` as ``c^2 / (2 (1 + s))``, exact as ``s -> 1``.
    """
    lam_sq1 = 1.0 + lam * lam
    rate = 1.0 / (4.0 * lam * lam * lam_sq1)
    exponent = rate * delta * delta
    overlap_sq = math.exp(-exponent)
    s = math.sqrt(-math.expm1(-exponent))
    gain = rate * overlap_sq * (math.log1p(s) + 0.5 * exponent) / (s * math.log(2.0))
    return gain - binary_capacity(0.5 * overlap_sq / (1.0 + s)) / (4.0 * lam_sq1)


# Points of the coarse separation grid that brackets the two-letter maximum.
TWO_STATE_COARSE_POINTS = 128


def two_state_max(lam, p_peak=1.0):
    """Maximise :func:`two_state_exact` over the letter separation.

    Coarse grid on [1e-6, max(50, 10 * lam)] to bracket the (unimodal)
    maximum, then bisection on the sign of the analytic derivative, down to
    adjacent floating-point numbers.  The best separation, about
    2.83 * lam, does not depend on ``p_peak`` (the capacity is proportional
    to it), so the search runs at unit peak.  A coarse maximum on either
    edge of the window, or a bracket the derivative does not change sign
    across, raises ConvergenceError.  Returns ``(best_bits, best_separation)``.
    The derivative crosses zero with a nonzero slope, so ``best_separation``
    is well conditioned even though the maximum itself is flat.
    """
    if not lam > 0:
        raise ValidationError("width ratio must be positive")
    grid = np.linspace(1e-6, max(50.0, 10.0 * lam), TWO_STATE_COARSE_POINTS)
    values = [two_state_exact(d, lam) for d in grid]
    best = int(np.argmax(values))
    if best in (0, grid.size - 1):
        raise ConvergenceError(
            f"separation maximum lies on the search window edge {float(grid[best])!r}",
            error_estimate=float(grid[1] - grid[0]),
        )

    a, b = float(grid[best - 1]), float(grid[best + 1])
    if not _two_state_slope(a, lam) > 0.0 > _two_state_slope(b, lam):
        raise ConvergenceError(
            f"separation derivative does not change sign on [{a}, {b}]", error_estimate=b - a
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
    """
    root = np.sqrt(weights)
    values, vectors = hermitian_eigenvalues(root[:, None] * gram * root, vectors=True)
    values = clamp_spectrum(values)
    safe = np.where(values > 0.0, values, 1.0)  # log2(1) / 1 = 0 drops the null space
    photon = (np.log2(safe) / safe) @ np.abs(vectors.conj().T @ (root[:, None] * gram)) ** 2
    mean_loss = float(weights @ loss)
    vacuum = loss * math.log2(mean_loss) if mean_loss > 0.0 else 0.0
    return -_entropy_bits(np.stack([loss, 1.0 - loss], axis=-1)) - vacuum - photon


def optimize_priors(ensemble, response, tol=1e-9, max_iterations=100_000):
    """Priors raising the Holevo bound, by over-relaxed Blahut-Arimoto steps.

    The gradient in prior i is ``D_i - log2 e`` (:func:`_letter_divergences`).
    From the uniform prior, each iteration tries ``p_i <- p_i e^{step D_i} / Z``
    (Nagaoka 1998; Matz & Duhamel, ITW 2004), doubling ``step`` (to at most
    1e6) after a gain and halving it until the Holevo quantity rises.  The
    stop, a gain below ``tol`` bits or none, is a heuristic: where the
    objective is flat it can fall well short of the maximum.  Returns
    ``(priors, report)``, never worse than the uniform prior.  Running out of
    iterations raises ConvergenceError carrying ``max_i D_i - chi``, which
    bounds the distance to capacity from above while every prior is positive.
    """
    if ensemble.n < 2:
        raise ValidationError("prior optimization needs at least two letters")
    base = compute_gram(ensemble, response)
    loss = base.loss

    weights = np.full(ensemble.n, 1.0 / ensemble.n)
    divergences = _letter_divergences(base.gram, loss, weights)
    value = float(weights @ divergences)
    step = 1.0

    for _ in range(max_iterations):
        # The letter with the largest divergence in the support keeps the factor
        # e^0, so the sum stays positive; no factor exceeds 1, so 0 stays 0.
        exponent = np.minimum(divergences - divergences[weights > 0.0].max(), 0.0)
        improvement = -math.inf  # stays below any tol if no step gains
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
        if improvement < tol:
            break
    else:
        raise ConvergenceError(
            f"prior optimization did not converge within {max_iterations} iterations",
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
    """Scan alphabet sizes 1..n_max with uniform priors; return the best.

    For band-limited channels the bound peaks at a finite size: extra
    letters eventually sit where the channel is opaque and only dilute the
    ensemble.  Ties break toward the smaller alphabet.  Returns
    ``(best_n, best_bits, curve)`` where curve lists ``(n, bits)``.
    """
    if not (isinstance(n_max, (int, np.integer)) and n_max >= 1):
        raise ValidationError("maximum alphabet size must be a positive integer")
    curve = []
    best_n, best_bits = 1, -math.inf
    for n in range(1, n_max + 1):
        ensemble = EncodingEnsemble.uniform(make_gaussian_basis(n, spacing, sigma_psi, centering))
        report = holevo_bound(compute_gram(ensemble, response))
        bits = report.post_selected_bits if post_select else report.holevo_bits
        curve.append((n, bits))
        if bits > best_bits:
            best_n, best_bits = n, bits
    return best_n, best_bits, curve
