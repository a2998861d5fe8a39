"""Capacity bounds: Holevo quantity, erasure-channel bound, exact two-letter case.

Everything is reported in bits per transmitted photon.  The Holevo quantity
bounds the mutual information of any receiver; the post-selected variant
conditions on photon arrival and rescales by the arrival probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EncodingEnsemble, compute_gram, output_spectrum, reweight
from .errors import ComputationError, ConvergenceError, ValidationError
from .numerics import DEFAULT_QUADRATURE, HermitianMatrix, hermitian_eigenvalues
from .spectral import make_gaussian_basis


def _plog2p(x):
    return x * math.log2(x) if x > 0.0 else 0.0


def _entropy_bits(values):
    return -sum(_plog2p(float(v)) for v in values)


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
    letter_entropies = np.array([binary_entropy(e) for e in gram_data.loss])
    output_entropy = -_plog2p(mean_loss) + _entropy_bits(spectrum)
    holevo = output_entropy - float(gram_data.priors @ letter_entropies)

    arrival = 1.0 - mean_loss
    if arrival <= 0.0:
        post_selected = 0.0
    else:
        post_selected = arrival * _entropy_bits(spectrum / arrival)

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


def two_state_max(lam, p_peak=1.0, coarse_points=128):
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
    grid = np.linspace(1e-6, max(50.0, 10.0 * lam), coarse_points)
    values = [two_state_exact(d, lam) for d in grid]
    best = int(np.argmax(values))
    if best in (0, coarse_points - 1):
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


def _holevo_from_weights(gram_entries, loss, weights):
    """Holevo quantity extended to raw non-negative weights.

    Used for finite differences during prior optimization; weights need not
    sum exactly to 1 here.
    """
    root = np.sqrt(weights)
    weighted = root[:, None] * gram_entries * root[None, :]
    values = hermitian_eigenvalues(HermitianMatrix(weighted))
    values = np.clip(values, 0.0, None)
    mean_loss = float(weights @ loss)
    output_entropy = -_plog2p(mean_loss) + _entropy_bits(values)
    letter_term = sum(
        float(w) * binary_entropy(min(max(float(e), 0.0), 1.0))
        for w, e in zip(weights, loss)
    )
    return output_entropy - letter_term


def optimize_priors(ensemble, response, tol=1e-9, spec=DEFAULT_QUADRATURE, max_iterations=100_000):
    """Priors maximising the Holevo bound, by multiplicative gradient ascent.

    The Holevo quantity is concave over the probability simplex, so ascent
    from the uniform prior with a backtracking step reaches the global
    maximum.  Gradients come from central finite differences of the
    weight-extended objective, one-sided where a weight has reached zero.
    Returns ``(priors, report)``; the result is never worse than the uniform
    prior.
    """
    if ensemble.n < 2:
        raise ValidationError("prior optimization needs at least two letters")
    base = compute_gram(ensemble, response, spec=spec)
    entries = base.gram.entries
    loss = base.loss

    weights = np.full(ensemble.n, 1.0 / ensemble.n)
    value = _holevo_from_weights(entries, loss, weights)
    fd_step = 1e-7
    step = 1.0

    converged = False
    for _ in range(max_iterations):
        gradient = np.empty(ensemble.n)
        for i in range(ensemble.n):
            h = min(fd_step, 0.5 * weights[i]) if weights[i] > 0 else fd_step
            up = weights.copy()
            down = weights.copy()
            up[i] += h
            # One-sided at zero weight: a negative weight has no square root.
            down[i] = max(weights[i] - h, 0.0)
            gradient[i] = (
                _holevo_from_weights(entries, loss, up)
                - _holevo_from_weights(entries, loss, down)
            ) / (up[i] - down[i])

        improved = False
        while step > 1e-14:
            scaled = gradient - gradient.max()
            candidate = weights * np.exp(step * scaled)
            total = candidate.sum()
            if total <= 0:
                step *= 0.5
                continue
            candidate /= total
            candidate_value = _holevo_from_weights(entries, loss, candidate)
            if candidate_value > value:
                improvement = candidate_value - value
                weights, value = candidate, candidate_value
                improved = True
                step = min(step * 2.0, 1e6)
                break
            step *= 0.5
        if not improved or improvement < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"prior optimization did not converge within {max_iterations} iterations",
            error_estimate=value,
        )

    final = reweight(base, weights / weights.sum())
    return final.priors, holevo_bound(final)


def optimal_alphabet_size(
    response,
    sigma_psi,
    spacing,
    centering="symmetric",
    n_max=64,
    post_select=False,
    spec=DEFAULT_QUADRATURE,
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
        report = holevo_bound(compute_gram(ensemble, response, spec=spec))
        bits = report.post_selected_bits if post_select else report.holevo_bits
        curve.append((n, bits))
        if bits > best_bits:
            best_n, best_bits = n, bits
    return best_n, best_bits, curve
