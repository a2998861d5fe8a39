"""Independent reference answers for the benchmark's correctness checks.

Nothing here calls speccap.  Gaussian overlaps use a closed form derived
separately from the package's (a Gaussian expectation of the channel
transmission), eigenvalues come from LAPACK through numpy, tabulated
overlaps use an exact fixed Gauss-Legendre rule, and the capacity under
optimized priors comes from a Blahut-Arimoto iteration that certifies its
own distance to the optimum.
"""
from __future__ import annotations

import numpy as np


def entropy_bits(values, axis=-1):
    """Shannon entropy in bits along ``axis``; zero and negative entries add nothing."""
    values = np.asarray(values, dtype=float)
    positive = np.where(values > 0.0, values, 1.0)
    return -np.sum(np.where(values > 0.0, values * np.log2(positive), 0.0), axis=axis)


def binary_entropy(x):
    x = np.asarray(x, dtype=float)
    return entropy_bits(np.stack([x, 1.0 - x], axis=-1))


def symmetric_comb(n, spacing):
    """Centers of ``n`` letters spaced ``spacing`` apart with their mean at zero."""
    return (np.arange(n) - 0.5 * (n - 1)) * spacing


def gaussian_gram(centers, widths, p_peak, channel_width):
    """Gram matrix of Gaussian letters through a Gaussian passband.

    The product of two letters is a scaled normal density N(m, w) in the
    frequency, so each entry is that scale times the expectation of the
    transmission ``p_peak * exp(-omega^2 / (2 s^2))`` under N(m, w).
    ``centers`` and ``widths`` may carry leading batch axes; ``p_peak`` and
    ``channel_width`` broadcast against them.
    """
    ca = np.asarray(centers, dtype=float)[..., :, None]
    cb = np.asarray(centers, dtype=float)[..., None, :]
    va = np.asarray(widths, dtype=float)[..., :, None] ** 2
    vb = np.asarray(widths, dtype=float)[..., None, :] ** 2
    p_peak = np.asarray(p_peak, dtype=float)[..., None, None]
    s2 = np.asarray(channel_width, dtype=float)[..., None, None] ** 2
    scale = (va * vb) ** -0.25 * np.sqrt(2.0 * va * vb / (va + vb)) * np.exp(
        -((ca - cb) ** 2) / (4.0 * (va + vb))
    )
    m = (ca * vb + cb * va) / (va + vb)
    w = 2.0 * va * vb / (va + vb)
    expectation = np.sqrt(s2 / (w + s2)) * np.exp(-(m**2) / (2.0 * (w + s2)))
    return p_peak * scale * expectation


def holevo(gram, priors=None):
    """``(holevo_bits, post_selected_bits, mean_loss)`` for Gram matrices.

    Works on a single matrix or a stack; priors default to uniform.
    """
    gram = np.asarray(gram)
    n = gram.shape[-1]
    if priors is None:
        priors = np.full(gram.shape[:-1], 1.0 / n)
    root = np.sqrt(priors)
    spectrum = np.clip(np.linalg.eigvalsh(root[..., :, None] * gram * root[..., None, :]), 0.0, None)
    loss = 1.0 - np.real(np.diagonal(gram, axis1=-2, axis2=-1))
    mean_loss = np.sum(priors * loss, axis=-1)
    output = entropy_bits(np.concatenate([spectrum, mean_loss[..., None]], axis=-1))
    chi = output - np.sum(priors * binary_entropy(loss), axis=-1)
    arrival = 1.0 - mean_loss
    safe = np.where(arrival > 0.0, arrival, 1.0)
    post = np.where(arrival > 0.0, arrival * entropy_bits(spectrum / safe[..., None]), 0.0)
    return chi, post, mean_loss


# Three-point Gauss-Legendre rule on [0, 1]; exact for polynomials of degree 5.
_GL_T = 0.5 + 0.5 * np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GL_W = np.array([5.0, 8.0, 5.0]) / 18.0


def _at_nodes(values):
    """Linear interpolant of grid samples at every segment's three nodes (flattened)."""
    values = np.asarray(values)
    left, right = values[:-1, None], values[1:, None]
    return (left + _GL_T * (right - left)).reshape(-1)


def tabulated_gram(grid, letters, eta):
    """Exact Gram matrix of tabulated letters through a tabulated channel on one grid.

    Every factor is linear on each grid segment, so the integrand
    ``eta^2 conj(psi_i) psi_j`` is a degree-4 polynomial there and the
    three-point rule is exact.  Letters are renormalized first, as the
    package does, with the same exact rule.
    """
    grid = np.asarray(grid, dtype=float)
    weights = (np.diff(grid)[:, None] * _GL_W).reshape(-1)
    x = np.stack([_at_nodes(v) for v in letters], axis=1)
    x = x / np.sqrt(np.sum(weights[:, None] * np.abs(x) ** 2, axis=0))
    e = _at_nodes(eta)
    return x.conj().T @ ((weights * e * e)[:, None] * x)


def letter_divergences(gram, priors):
    """``D(rho_i || rho)`` in bits for every letter, computed in Gram space.

    ``rho_i`` is letter i's output (vacuum with its loss, else the modulated
    photon); ``rho`` is the prior mixture.  One ``eigh`` of the weighted
    Gram matrix ``T = V diag(lam) V^H`` gives
    ``<chi_i| log rho |chi_i> = sum_k lam_k |V_ik|^2 log lam_k / p_i``.
    Needs every prior positive.
    """
    loss = 1.0 - np.real(np.diag(gram))
    mean_loss = float(priors @ loss)
    root = np.sqrt(priors)
    lam, vec = np.linalg.eigh(root[:, None] * gram * root[None, :])
    lam_log_lam = np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)
    photon = (np.abs(vec) ** 2 @ lam_log_lam) / priors
    vacuum = loss * np.log2(mean_loss) if mean_loss > 0.0 else np.zeros_like(loss)
    return -binary_entropy(loss) - vacuum - photon


def blahut_arimoto(gram, gap=1e-10, max_iterations=2_000_000):
    """Capacity under optimized priors, certified to within ``gap`` bits.

    The update ``p_i <- p_i 2^{D_i} / Z`` is Blahut-Arimoto for
    classical-quantum channels.  ``chi = sum_i p_i D_i`` is achievable and
    ``max_i D_i`` bounds the capacity from above, so iteration stops once
    the two are within ``gap``.  Returns ``(priors, chi, upper)``.
    """
    n = gram.shape[0]
    priors = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        d = letter_divergences(gram, priors)
        chi = float(priors @ d)
        upper = float(d.max())
        if upper - chi <= gap:
            return priors, chi, upper
        priors = priors * np.exp2(d - upper)
        # A prior that underflowed to 0 would make its D_i 0/0.
        priors = np.maximum(priors / priors.sum(), np.finfo(float).tiny)
    raise RuntimeError(f"Blahut-Arimoto did not reach gap {gap} in {max_iterations} iterations")
