"""Independent reference computations used by several test modules.

Everything here deliberately avoids the code paths it is meant to check:
overlaps go through quadrature only, or through a closed form with no
quadrature at all, orthogonalization is explicit Gram-Schmidt, eigenvalues
come from numpy's LAPACK wrapper, and the continuum limit is a closed form
with no Gram matrix at all.
"""
import math

import numpy as np

from speccap.spectral import quadrature_gram


def quadrature_overlap_matrix(letters, response):
    """Pairwise modulated overlaps, each from the quadrature rule on its one or two letters."""
    n = len(letters)
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            pair = (letters[i],) if i == j else (letters[i], letters[j])
            value = quadrature_gram(pair, response)[0, -1]
            s[i, j] = value
            s[j, i] = np.conj(value)
    return s


def linear_channel_gram(letters, response):
    """Gram matrix of Gaussian ``letters`` through a two-point ``TabulatedResponse``, from Gaussian moments.

    Between its grid points the channel is ``eta = alpha + beta omega``; a grid
    that reaches ``TRUNCATION_SIGMAS`` widths past every letter leaves out only
    tails below roundoff, so the integral runs over the whole line.  With ``a =
    1 / (4 w^2)`` and norm ``N``, letters ``i`` and ``j`` multiply to ``M0 sqrt(r
    / pi) exp(-r (omega - mu)^2)``: ``r = a_i + a_j``, ``mu = (a_i c_i + a_j c_j)
    / r`` and ``M0 = N_i N_j sqrt(pi / r) exp(-a_i a_j (c_i - c_j)^2 / r)``.  The
    moments ``M0``, ``mu M0`` and ``(mu^2 + 1 / (2 r)) M0`` then give the entry
    ``((alpha + beta mu)^2 + beta^2 / (2 r)) M0``.
    """
    (g0, g1), (v0, v1) = response.grid, response.values
    beta = (v1 - v0) / (g1 - g0)
    alpha = v0 - beta * g0
    centers = np.array([letter.center for letter in letters])
    widths = np.array([letter.width for letter in letters])
    a = 0.25 / widths**2
    norm = (2.0 * math.pi) ** -0.25 / np.sqrt(widths)
    r = np.add.outer(a, a)
    mu = np.add.outer(a * centers, a * centers) / r
    spread = np.outer(a, a) * np.subtract.outer(centers, centers) ** 2
    m0 = np.outer(norm, norm) * np.sqrt(math.pi / r) * np.exp(-spread / r)
    return ((alpha + beta * mu) ** 2 + beta**2 / (2.0 * r)) * m0


def explicit_basis_spectrum(letters, priors, response, rank_tol=1e-12):
    """Output spectrum via an explicit orthonormal basis for the modulated letters.

    Gram-Schmidt runs in coefficient space over the modulated letters, using
    quadrature inner products; the mixture's matrix in that basis is then
    diagonalized with numpy.  Returns eigenvalues padded with zeros to the
    alphabet size, descending.
    """
    s = quadrature_overlap_matrix(letters, response)
    n = len(letters)

    def inner(u, w):
        return complex(np.conj(u) @ s @ w)

    basis_coeffs = []
    for i in range(n):
        v = np.zeros(n, dtype=complex)
        v[i] = 1.0
        for b in basis_coeffs:
            v = v - inner(b, v) * b
        norm_sq = inner(v, v).real
        if norm_sq > rank_tol:
            basis_coeffs.append(v / np.sqrt(norm_sq))
    c = np.array(basis_coeffs)

    projections = np.conj(c) @ s  # projections[k][i] = <basis_k | modulated letter_i>
    density = projections @ np.diag(priors) @ projections.conj().T
    values = np.sort(np.linalg.eigvalsh(density))[::-1]
    return np.concatenate([np.clip(values, 0.0, None), np.zeros(n - len(values))])


def continuum_holevo(width, channel_width, p_peak, center_std):
    """Holevo and post-selected bits, and the spectrum ratio ``q``, of a continuous Gaussian alphabet.

    Letters of intensity width ``width`` have centres drawn from ``N(0,
    center_std^2)`` and pass ``GaussianPeakResponse(p_peak, channel_width)``.
    The photon part of the output is a Gaussian integral operator with kernel
    ``exp(-alpha (x^2 + y^2) + 2 beta x y)``, so by Mehler's formula its
    spectrum is ``lam_k = lam_0 q^k``, with ``lam_0 = (1 - mean loss)(1 - q)``
    by conservation: the coherent modes of a Gaussian Schell-model source
    (Starikov & Wolf, JOSA 72, 1982).  Letter ``c`` survives with
    ``q_c = p_peak (v / width) exp(-c^2 / (2 (width^2 + channel_width^2)))``,
    ``v^2 = width^2 channel_width^2 / (width^2 + channel_width^2)``, and the
    prior average of its binary entropy ``h(q_c)`` is a Gauss-Hermite sum.

    A comb of N letters with Gaussian priors approaches this limit once its
    spacing is well below ``width`` and it reaches about 6 ``center_std`` on
    each side of its mean; a shorter comb loses the prior's tails.
    """
    a0 = 0.25 / width**2
    rate = 0.5 / center_std**2 + 2.0 * a0
    alpha = a0 - a0 * a0 / rate + 0.25 / channel_width**2
    beta = a0 * a0 / rate
    q = beta / (alpha + math.sqrt(alpha * alpha - beta * beta))

    spread = width**2 + channel_width**2
    peak_survival = p_peak * channel_width / math.sqrt(spread)
    arrival = peak_survival / math.sqrt(1.0 + center_std**2 / spread)  # the prior average of q_c
    lam_0 = arrival * (1.0 - q)
    # -sum_k lam_k log2 lam_k, with sum_k lam_k = arrival and sum_k k lam_k = arrival q / (1 - q).
    photon_entropy = -arrival * (math.log2(lam_0) + q / (1.0 - q) * math.log2(q))
    mean_loss = 1.0 - arrival

    x, w = np.polynomial.hermite.hermgauss(200)  # 100 nodes already agree to 1.4e-14 bits on the tested channels
    survival = peak_survival * np.exp(-((math.sqrt(2.0) * center_std * x) ** 2) / (2.0 * spread))
    letter_entropy = -(survival * np.log2(survival) + (1.0 - survival) * np.log2(1.0 - survival))
    mean_letter_entropy = float(w @ letter_entropy) / math.sqrt(math.pi)

    vacuum = -mean_loss * math.log2(mean_loss) if mean_loss > 0.0 else 0.0
    holevo = vacuum + photon_entropy - mean_letter_entropy
    post_selected = photon_entropy + arrival * math.log2(arrival)
    return holevo, post_selected, q
