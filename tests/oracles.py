"""Independent reference computations used by several test modules.

Everything here deliberately avoids the code paths it is meant to check:
overlaps go through quadrature only, orthogonalization is explicit
Gram-Schmidt, and eigenvalues come from numpy's LAPACK wrapper.
"""
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
