"""Fourier basis and generalized Pauli (Weyl) operators on C^n.

Conventions here follow the constructions this package verifies: X is the
unitary that is *diagonal in the standard basis*, X e_j = w^j e_j with
w = exp(2 pi i / n) (0-based j), and Z is diagonal in the Fourier basis,
Z f_j = w^j f_j. Under these definitions X shifts the Fourier basis,
X f_j = f_{j+1 mod n}, and the commutation rule is Z X = w X Z. Note this is
the reverse of the more common shift/clock assignment.

A word w^phase X^kx Z^kz is given by its integer exponents, reduced mod n:
single-factor words as a table of shape (G, 3), rows (kx, kz, phase), and
tensor words as a word table of shape (G, 6), one row (left kx, left kz,
left phase, right kx, right kz, right phase) per word. Realization is
monomial and in the Fourier basis f_c (the columns of fourier_basis), where
the constructions' codes are sparse: weyl_monomial realizes single-factor
words W as F^dag W F, and pair_monomial a tensor word as the outer product
of its two factor realizations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fourier_basis", "pair_monomial", "weyl_monomial"]


def fourier_basis(n: int) -> np.ndarray:
    """n x n unitary whose column j (0-based) is the Fourier vector f_{j+1},
    with entries exp(2 pi i j k / n) / sqrt(n)."""
    if n < 1:
        raise ValueError("fourier_basis needs n >= 1")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * (j * k % n) / n) / np.sqrt(n)


def weyl_monomial(factors: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial realization of single-factor words w^phase X^kx Z^kz on C^n,
    given as an integer table of shape (G, 3) with rows (kx, kz, phase).

    Returns (rows, vals), both of shape (len(factors), n): column c of word g
    has its single nonzero entry at row rows[g, c], with value vals[g, c].
    The realization is F^dag W F in the Fourier basis f_c (the columns of
    fourier_basis), where Z f_c = w^c f_c and X f_c = f_{c+1}: rows
    (c + kx) mod n, values w^{phase + kz * c}. The table is reduced mod n
    once; rows are gathered from an (n, n) table of shifts and values from
    a table of length n^2 holding the n roots of unity n times over, so no
    per-entry remainder is taken.
    """
    e = np.asarray(factors)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError(f"weyl_monomial needs a factor table of shape (G, 3), got {e.shape}")
    kx, kz, phase = (e % n).T[:, :, None]
    cols = np.arange(n)
    # once reduced, exponents phase + kz * c are at most n^2 - n; entry j is
    # w^(j mod n), with the same bits as the table of the n roots
    roots = np.exp(2j * np.pi * (np.arange(n * n) % n) / n)
    rows = ((cols + cols[:, None]) % n)[kx[:, 0]]
    return rows, roots[phase + kz * cols]


def pair_monomial(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial realization of the tensor words of a word table on
    C^n (x) C^n, without forming dense matrices.

    Returns (rows, vals), both of shape (len(words), n^2): column c of word g
    has its single nonzero entry at row rows[g, c], with value vals[g, c].
    Each factor is realized by weyl_monomial, in the Fourier basis, and
    column i*n + j takes the product of left column i and right column j, so
    scattering (rows, vals) gives the word's matrix conjugated by F (x) F:
    its coordinates in the Fourier product basis f_i (x) f_j.
    """
    e = np.asarray(words)
    if e.ndim != 2 or e.shape[1] != 6:
        raise ValueError(f"pair_monomial needs a word table of shape (G, 6), got {e.shape}")
    row_l, val_l = weyl_monomial(e[:, :3], n)
    row_r, val_r = weyl_monomial(e[:, 3:], n)
    rows = (row_l[:, :, None] * n + row_r[:, None, :]).reshape(len(e), n * n)
    vals = (val_l[:, :, None] * val_r[:, None, :]).reshape(len(e), n * n)
    return rows, vals
