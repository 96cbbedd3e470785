"""Fourier basis and generalized Pauli (Weyl) operators on C^n.

Conventions here follow the constructions this package verifies: X is the
unitary that is *diagonal in the standard basis*, X e_j = w^j e_j with
w = exp(2 pi i / n) (0-based j), and Z is diagonal in the Fourier basis,
Z f_j = w^j f_j. Under these definitions X shifts the Fourier basis,
X f_j = f_{j+1 mod n}, and the commutation rule is Z X = w X Z. Note this is
the reverse of the more common shift/clock assignment.

Phases never change a span, so a word is the phase-free X^kx Z^kz, given by
its two integer exponents, reduced mod n. weyl_monomial realizes words in
monomial form in the Fourier basis f_c (the columns of fourier_basis), where
the constructions' codes are sparse: as F^dag W F, one nonzero entry per
column. A tensor word X^kx Z^kz (x) X^kx' Z^kz' is realized factor by factor.
"""

from __future__ import annotations

import numbers

import numpy as np


def _check_integers(**values) -> None:
    """Raise ValueError naming the first of ``values`` that is not an
    integer; numpy integers are integers, and bool is not."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"requires an integer {name} (got {name}={value!r})")


def fourier_basis(n: int) -> np.ndarray:
    """n x n unitary whose column j (0-based) is the Fourier vector f_{j+1},
    with entries exp(2 pi i j k / n) / sqrt(n). Raises ValueError unless n
    is an integer >= 1."""
    _check_integers(n=n)
    if n < 1:
        raise ValueError("fourier_basis needs n >= 1")
    j = np.arange(n)
    return np.exp(2j * np.pi * (j[:, None] * j % n) / n) / np.sqrt(n)


def weyl_monomial(kx, kz, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial realization of the words X^kx Z^kz on C^n, given by two
    integer exponent arrays of shape (G,).

    Returns (rows, vals), both of shape (G, n): column c of word g has its
    single nonzero entry at row rows[g, c], with value vals[g, c]. The
    realization is F^dag W F in the Fourier basis f_c (the columns of
    fourier_basis), where Z f_c = w^c f_c and X f_c = f_{c+1}: rows
    (c + kx) mod n, values w^{kz * c}. The exponents are reduced mod n once;
    rows are gathered from an (n, n) table of shifts and values from a table
    of length n^2 holding the n roots of unity n times over, so no per-entry
    remainder is taken. Raises ValueError unless n is an integer >= 1.
    """
    _check_integers(n=n)
    if n < 1:
        raise ValueError("weyl_monomial needs n >= 1")
    kx, kz = np.asarray(kx), np.asarray(kz)
    if kx.ndim != 1 or kx.shape != kz.shape:
        raise ValueError(f"weyl_monomial needs two exponent arrays of one shape (G,), got {kx.shape} and {kz.shape}")
    cols = np.arange(n)
    # once reduced, exponents kz * c are at most (n - 1)^2; entry j is
    # w^(j mod n), with the same bits as the table of the n roots
    roots = np.exp(2j * np.pi * (np.arange(n * n) % n) / n)
    rows = ((cols + cols[:, None]) % n)[kx % n]
    return rows, roots[(kz % n)[:, None] * cols]
