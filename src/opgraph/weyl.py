"""Fourier basis and generalized Pauli (Weyl) operators on C^n.

Conventions here follow the constructions this package verifies: X is the
unitary that is *diagonal in the standard basis*, X e_j = w^j e_j with
w = exp(2 pi i / n) (0-based j), and Z is diagonal in the Fourier basis,
Z f_j = w^j f_j. Under these definitions X shifts the Fourier basis,
X f_j = f_{j+1 mod n}, and the commutation rule is Z X = w X Z. Note this is
the reverse of the more common shift/clock assignment.

Labels represent scaled words w^phase * X^kx * Z^kz exactly, with all three
integers reduced mod n, so long products and powers carry no numerical drift.
A set of tensor words is an integer word table of shape (G, 6), one row
(left kx, left kz, left phase, right kx, right kz, right phase) per word;
the scalar WeylLabel / WeylLabelPair algebra is the reference it is tested
against, and word_table converts between the two. Realization is monomial
and in the Fourier basis f_c (the columns of fourier_basis), where the
constructions' codes are sparse: weyl_monomial realizes single-factor words
W as F^dag W F, and pair_monomial a tensor word as the outer product of its
two factor realizations. weyl_dense and pair_dense realize labels in the
standard basis, as the reference.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import kron

__all__ = [
    "fourier_basis",
    "x_matrix",
    "z_matrix",
    "WeylLabel",
    "WeylLabelPair",
    "label",
    "label_mul",
    "label_pow",
    "label_adjoint",
    "weyl_dense",
    "pair_adjoint",
    "pair_dense",
    "pair_monomial",
    "weyl_monomial",
    "word_table",
]


def fourier_basis(n: int) -> np.ndarray:
    """n x n unitary whose column j (0-based) is the Fourier vector f_{j+1},
    with entries exp(2 pi i j k / n) / sqrt(n)."""
    if n < 1:
        raise ValueError("fourier_basis needs n >= 1")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * (j * k % n) / n) / np.sqrt(n)


def x_matrix(n: int) -> np.ndarray:
    """X = diag(1, w, w^2, ...): diagonal in the standard basis."""
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def z_matrix(n: int) -> np.ndarray:
    """Z maps e_j to e_{j-1 mod n}; equivalently Z f_j = w^j f_j."""
    return np.roll(np.eye(n, dtype=complex), -1, axis=0)


@dataclass(frozen=True)
class WeylLabel:
    """Exact representation of w^phase * X^kx * Z^kz on C^n, exponents mod n."""

    n: int
    kx: int
    kz: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("label dimension must be >= 1")
        object.__setattr__(self, "kx", self.kx % self.n)
        object.__setattr__(self, "kz", self.kz % self.n)
        object.__setattr__(self, "phase", self.phase % self.n)


def label(n: int, kx: int, kz: int, phase: int = 0) -> WeylLabel:
    return WeylLabel(n, kx, kz, phase)


def label_mul(a: WeylLabel, b: WeylLabel) -> WeylLabel:
    """Product label in canonical X-then-Z order.

    Moving b's X-power past a's Z-power uses Z^p X^q = w^{pq} X^q Z^p, so the
    commutation contributes a.kz * b.kx to the phase exponent.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched dimensions: {a.n} vs {b.n}")
    return WeylLabel(
        a.n,
        a.kx + b.kx,
        a.kz + b.kz,
        a.phase + b.phase + a.kz * b.kx,
    )


def label_pow(a: WeylLabel, s: int) -> WeylLabel:
    """s-th power, s >= 0, in closed form:
    (w^p X^a Z^b)^s = w^{s p + a b s(s-1)/2} X^{s a} Z^{s b}, since the X^a
    of the (k+1)-th factor moves past k copies of Z^b, adding k a b."""
    if s < 0:
        raise ValueError("label_pow needs s >= 0")
    return WeylLabel(a.n, s * a.kx, s * a.kz, s * a.phase + a.kx * a.kz * (s * (s - 1) // 2))


def label_adjoint(a: WeylLabel) -> WeylLabel:
    """Label of the conjugate transpose: (w^p X^a Z^b)^* = w^{ab-p} X^{-a} Z^{-b}."""
    return WeylLabel(a.n, -a.kx, -a.kz, a.kx * a.kz - a.phase)


def weyl_dense(a: WeylLabel) -> np.ndarray:
    """Dense unitary realization of a label in the standard basis.

    Column j of X^kx Z^kz has its single entry at row (j - kz) mod n with
    value w^{kx * row}.
    """
    n = a.n
    cols = np.arange(n)
    rows = (cols - a.kz) % n
    m = np.zeros((n, n), dtype=complex)
    m[rows, cols] = np.exp(2j * np.pi * ((a.phase + a.kx * rows) % n) / n)
    return m


@dataclass(frozen=True)
class WeylLabelPair:
    """Tensor-product word left (x) right, both factors on C^n."""

    left: WeylLabel
    right: WeylLabel

    def __post_init__(self):
        if self.left.n != self.right.n:
            raise ValueError(f"mismatched factor dimensions: {self.left.n} vs {self.right.n}")

    @property
    def n(self) -> int:
        return self.left.n


def pair_adjoint(p: WeylLabelPair) -> WeylLabelPair:
    return WeylLabelPair(label_adjoint(p.left), label_adjoint(p.right))


def pair_dense(p: WeylLabelPair) -> np.ndarray:
    return kron(weyl_dense(p.left), weyl_dense(p.right))


_PAIR_FIELDS = operator.attrgetter(
    "left.kx", "left.kz", "left.phase", "right.kx", "right.kz", "right.phase"
)


def word_table(pairs: Sequence[WeylLabelPair]) -> np.ndarray:
    """Word table of scalar pairs: int64 array of shape (len(pairs), 6) with
    rows (left kx, left kz, left phase, right kx, right kz, right phase)."""
    return np.array([_PAIR_FIELDS(p) for p in pairs], dtype=np.int64).reshape(len(pairs), 6)


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
    scattering (rows, vals) gives pair_dense conjugated by F (x) F: the
    coordinates in the Fourier product basis f_i (x) f_j.
    """
    e = np.asarray(words)
    if e.ndim != 2 or e.shape[1] != 6:
        raise ValueError(f"pair_monomial needs a word table of shape (G, 6), got {e.shape}")
    row_l, val_l = weyl_monomial(e[:, :3], n)
    row_r, val_r = weyl_monomial(e[:, 3:], n)
    rows = (row_l[:, :, None] * n + row_r[:, None, :]).reshape(len(e), n * n)
    vals = (val_l[:, :, None] * val_r[:, None, :]).reshape(len(e), n * n)
    return rows, vals
