"""Reference implementations the tests check opgraph against.

opgraph stores a graph as a phase-free exponent mask and realizes words
only in monomial form, from their two exponents (opgraph.weyl.weyl_monomial).
This module keeps the slower, more literal forms the tests compare that
with, and the only phase-carrying word forms:

* the exact scalar label algebra: WeylLabel (w^phase X^kx Z^kz, exponents
  mod n), WeylLabelPair (a tensor word), products, powers and adjoints;
* dense realizations in the standard basis: x_matrix, z_matrix, weyl_dense
  and pair_dense;
* word tables, integer arrays of shape (G, 6) with rows (left kx, left kz,
  left phase, right kx, right kz, right phase): word_table, pair_monomial
  (their monomial realization, phases included), mask_of,
  graph_from_labels and graph_words;
* the conjugate transpose (dagger), Hilbert-Schmidt products, a unitarity
  check, Gershgorin bounds of one Hermitian matrix (_discs) and
  Gram-Schmidt (_gram_schmidt, behind orthonormalize);
* a code's columns in the standard basis (isometry), and the code of
  columns given in it (code_from_isometry);
* compress, the full stack of compressions, scattered in generator order
  from the same per-class kernel the anticlique verdict streams
  (opgraph.graph._compressions).

The conventions are opgraph.weyl's: X e_j = w^j e_j is diagonal in the
standard basis, Z f_j = w^j f_j is diagonal in the Fourier basis, and
Z X = w X Z.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from opgraph.graph import CodeSpace, OperatorGraph, _compressions, graph_from_mask
from opgraph.linalg import ABSOLUTE_TOL, max_abs
from opgraph.weyl import fourier_basis, weyl_monomial


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
    return np.kron(weyl_dense(p.left), weyl_dense(p.right))


_PAIR_FIELDS = operator.attrgetter(
    "left.kx", "left.kz", "left.phase", "right.kx", "right.kz", "right.phase"
)


def word_table(pairs: Sequence[WeylLabelPair]) -> np.ndarray:
    """Word table of scalar pairs: int64 array of shape (len(pairs), 6) with
    rows (left kx, left kz, left phase, right kx, right kz, right phase)."""
    return np.array([_PAIR_FIELDS(p) for p in pairs], dtype=np.int64).reshape(len(pairs), 6)


def pair_monomial(words, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial realization of the tensor words of a word table on
    C^n (x) C^n, phases included, without forming dense matrices.

    Returns (rows, vals), both of shape (len(words), n^2): column c of word g
    has its single nonzero entry at row rows[g, c], with value vals[g, c].
    Each factor w^phase X^kx Z^kz takes its rows from weyl_monomial, in the
    Fourier basis, and its values w^{phase + kz * c} from the n roots
    weyl_monomial realizes Z with: the phase is multiplied in as a sum of
    exponents, so a phase-free factor keeps weyl_monomial's values bit for
    bit. Column i*n + j takes the product of left column i and right column
    j, so scattering (rows, vals) gives the word's matrix conjugated by
    F (x) F: its coordinates in the Fourier product basis f_i (x) f_j.
    """
    e = np.asarray(words)
    if e.ndim != 2 or e.shape[1] != 6:
        raise ValueError(f"pair_monomial needs a word table of shape (G, 6), got {e.shape}")
    e = e % n
    # w^j at j, the values weyl_monomial gives Z
    roots = weyl_monomial([0], [1], n)[1][0]
    cols = np.arange(n)
    (row_l, val_l), (row_r, val_r) = (
        (weyl_monomial(kx, kz, n)[0], roots[(phase[:, None] + kz[:, None] * cols) % n])
        for kx, kz, phase in (e[:, :3].T, e[:, 3:].T)
    )
    rows = (row_l[:, :, None] * n + row_r[:, None, :]).reshape(len(e), n * n)
    vals = (val_l[:, :, None] * val_r[:, None, :]).reshape(len(e), n * n)
    return rows, vals


def mask_of(n: int, words) -> np.ndarray:
    """The boolean (n^2, n^2) word mask of the words of an integer word table
    of shape (G, 6), entries taken mod n and phases dropped, with no identity
    or adjoint added: entry (kx * n + kz, kx' * n + kz') is set for each word
    X^kx Z^kz (x) X^kx' Z^kz' (see opgraph.graph.OperatorGraph)."""
    e = np.asarray(words, dtype=np.int64).reshape(-1, 6) % n
    mask = np.zeros((n * n, n * n), dtype=bool)
    mask[e[:, 0] * n + e[:, 1], e[:, 3] * n + e[:, 4]] = True
    return mask


def graph_from_labels(n: int, words: np.ndarray) -> OperatorGraph:
    """Graph on C^n (x) C^n spanned by the words of an integer word table of
    shape (G, 6), the identity, and the adjoint of every word, closed by
    graph_from_mask. Entries are taken mod n and phases are dropped, since
    they do not change the span; an empty table gives the identity alone."""
    words = np.asarray(words)
    if n < 1:
        raise ValueError(f"word dimension must satisfy n >= 1, got n={n}")
    if words.ndim != 2 or words.shape[1] != 6 or not np.issubdtype(words.dtype, np.integer):
        raise ValueError(f"expected an integer word table of shape (G, 6), got {words.dtype} {words.shape}")
    return graph_from_mask(n, mask_of(n, words))


def graph_words(g: OperatorGraph) -> np.ndarray:
    """The graph's word table, shape (n_generators, 6), rows (left kx,
    left kz, 0, right kx, right kz, 0) in generator order."""
    row, column = np.nonzero(g.mask)
    zero = np.zeros_like(row)
    return np.stack([*np.divmod(row, g.n), zero, *np.divmod(column, g.n), zero], axis=1)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(a @ dagger(b)).

    Conjugate-symmetric and linear in the first argument. Both matrices must
    be square and of equal dimension.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hs_inner needs equal square matrices, got {a.shape} and {b.shape}")
    # trace(a b^dag) = sum_ij a_ij conj(b_ij)
    return complex(np.sum(a * b.conj()))


def is_unitary(m: np.ndarray) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return max_abs(m @ dagger(m) - np.eye(m.shape[0])) < ABSOLUTE_TOL


def _discs(gram: np.ndarray) -> tuple[float, float]:
    """Gershgorin bounds (lo, hi) on the eigenvalues of a Hermitian matrix G:
    lo = min_i(G_ii - r_i), hi = max_i(G_ii + r_i), r_i = sum_{j != i} |G_ij|."""
    center = gram.diagonal().real
    radius = np.abs(gram)
    np.fill_diagonal(radius, 0.0)
    radius = radius.sum(axis=1)
    return float(np.min(center - radius)), float(np.max(center + radius))


def _gram_schmidt(vectors: list[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """Stabilized Gram-Schmidt. Returns an orthonormal family spanning the
    same subspace, processing inputs in order, and the indices of the input
    vectors kept, one per basis vector; vectors whose residual after
    projection falls below ABSOLUTE_TOL are dropped."""
    basis: list[np.ndarray] = []
    kept: list[int] = []
    for i, v in enumerate(vectors):
        w = np.asarray(v, dtype=complex).copy()
        # two projection passes keep orthogonality at roundoff level
        for _ in range(2):
            for u in basis:
                w = w - np.vdot(u, w) * u
        norm = float(np.linalg.norm(w))
        if norm < ABSOLUTE_TOL:
            continue
        basis.append(w / norm)
        kept.append(i)
    return basis, kept


def orthonormalize(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """The orthonormal family _gram_schmidt keeps, without the indices of
    the kept inputs."""
    return _gram_schmidt(vectors)[0]


def isometry(code: CodeSpace) -> np.ndarray:
    """The code's orthonormal columns in the standard basis of C^n (x) C^n,
    shape (n^2, code_dim): column k reshaped to an n x n matrix is
    F C_k F^T, with C_k column k of code.fourier reshaped the same way."""
    n = math.isqrt(code.space_dim)
    f = fourier_basis(n)
    coordinates = code.fourier.T.reshape(code.code_dim, n, n)
    return (f @ coordinates @ f.T).reshape(code.code_dim, n * n).T


def code_from_isometry(vectors, basis_names: tuple[str, ...] = ()) -> CodeSpace:
    """The CodeSpace of orthonormal columns given in the standard basis of
    C^n (x) C^n. A column reshaped to an n x n matrix M is F C F^T for its
    coordinates C, so C = F^dag M conj(F), taken column by column without
    forming F (x) F."""
    vectors = np.asarray(vectors)
    n = math.isqrt(vectors.shape[0])
    f = fourier_basis(n)
    code_dim = vectors.shape[1]
    coordinates = dagger(f) @ vectors.T.reshape(code_dim, n, n) @ f.conj()
    return CodeSpace(np.ascontiguousarray(coordinates.reshape(code_dim, n * n).T), basis_names)


def compress(g: OperatorGraph, code: CodeSpace) -> np.ndarray:
    """Compression S^dag V S of every generator V by the code isometry S,
    stacked in generator order, shape (n_generators, code_dim, code_dim).

    Each result equals P_K V P_K restricted to the code subspace. It is
    scattered from opgraph.graph._compressions, which works class by class
    on the code's Fourier support and the slots each class reaches; onto
    the whole space with Fourier coordinates the identity (isometry
    F (x) F) it returns each generator's Fourier realization exactly. A
    generator that kernel skips compresses to exactly zero.
    """
    d = code.code_dim
    out = np.zeros((g.n_generators, d * d), dtype=complex)
    # the generator id of every mask entry
    number = np.cumsum(g.mask).reshape(g.mask.shape) - 1
    for row, column, slots, x in _compressions(g, code):
        out[np.ix_(number[row, column], slots)] = x
    return out.reshape(g.n_generators, d, d)
