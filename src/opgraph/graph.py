"""Operator graphs (adjoint-closed spans containing the identity), code
spaces, compression onto a code, and anticlique verdicts.

Every graph is spanned by Weyl tensor words (see opgraph.weyl), and phases
do not change a span, so a graph is a set of phase-free words
X^kx Z^kz (x) X^kx' Z^kz'. It is stored as one boolean (n^2, n^2) mask whose
entry (kx * n + kz, kx' * n + kz') is set exactly when that word is a
generator, and generators are numbered in row-major mask order. The mask
takes n^4 bytes whatever the number of words: 65 kB for the 64513 words of
the (2,8,1,4) graph, 16.7 MB for any graph at n = 64. The builders of
opgraph.constructions write closed masks; graph_from_mask closes any other
mask under adjoints: it writes the mask with every exponent negated
(np.flip, then np.roll by one) into one new mask, ORs the mask into it, and
only reads the caller's.

Two independent dimension oracles are available: counting the words (the
mask's popcount, exact) and the numeric Gram rank of the realized
generators. Generators are realized per tensor factor in monomial form, in
the Fourier basis (weyl_monomial). Conjugation by the unitary F (x) F keeps
every Hilbert-Schmidt product, so the rank is that of the words themselves.
The Gram side reads only those realized factors, and the mask only for
which pairs of them occur. Either side of a word is one of the n^2 words
of C^n, and a graph realizes all of them once, on first use
(OperatorGraph._factors), grouped by realized row pattern (where a
factor's entries sit): n patterns, the shifts by kx, of n factors each. A
word whose factors have row patterns (P, Q) lies in the tensor class
(P, Q). Since the Hilbert-Schmidt product factorizes over the tensor
product, <A (x) B, C (x) D> = <A, C> <B, D>, the Gram block of a class is
a principal submatrix of G_P (x) G_Q, the Kronecker product of the Gram
matrices of the two patterns' factors (each n x n). A class is the set
entries of the mask's sub-block at P's factors x Q's factors, in mask
order (_entries), which both the Gram oracle and compression read as
they are, and one pass over the mask counts the words of every class
(_class_counts).

A code space is its orthonormal columns' coordinates in the Fourier
product basis f_i (x) f_j (CodeSpace), whose n^2 rows fix its space.
Compression works on the same classes, in that basis. The code is nonzero
only at the coordinates R: |R| = p * d of the n^2 for the entangled codes,
all 4 for section2's.
Every word of a class maps the columns of R to the same rows, so one test
on the realized row patterns drops a class whose words all compress to
exactly zero. A class that reaches the code is compressed in one matrix
product, on only the slots (entries) of a code_dim x code_dim compression
that it can reach. The anticlique verdict reads each word's residual and
the class's share of a code_dim^2 x code_dim^2 Gram matrix from that
product, and holds the compressions of one class at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _rank_of_grams,
    dagger,
    max_abs,
)
from .weyl import weyl_monomial

__all__ = [
    "OperatorGraph",
    "CodeSpace",
    "CompressionReport",
    "graph_from_mask",
    "graph_dim",
    "is_anticlique",
]


@dataclass(frozen=True, eq=False)
class OperatorGraph:
    """Span of generators, closed under adjoints, containing the identity.

    Every generator is a phase-free Weyl tensor word X^kx Z^kz (x)
    X^kx' Z^kz' on C^n (x) C^n, so space_dim = n^2. ``mask`` is a read-only
    boolean array of shape (n^2, n^2) whose entry (kx * n + kz,
    kx' * n + kz') is set exactly when that word is a generator; generators
    are numbered in row-major mask order. The mask holds at least one word,
    since the span contains the identity, and is taken as closed under
    adjoints: the builders write it closed, and graph_from_mask closes a mask
    built elsewhere. Generators are never densified.
    """

    n: int
    mask: np.ndarray

    def __post_init__(self):
        _check_mask(self.n, self.mask)
        if not self.mask.any():
            raise ValueError("mask is empty; a graph contains the identity")
        self.mask.setflags(write=False)

    @cached_property
    def _factors(self) -> _Factors:
        """_factor_table(n), formed on first use."""
        return _factor_table(self.n)

    @cached_property
    def _offsets(self) -> np.ndarray:
        """_offsets[r]: the generators in mask rows before row r, r <= n^2,
        formed on first use."""
        return np.concatenate([[0], np.cumsum(np.count_nonzero(self.mask, axis=1))])

    @property
    def space_dim(self) -> int:
        return self.n * self.n

    @cached_property
    def n_generators(self) -> int:
        """The mask's popcount, counted on first use."""
        return int(np.count_nonzero(self.mask))

    def words_at(self, at) -> np.ndarray:
        """The words of generators ``at`` (a generator id or an array of
        them) as exponent rows (left kx, left kz, right kx, right kz), found
        from the per-row counts of the mask. Ids of any dtype but an integer
        one (bool included) raise TypeError."""
        at = np.asarray(at)
        if not np.issubdtype(at.dtype, np.integer):
            raise TypeError(f"generator ids must be integers, got dtype {at.dtype}")
        if np.any((at < 0) | (at >= self.n_generators)):
            raise IndexError(f"generator ids must lie in [0, {self.n_generators})")
        row = np.searchsorted(self._offsets, at, side="right") - 1
        # the column of the row's (at - offset)-th set entry
        column = np.argmax(np.cumsum(self.mask[row], axis=-1) > (at - self._offsets[row])[..., None], axis=-1)
        return np.stack([*np.divmod(row, self.n), *np.divmod(column, self.n)], axis=-1)


def graph_from_mask(n: int, mask: np.ndarray) -> OperatorGraph:
    """Graph on C^n (x) C^n spanned by the words a boolean (n^2, n^2) mask
    sets (see OperatorGraph), the identity, and the adjoint of every word.

    The adjoint of X^kx Z^kz is X^-kx Z^-kz up to a phase, so the closure
    negates every exponent of the mask's (n, n, n, n) view mod n, ORs the
    mask into that, and sets the identity. On each axis, negation mod n is
    a reversal followed by a rotation by one, so the negated mask is one
    np.roll of np.flip: one new mask, C-contiguous whatever the caller's
    layout, which is only read.
    """
    _check_mask(n, mask)
    words = np.ascontiguousarray(mask).reshape(n, n, n, n)
    closed = np.roll(np.flip(words), 1, axis=(0, 1, 2, 3))
    closed |= words
    closed[0, 0, 0, 0] = True
    return OperatorGraph(n, closed.reshape(n * n, n * n))


def _check_mask(n: int, mask) -> None:
    """Raise ValueError unless n >= 1 and mask is a boolean array of shape
    (n^2, n^2)."""
    if n < 1:
        raise ValueError(f"word dimension must satisfy n >= 1, got n={n}")
    if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != (n * n, n * n):
        raise ValueError(
            f"expected a boolean mask of shape ({n * n}, {n * n}), got {np.asarray(mask).dtype} {np.shape(mask)}"
        )


@dataclass(frozen=True)
class CodeSpace:
    """A code subspace of C^n (x) C^n, stored as the coordinates of
    orthonormal columns spanning it in the Fourier product basis: entry
    (i*n + j, k) of ``fourier`` is the coefficient of f_i (x) f_j in column
    k, with f the columns of fourier_basis(n). F (x) F is unitary, so the
    columns are orthonormal exactly when the vectors they give are;
    space_dim = n^2 is the row count. Stored as a private read-only complex
    copy, so a later edit of the caller's array leaves the validated code
    unchanged. Compression reads each word only where the code is nonzero
    in that basis. Raises ValueError unless every entry is finite, the
    coordinates form a matrix with a square number of rows, at least one
    column and orthonormal columns, and ``basis_names`` is empty or names
    every column.
    """

    fourier: np.ndarray
    basis_names: tuple[str, ...] = ()

    def __post_init__(self):
        s = np.asarray(self.fourier, dtype=complex)
        # a comparison with nan is false, so nan would pass every check below
        if not np.isfinite(s).all():
            raise ValueError("fourier coordinates must be finite")
        if s.ndim != 2:
            raise ValueError(f"fourier coordinates must be a matrix, got shape {s.shape}")
        if math.isqrt(s.shape[0]) ** 2 != s.shape[0]:
            raise ValueError(f"{s.shape[0]} rows do not fit C^n (x) C^n, which has n^2")
        if s.shape[1] < 1:
            raise ValueError("code dimension must be >= 1")
        if max_abs(dagger(s) @ s - np.eye(s.shape[1])) > 1e-10:
            raise ValueError("code columns are not orthonormal")
        if len(self.basis_names) not in (0, s.shape[1]):
            raise ValueError(
                f"{len(self.basis_names)} basis names for code dimension {s.shape[1]}; "
                "give none or one per column"
            )
        # copied after the checks, so the orthonormality check's conjugate
        # copy is freed before this one is made
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "fourier", s)

    @property
    def space_dim(self) -> int:
        return self.fourier.shape[0]

    @property
    def code_dim(self) -> int:
        return self.fourier.shape[1]


def graph_dim(g: OperatorGraph, method: str, tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of the span of the graph's generators, by one of two
    independent oracles; method is "labels" or "gram".

    method "labels": the number of distinct phase-free words (exact), the
    mask's popcount. method "gram": numeric Gram rank of the realized
    generators, over every generator, read from their tensor classes. The
    n^2 words of C^n are realized once per graph, in the Fourier basis, and
    grouped into equal row patterns (OperatorGraph._factors); a
    realization whose patterns are not permutations, share a position or
    hold unequal numbers of factors raises ValueError. Each class of row
    patterns (P, Q) holding words is one Gram block of their count
    (_class_counts), the principal submatrix of G_P (x) G_Q at the set
    entries of its sub-block of the mask (_entries), where G_P is the Gram
    matrix of pattern P's realized factors (_pattern_grams). Its
    eigenvalues lie in [lo_P lo_Q, hi_P hi_Q], from the Gershgorin bounds
    of the pattern Grams (Kronecker spectrum plus interlacing). A block
    whose lower bound clears tol.relative times the largest upper bound counts its
    words unformed; any other is formed and eigensolved once
    (linalg._rank_of_grams). Distinct Weyl words are Hilbert-Schmidt
    orthogonal, so every block of every construction is certified; factors
    dependent up to roundoff give a singular pattern Gram, whose block is
    eigensolved. Any other method raises ValueError.
    """
    if method == "labels":
        return g.n_generators
    if method == "gram":
        return _gram_dim(g, tol)
    raise ValueError(f"unknown method {method!r}")


def _gram_dim(g: OperatorGraph, tol: Tolerance) -> int:
    factors = g._factors
    grams, bounds = _pattern_grams(factors)
    counts = _class_counts(g.mask, factors)
    p, q = np.nonzero(counts)
    # Kronecker spectrum plus interlacing: every eigenvalue of a principal
    # submatrix of G_P (x) G_Q lies in [lo_P lo_Q, hi_P hi_Q]
    lo = np.maximum(bounds[p, 0], 0.0) * np.maximum(bounds[q, 0], 0.0)
    hi = bounds[p, 1] * bounds[q, 1]

    def form(i: int) -> np.ndarray:
        return _pair_gram(grams[p[i]], grams[q[i]], *_entries(g.mask, factors, p[i], q[i]))

    return _rank_of_grams(lo, hi, counts[p, q], form, tol)


def _pair_gram(gram_l: np.ndarray, gram_r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix of the vectors u_a (x) v_b over the pairs (a, b), given
    the Gram matrices of the u's and v's: the principal submatrix of
    gram_l (x) gram_r at those pairs."""
    return gram_l[a[:, None], a] * gram_r[b[:, None], b]


@dataclass(frozen=True)
class _Factors:
    """Every word X^kx Z^kz of C^n, realized and grouped by realized row
    pattern; either tensor side of a word is one of them.

    Pattern P is row P of each array: ids, shape (n_P, m), holds the mask
    indices kx * n + kz of its m factors, increasing; rows, shape (n_P, n),
    the rows where every one of them realizes; and vals, shape (n_P, m, n),
    their realized values. Patterns are in lexicographic order of their
    rows; the Weyl realization gives n_P = m = n.
    """

    ids: np.ndarray
    rows: np.ndarray
    vals: np.ndarray


def _factor_table(n: int) -> _Factors:
    """The n^2 words of C^n, realized by weyl_monomial and grouped by row
    pattern. Raises ValueError unless each pattern, and so each factor's
    rows, is a permutation of range(n), as a monomial unitary's rows are;
    no two patterns share a position, so that the tensor classes' Grams
    are blocks of one block-diagonal Gram matrix; and every pattern holds
    the same number of factors."""
    rows, vals = weyl_monomial(*np.divmod(np.arange(n * n), n), n)
    # the factors' mask indices in pattern order; lexsort is stable, so
    # each pattern keeps them increasing
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.flatnonzero(np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)]))
    patterns = ordered[starts]
    if np.any(np.sort(patterns, axis=1) != np.arange(n)):
        raise ValueError("realized factor rows overlap: not a permutation of range(n)")
    # two patterns share a position exactly when they hold the same row in
    # some column
    by_column = np.sort(patterns, axis=0)
    if np.any(by_column[1:] == by_column[:-1]):
        raise ValueError("generator supports overlap without coinciding; no support-blocked Gram")
    sizes = np.diff(np.concatenate([starts, [n * n]]))
    if np.any(sizes != sizes[0]):
        raise ValueError(f"row patterns hold unequal numbers of factors: {sizes.tolist()}")
    return _Factors(order.reshape(-1, sizes[0]), patterns, vals[order].reshape(-1, sizes[0], n))


def _pattern_grams(factors: _Factors) -> tuple[np.ndarray, np.ndarray]:
    """Each row pattern's Gram matrix of its factors' realized values, as
    an (n_P, m, m) stack, and its Gershgorin bounds, row P (lo_P, hi_P) of
    an (n_P, 2) array."""
    grams = factors.vals @ factors.vals.conj().transpose(0, 2, 1)
    m = grams.shape[1]
    center = np.diagonal(grams, axis1=1, axis2=2).real
    radius = np.abs(grams)
    radius[:, range(m), range(m)] = 0.0
    radius = radius.sum(axis=2)
    return grams, np.stack([(center - radius).min(axis=1), (center + radius).max(axis=1)], axis=1)


def _class_counts(mask: np.ndarray, factors: _Factors) -> np.ndarray:
    """The (n_P, n_P) table of each tensor class's word count: for each
    left pattern, its rows' column sums added up over each right pattern.
    A column sum adds one byte per factor of the pattern, in int32."""
    counts = np.empty((len(factors.ids), len(factors.ids)), dtype=np.intp)
    for p, ids in enumerate(factors.ids):
        column_sums = np.add.reduce(mask.take(ids, axis=0).view(np.uint8), axis=0, dtype=np.int32)
        counts[p] = column_sums.take(factors.ids).sum(axis=1)
    return counts


def _entries(mask: np.ndarray, factors: _Factors, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The words of the tensor class (P, Q) as its set entries (a, b) in
    the mask's sub-block whose rows are P's factors and columns Q's: word
    (a, b) has factors ids[P, a] (x) ids[Q, b], and the entries run in mask
    order."""
    return mask.take(factors.ids[p], axis=0).take(factors.ids[q], axis=1).nonzero()


def _compressions(
    g: OperatorGraph, code: CodeSpace
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Compressions S^dag V S of the graph's generators, one tensor class
    at a time: yields (row, column, slots, x), the mask entries of a class's
    words in mask order, the increasing slots l * code_dim + k of a
    code_dim x code_dim compression that the class can reach, always with
    the diagonal ones, and x, shape (len(row), len(slots)), each word's
    compression C_w at those slots. C_w is exactly zero at every other slot,
    and every word of a class not yielded compresses to exactly zero.

    Works in the Fourier product basis with S = code.fourier, on each
    class's set entries (a, b) (_entries), in row-major order of (P, Q);
    word (a, b) reads left factor a of P and right factor b of Q. With R
    the rows where S has an exactly nonzero entry, a word realized as
    V[r(c), c] = v(c) compresses to sum_{c in R} conj(S[r(c), l]) v(c)
    S[c, k]. Every word of the class (P, Q) has r(c) = P[c_l] * n + Q[c_r]
    at the column c = c_l * n + c_r, so when no r(c) over the columns of R
    lies in R, every word of the class meets only zero rows of S and the
    class is skipped without reading its entries. Otherwise the same r(c)
    give vec(C_w) = v_w M, with v_w the word's values on R and the lift
    M[c, l * code_dim + k] = conj(S[r(c), l]) S[c, k], and a slot whose
    column of M is zero is never reached; one product per class gives x.
    """
    if g.space_dim != code.space_dim:
        raise ValueError(f"graph dim {g.space_dim} does not match code space dim {code.space_dim}")
    n, d = g.n, code.code_dim
    s = code.fourier
    in_support = np.any(s != 0, axis=1)
    support = np.flatnonzero(in_support)
    columns_l, columns_r = np.divmod(support, n)
    s_conj, s_support = s.conj(), s[support]
    diagonal = np.arange(d * d) % (d + 1) == 0
    factors = g._factors
    # each side's patterns and realized values, kept at R's columns
    rows_l, rows_r = factors.rows[:, columns_l] * n, factors.rows[:, columns_r]
    vals_l, vals_r = factors.vals[:, :, columns_l], factors.vals[:, :, columns_r]
    # reach[P, Q]: whether the class (P, Q) maps some column of R into R
    reach = in_support[rows_l[:, None] + rows_r[None]].any(axis=-1)
    # per class, a gather along one axis is a take, which on arrays this
    # small costs about half the equivalent fancy index
    for p, q in zip(*reach.nonzero()):
        at_l, at_r = _entries(g.mask, factors, p, q)
        if len(at_l) == 0:
            continue
        rows = rows_l[p] + rows_r[q]
        values = vals_l[p].take(at_l, axis=0) * vals_r[q].take(at_r, axis=0)
        lift = (s_conj[rows][:, :, None] * s_support[:, None, :]).reshape(len(support), d * d)
        slots = (lift.any(axis=0) | diagonal).nonzero()[0]
        yield factors.ids[p].take(at_l), factors.ids[q].take(at_r), slots, values @ lift.take(slots, axis=1)


@dataclass(frozen=True, eq=False)
class CompressionReport:
    """Anticlique verdict for a (graph, code) pair.

    verdict is true iff the compressions span a one-dimensional space (the
    multiples of the identity on the code); residual is the worst entrywise
    deviation of any compression from c_V * I with c_V = trace / code_dim,
    and worst = (generator, l, k) is where it peaks: the first generator,
    and its entry (l, k) between code basis vectors l and k.
    """

    verdict: bool
    compressed_dim: int
    residual: float
    worst: tuple[int, int, int]


def is_anticlique(g: OperatorGraph, code: CodeSpace, tol: Tolerance = DEFAULT_TOL) -> CompressionReport:
    """Check dim P_K V P_K = 1 numerically.

    The verdict comes from the Gram rank of all compressed generators; the
    residual diagnostic cross-checks that each compression is a scalar
    multiple of the identity on the code. Both are streamed over the tensor
    classes of _compressions, and the (n_generators, code_dim, code_dim)
    stack is never held: per class the running worst residual with its
    place, and a running code_dim^2 x code_dim^2 Gram matrix of the
    compressions, which spans the same rank as the generators' Gram matrix.
    Both read each class's compressions x at its slots (_compressions):
    c_w is the mean of x over the diagonal slots (trace / code_dim), the
    residual is |x - c_w| on the diagonal and |x| off it, and the class
    adds x^dag x to the Gram matrix at its slots x slots, |slots|^2 work
    per word and code_dim^4 only where a class reaches every slot. The Gram
    matrix is ranked by linalg._rank_of_grams as one block: it is PSD, so its
    spectrum lies in [0, trace], bounds that never certify, and it is always
    eigensolved.
    """
    d = code.code_dim
    gram = np.zeros((d * d, d * d), dtype=complex)
    # the peak and its place (mask row, mask column, l, k); classes come out
    # of mask order, so a tie goes to the smaller place. A generator the
    # kernel skips compresses to exactly zero: no residual, nothing added to
    # the Gram matrix
    residual, place = 0.0, (0, 0, 0, 0)
    # the slots l * d + l; every slot a class leaves out is off the
    # diagonal and zero
    diagonal = np.arange(d * d) % (d + 1) == 0
    for row, column, slots, x in _compressions(g, code):
        gram[slots[:, None], slots] += x.conj().T @ x
        # x becomes C_w - c_w I in place, so off the diagonal the deviation
        # is |x| itself
        on = diagonal[slots]
        centered = x[:, on]
        x[:, on] = centered - centered.sum(axis=1)[:, None] / d
        # slots increase, so argmax keeps the row-major tie rule
        deviation = np.abs(x)
        at, slot = divmod(int(deviation.argmax()), len(slots))
        value = float(deviation[at, slot])
        if value >= residual:
            candidate = (int(row[at]), int(column[at]), *divmod(int(slots[slot]), d))
            if value > residual or candidate < place:
                residual, place = value, candidate
    dim = _rank_of_grams([0.0], [np.trace(gram).real], [d * d], lambda i: gram, tol)
    row, column, l, k = place
    at = int(np.count_nonzero(g.mask[:row])) + int(np.count_nonzero(g.mask[row, :column]))
    return CompressionReport(
        verdict=dim == 1,
        compressed_dim=dim,
        residual=residual,
        worst=(at, l, k),
    )
