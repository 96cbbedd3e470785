"""Operator graphs (adjoint-closed spans containing the identity), code
spaces, compression by an isometry, and anticlique verdicts.

Every graph carries its generators as exact Weyl tensor words (see
opgraph.weyl) in factored form: each tensor side's distinct factors
(kx, kz, phase), and an int32 pair of factor indices per word. The 64513
words of the (2,8,1,4) graph use 264 left and 464 right factors, so the
graph takes 0.5 MB where the (G, 6) int64 word table takes 3 MB.
graph_from_factors closes words given in that form under adjoints, sorting
and searching only the factors; graph_from_labels closes a word table
through it.

Two independent dimension oracles are available: counting distinct word
exponents (exact, phases dropped) and the numeric Gram rank of the realized
generators. Generators are realized per tensor factor in monomial form, in
the Fourier basis (weyl_monomial), each stored factor once, and every word
gathers its two by index. Conjugation by the unitary F (x) F keeps every
Hilbert-Schmidt product, so the rank is that of the words themselves. The
Gram side reads only those realized factors. Every generator
is alpha * (u (x) v) for a left factor line u and a right one v (a line is
a realized factor up to a scalar), and since the Hilbert-Schmidt product
factorizes over the tensor product, <A (x) B, C (x) D> = <A, C> <B, D>, the
Gram block of the pairs (u, v) with row patterns (P, Q) is a principal
submatrix of G_P (x) G_Q, the Kronecker product of the two patterns' line
Grams (each at most n x n). The rank is read off those, one sort of a
class-major key per word grouping the pairs; no n^2-long row is formed.

Compression uses the same realization of the stored factors, in the
Fourier product basis f_i (x) f_j, where every code carries its coordinates
(exact for the constructions' codes, computed from the isometry otherwise).
It gathers the words chunk by chunk, each only at the coordinates R where
the code is nonzero: |R| = p * d of the n^2 for the entangled codes, nearly
all n^2 for a computed code. The anticlique verdict streams those chunks
into a code_dim^2 x code_dim^2 Gram matrix and never holds the
compressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _discs,
    _gram_schmidt,
    _rank_of_grams,
    dagger,
    max_abs,
)
from .weyl import fourier_basis, weyl_monomial

__all__ = [
    "OperatorGraph",
    "CodeSpace",
    "CompressionReport",
    "GraphDim",
    "graph_from_labels",
    "graph_from_factors",
    "graph_dim",
    "compress",
    "is_anticlique",
]


# words gathered at once by the compression scan over a graph; bounds peak
# memory
_WORD_CHUNK = 1024
# a factor line's key is a polynomial hash of its features mod 2^64 in this
# odd multiplier; its normalized values enter rounded to this many steps per
# unit. Realizations of one line differ far below a step, and every factor is
# checked against its line's representative, so the key only orders the scan
_LINE_HASH = np.uint64(0x9E3779B97F4A7C15)
_LINE_KEY_STEPS = 2.0**24


@dataclass(frozen=True, eq=False)
class OperatorGraph:
    """Span of generators, closed under adjoints, containing the identity.

    Every generator is a scaled Weyl tensor word on C^n (x) C^n, so
    space_dim = n^2. The words are stored in factored form: ``factors`` =
    (left, right) holds each tensor side's distinct factors, integer arrays
    of shape (F, 3) with rows (kx, kz, phase) in [0, n), strictly increasing
    by packed key (kx * n + kz) * n + phase, every one used by some word;
    ``index`` is an int32 array of shape (n_generators, 2), and word g is
    left[index[g, 0]] (x) right[index[g, 1]]. That is 8 bytes per word.
    Every realization loop realizes each factor once and gathers it by
    index; the factor is the realizer's whole input, so the gathered
    realization is bit-identical to the word's own. Generators are never
    densified. The graph holds at least one word, since the span contains
    the identity. ``words`` gathers the word table back, and from_words
    stores a given table as it is.
    """

    n: int
    factors: tuple[np.ndarray, np.ndarray]
    index: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"word dimension must satisfy n >= 1, got n={self.n}")
        index = self.index
        if not isinstance(index, np.ndarray) or index.dtype != np.int32 or index.shape[1:] != (2,):
            raise ValueError(
                f"expected an int32 index of shape (G, 2), got {np.asarray(index).dtype} {np.shape(index)}"
            )
        if len(index) == 0:
            raise ValueError("index is empty; a graph contains the identity")
        _check_factored(self.factors, index)
        for name, factors, at in zip(("left", "right"), self.factors, index.T):
            if len(factors) and (factors.min() < 0 or factors.max() >= self.n):
                raise ValueError(
                    f"{name} factor entries must lie in [0, n) = [0, {self.n}), "
                    f"got values in [{factors.min()}, {factors.max()}]"
                )
            keys = _factor_keys(factors, self.n)
            if np.any(keys[1:] <= keys[:-1]):
                raise ValueError(f"{name} factors must be strictly increasing by packed key, so none repeats")
            if not np.bincount(at, minlength=len(factors)).all():
                raise ValueError(f"every {name} factor must be used by some word")

    @classmethod
    def from_words(cls, n: int, words: np.ndarray) -> "OperatorGraph":
        """Graph whose generators are exactly the words of an integer word
        table of shape (G, 6), rows (left kx, left kz, left phase, right kx,
        right kz, right phase), in order: no identity or adjoint is added and
        nothing is deduplicated (graph_from_labels closes a table). Entries
        must already lie in [0, n), and the table must hold a word."""
        _check_word_table(n, words)
        if len(words) == 0:
            raise ValueError("word table is empty; a graph contains the identity")
        # rejected, not reduced: the label oracle packs exponents as stored
        if words.min() < 0 or words.max() >= n:
            raise ValueError(
                f"word table entries must lie in [0, n) = [0, {n}), "
                f"got values in [{words.min()}, {words.max()}]"
            )
        keys = [_factor_keys(words[:, 3 * side : 3 * side + 3], n) for side in (0, 1)]
        distinct = [_sorted_distinct(side_keys) for side_keys in keys]
        index = np.stack([np.searchsorted(d, k) for d, k in zip(distinct, keys)], axis=1).astype(np.int32)
        return cls(n, tuple(_unpack_factors(d, n) for d in distinct), index)

    @property
    def space_dim(self) -> int:
        return self.n * self.n

    @property
    def n_generators(self) -> int:
        return len(self.index)

    @property
    def words(self) -> np.ndarray:
        """The word table, shape (n_generators, 6), gathered from the factors
        each time it is read; read-only."""
        return self.words_at(slice(None))

    def words_at(self, at) -> np.ndarray:
        """Rows ``at`` (an index, a slice or an index array) of the word
        table, gathered from the factors of those words alone; read-only."""
        left, right = self.factors
        pairs = self.index[at]
        rows = np.concatenate([left[pairs[..., 0]], right[pairs[..., 1]]], axis=-1)
        rows.setflags(write=False)
        return rows

    def label_keys(self) -> set[tuple[int, int, int, int]]:
        """Exponent quadruples (left kx, left kz, right kx, right kz) of the
        words; phases are dropped, matching span-level identity of words."""
        return set(map(tuple, self.words[:, [0, 1, 3, 4]].tolist()))

    def _label_count(self) -> int:
        """Number of distinct exponent quadruples, len(label_keys()) without
        building the set: the distinct values among sorted packed keys, one
        per word. Not n_generators: from_words keeps a word repeated under
        two phases."""
        # not np.unique(keys): in numpy 2.4 it takes a hash-table path that is
        # about 15x slower at 64513 keys
        keys = np.sort(_pair_keys(self.n, *self.factors, *self.index.T))
        return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def graph_from_labels(n: int, words: np.ndarray) -> OperatorGraph:
    """Graph on C^n (x) C^n spanned by the words of an integer word table of
    shape (G, 6), the identity, and the adjoint of every word. The identity
    comes first and each word is followed by its adjoint; deduplicated by
    exponent quadruple (phases do not affect the span), the first occurrence
    wins with its phase. An empty table gives the identity alone.

    The table's two column halves are its factors, and word g pairs row g of
    each: graph_from_factors closes it.
    """
    words = np.asarray(words)
    _check_word_table(n, words)
    index = np.broadcast_to(np.arange(len(words))[:, None], (len(words), 2))
    return graph_from_factors(n, (words[:, :3], words[:, 3:]), index)


def graph_from_factors(n: int, factors: tuple[np.ndarray, np.ndarray], index: np.ndarray) -> OperatorGraph:
    """Graph on C^n (x) C^n spanned by the words left[index[g, 0]] (x)
    right[index[g, 1]], the identity, and the adjoint of every word, for
    factors = (left, right) integer tables of shape (F, 3) with rows
    (kx, kz, phase), taken mod n and possibly repeated, and an integer index
    of shape (G, 2). It equals graph_from_labels of the gathered word table.

    Only the factors are sorted and searched. Per side, the distinct factors
    are taken together with their adjoints, a set closed under the adjoint,
    and each given factor and its adjoint get an int32 id into that set;
    every word and its adjoint then gather their ids by index. The
    interleaved sequence of id pairs is deduplicated by one sort of its
    packed phase-free pair keys with the position in the low bits, which
    puts each key's first occurrence first and takes memory linear in G;
    each side then keeps the factors still used. Raises ValueError on
    malformed factors or index, an index outside its side's table, or pair
    keys that would overflow int64.
    """
    if n < 1:
        raise ValueError(f"word dimension must satisfy n >= 1, got n={n}")
    factors, index = tuple(map(np.asarray, factors)), np.asarray(index)
    _check_factored(factors, index)
    count = 2 * len(index) + 2
    shift = count.bit_length()
    if n**4 << shift > 2**63:
        raise ValueError(f"pair keys of {count} words and adjoints at n={n} overflow int64")
    sides = []
    for table, at in zip(factors, index.T):
        # the identity's factor (0, 0, 0) packs to key 0
        keys = np.concatenate([[0], _factor_keys(table, n)])
        distinct = _sorted_distinct(keys)
        # the adjoint is an involution, so this union is closed under it
        closed = _sorted_distinct(np.concatenate([distinct, _adjoint_keys(distinct, n)]))
        ids = np.searchsorted(closed, keys).astype(np.int32)
        adjoint = np.searchsorted(closed, _adjoint_keys(closed, n)).astype(np.int32)
        sequence = np.empty(count, dtype=np.int32)
        sequence[0] = ids[0]
        sequence[2::2] = ids[1:][at]
        sequence[1::2] = adjoint[sequence[0::2]]
        sides.append((_unpack_factors(closed, n), sequence))
    # sorted with the position in the low bits, each phase-free key's first
    # occurrence comes first among its equals
    (left, at_l), (right, at_r) = sides
    keys = _pair_keys(n, left, right, at_l, at_r, shift)
    keys |= np.arange(count)
    keys.sort()
    # a key differs from its predecessor above the position bits exactly at
    # a first occurrence
    low = (1 << shift) - 1
    head = np.empty(count, dtype=bool)
    head[0] = True
    np.greater(keys[1:] ^ keys[:-1], low, out=head[1:])
    first = keys[head]
    first &= low
    first.sort()
    # the sorted keys go before the graph is built and checked
    del keys, head
    factors, index = [], []
    for closed, sequence in sides:
        kept = sequence[first]
        used = np.zeros(len(closed), dtype=bool)
        used[kept] = True
        factors.append(closed[used])
        index.append((np.cumsum(used, dtype=np.int32) - 1)[kept])
    return OperatorGraph(n, tuple(factors), np.stack(index, axis=1))


def _check_factored(factors, index) -> None:
    """Raise ValueError unless factors = (left, right) are integer arrays of
    shape (F, 3) and index is an integer array of shape (G, 2) whose columns
    index them."""
    if not isinstance(index, np.ndarray) or index.shape[1:] != (2,) or not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"expected an integer index of shape (G, 2), got {np.asarray(index).dtype} {np.shape(index)}")
    if len(factors) != 2:
        raise ValueError(f"expected factors (left, right), got {len(factors)} sides")
    for name, table, at in zip(("left", "right"), factors, index.T):
        if not isinstance(table, np.ndarray) or table.shape[1:] != (3,) or not np.issubdtype(table.dtype, np.integer):
            raise ValueError(
                f"expected integer {name} factors of shape (F, 3), got {np.asarray(table).dtype} {np.shape(table)}"
            )
        if len(at) and (at.min() < 0 or at.max() >= len(table)):
            raise ValueError(f"{name} indices must lie in [0, {len(table)}), got values in [{at.min()}, {at.max()}]")


def _check_word_table(n: int, words) -> None:
    """Raise ValueError unless n >= 1 and words is an integer array of shape
    (G, 6)."""
    if n < 1:
        raise ValueError(f"word dimension must satisfy n >= 1, got n={n}")
    if (
        not isinstance(words, np.ndarray)
        or words.ndim != 2
        or words.shape[1] != 6
        or not np.issubdtype(words.dtype, np.integer)
    ):
        raise ValueError(
            "expected an integer word table of shape (G, 6), "
            f"got {np.asarray(words).dtype} {np.shape(words)}"
        )


def _factor_keys(factors: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per factor (kx, kz, phase) of an integer table of shape
    (F, 3), reduced mod n: (kx * n + kz) * n + phase."""
    kx, kz, phase = (factors[:, c].astype(np.int64) % n for c in range(3))
    return (kx * n + kz) * n + phase


def _unpack_factors(keys: np.ndarray, n: int) -> np.ndarray:
    """The factors (kx, kz, phase), shape (F, 3), of packed factor keys."""
    high, phase = np.divmod(keys, n)
    return np.stack([*np.divmod(high, n), phase], axis=1)


def _adjoint_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """Packed keys of the adjoints of packed factors:
    (w^p X^a Z^b)^* = w^{ab-p} X^{-a} Z^{-b}."""
    kx, kz, phase = _unpack_factors(keys, n).T
    return _factor_keys(np.stack([-kx, -kz, kx * kz - phase], axis=1), n)


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, sorted."""
    # not np.unique(keys), which imports numpy.ma in numpy 2.4
    ordered = np.sort(keys)
    return ordered[np.r_[True, ordered[1:] != ordered[:-1]]]


def _pair_keys(
    n: int, left: np.ndarray, right: np.ndarray, at_l: np.ndarray, at_r: np.ndarray, shift: int = 0
) -> np.ndarray:
    """One int64 key per word left[at_l] (x) right[at_r], packing its
    exponent quadruple (left kx, left kz, right kx, right kz) and shifted
    left by shift bits; phases are dropped."""
    key_l, key_r = (f[:, 0].astype(np.int64) * n + f[:, 1] for f in (left, right))
    keys = (key_l * (n * n) << shift)[at_l]
    keys += (key_r << shift)[at_r]
    return keys


@dataclass(frozen=True)
class CodeSpace:
    """A code subspace of C^n (x) C^n, space_dim = n^2, stored as an
    isometry whose orthonormal columns span it.

    ``fourier`` holds the same columns in the Fourier product basis: entry
    (i*n + j, k) is the coefficient of f_i (x) f_j in column k, with f the
    columns of fourier_basis(n). Codes spanned by Fourier products give it
    as exact entries, which must agree with the isometry's coordinates
    within 1e-12; when it is not given, it is computed from the isometry.
    Compression reads each word only where the code is nonzero in that
    basis. Both are stored as arrays. Raises ValueError when space_dim is
    not a square.
    """

    space_dim: int
    isometry: np.ndarray
    basis_names: tuple[str, ...] = ()
    fourier: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.isometry)
        if s.ndim != 2 or s.shape[0] != self.space_dim:
            raise ValueError(f"isometry shape {s.shape} does not match space_dim {self.space_dim}")
        if s.shape[1] < 1:
            raise ValueError("code dimension must be >= 1")
        gram = dagger(s) @ s
        if max_abs(gram - np.eye(s.shape[1])) > 1e-10:
            raise ValueError("isometry columns are not orthonormal")
        if len(self.basis_names) not in (0, s.shape[1]):
            raise ValueError(
                f"{len(self.basis_names)} basis names for code dimension {s.shape[1]}; "
                "give none or one per column"
            )
        fourier = _fourier_coordinates(s)
        if self.fourier is not None:
            given = np.asarray(self.fourier)
            if given.shape != s.shape:
                raise ValueError(
                    f"fourier coordinates of shape {given.shape} do not fit an isometry of shape {s.shape}"
                )
            gap = max_abs(given - fourier)
            if gap > 1e-12:
                raise ValueError(f"fourier coordinates differ from the isometry's by {gap:.3e} > 1e-12")
            fourier = given
        object.__setattr__(self, "isometry", s)
        object.__setattr__(self, "fourier", fourier)

    @property
    def code_dim(self) -> int:
        return self.isometry.shape[1]

    @classmethod
    def from_vectors(
        cls,
        vectors: list[np.ndarray],
        names: Iterable[str] = (),
        tol: Tolerance = DEFAULT_TOL,
    ) -> "CodeSpace":
        """Code spanned by the vectors, orthonormalized in order. A vector
        dependent on the earlier ones is dropped together with its name."""
        names = tuple(names)
        if names and len(names) != len(vectors):
            raise ValueError(f"{len(names)} names for {len(vectors)} vectors")
        basis, kept = _gram_schmidt(vectors, tol)
        if not basis:
            raise ValueError("vectors span the zero subspace")
        return cls(
            space_dim=basis[0].shape[0],
            isometry=np.column_stack(basis),
            basis_names=tuple(names[i] for i in kept) if names else (),
        )


def _fourier_coordinates(isometry: np.ndarray) -> np.ndarray:
    """Coordinates of an isometry's columns in the Fourier product basis of
    C^n (x) C^n. A column reshaped to an n x n matrix M is F C F^T for its
    coordinates C, so C = F^dag M conj(F), taken column by column without
    forming F (x) F."""
    n = math.isqrt(isometry.shape[0])
    if n * n != isometry.shape[0]:
        raise ValueError(f"isometry rows {isometry.shape[0]} do not fit C^n (x) C^n, which has n^2")
    f = fourier_basis(n)
    code_dim = isometry.shape[1]
    coordinates = dagger(f) @ isometry.T.reshape(code_dim, n, n) @ f.conj()
    return np.ascontiguousarray(coordinates.reshape(code_dim, n * n).T)


@dataclass(frozen=True)
class GraphDim:
    """Result of running both dimension oracles."""

    labels: int
    gram: int
    agree: bool


def graph_dim(g: OperatorGraph, method: str = "both", tol: Tolerance = DEFAULT_TOL):
    """Dimension of the span of the graph's generators.

    method "labels": count of distinct exponent quadruples (exact), from one
    packed integer key per word, sorted. method "gram": numeric Gram rank of
    the realized generators, over every generator, read from their factor
    lines. Each side's distinct factors are realized once, in the Fourier
    basis, and grouped in one pass into lines by row pattern and values
    normalized by column 0, every factor checked against its line's
    representative within tol.absolute; row patterns of one side that share
    a position raise ValueError. Each generator is a multiple of
    u_a (x) v_b, so the span has one dimension per distinct pair (a, b) when
    each pattern's lines are independent. A word's pair is one int64 key, class-major in its row
    patterns (P, Q), summed from one part per factor (ValueError if it would
    overflow); one in-place sort gives the distinct pairs, each (P, Q) a run
    of them: one Gram block, the principal submatrix of G_P (x) G_Q the run
    selects, with eigenvalues in [lo_P lo_Q, hi_P hi_Q] from the Gershgorin
    bounds of the line Grams (Kronecker spectrum plus interlacing). A block
    whose lower bound clears the cutoff counts its pairs without being formed
    or decoded; any other is formed and eigensolved (linalg._rank_of_grams).
    Distinct Weyl words are Hilbert-Schmidt orthogonal, so every block of
    every construction is certified. method "both": a GraphDim of both values
    and an agreement flag.
    """
    if method == "labels":
        return g._label_count()
    if method == "gram":
        return _gram_dim(g, tol)
    if method == "both":
        labels = g._label_count()
        gram = _gram_dim(g, tol)
        return GraphDim(labels=labels, gram=gram, agree=labels == gram)
    raise ValueError(f"unknown method {method!r}")


def _gram_dim(g: OperatorGraph, tol: Tolerance) -> int:
    left, right = _factor_lines(g, tol)
    # class-major pair keys ((P N_Q + Q) S_L + local_l) S_R + local_r, S = max local + 1
    n_p, n_q, span_l, span_r = len(left.grams), len(right.grams), int(left.local.max()) + 1, int(right.local.max()) + 1
    if n_p * n_q * span_l * span_r >= 2**63:
        raise ValueError(f"pair keys of {n_p} x {n_q} patterns of {span_l} x {span_r} lines overflow int64")
    stride = span_l * span_r
    keys = ((left.pattern * n_q * span_l + left.local) * span_r)[left.line][g.index[:, 0]]
    keys += (right.pattern * stride + right.local)[right.line][g.index[:, 1]]
    # members sharing both lines are multiples of one another: one generator
    # per distinct key, and each (P, Q) class a run of the sorted keys
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    bounds = np.searchsorted(keys, np.arange(n_p * n_q + 1) * stride).tolist()

    def blocks():
        for c in np.flatnonzero(np.diff(bounds)).tolist():
            p, q = divmod(c, n_q)
            # Kronecker spectrum plus interlacing: every eigenvalue of a
            # principal submatrix of G_P (x) G_Q lies in [lo_P lo_Q, hi_P hi_Q]
            lo = max(float(left.lo[p]), 0.0) * max(float(right.lo[q]), 0.0)
            hi = float(left.hi[p] * right.hi[q])
            in_class = keys[bounds[c] : bounds[c + 1]]
            yield lo, hi, len(in_class), partial(_pair_gram, left.grams[p], right.grams[q], in_class, stride, span_r)

    return _rank_of_grams(blocks(), tol)


def _pair_gram(gram_l: np.ndarray, gram_r: np.ndarray, keys: np.ndarray, stride: int, span_r: int) -> np.ndarray:
    """Gram matrix of the vectors u_a[i] (x) v_b[i], given the Gram matrices
    of the u's and v's: the principal submatrix of gram_l (x) gram_r at the
    pairs a[i] * span_r + b[i] = keys[i] mod stride of one class's pair keys."""
    a, b = np.divmod(keys % stride, span_r)
    return gram_l[np.ix_(a, a)] * gram_r[np.ix_(b, b)]


@dataclass(frozen=True)
class _FactorLines:
    """The factor lines of one tensor side of a graph's words.

    line[f] (int32) is the line of the side's stored factor f; a word takes
    its factor's line by index. Lines are grouped by row pattern: pattern[l]
    and local[l] are line l's pattern and its index among that pattern's
    lines, grams[P] is the Gram matrix of pattern P's normalized lines in
    that order, and lo[P], hi[P] are its Gershgorin bounds.
    """

    line: np.ndarray
    pattern: np.ndarray
    local: np.ndarray
    grams: list[np.ndarray]
    lo: np.ndarray
    hi: np.ndarray


def _factor_lines(g: OperatorGraph, tol: Tolerance) -> tuple[_FactorLines, _FactorLines]:
    """Left and right factor lines of a graph. Each side's distinct factors
    are realized once, through _monomial_factors as the verdict realizes
    them, and grouped into lines (_lines), reading only the realized rows and
    values, never labels; each stored factor keeps its line. Raises
    ValueError when two row patterns of one side share a position, since the
    tensor classes' Grams would then not be blocks of one block-diagonal
    Gram matrix."""
    left, right = (_group_lines(*_lines(*_monomial_factors(factors, g.n), tol)) for factors in g.factors)
    return left, right


def _lines(rows: np.ndarray, vals: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct lines of realized factors (rows, vals), found in one pass:
    the int32 line of each factor, and each line's rows and normalized
    values.

    A line is a realized factor up to a scalar: its row pattern together with
    its values divided by the column-0 entry. Factors are sorted stably by a
    hashed key of both, the first of each run of equal keys is a line's
    representative, and each factor is then checked against its
    representative: rows equal, values within tol.absolute. A factor that
    fails the check becomes a line of its own, so a key collision or a
    rounding boundary may split a line but never merges two.
    """
    values = vals * (1 / vals[:, :1])
    steps = np.rint(np.concatenate([values.real, values.imag], axis=1) * _LINE_KEY_STEPS)
    features = np.concatenate([rows, steps.astype(np.int64)], axis=1).view(np.uint64)
    keys = features @ np.cumprod(np.full(features.shape[1], _LINE_HASH, dtype=np.uint64))
    order = np.argsort(keys, kind="stable")
    first = np.r_[True, keys[order[1:]] != keys[order[:-1]]]
    line = np.empty(len(keys), dtype=np.int32)
    line[order] = np.cumsum(first) - 1
    heads = order[first]
    stray = np.flatnonzero(
        np.any(rows != rows[heads][line], axis=1)
        | np.any(np.abs(values - values[heads][line]) > tol.absolute, axis=1)
    )
    line[stray] = len(heads) + np.arange(len(stray))
    kept = np.concatenate([heads, stray])
    return line, rows[kept], values[kept]


def _group_lines(line: np.ndarray, rows: np.ndarray, values: np.ndarray) -> _FactorLines:
    """Group a side's lines, given by their rows and normalized values, by
    row pattern and take each pattern's line Gram and Gershgorin bounds."""
    count = len(rows)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.flatnonzero(np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)])
    # two patterns share a position exactly when they hold the same row in
    # some column
    by_column = np.sort(ordered[starts], axis=0)
    if np.any(by_column[1:] == by_column[:-1]):
        raise ValueError("generator supports overlap without coinciding; no support-blocked Gram")
    sizes = np.diff(np.r_[starts, count])
    pattern = np.empty(count, dtype=np.int64)
    pattern[order] = np.repeat(np.arange(len(starts)), sizes)
    local = np.empty(count, dtype=np.int64)
    local[order] = np.arange(count) - np.repeat(starts, sizes)
    grams = [u @ u.conj().T for u in np.split(values[order], starts[1:])]
    lo, hi = np.array([_discs(gram) for gram in grams]).T
    return _FactorLines(line, pattern, local, grams, lo, hi)


def _compressions(g: OperatorGraph, code: CodeSpace) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Compressions S^dag V S of the graph's generators, one chunk of words
    at a time: yields (members, block), the indices of the chunk's
    generators whose compression may be nonzero and their compressions,
    shape (len(members), code_dim, code_dim). Every other generator
    compresses to exactly zero.

    Works in the Fourier product basis with S = code.fourier. Each side's
    distinct factors are realized once in full (_monomial_factors), each
    checked for rows that are a permutation of range(n), and kept at the
    columns of R only; each chunk gathers its words' factors by index. With
    R the rows where S has an exactly nonzero entry, a word realized as
    V[r(c), c] = v(c) compresses to sum_{c in R} conj(S[r(c), l]) v(c)
    S[c, k], one matrix product per chunk.
    A word that maps no column of R into R meets only zero rows of S, so it
    is a member only if some r(c) lies in R.
    """
    if g.space_dim != code.space_dim:
        raise ValueError(f"graph dim {g.space_dim} does not match code space dim {code.space_dim}")
    n, d = g.n, code.code_dim
    s = code.fourier
    in_support = np.any(s != 0, axis=1)
    support = np.flatnonzero(in_support)
    col_l, col_r = np.divmod(support, n)
    # conj(S)^T, so the gathered rows come out code index first
    s_conj = np.ascontiguousarray(s.conj().T)
    s_support = s[support]
    # each side's distinct factors, realized once and kept at R's columns
    (factors_l, factors_r), (index_l, index_r) = g.factors, g.index.T
    rows_l, vals_l = (a[:, col_l] for a in _monomial_factors(factors_l, n))
    rows_r, vals_r = (a[:, col_r] for a in _monomial_factors(factors_r, n))
    for start in range(0, g.n_generators, _WORD_CHUNK):
        at_l, at_r = index_l[start : start + _WORD_CHUNK], index_r[start : start + _WORD_CHUNK]
        rows = rows_l[at_l] * n + rows_r[at_r]
        hit = np.flatnonzero(in_support[rows].any(axis=1))
        left = s_conj[:, rows[hit]] * (vals_l[at_l[hit]] * vals_r[at_r[hit]])
        block = left.reshape(d * len(hit), len(support)) @ s_support
        yield start + hit, block.reshape(d, len(hit), d).transpose(1, 0, 2)


def _monomial_factors(factors: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """weyl_monomial, raising ValueError unless each factor's rows are a
    permutation of range(n), as a monomial unitary's are."""
    rows, vals = weyl_monomial(factors, n)
    # one bin per (factor, row): n * len(rows) entries hit all of them once
    # exactly when every factor's rows are a permutation
    bins = rows + n * np.arange(len(rows))[:, None]
    if not np.bincount(bins.ravel(), minlength=rows.size).all():
        raise ValueError("realized factor rows overlap: not a permutation of range(n)")
    return rows, vals


def compress(g: OperatorGraph, code: CodeSpace) -> np.ndarray:
    """Compression S^dag V S of every generator V by the code isometry S,
    stacked in generator order, shape (n_generators, code_dim, code_dim).

    Each result equals P_K V P_K restricted to the code subspace. It is
    taken chunk by chunk from the monomial realization in the Fourier
    product basis, on the code's Fourier support; onto the whole space with
    Fourier coordinates the identity (isometry F (x) F) it returns each
    generator's Fourier realization exactly. The anticlique verdict does not
    hold this stack (is_anticlique).
    """
    out = np.zeros((g.n_generators, code.code_dim, code.code_dim), dtype=complex)
    for members, block in _compressions(g, code):
        out[members] = block
    return out


@dataclass(frozen=True, eq=False)
class CompressionReport:
    """Anticlique verdict for a (graph, code) pair.

    verdict is true iff the compressions span a one-dimensional space (the
    multiples of the identity on the code); residual is the worst entrywise
    deviation of any compression from c_V * I with c_V = trace / code_dim,
    and worst = (generator, l, k) is where it peaks: the first generator,
    and its entry (l, k) between code basis vectors l and k. c_values is a
    read-only complex array holding each generator's c_V, in generator
    order.
    """

    verdict: bool
    compressed_dim: int
    residual: float
    c_values: np.ndarray
    worst: tuple[int, int, int]


def is_anticlique(g: OperatorGraph, code: CodeSpace, tol: Tolerance = DEFAULT_TOL) -> CompressionReport:
    """Check dim P_K V P_K = 1 numerically.

    The verdict comes from the Gram rank of all compressed generators; the
    residual diagnostic cross-checks that each compression is a scalar
    multiple of the identity on the code. Both are streamed over the chunks
    of compress's kernel and the (n_generators, code_dim, code_dim) stack is
    never held: per chunk the c_V, the running worst residual with its
    place, and a running code_dim^2 x code_dim^2 Gram matrix of the
    compressions, which spans the same rank as the generators' Gram matrix
    and is ranked by linalg._rank_of_grams as one block bounded by its
    Gershgorin discs.
    """
    d = code.code_dim
    eye = np.eye(d)
    gram = np.zeros((d * d, d * d), dtype=complex)
    # a generator the kernel skips compresses to exactly zero: c_V = 0, no
    # residual, nothing added to the Gram matrix
    c_values = np.zeros(g.n_generators, dtype=complex)
    residual, worst = 0.0, (0, 0, 0)
    for members, block in _compressions(g, code):
        if not len(members):
            continue
        c = np.trace(block, axis1=1, axis2=2) / d
        c_values[members] = c
        deviation = np.abs(block - c[:, None, None] * eye)
        peak = int(np.argmax(deviation))
        if deviation.flat[peak] > residual:
            residual = float(deviation.flat[peak])
            at, l, k = np.unravel_index(peak, deviation.shape)
            worst = (int(members[at]), int(l), int(k))
        flat = block.reshape(len(block), d * d)
        gram += flat.conj().T @ flat
    dim = _rank_of_grams([(*_discs(gram), d * d, lambda: gram)], tol)
    c_values.setflags(write=False)
    return CompressionReport(
        verdict=dim == 1,
        compressed_dim=dim,
        residual=residual,
        c_values=c_values,
        worst=worst,
    )
