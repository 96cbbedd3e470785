"""Builders for the three verified constructions and their claimed dimensions.

* section2: C^2 (x) C^2, graph spanned by five Pauli tensor words, the n = 2
  case of the Weyl words, two-dimensional code spanned by a pair of
  orthogonal product vectors, given by its Fourier coordinates.
* section3: C^n (x) C^n, graph spanned by all powers of the one-sided words
  (X Z^k (x) I) and (I (x) X Z^k), code spanned by the diagonal Fourier
  products f_j (x) f_j.
* section4: the off-diagonal shifts (which hold section3's powers), the
  equal shifts at allowed_shifts and the clock words off the subgroup, with
  an entangled code built from subgroup-supported diagonal vectors.

Both codes, and remark2's, come from one builder (_diagonal_code): vector k
sums f_c (x) f_c / sqrt(p) over c = t*y + step*k mod n, t < p, and section3's
code is its p = 1, step 1 case. Every code is built as its exact
coordinates in the Fourier product basis (see graph.CodeSpace).

Every graph is a boolean mask of phase-free words (see graph.OperatorGraph),
read through its (n, n, n, n) view, indexed by the word exponents (left kx,
left kz, right kx, right kz); no word table and no search over the words is
needed. Every builder writes its family into an empty mask that is the
build's first allocation (_dense_graph), so a point too large to allocate
fails at once: section2's, section4's and remark2's as one boolean
expression over open grids of the four exponents, section3's powers by one
broadcast assignment. The adjoint of a word is the word with every exponent
negated mod n, up to a phase, and negation maps each family onto itself
(each builder's docstring says why), so the mask as written, with the
identity set, is closed, and no builder calls graph.graph_from_mask, which
closes a mask built elsewhere.

Closed-form dimension claims are evaluated separately and marked as claims;
computed ranks are the ground truth the reports compare them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import CodeSpace, OperatorGraph
from .weyl import _check_integers


def build_section2() -> tuple[OperatorGraph, CodeSpace]:
    """Five-generator graph {I, sx(x)I, sy(x)I, I(x)sy, I(x)sz} on C^2 (x) C^2
    and the two-dimensional code spanned by e1(x)(1,1) and e2(x)(1,-1),
    which are orthogonal, each divided by sqrt(2) and named f+ and f-. With
    f_0 = (1,1)/sqrt(2) and f_1 = (1,-1)/sqrt(2), e1 = (f_0 + f_1)/sqrt(2)
    and e2 = (f_0 - f_1)/sqrt(2), so in the Fourier product basis
    f+ = (f_0(x)f_0 + f_1(x)f_0)/sqrt(2) and f- = (f_0(x)f_1 - f_1(x)f_1)/sqrt(2).

    At n = 2 the Pauli matrices are Weyl words: sx = Z, sz = X and
    sy = i XZ, so the graph is spanned by the words Z(x)I, XZ(x)I, I(x)XZ and
    I(x)X, and in mask order its generators are [I, I(x)sz, I(x)sy, sx(x)I,
    sy(x)I]. The phase i is dropped; it changes neither the span nor the
    anticlique verdict. Negation mod 2 fixes every exponent, so the family
    is closed.
    """
    # Z (x) I and XZ (x) I have left kz = 1 and the identity on the right;
    # I (x) XZ and I (x) X have right kx = 1 and the identity on the left
    graph = _dense_graph(2, lambda words, m, k, j, s: np.logical_or(
        (k == 1) & (j == 0) & (s == 0), (j == 1) & (m == 0) & (k == 0), out=words
    ))
    fourier = np.array([[1, 0], [0, 1], [1, 0], [0, -1]]) / np.sqrt(2)
    return graph, CodeSpace(fourier, ("f+", "f-"))


def _one_sided_powers(words: np.ndarray, *grids) -> None:
    """Set all nontrivial powers (X Z^k)^s, placed on either tensor factor,
    in a word mask's (n, n, n, n) view; a write for _dense_graph, which
    needs no exponent grids. In closed form,
    (X Z^k)^s = w^{k s(s-1)/2} X^s Z^{ks}, the phase-free word X^s Z^{ks}."""
    n = len(words)
    k, s = np.arange(n)[:, None], np.arange(1, n)
    words[s, k * s % n, 0, 0] = True
    words[0, 0, s, k * s % n] = True


def build_section3(n: int) -> tuple[OperatorGraph, CodeSpace]:
    """Product-vector construction on C^n (x) C^n.

    Graph: span of (X Z^k)^s on either factor for 0 <= k <= n-1 and
    1 <= s <= n-1, plus identity. Code: the n vectors f_j (x) f_j. The
    construction needs n > 2 (n = 2 degenerates), and any smaller n raises
    ValueError, as does an n that is not an integer. Negating X^s Z^{ks}
    gives X^{n-s} Z^{k(n-s)}, the power at n - s, so the family is closed.
    """
    _check_integers(n=n)
    if n <= 2:
        raise ValueError(f"construction requires n > 2 (got n={n})")
    return _dense_graph(n, _one_sided_powers), _diagonal_code(n, 1, 1, n, "h")


def _diagonal_code(n: int, p: int, step: int, d: int, name: str) -> CodeSpace:
    """The d orthonormal vectors name_1..name_d on C^n (x) C^n, given by
    their exact Fourier coordinates: vector k sums f_c (x) f_c / sqrt(p) over
    c = t*y + step*k mod n for t < p, with y = n / p. Since X f_j = f_{j+1},
    each vector is the one before it shifted by X^step (x) X^step."""
    k, t = np.divmod(np.arange(d * p), p)
    c = (t * (n // p) + step * k) % n
    fourier = np.zeros((n * n, d), dtype=complex)
    fourier[c * n + c, k] = 1 / np.sqrt(p)
    return CodeSpace(fourier, tuple(f"{name}_{j + 1}" for j in range(d)))


@dataclass(frozen=True)
class Section4Params:
    """Parameters (p, y, h, d) of the entangled-code construction, n = p*y.

    Validity needs integers p, y >= 2, h >= 0, d >= 2 (a code at least one
    qubit wide) and (h+1)(d+1) >= y >= (h+1)d; any other point raises
    ValueError naming the condition it violates.
    """

    p: int
    y: int
    h: int
    d: int

    def __post_init__(self):
        _check_integers(**vars(self))
        if self.p < 2:
            raise ValueError(f"requires p >= 2 (got p={self.p})")
        if self.y < 2:
            raise ValueError(f"requires y >= 2 (got y={self.y})")
        if self.h < 0:
            raise ValueError(f"requires h >= 0 (got h={self.h})")
        if self.d < 2:
            raise ValueError(f"requires d >= 2 (got d={self.d}); a smaller code is below one qubit")
        if not (self.h + 1) * (self.d + 1) >= self.y:
            raise ValueError(
                f"requires (h+1)(d+1) >= y: ({self.h}+1)({self.d}+1) = "
                f"{(self.h + 1) * (self.d + 1)} < {self.y}"
            )
        if not self.y >= (self.h + 1) * self.d:
            raise ValueError(
                f"requires y >= (h+1)d: {self.y} < ({self.h}+1)*{self.d} = "
                f"{(self.h + 1) * self.d}"
            )

    @property
    def n(self) -> int:
        return self.p * self.y


def allowed_shifts(params: Section4Params) -> np.ndarray:
    """The shifts 0 <= m < n whose diagonal translation X^m (x) X^m moves
    every code vector off the code: m mod y avoids +-i(h+1) mod y for every
    i < d, so 0 is never allowed."""
    return np.flatnonzero(_shift_table(params))


def _shift_table(params: Section4Params) -> np.ndarray:
    """The length-n boolean table of allowed_shifts: entry m is set exactly
    when m is allowed."""
    steps = np.arange(params.d) * (params.h + 1)
    excluded = np.zeros(params.y, dtype=bool)
    excluded[steps % params.y] = excluded[-steps % params.y] = True
    return ~excluded[np.arange(params.n) % params.y]


def build_code_K1(params: Section4Params) -> CodeSpace:
    """Entangled code vectors q_1..q_d on C^n (x) C^n.

    q_1 sums f_{j+1} (x) f_{j+1} over the order-p subgroup
    {0, y, ..., (p-1)y} of Z_n; each following vector applies the diagonal
    shift X^{h+1} (x) X^{h+1}. All are normalized by 1/sqrt(p).
    """
    return _diagonal_code(params.n, params.p, params.h + 1, params.d, "q")


def _dense_graph(n: int, write) -> OperatorGraph:
    """The graph of the identity and the words that ``write(words, m, k, j,
    s)`` sets in an empty (n, n, n, n) word mask, indexed by (left kx,
    left kz, right kx, right kz), given open grids of the exponents
    (m, k, j, s). The family written must be closed under negating all four
    exponents; the mask is not closed here. It is the build's first
    allocation, so a point too large to allocate fails before any other
    array sized by n is made, and the graph holds it without a copy."""
    words = np.zeros((n, n, n, n), dtype=bool)
    r = np.arange(n)
    write(words, r[:, None, None, None], r[:, None, None], r[:, None], r)
    words[0, 0, 0, 0] = True
    return OperatorGraph(n, words.reshape(n * n, n * n))


def build_section4(params: Section4Params) -> tuple[OperatorGraph, CodeSpace]:
    """Entangled-code construction: the enlarged graph and the code from
    build_code_K1. The graph holds every word X^m Z^k (x) X^j Z^s with
    m != j (the off-diagonal shifts), m in allowed_shifts (read from its
    boolean table at m), or clock exponents
    off the subgroup, (k + s) mod p != 0; the first term sets every
    off-diagonal word, so the other two need no m == j guard. The three
    terms are ORed straight into the mask (see _dense_graph). Section3's
    powers X^s Z^{ks} on either side (s >= 1) shift one side only, so the
    off-diagonal shifts already hold them. Negation keeps m != j, maps
    allowed_shifts onto itself and keeps (k + s) mod p != 0, since p divides
    n, so the family is closed."""
    allowed = _shift_table(params)
    graph = _dense_graph(params.n, lambda words, m, k, j, s: np.logical_or(
        (m != j) | allowed[m], (k + s) % params.p != 0, out=words
    ))
    return graph, build_code_K1(params)


def build_remark2(n: int) -> tuple[OperatorGraph, CodeSpace]:
    """The off-diagonal shifts X^m Z^k (x) X^j Z^s, m != j, for every k and
    s, plus identity, against the f_j (x) f_j code; m != j is written
    straight into the mask (see _dense_graph). n < 2 leaves no off-diagonal
    shift and a one-dimensional code, and is rejected, as is an n that is
    not an integer. Negation keeps m != j, so the family is closed."""
    _check_integers(n=n)
    if n < 2:
        raise ValueError(f"remark2 requires n >= 2 (got n={n})")
    graph = _dense_graph(n, lambda words, m, k, j, s: np.not_equal(m, j, out=words))
    return graph, _diagonal_code(n, 1, 1, n, "h")


def claimed_dim_section2() -> int:
    return 5


def claimed_dim_section3(n: int) -> int:
    """Claimed closed form 2n(n-1)+1 for the section3 graph dimension."""
    return 2 * n * (n - 1) + 1


def claimed_dim_section4(params: Section4Params) -> int:
    """Claimed closed form for the section4 graph dimension; the count of
    allowed shifts (none is 0) enters as #A' and its complement as n - #A'."""
    n = params.n
    a_strict = len(allowed_shifts(params))
    r_a = n - a_strict
    tail = (params.y * (params.p - 1) * (params.p + 2)) // 2 + (n * (params.y - 1)) // 2
    return n**3 * (n - 1) + a_strict * n**2 + r_a * tail + 1


def claimed_dim_remark2(n: int) -> int:
    return n**3 * (n - 1) + 1


def baseline_bounds(dim_h: int, dim_k: int) -> dict[str, int]:
    """Upper bounds on correctable-graph dimension from the two general
    estimates: v(v+1) <= dim_h/dim_k for arbitrary graphs, and
    (dim_h - dim_k)/(dim_k - 1) for commutative ones."""
    if dim_k < 2:
        raise ValueError(f"requires dim_k >= 2 (got {dim_k})")
    if dim_h < dim_k:
        raise ValueError(f"requires dim_h >= dim_k (got {dim_h} < {dim_k})")
    # v(v+1) is an integer, so v(v+1) <= dim_h/dim_k exactly when it is at
    # most dim_h // dim_k
    return {
        "knill_max": (math.isqrt(4 * (dim_h // dim_k) + 1) - 1) // 2,
        "commutative_max": (dim_h - dim_k) // (dim_k - 1),
    }


def enumerate_section4_params(n_max: int) -> list[Section4Params]:
    """All valid (p, y, h, d) with p*y <= n_max and d >= 2, sorted by
    (n, p, y, h, d)."""
    points = []
    for p in range(2, n_max // 2 + 1):
        for y in range(2, n_max // p + 1):
            for h in range(0, y):
                for d in range(2, y + 1):
                    if (h + 1) * (d + 1) >= y >= (h + 1) * d:
                        points.append(Section4Params(p=p, y=y, h=h, d=d))
    return sorted(points, key=lambda q: (q.n, q.p, q.y, q.h, q.d))
