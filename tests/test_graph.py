import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgraph.graph import CodeSpace, OperatorGraph, graph_dim, graph_from_mask, is_anticlique
from opgraph import constructions
from opgraph import graph as graph_module
from opgraph.linalg import dagger, max_abs
from opgraph.weyl import weyl_monomial
from opgraph.constructions import (
    Section4Params,
    build_remark2,
    build_section2,
    build_section3,
    build_section4,
    enumerate_section4_params,
)

from reference import (
    WeylLabelPair,
    _discs,
    code_from_isometry,
    compress,
    graph_from_labels,
    graph_words,
    isometry,
    label,
    mask_of,
    orthonormalize,
    pair_adjoint,
    pair_dense,
    pair_monomial,
    word_table,
)
from conftest import gram_rank, in_fourier, random_complex


def pair(n, m, k, j, s):
    return WeylLabelPair(label(n, m, k), label(n, j, s))


def scalar_pairs(g):
    """The graph's words as scalar reference pairs, in generator order."""
    n = math.isqrt(g.space_dim)
    return [WeylLabelPair(label(n, *row[:3]), label(n, *row[3:])) for row in graph_words(g).tolist()]


def label_set(words):
    """The phase-free exponent quadruples (left kx, left kz, right kx, right
    kz) of a word table's rows."""
    return set(map(tuple, np.asarray(words)[:, [0, 1, 3, 4]].tolist()))


def test_graph_from_labels_empty_is_identity_span():
    g = graph_from_labels(3, word_table([]))
    assert g.n_generators == 1
    assert graph_dim(g, "labels") == 1
    assert graph_dim(g, "gram") == 1


def test_graph_from_labels_adjoint_closure():
    g = graph_from_labels(3, word_table([pair(3, 1, 0, 0, 0)]))
    assert label_set(graph_words(g)) == {(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)}
    labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
    assert labels == gram == 3


def test_graph_from_labels_rejects_malformed_table():
    # a table row carries no n of its own, so only the table's shape and
    # dtype can be checked
    malformed = (
        np.zeros((2, 6)),
        [[1, 0, 0, 0.5, 0, 0]],
        np.zeros((2, 4), dtype=int),
        np.zeros(6, dtype=int),
    )
    for bad in malformed:
        with pytest.raises(ValueError, match="word table"):
            graph_from_labels(3, bad)
    with pytest.raises(ValueError, match="n >= 1"):
        graph_from_labels(0, word_table([]))
    # a mask of n^4 = 2^64 bytes: numpy rejects it before allocating anything
    with pytest.raises(ValueError, match="array is too big"):
        graph_from_labels(2**16, word_table([]))


def scalar_closure(n, pairs):
    """Reference closure of scalar pairs: the sorted phase-free exponent
    quadruples of the identity, the pairs and their adjoints, which is
    generator order, since mask order is lexicographic in them."""
    closed = [pair(n, 0, 0, 0, 0), *pairs, *map(pair_adjoint, pairs)]
    return sorted({(q.left.kx, q.left.kz, q.right.kx, q.right.kz) for q in closed})


def assert_closes_to(g, n, pairs):
    """g's words are scalar_closure(n, pairs), in that order, phases 0."""
    assert graph_words(g)[:, [0, 1, 3, 4]].tolist() == [list(key) for key in scalar_closure(n, pairs)]
    assert not graph_words(g)[:, [2, 5]].any()


def test_graph_from_labels_matches_scalar_closure():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        factors = rng.integers(0, n, size=(int(rng.integers(0, 30)), 2, 3)).tolist()
        pairs = [WeylLabelPair(label(n, *a), label(n, *b)) for a, b in factors]
        assert_closes_to(graph_from_labels(n, word_table(pairs)), n, pairs)
    # unreduced and negative entries are taken mod n, and phases dropped
    g = graph_from_labels(3, np.array([[4, -1, 7, 0, 3, -3]]))
    assert graph_words(g).tolist() == [[0, 0, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0]]


@st.composite
def raw_word_tables(draw):
    """(n, table): an int64 word table on C^n (x) C^n with entries possibly
    negative or unreduced, and some rows repeated under other phases."""
    n = draw(st.integers(2, 6))
    entry = st.integers(-2 * n, 3 * n)
    rows = draw(st.lists(st.lists(entry, min_size=6, max_size=6), max_size=20))
    if rows:
        repeats = st.tuples(st.integers(0, len(rows) - 1), entry, entry)
        for at, left, right in draw(st.lists(repeats, max_size=5)):
            rows.append(rows[at][:2] + [left] + rows[at][3:5] + [right])
    return n, np.array(rows, dtype=np.int64).reshape(len(rows), 6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw_word_tables())
def test_closure_of_random_tables_matches_scalar_closure(drawn):
    n, table = drawn
    g = graph_from_labels(n, table)
    pairs = [WeylLabelPair(label(n, *row[:3]), label(n, *row[3:])) for row in table.tolist()]
    assert_closes_to(g, n, pairs)
    assert graph_dim(g, "labels") == graph_dim(g, "gram")


def test_closure_is_idempotent():
    # closing a closed mask, whether built from a table or by a builder,
    # changes nothing; the builders write their masks without closing them,
    # so this is what keeps every built family adjoint-closed and with the
    # identity
    rng = np.random.default_rng(17)
    graphs = [
        graph_from_labels(4, rng.integers(0, 4, size=(12, 6))),
        build_section2()[0],
        *(build_section3(n)[0] for n in range(3, 13)),
        *(build_remark2(n)[0] for n in range(2, 13)),
        *(build_section4(params)[0] for params in enumerate_section4_params(24)),
    ]
    for g in graphs:
        assert np.array_equal(graph_from_mask(g.n, g.mask).mask, g.mask)
        assert g.mask[0, 0]
    # an empty mask closes to the identity alone
    assert graph_words(graph_from_mask(3, np.zeros((9, 9), dtype=bool))).tolist() == [[0] * 6]


def _read_only(mask):
    mask = mask.copy()
    mask.setflags(write=False)
    return mask


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("layout", [np.transpose, np.asfortranarray, _read_only], ids=["T", "F", "read-only"])
def test_closure_of_any_mask_layout_matches_scalar_closure(n, layout):
    # the closure reads the caller's mask in any layout, leaves it as it
    # was, and writes one C-contiguous mask: the scalar adjoint closure of
    # the words it sets
    rng = np.random.default_rng(n)
    for density in (0.05, 0.3):
        mask = layout(rng.random((n * n, n * n)) < density)
        before = mask.copy()
        closed = graph_from_mask(n, mask).mask
        rows, columns = np.nonzero(mask)
        pairs = [pair(n, *divmod(r, n), *divmod(c, n)) for r, c in zip(rows.tolist(), columns.tolist())]
        assert np.array_equal(closed, mask_of(n, [[*key[:2], 0, *key[2:], 0] for key in scalar_closure(n, pairs)]))
        assert closed.flags.c_contiguous
        assert np.array_equal(mask, before)


def test_off_diagonal_family_is_adjoint_closed():
    n = 4
    family = [
        pair(n, m, k, j, s)
        for m in range(n)
        for j in range(n)
        if m != j
        for k in range(n)
        for s in range(n)
    ]
    g = graph_from_labels(n, word_table(family))
    # closure added only the identity
    assert g.n_generators == len(family) + 1


def test_graph_dim_rejects_unknown_method():
    g, _ = build_section2()
    with pytest.raises(ValueError, match="unknown method"):
        graph_dim(g, "nonsense")


def test_graph_requires_some_generators():
    with pytest.raises(TypeError):
        OperatorGraph(n=2)
    # a graph contains the identity; an empty mask would count 0 labels and
    # leave the Gram oracle, compress and is_anticlique nothing to index
    with pytest.raises(ValueError, match="mask is empty"):
        OperatorGraph(3, np.zeros((9, 9), dtype=bool))
    good = mask_of(3, [[0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]])
    # the closure checks the mask as the graph does, before reading it
    for make in (OperatorGraph, graph_from_mask):
        for bad in (good.astype(np.uint8), good.astype(int), good[:8], good.reshape(3, 27), good.ravel(), good.tolist()):
            with pytest.raises(ValueError, match=r"boolean mask of shape \(9, 9\)"):
                make(3, bad)
        with pytest.raises(ValueError, match="n >= 1"):
            make(0, np.zeros((0, 0), dtype=bool))
    # a mask is stored as given, with no closure
    g = OperatorGraph(3, good)
    labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
    assert labels == gram == 3
    g = OperatorGraph(3, mask_of(3, [[1, 0, 0, 0, 0, 0]]))
    labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
    assert labels == gram == 1


def test_graph_mask_is_read_only():
    mask = mask_of(2, [[0, 0, 0, 0, 0, 0]])
    g = OperatorGraph(2, mask)
    with pytest.raises(ValueError, match="read-only"):
        g.mask[0, 1] = True


@pytest.mark.parametrize(
    "build, arg",
    [(build_section2, None), (build_section3, 5), (build_section4, Section4Params(2, 8, 1, 4))],
    ids=["section2", "section3-5", "section4-2-8-1-4"],
)
def test_words_at_finds_the_mask_entries(build, arg):
    # generator ids number the mask's set entries in row-major order
    g, _ = build() if arg is None else build(arg)
    row, column = np.nonzero(g.mask)
    n, count = g.n, g.n_generators
    assert len(row) == count
    ids = np.r_[0, count - 1, np.random.default_rng(2).integers(0, count, size=50)]
    expected = np.stack([row // n, row % n, column // n, column % n], axis=1)[ids]
    assert np.array_equal(g.words_at(ids), expected)
    assert np.array_equal(graph_words(g)[ids][:, [0, 1, 3, 4]], expected)
    for at in (0, count - 1, int(ids[-1])):
        assert g.words_at(at).tolist() == expected[ids.tolist().index(at)].tolist()
    for outside in (-1, count):
        with pytest.raises(IndexError):
            g.words_at(outside)


@pytest.mark.parametrize(
    "at",
    [1.5, True, np.array([0.2, 3.7]), np.array([True, False])],
    ids=["float", "bool", "float-array", "bool-array"],
)
def test_words_at_rejects_ids_that_are_not_integers(at):
    g, _ = build_section4(Section4Params(2, 4, 1, 2))
    with pytest.raises(TypeError, match="generator ids must be integers"):
        g.words_at(at)


def test_oracle_equivalence_random_subsets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        size = int(rng.integers(1, 41))
        pairs = [
            pair(n, *(int(v) for v in rng.integers(0, n, size=4)))
            for _ in range(size)
        ]
        g = graph_from_labels(n, word_table(pairs))
        labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
        assert labels == gram, (n, size)


def test_compress_identity_graph():
    g = graph_from_labels(2, word_table([]))
    f = np.array([1, 0, 0, 1]) / np.sqrt(2)
    code = code_from_isometry(f[:, None])
    out = compress(g, code)
    assert len(out) == 1
    assert max_abs(out[0] - np.eye(1)) < 1e-14


def test_compress_section2_generator_vanishes():
    g, code = build_section2()
    # generator order is [I, I(x)sz, I(x)sy, sx(x)I, sy(x)I]
    compressed = compress(g, code)
    assert max_abs(compressed[2]) < 1e-12
    assert max_abs(compressed[0] - np.eye(2)) < 1e-12


def test_compress_single_flip_graph():
    # I (x) sx is the word I (x) Z at n = 2
    g = graph_from_labels(2, np.array([[0, 0, 0, 0, 1, 0]]))
    e = np.eye(2)
    code = code_from_isometry(np.column_stack([np.kron(e[0], e[0]), np.kron(e[1], e[0])]))
    compressed = compress(g, code)
    assert max_abs(compressed[1]) < 1e-14


def test_compress_dimension_mismatch():
    # a code on C^3 (x) C^3 against a graph on C^2 (x) C^2
    g = graph_from_labels(2, word_table([]))
    code = CodeSpace(np.eye(9)[:, :1])
    with pytest.raises(ValueError, match="does not match"):
        compress(g, code)
    # a space of 3 dimensions is no C^n (x) C^n: rejected when constructed
    with pytest.raises(ValueError, match="do not fit"):
        CodeSpace(np.eye(3)[:, :1])


def test_is_anticlique_negative_control():
    # X is diagonal with eigenvalues 1 and w on the first two basis vectors,
    # so this code sees a non-scalar compression
    n = 3
    g = graph_from_labels(n, word_table([pair(n, 1, 0, 0, 0)]))
    e = np.eye(n)
    code = code_from_isometry(np.column_stack([np.kron(e[0], e[0]), np.kron(e[1], e[0])]))
    report = is_anticlique(g, code)
    assert not report.verdict
    assert report.compressed_dim > 1
    compressed = compress(g, code)
    w = np.exp(2j * np.pi / n)
    assert max_abs(compressed[1] - np.diag([1, w])) < 1e-12


# section2's code as its standard-basis vectors e1 (x) (1,1) and
# e2 (x) (1,-1), normalized; converted to Fourier coordinates, they carry a
# roundoff that section2's closed-form coordinates do not
SECTION2_VECTORS = np.array([[1, 0], [1, 0], [0, 1], [0, -1]]) / np.sqrt(2)


@pytest.mark.parametrize(
    "n, make_code, dim, residual, worst",
    [
        (2, lambda: code_from_isometry(SECTION2_VECTORS), 4, "0x1.ffffffffffffcp-1", (1, 0, 0)),
        (3, lambda: build_section3(3)[1], 9, "0x1.0000000000001p+0", (10, 1, 1)),
        (4, lambda: constructions.build_code_K1(Section4Params(2, 2, 0, 2)), 4, "0x1.ffffffffffffep-1", (2, 0, 0)),
        (2, lambda: build_section2()[1], 4, "0x1.ffffffffffffep-1", (1, 0, 0)),
    ],
)
def test_verdict_ranks_a_scalar_gram_of_all_words(n, make_code, dim, residual, worst):
    # every word on C^n (x) C^n against a small code: the compressions span
    # all code_dim^2 matrices, and their Gram matrix is a multiple of I, so
    # its Gershgorin discs collapse to one point and would certify it full
    # rank unformed. The verdict eigensolves it; the report is pinned whole
    g = graph_from_mask(n, np.ones((n * n, n * n), dtype=bool))
    code = make_code()
    stack = compress(g, code).reshape(g.n_generators, -1)
    gram = stack.conj().T @ stack
    lo, hi = _discs(gram)
    assert max_abs(gram - np.eye(len(gram)) * gram[0, 0]) < 1e-12 and lo > 1e-9 * hi
    report = is_anticlique(g, code)
    assert (report.verdict, report.compressed_dim, report.worst) == (False, dim, worst)
    assert report.residual.hex() == residual


def test_is_anticlique_section2():
    g, code = build_section2()
    report = is_anticlique(g, code)
    assert report.verdict
    assert report.compressed_dim == 1
    assert report.residual < 1e-12
    # c_V = trace / code_dim is 1 for the identity and 0 for the four error
    # words
    c = np.trace(compress(g, code), axis1=1, axis2=2) / code.code_dim
    assert c.shape == (g.n_generators,)
    assert c[0] == pytest.approx(1.0)
    assert max_abs(c[1:]) < 1e-12


def test_anticlique_invariant_under_code_basis_change():
    g, code = build_section3(3)
    rng = np.random.default_rng(5)
    m = random_complex(rng, code.code_dim, code.code_dim)
    q, _ = np.linalg.qr(m)
    rotated = CodeSpace(code.fourier @ q, code.basis_names)
    assert is_anticlique(g, rotated).verdict


def test_kl_table_identity_generator():
    g, code = build_section3(3)
    table = compress(g, code)
    assert table.shape == (g.n_generators, 3, 3)
    assert max_abs(table[0] - np.eye(3)) < 1e-12


def test_kl_table_section3_word_vanishes():
    n = 3
    g, code = build_section3(n)
    # first non-identity generator is (X Z^0)^1 on the left factor
    idx = graph_words(g)[:, [0, 1, 3, 4]].tolist().index([1, 0, 0, 0])
    table = compress(g, code)
    assert max_abs(table[idx]) < 1e-12


def test_kl_table_section2_last_generator_vanishes():
    g, code = build_section2()
    table = compress(g, code)
    assert max_abs(table[4]) < 1e-12  # sy (x) I over {f+, f-}


def test_true_verdict_implies_kl_structure():
    # off-diagonals vanish and each generator's diagonal is constant
    g, code = build_section3(4)
    report = is_anticlique(g, code)
    assert report.verdict
    table = compress(g, code)
    off_mask = ~np.eye(code.code_dim, dtype=bool)
    for v in range(table.shape[0]):
        assert max_abs(table[v][off_mask]) < 1e-12
        diag = np.diag(table[v])
        assert max_abs(diag - diag[0]) < 1e-12


def test_compress_is_linear():
    # compress is the linear map V -> S^dag V S, checked generator by
    # generator against the scalar pair_dense realization
    rng = np.random.default_rng(11)
    g, _ = build_section3(4)
    s = np.column_stack(orthonormalize([random_complex(rng, 16), random_complex(rng, 16)]))
    code = code_from_isometry(s)
    compressed = compress(g, code)
    assert compressed.shape == (g.n_generators, 2, 2)
    for c, p in zip(compressed, scalar_pairs(g)):
        assert max_abs(c - dagger(s) @ pair_dense(p) @ s) < 1e-12


def test_adjoint_closure_leaves_rank_unchanged():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        pairs = [
            pair(n, *(int(v) for v in rng.integers(0, n, size=4)))
            for _ in range(int(rng.integers(1, 12)))
        ]
        g = graph_from_labels(n, word_table(pairs))
        dense = [pair_dense(p) for p in scalar_pairs(g)]
        base = gram_rank(dense)
        assert gram_rank(dense + [dagger(m) for m in dense]) == base


def _point_id(build, arg):
    name = build.__name__.removeprefix("build_")
    return name + (f"-{arg.p}-{arg.y}-{arg.h}-{arg.d}" if build is build_section4 else f"-{arg}")


FOURIER_CODES = (
    [(build_section3, n) for n in range(3, 7)]
    + [(build_remark2, n) for n in range(2, 6)]
    + [(build_section4, q) for q in enumerate_section4_params(8)]
)


@pytest.mark.parametrize(
    "build, arg", FOURIER_CODES, ids=[_point_id(build, arg) for build, arg in FOURIER_CODES]
)
def test_fourier_compression_matches_dense_reference(build, arg):
    # the constructions' codes carry exact sparse Fourier coordinates, so
    # compress works in the Fourier product basis on the code's support; it
    # must agree with S^dag V S from the scalar standard-basis realization.
    # section4's code q_1..q_d sums p products f_c (x) f_c each, scaled by
    # 1/sqrt(p); section3's and remark2's are the n products themselves
    g, code = build(arg)
    p, d = (arg.p, arg.d) if build is build_section4 else (1, arg)
    support = np.flatnonzero(np.any(code.fourier != 0, axis=1))
    assert len(support) == p * d
    assert np.all(code.fourier[code.fourier != 0] == 1 / np.sqrt(p))
    s = isometry(code)
    for c, p in zip(compress(g, code), scalar_pairs(g)):
        assert max_abs(c - dagger(s) @ pair_dense(p) @ s) < 1e-12


def test_fourier_codes_have_exact_residual():
    # the code's Fourier coordinates are exact 0s and 1s, and every word
    # compresses to zero or to the identity, so no roundoff enters
    for build in (build_section3, build_remark2):
        for n in range(3, 9):
            g, code = build(n)
            report = is_anticlique(g, code)
            assert report.verdict, (build.__name__, n)
            assert report.residual == 0.0, (build.__name__, n)


def test_word_outside_the_graph_flips_the_verdict():
    # Z^p (x) I is not in the (2,8,1,4) graph. It scales q_k by w^{p(h+1)k},
    # so it compresses to diag(1, i, -1, -i), and its adjoint to the
    # conjugate: the compressions span 3 dimensions with residual 1
    params = Section4Params(2, 8, 1, 4)
    g, code = build_section4(params)
    outside = np.array([[0, 2, 0, 0, 0, 0]])
    assert not g.mask[2, 0]
    assert max_abs(compress(graph_from_labels(16, outside), code)[1] - np.diag(1j ** np.arange(4))) < 1e-12
    grown = graph_from_labels(16, np.concatenate([graph_words(g), outside]))
    report = is_anticlique(grown, code)
    assert not report.verdict
    assert report.compressed_dim == 3
    assert report.residual == pytest.approx(1.0)
    # the word and its adjoint Z^-p (x) I tie at the peak; the verdict walks
    # tensor classes out of mask order and names the first in mask order,
    # generator 497, at its entry (q_1, q_1)
    assert report.worst == (497, 0, 0)
    assert tuple(grown.words_at(497)) == (0, 2, 0, 0)
    assert 497 == np.count_nonzero(grown.mask[:2])
    # without the word the residual is roundoff
    assert is_anticlique(g, code).residual < 1e-15


def _shift_control(params):
    """The section4 graph grown by the code's own shift X^{h+1} (x) X^{h+1},
    set in a copy of its mask, and its code."""
    g, code = build_section4(params)
    n, m = params.n, params.h + 1
    mask = g.mask.copy()
    mask[m * n, m * n] = True
    return graph_from_mask(n, mask), code


@pytest.mark.parametrize("params, dim", [((2, 8, 1, 4), 3), ((2, 4, 1, 2), 2), ((3, 8, 1, 4), 3)])
def test_code_shift_flips_the_verdict(params, dim):
    # Z^p (x) I only tests the diagonal of the compressions. The code's own
    # shift X^{h+1} (x) X^{h+1} maps q_k onto q_{k+1}, cyclically since
    # y = (h+1)d at these points, so it compresses to a permutation off the
    # diagonal. It is outside the graph: h+1 is not an allowed residue and
    # its clock exponents (0, 0) sum to 0 mod p. With its adjoint and the
    # identity it spans 3 dimensions, or 2 at d = 2, where the shift swaps
    # q_1 and q_2 and is its own adjoint
    params = Section4Params(*params)
    g, _ = build_section4(params)
    grown, code = _shift_control(params)
    assert grown.n_generators == g.n_generators + 2
    report = is_anticlique(grown, code)
    assert (report.verdict, report.compressed_dim) == (False, dim)
    assert abs(report.residual - 1.0) <= 1e-12
    assert tuple(grown.words_at(report.worst[0]).tolist()) == (2, 0, 2, 0)


@pytest.mark.parametrize("build, worst", [(build_section3, 44), (build_remark2, 457)])
def test_equal_shift_flips_the_verdict(build, worst):
    # X (x) X lies outside both families: section3's words shift one side
    # only, and remark2's shift the two sides unequally. It maps h_c onto
    # h_{c+1}, cyclically, so it compresses to a permutation off the
    # diagonal; with its adjoint and the identity it spans 3 dimensions,
    # and the code's exact coordinates give a residual of exactly 1
    g, code = build(8)
    assert not g.mask[8, 8]
    mask = g.mask.copy()
    mask[8, 8] = True
    grown = graph_from_mask(8, mask)
    assert grown.n_generators == g.n_generators + 2
    report = is_anticlique(grown, code)
    assert (report.verdict, report.compressed_dim, report.residual) == (False, 3, 1.0)
    # the peak is the word's entry (h_1, h_8), the image of h_8
    assert report.worst == (worst, 0, 7)
    assert tuple(grown.words_at(worst).tolist()) == (1, 0, 1, 0)
    assert worst == np.count_nonzero(grown.mask[:8]) + np.count_nonzero(grown.mask[8, :8])


def test_generator_offsets_are_formed_only_when_asked():
    # the verdict numbers its worst place from two popcounts of the mask,
    # in any mask layout, and only words_at forms the per-row counts
    grown, code = _shift_control(Section4Params(2, 8, 1, 4))
    report = is_anticlique(grown, code)
    assert "_offsets" not in vars(grown)
    fortran = OperatorGraph(grown.n, np.asfortranarray(grown.mask))
    assert is_anticlique(fortran, code).worst == report.worst
    assert "_offsets" not in vars(fortran)
    assert tuple(grown.words_at(report.worst[0]).tolist()) == (2, 0, 2, 0)
    assert "_offsets" in vars(grown)


def test_worst_breaks_a_tie_across_classes_by_mask_order():
    # on the whole space at n = 2 (S = I in the Fourier product basis) every
    # compression is a realized word with entries +-1, so the non-identity
    # words I (x) X and Z (x) I tie at residual exactly 1. The verdict
    # visits Z (x) I first, in the class of patterns (0, 0), and I (x) X
    # after it, in the class (0, 1); I (x) X comes first in mask order, at
    # entry (0, 2) before (1, 0), so it is named, as generator 1
    whole = CodeSpace(np.eye(4))
    g = graph_from_labels(2, np.array([[0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0]]))
    assert np.array_equal(np.argwhere(g.mask), [[0, 0], [0, 2], [1, 0]])
    visits = [(row.tolist(), column.tolist()) for row, column, *_ in graph_module._compressions(g, whole)]
    assert visits == [([0, 1], [0, 0]), ([0], [2])]
    report = is_anticlique(g, whole)
    assert report.residual == 1.0
    assert report.worst == (1, 0, 1)


def _gathered_and_reaching(g, code):
    """Which generators _compressions gathers, and which map some column of
    the code's Fourier support R into R, realized word by word; checks that
    each class comes in mask order."""
    gathered = np.zeros(g.n_generators, dtype=bool)
    number = np.cumsum(g.mask).reshape(g.mask.shape) - 1
    d = code.code_dim
    for row, column, slots, x in graph_module._compressions(g, code):
        assert np.all(np.diff(row * g.space_dim + column) > 0)
        assert x.shape == (len(row), len(slots))
        assert np.all(np.diff(slots) > 0)
        assert np.isin(np.arange(d) * (d + 1), slots).all()
        gathered[number[row, column]] = True
    support = np.flatnonzero(np.any(code.fourier != 0, axis=1))
    columns_l, columns_r = np.divmod(support, g.n)
    words = graph_words(g)
    rows = weyl_monomial(words[:, 0], words[:, 1], g.n)[0][:, columns_l] * g.n
    rows = rows + weyl_monomial(words[:, 3], words[:, 4], g.n)[0][:, columns_r]
    return gathered, np.isin(rows, support).any(axis=1)


@pytest.mark.parametrize("params, reached", [(Section4Params(2, 4, 1, 2), 129), (Section4Params(2, 8, 1, 4), 1025)])
def test_compressions_skip_classes_that_miss_the_code(params, reached):
    # the entangled code's Fourier support R holds p * d of the n^2 rows,
    # and a tensor class whose row patterns map no column of R into R is
    # skipped whole: of the 3969 and 64513 words only these are gathered.
    # Every word left out maps R outside R, so it compresses to exactly
    # zero, and every word gathered maps some column of R into R
    g, code = build_section4(params)
    gathered, reaching = _gathered_and_reaching(g, code)
    assert np.count_nonzero(gathered) == reached
    assert np.array_equal(gathered, reaching)


def test_compressions_test_every_column_of_the_support():
    # the code of f_0 (x) f_0 and f_1 (x) f_3 at n = 4 has R = {(0, 0),
    # (1, 3)}. The class of shifts (3, 1) misses R from (0, 0) and reaches
    # it from (1, 3); on the graph of all 256 words, the classes gathered
    # are exactly those that reach, and every compression equals S^dag V S
    # of the dense Fourier realization
    n = 4
    code = CodeSpace(np.eye(16)[:, [0, 7]])
    g = graph_from_mask(n, np.ones((16, 16), dtype=bool))
    gathered, reaching = _gathered_and_reaching(g, code)
    assert np.array_equal(gathered, reaching)
    assert reaching[np.flatnonzero(np.all(graph_words(g)[:, [0, 3]] == [3, 1], axis=1))].all()
    rows, vals = pair_monomial(graph_words(g), n)
    dense = np.zeros((g.n_generators, 16, 16), dtype=complex)
    dense[np.arange(g.n_generators)[:, None], rows, np.arange(16)] = vals
    s = code.fourier
    assert max_abs(compress(g, code) - s.conj().T @ dense @ s) < 1e-12


def test_compressions_gather_every_class_a_computed_code_reaches():
    # section2's Fourier coordinates are nonzero at all 4 rows, as those of
    # any code not built as a sum of Fourier products would nearly all be,
    # so every nonempty tensor class reaches the code and is gathered, every
    # generator once
    g, code = build_section2()
    assert np.all(np.any(code.fourier != 0, axis=1))
    classes = np.count_nonzero(graph_module._class_counts(g.mask, g._factors))
    gathered = list(graph_module._compressions(g, code))
    assert len(gathered) == classes > 1
    assert sum(len(row) for row, *_ in gathered) == g.n_generators


def test_codespace_checks_fourier_coordinates():
    # the coordinates need n^2 rows, one per product f_i (x) f_j
    _, code = build_section4(Section4Params(2, 4, 1, 2))
    with pytest.raises(ValueError, match="do not fit"):
        replace(code, fourier=code.fourier[:-1])
    with pytest.raises(ValueError, match="do not fit"):
        CodeSpace(np.eye(8)[:, :1])


def test_codespace_stores_arrays():
    # nested lists, real ones too, are stored as complex arrays; e_0 (x) e_0
    # has the coordinates sum_ij f_i (x) f_j / n
    code = code_from_isometry([[1.0], [0.0], [0.0], [0.0]])
    assert max_abs(code.fourier - 0.5) < 1e-15
    real = CodeSpace([[0.5], [0.5], [0.5], [0.5]])
    assert isinstance(real.fourier, np.ndarray) and real.fourier.dtype == complex
    assert (real.space_dim, real.code_dim) == (4, 1)
    g = graph_from_labels(2, np.array([[1, 0, 0, 0, 0, 0]]))
    listed = CodeSpace(code.fourier.tolist())
    assert isinstance(listed.fourier, np.ndarray)
    assert max_abs(compress(g, listed) - compress(g, code)) == 0.0


def test_codespace_keeps_a_private_read_only_copy():
    # a complex array passed in is copied, so scaling the caller's column
    # afterwards can neither break orthonormality behind the validation nor
    # change the verdict; the stored copy refuses writes
    g, code = build_section4(Section4Params(2, 4, 1, 2))
    f = np.array(code.fourier)
    kept = CodeSpace(f)
    f[:, 0] *= 3
    assert np.array_equal(kept.fourier, code.fourier)
    report = is_anticlique(g, kept)
    assert report.verdict and report.residual < 1e-12
    with pytest.raises(ValueError, match="read-only"):
        kept.fourier[0, 0] = 1.0


def test_codespace_validation():
    with pytest.raises(ValueError):
        CodeSpace(np.ones((4, 2)))
    with pytest.raises(ValueError):
        CodeSpace(np.eye(3))
    with pytest.raises(ValueError, match="not orthonormal"):
        CodeSpace(np.zeros((4, 1)))
    with pytest.raises(ValueError, match="must be a matrix"):
        CodeSpace(np.eye(4)[0])
    with pytest.raises(ValueError, match="code dimension must be >= 1"):
        CodeSpace(np.zeros((4, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_codespace_rejects_non_finite_entries(bad):
    # every comparison with nan is false, so a nan entry would pass the
    # orthonormality check and fail only inside the verdict's eigensolver;
    # inf is named the same way. Both are caught on the code's support and
    # off it
    _, code = build_section4(Section4Params(2, 4, 1, 2))
    for row in (np.flatnonzero(code.fourier[:, 0])[0], np.flatnonzero(code.fourier[:, 0] == 0)[0]):
        fourier = code.fourier.copy()
        fourier[row, 0] = bad
        with pytest.raises(ValueError, match="fourier coordinates must be finite"):
            CodeSpace(fourier)


def test_codespace_rejects_basis_names_of_wrong_length():
    with pytest.raises(ValueError, match="basis names"):
        CodeSpace(np.eye(4)[:, :2], basis_names=("a", "b", "c"))
    assert CodeSpace(np.eye(4)[:, :2], basis_names=("a", "b")).code_dim == 2


def test_full_oracle_agreement_n12():
    g, _ = build_section4(Section4Params(3, 4, 1, 2))
    labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
    assert labels == gram == g.n_generators == 20449


def test_full_oracle_agreement_n16():
    g, _ = build_section4(Section4Params(2, 8, 1, 4))
    labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
    assert labels == gram == g.n_generators == 64513


def _dense_gram_rank(g):
    """Gram rank of the realized generators scattered into dense matrices,
    with no use of the support blocks."""
    rows, vals = pair_monomial(graph_words(g), math.isqrt(g.space_dim))
    dim = g.space_dim
    dense = np.zeros((len(rows), dim, dim), dtype=complex)
    dense[np.arange(len(rows))[:, None], rows, np.arange(dim)] = vals
    return gram_rank(dense)


def _eigvalsh_rank(g):
    """Gram rank by a plain eigensolve of the dense Gram matrix of pair_dense
    realizations, bypassing opgraph.linalg's rank routine and its disc
    certificate."""
    flat = np.array([pair_dense(p).ravel() for p in scalar_pairs(g)])
    eigs = np.linalg.eigvalsh(flat @ flat.conj().T)
    return int(np.sum(eigs > 1e-9 * eigs[-1]))


SMALL_LABEL_GRAPHS = [
    (build_section3, 4),
    (build_section3, 5),
    (build_remark2, 4),
    (build_section4, Section4Params(2, 4, 1, 2)),
]
SMALL_LABEL_GRAPH_IDS = ["section3-4", "section3-5", "remark2-4", "section4-2-4-1-2"]


@pytest.mark.parametrize("build, arg", SMALL_LABEL_GRAPHS, ids=SMALL_LABEL_GRAPH_IDS)
def test_blocked_gram_rank_matches_eigensolve(build, arg):
    g, _ = build(arg)
    assert graph_dim(g, "gram") == _eigvalsh_rank(g)


BLOCKED_VS_DENSE = [(build_section3, 4), (build_section3, 5), (build_remark2, 4)] + [
    (build_section4, q) for q in enumerate_section4_params(8)
]


@pytest.mark.parametrize(
    "build, arg", BLOCKED_VS_DENSE, ids=[_point_id(build, arg) for build, arg in BLOCKED_VS_DENSE]
)
def test_blocked_gram_rank_matches_dense(build, arg):
    g, _ = build(arg)
    assert graph_dim(g, "gram") == _dense_gram_rank(g)


def _crafted_rows(monkeypatch, n, side, second):
    """Graph on C^n (x) C^n of the identity and one word whose factor X on
    one side realizes, like every X Z^k, to the rows ``second`` in place of
    the Weyl realization's; every other factor keeps the Weyl realization,
    so the identity's factors realize to rows range(n), and every row
    pattern holds n factors."""
    word = pair(n, 1, 0, 0, 0) if side == "left" else pair(n, 0, 0, 1, 0)

    def realize(kx, kz, n):
        rows, vals = weyl_monomial(kx, kz, n)
        rows[kx == 1] = second
        return rows, vals

    monkeypatch.setattr(graph_module, "weyl_monomial", realize)
    return OperatorGraph(n, mask_of(n, word_table([pair(n, 0, 0, 0, 0), word])))


@pytest.mark.parametrize(
    "crafted",
    [
        # (side, crafted factor rows of the second word), a permutation that
        # shares a position with the identity's rows [0, 1, 2]
        ("left", [0, 2, 1]),  # same row in column 0, different elsewhere
        ("left", [2, 1, 0]),  # different in column 0, same row in column 1
        ("right", [0, 2, 1]),  # same row in column 0, different elsewhere
        ("right", [1, 0, 2]),  # different in column 0, same row in column 2
    ],
)
def test_overlapping_supports_raise(monkeypatch, crafted):
    g = _crafted_rows(monkeypatch, 3, *crafted)
    with pytest.raises(ValueError, match="generator supports overlap without coinciding"):
        graph_dim(g, "gram")


@pytest.mark.parametrize("side", ["left", "right"])
def test_rows_that_are_no_permutation_raise(monkeypatch, side):
    # a realized factor holding one row twice is no monomial unitary; the
    # Gram oracle and the verdict both reject it
    g = _crafted_rows(monkeypatch, 2, side, [0, 0])
    with pytest.raises(ValueError, match="not a permutation of range"):
        graph_dim(g, "gram")
    code = CodeSpace(np.eye(4)[:, :1])
    with pytest.raises(ValueError, match="not a permutation of range"):
        compress(g, code)


@pytest.mark.parametrize("build, arg", SMALL_LABEL_GRAPHS, ids=SMALL_LABEL_GRAPH_IDS)
def test_factored_gram_blocks_match_full_rows(build, arg):
    # each tensor class's Gram block, the principal submatrix of G_P (x)
    # G_Q at the class's words, equals the Gram matrix of the words' full
    # n^2-long realized rows; the classes cover every word once
    g, _ = build(arg)
    factors = g._factors
    grams, _ = graph_module._pattern_grams(factors)
    number = np.cumsum(g.mask).reshape(g.mask.shape) - 1
    counts = graph_module._class_counts(g.mask, factors)
    covered = []
    for p, q in np.argwhere(counts):
        a, b = graph_module._entries(g.mask, factors, p, q)
        assert len(a) == len(b) == counts[p, q]
        members = number[factors.ids[p, a], factors.ids[q, b]]
        gram = np.kron(grams[p], grams[q])
        selected = a * len(grams[q]) + b
        rows, vals = pair_monomial(graph_words(g)[members], g.n)
        assert np.all(rows == rows[0])
        full = vals @ vals.conj().T
        assert max_abs(gram[np.ix_(selected, selected)] - full) <= 1e-12 * np.linalg.eigvalsh(full)[-1]
        assert np.array_equal(graph_module._pair_gram(grams[p], grams[q], a, b), gram[np.ix_(selected, selected)])
        covered.extend(members.tolist())
    assert sorted(covered) == list(range(g.n_generators))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw_word_tables())
def test_gram_oracle_matches_dense_on_random_graphs(drawn):
    # the tensor-class blocks of the mask against the dense Gram of every
    # realized generator, on closures of random word tables
    n, table = drawn
    g = graph_from_labels(n, table)
    assert graph_dim(g, "gram") == _dense_gram_rank(g) == graph_dim(g, "labels")


def _crafted_graph(monkeypatch, realized, words):
    """Graph on C^2 (x) C^2 of the words (kx, kz, kx', kz'), given in mask
    order, whose factors (kx, kz) listed in realized realize as
    realized[factor] = (rows, vals) in place of the Weyl realization, which
    the others keep, and the plain eigensolve rank of its generators built
    from those realizations."""
    n = 2

    def realize(kx, kz, n):
        rows, vals = weyl_monomial(kx, kz, n)
        for at, f in enumerate(zip(kx.tolist(), kz.tolist())):
            if f in realized:
                rows[at], vals[at] = realized[f]
        return rows, vals

    words = np.array(words)
    rows_l, vals_l = realize(words[:, 0], words[:, 1], n)
    rows_r, vals_r = realize(words[:, 2], words[:, 3], n)
    rows = (rows_l[:, :, None] * n + rows_r[:, None, :]).reshape(len(words), n * n)
    vals = (vals_l[:, :, None] * vals_r[:, None, :]).reshape(len(words), n * n)
    dense = np.zeros((len(words), n * n, n * n), dtype=complex)
    dense[np.arange(len(words))[:, None], rows, np.arange(n * n)] = vals
    flat = dense.reshape(len(words), -1)
    eigs = np.linalg.eigvalsh(flat @ flat.conj().T)
    monkeypatch.setattr(graph_module, "weyl_monomial", realize)
    mask = np.zeros((n * n, n * n), dtype=bool)
    mask[words[:, 0] * n + words[:, 1], words[:, 2] * n + words[:, 3]] = True
    return OperatorGraph(n, mask), int(np.sum(eigs > 1e-9 * eigs[-1]))


IDENTITY = (0, 0)


def _eigensolved_orders(monkeypatch):
    """A list that records the order of every matrix np.linalg.eigvalsh
    solves from now on."""
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(gram):
        solved.append(gram.shape[0])
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return solved


@pytest.mark.parametrize("eps, rank", [(1e-3, 2), (1e-6, 1)])
def test_near_dependent_lines_are_eigensolved(monkeypatch, eps, rank):
    # two factors of one row pattern, [1, 1] and [1, 1 + eps]: their
    # pattern Gram's discs reach zero, so the class is eigensolved, above the
    # cutoff at eps = 1e-3 and below it at eps = 1e-6. Z is moved to the
    # rows of XZ, so that both row patterns hold two factors
    realized = {IDENTITY: ([0, 1], [1, 1]), (1, 0): ([0, 1], [1, 1 + eps]), (0, 1): ([1, 0], [1, 1])}
    g, reference = _crafted_graph(monkeypatch, realized, [IDENTITY * 2, (1, 0) + IDENTITY])
    solved = _eigensolved_orders(monkeypatch)
    assert graph_dim(g, "gram") == reference == rank
    assert solved[0] == 2


@pytest.mark.parametrize(
    "delta, rank", [(1e-14, 2), (1e-6, 2), (0.5, 3)], ids=["roundoff", "near", "distinct"]
)
def test_one_line_realized_twice(monkeypatch, delta, rank):
    # the left factors Z and XZ of the last two words are crafted to be
    # proportional up to the scalar 1j, off by delta: their pattern Gram is
    # singular up to delta, its block is eigensolved, and the rank is the
    # plain eigensolve's (at delta = 0.5 they are independent); the
    # identity's left factor differs from them in its rows only. X is moved
    # to the identity's rows, orthogonal to it, so that both row patterns
    # hold two factors
    realized = {
        IDENTITY: ([0, 1], [1, 1]),
        (1, 0): ([0, 1], [1, -1]),
        (0, 1): ([1, 0], [1, 1]),
        (1, 1): ([1, 0], [1j, 1j * (1 - delta)]),
    }
    words = [IDENTITY * 2, (0, 1) + IDENTITY, (1, 1) + IDENTITY]
    g, reference = _crafted_graph(monkeypatch, realized, words)
    solved = _eigensolved_orders(monkeypatch)
    assert graph_dim(g, "gram") == reference == rank
    assert solved[0] == 2


def test_unequal_row_patterns_raise(monkeypatch):
    # X crafted to realize at the identity's rows leaves the row patterns
    # [0, 1] with I, Z and X and [1, 0] with XZ alone; the factor table
    # holds equal patterns only, so both the Gram oracle and the verdict
    # reject it
    realized = {(1, 0): ([0, 1], [1, -1])}
    g, _ = _crafted_graph(monkeypatch, realized, [IDENTITY * 2, (1, 0) + IDENTITY])
    with pytest.raises(ValueError, match=r"unequal numbers of factors: \[3, 1\]"):
        graph_dim(g, "gram")
    with pytest.raises(ValueError, match="unequal numbers of factors"):
        is_anticlique(g, CodeSpace(np.eye(4)[:, :1]))


def test_label_count_matches_key_set():
    for build, arg in SMALL_LABEL_GRAPHS:
        g, _ = build(arg)
        assert graph_dim(g, "labels") == len(label_set(graph_words(g))) == np.count_nonzero(g.mask)


def test_dense_generators_match_labels():
    # with the whole space as code, S = I in the Fourier product basis, so
    # compress returns each generator's Fourier realization, exactly
    # pair_dense of its Fourier-basis labels
    g, _ = build_section3(4)
    whole = CodeSpace(np.eye(16))
    realized = compress(g, whole)
    assert realized.shape == (g.n_generators, 16, 16)
    for p, dense in zip(scalar_pairs(g), realized):
        assert max_abs(dense - pair_dense(in_fourier(p))) == 0.0


def test_anticlique_memory_is_bounded():
    # the verdict is streamed class by class and holds neither the
    # compression stack ((64513, 4, 4) at n = 16, 16.5 MB) nor any
    # per-generator array, nor any copy of the mask: beyond the graph's
    # factor table (test_patterns_memory_is_bounded), only the sub-block,
    # lift and slot compressions of one class that reaches the code and the
    # code_dim^2 x code_dim^2 Gram matrix. That is about 2.3 MB at
    # (2,24,3,6), where one complex per generator would take 85 MB, and
    # 14 MB at (2,24,0,24), where the compressions on every slot, with their
    # closed-form Gram share, took 61 MB
    cases = (
        (Section4Params(2, 8, 1, 4), 1),
        (Section4Params(2, 16, 3, 4), 3),
        (Section4Params(2, 24, 3, 6), 3),
        (Section4Params(2, 24, 0, 24), 24),
    )
    for params, bound_mb in cases:
        g, code = build_section4(params)
        g._factors  # realized before tracing, bounded on its own
        report, peak = _traced_peak(lambda: is_anticlique(g, code))
        assert report.verdict
        assert peak < bound_mb * 2**20, params


def test_classes_reach_few_slots():
    # with one nonzero Fourier coordinate per support row, each valid column
    # of a class adds to one slot of the compression: at (2,24,0,24) every
    # class reaches at most 2 code_dim = 48 of the 576 slots, diagonal
    # included, and the verdict's products and Gram shares stay that small
    g, code = build_section4(Section4Params(2, 24, 0, 24))
    d = code.code_dim
    reached = [len(slots) for _, _, slots, _ in graph_module._compressions(g, code)]
    assert reached and max(reached) <= 2 * d < d * d


def _traced_peak(call):
    """(result, peak bytes traced by tracemalloc) of call()."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()



def test_gram_oracle_memory_is_bounded():
    # the Gram oracle holds the realized factors, the table of class counts
    # and one left pattern's rows of the mask at a time, and no copy of the
    # mask: about 2.0 MB at n = 32 and 6.8 MB at n = 48, where one int64
    # pair key per word took 18 MB and 42 MB
    for params, words in ((Section4Params(2, 16, 3, 4), 1044481), (Section4Params(2, 24, 3, 6), 5294593)):
        g, _ = build_section4(params)
        dim, peak = _traced_peak(lambda: graph_dim(g, "gram"))
        assert dim == g.n_generators == words
        assert peak < 8 * 2**20, params


def test_build_memory_is_a_few_masks():
    # a graph takes n^4 bytes whatever its size: the (2,24,3,6) build, with
    # its 5.3 MB mask, peaks at about 6 MB, where packed pair keys took
    # 305 MB
    (g, _), peak = _traced_peak(lambda: build_section4(Section4Params(2, 24, 3, 6)))
    assert g.n_generators == 5294593
    assert peak < 32 * 2**20
    # the trade-off: section3 at n = 64 keeps only 5461 words in its 16.7 MB
    # mask, and its build peaks at a few masks
    n = 64
    (g, _), peak = _traced_peak(lambda: build_section3(n))
    assert g.n_generators == 5461
    assert g.mask.nbytes == n**4
    assert peak < 4 * n**4


def test_build_memory_is_bounded():
    # each builder writes its closed family into the one mask it returns,
    # with no closing copy: the (2,32,3,8) build, with its 16 MiB mask,
    # peaks at about 17 MiB, where closing a copy took 32 MiB; section3 and
    # remark2 at n = 64 add their 4 MiB code and the conjugate copy that
    # CodeSpace's orthonormality check takes, and peak at about 24 MiB,
    # where closing a copy took 40 and 32 MiB
    (g, _), peak = _traced_peak(lambda: build_section4(Section4Params(2, 32, 3, 8)))
    assert g.mask.nbytes == 16 * 2**20
    assert peak < 24 * 2**20
    for build in (build_section3, build_remark2):
        (g, _), peak = _traced_peak(lambda: build(64))
        assert g.mask.nbytes == 16 * 2**20
        assert peak < 28 * 2**20, build.__name__
    # the caller's mask is only read, so a read-only one is taken and left
    # as it was; at n = 1 every exponent is its own negation
    rng = np.random.default_rng(8)
    for n in (1, 5):
        mask = rng.random((n * n, n * n)) < 0.1
        given = mask.copy()
        mask.setflags(write=False)
        closed = graph_from_mask(n, mask).mask
        assert np.array_equal(mask, given)
        assert closed[0, 0] and np.all(closed[mask])


DISTINCT_FACTOR_GRAPHS = SMALL_LABEL_GRAPHS + [(build_section4, Section4Params(2, 8, 1, 4))]


@pytest.mark.parametrize(
    "build, arg", DISTINCT_FACTOR_GRAPHS, ids=SMALL_LABEL_GRAPH_IDS + ["section4-2-8-1-4"]
)
def test_distinct_factors_gather_exactly(build, arg):
    # the factor table's ids are a permutation of the n^2 mask indices,
    # increasing within each row pattern; looked up by the words' mask
    # indices on either side they give the word table's columns back, and
    # their realizations gathered the same way are bit for bit the
    # realizations of the columns themselves
    g, _ = build(arg)
    entries = np.nonzero(g.mask)
    factors = g._factors
    assert np.all(np.diff(factors.ids, axis=1) > 0)
    ids = factors.ids.ravel()
    assert np.array_equal(np.sort(ids), np.arange(g.n**2))
    rows = np.repeat(factors.rows, factors.ids.shape[1], axis=0)
    vals = factors.vals.reshape(-1, g.n)
    order = np.argsort(ids)
    for side in (0, 1):
        at = order[entries[side]]
        assert np.array_equal(ids[at], entries[side])
        rows_w, vals_w = weyl_monomial(*graph_words(g)[:, [3 * side, 3 * side + 1]].T, g.n)
        assert np.array_equal(rows[at], rows_w)
        assert np.array_equal(vals[at].view(float), vals_w.view(float))


def test_each_distinct_factor_is_realized_once(monkeypatch):
    # one graph run through the Gram oracle and then the verdict realizes
    # each factor once in total: both sides of the (2,8,1,4) graph use all
    # 256 words of C^16, realized once in one table, where realizing every
    # word's two factors would take 129026 rows
    g, code = build_section4(Section4Params(2, 8, 1, 4))
    assert np.array_equal(g.mask.any(axis=1), g.mask.any(axis=0))
    used = np.count_nonzero(g.mask.any(axis=1))
    assert used == 16**2
    realized = []

    def counting(kx, kz, n):
        realized.append(len(kx))
        return weyl_monomial(kx, kz, n)

    monkeypatch.setattr(graph_module, "weyl_monomial", counting)
    assert graph_dim(g, "gram") == 64513
    assert is_anticlique(g, code).verdict
    assert sum(realized) == used
    assert g._factors.ids.shape == (16, 16)


def test_patterns_memory_is_bounded():
    # the factor table realizes each of the n^2 words of C^n once and
    # checks each row pattern for a permutation, with no bin per realized
    # entry: at (2,24,3,6) the 2304 factors take 2.6 MB realized, and
    # _factor_table peaks at about 5.1 MB, where realizing each side apart
    # and binning every realized row took 9.5 MB
    g, _ = build_section4(Section4Params(2, 24, 3, 6))
    factors, peak = _traced_peak(lambda: g._factors)
    assert factors.ids.shape == (48, 48)
    assert peak < 7 * 2**20


def _grown_control():
    """The (2,8,1,4) graph grown by the word Z^p (x) I, which the code does
    not tolerate (test_word_outside_the_graph_flips_the_verdict), and its
    code."""
    g, code = build_section4(Section4Params(2, 8, 1, 4))
    return graph_from_labels(16, np.concatenate([graph_words(g), [[0, 2, 0, 0, 0, 0]]])), code


CLASS_GRAM_CASES = {
    "section2": build_section2,
    "section3-5": lambda: build_section3(5),
    "section4-2-8-1-4": lambda: build_section4(Section4Params(2, 8, 1, 4)),
    "section4-2-12-0-12": lambda: build_section4(Section4Params(2, 12, 0, 12)),
    "control-2-8-1-4": _grown_control,
    "control-shift-2-8-1-4": lambda: _shift_control(Section4Params(2, 8, 1, 4)),
}


@pytest.mark.parametrize("case", CLASS_GRAM_CASES)
def test_class_grams_sum_to_the_compressions_gram(case):
    # each class's x^dag x at its slots sums to the Gram matrix
    # sum_w vec(C_w) vec(C_w)^dag of the compressions compress scatters into
    # its stack, within 1e-12 of the top eigenvalue. Words left out compress
    # to exactly zero, and the words yielded are closed under adjoints, so
    # the graph of those words has the same Gram matrix; compress takes the
    # whole graph too when it has fewer than 10^5 words
    g, code = CLASS_GRAM_CASES[case]()
    d = code.code_dim
    gram = np.zeros((d * d, d * d), dtype=complex)
    yielded = np.zeros_like(g.mask)
    for row, column, slots, x in graph_module._compressions(g, code):
        gram[np.ix_(slots, slots)] += x.conj().T @ x
        yielded[row, column] = True
    reached = graph_from_mask(g.n, yielded)
    assert np.array_equal(reached.mask, yielded)
    for whole in (reached, g) if g.n_generators < 10**5 else (reached,):
        flat = compress(whole, code).reshape(whole.n_generators, d * d)
        want = flat.conj().T @ flat
        assert max_abs(gram - want) <= 1e-12 * np.linalg.eigvalsh(want)[-1]
    report = is_anticlique(g, code)
    assert (report.verdict, report.compressed_dim) == ((False, 3) if case.startswith("control") else (True, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw_word_tables())
def test_stacked_pattern_grams_match_each_pattern(drawn):
    # the stacked Grams and their discs, taken for all row patterns at once,
    # equal each pattern's own Gram and _discs within roundoff
    n, table = drawn
    factors = graph_from_labels(n, table)._factors
    grams, bounds = graph_module._pattern_grams(factors)
    assert grams.shape == (n, n, n)
    for p, u in enumerate(factors.vals):
        gram = u @ u.conj().T
        scale = 1e-12 * max(1.0, np.abs(gram).max())
        assert max_abs(grams[p] - gram) <= scale
        assert max_abs(bounds[p] - np.array(_discs(gram))) <= scale * len(u)
