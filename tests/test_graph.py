import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgraph.graph import (
    CodeSpace,
    OperatorGraph,
    compress,
    graph_dim,
    graph_from_factors,
    graph_from_labels,
    is_anticlique,
)
from opgraph import constructions
from opgraph import graph as graph_module
from opgraph.linalg import DEFAULT_TOL, dagger, kron, max_abs
from opgraph.weyl import (
    WeylLabelPair,
    fourier_basis,
    label,
    pair_adjoint,
    pair_dense,
    pair_monomial,
    weyl_monomial,
    word_table,
)
from opgraph.constructions import (
    Section4Params,
    build_remark2,
    build_section2,
    build_section3,
    build_section4,
    enumerate_section4_params,
)

from conftest import gram_rank, in_fourier, random_complex


def pair(n, m, k, j, s):
    return WeylLabelPair(label(n, m, k), label(n, j, s))


def scalar_pairs(g):
    """The graph's words as scalar reference pairs, in generator order."""
    n = math.isqrt(g.space_dim)
    return [WeylLabelPair(label(n, *row[:3]), label(n, *row[3:])) for row in g.words.tolist()]


def test_graph_from_labels_empty_is_identity_span():
    g = graph_from_labels(3, word_table([]))
    assert g.n_generators == 1
    assert graph_dim(g, "labels") == 1
    assert graph_dim(g, "gram") == 1


def test_graph_from_labels_adjoint_closure():
    g = graph_from_labels(3, word_table([pair(3, 1, 0, 0, 0)]))
    assert g.label_keys() == {(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)}
    dims = graph_dim(g, "both")
    assert dims.labels == dims.gram == 3


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
    # packed phase-free keys below n^4 = 2^64, shifted past the positions,
    # would wrap around in int64
    with pytest.raises(ValueError, match="overflow int64"):
        graph_from_labels(2**16, word_table([]))


def scalar_closure(n, pairs):
    """Reference closure of scalar pairs as a word table: the identity first,
    each pair followed by its adjoint, and the first occurrence of each
    exponent quadruple kept with its phase."""
    seen, kept = set(), []
    for p in [pair(n, 0, 0, 0, 0), *pairs]:
        for q in (p, pair_adjoint(p)):
            key = (q.left.kx, q.left.kz, q.right.kx, q.right.kz)
            if key not in seen:
                seen.add(key)
                kept.append(q)
    return word_table(kept)


def test_graph_from_labels_matches_scalar_closure():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        factors = rng.integers(0, n, size=(int(rng.integers(0, 30)), 2, 3)).tolist()
        pairs = [WeylLabelPair(label(n, *a), label(n, *b)) for a, b in factors]
        g = graph_from_labels(n, word_table(pairs))
        assert np.array_equal(g.words, scalar_closure(n, pairs)), n
    # unreduced and negative entries are taken mod n
    g = graph_from_labels(3, np.array([[4, -1, 7, 0, 3, -3]]))
    assert g.words.tolist() == [[0, 0, 0, 0, 0, 0], [1, 2, 1, 0, 0, 0], [2, 1, 1, 0, 0, 0]]


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
    assert np.array_equal(g.words, scalar_closure(n, pairs))
    assert graph_dim(g, "both").agree


def _factored(n, left, right, index):
    """graph_from_factors on integer arrays built from nested lists."""
    return graph_from_factors(n, (np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)), np.array(index))


def test_graph_from_factors_rejects_n_below_one():
    with pytest.raises(ValueError, match="n >= 1"):
        _factored(0, [[0, 0, 0]], [[0, 0, 0]], [[0, 0]])


def test_graph_from_factors_rejects_malformed_factors():
    good = np.zeros((1, 3), dtype=int)
    for bad in (np.zeros((1, 3)), np.zeros((1, 4), dtype=int), np.zeros(3, dtype=int)):
        with pytest.raises(ValueError, match=r"integer left factors of shape \(F, 3\)"):
            graph_from_factors(3, (bad, good), np.zeros((1, 2), dtype=int))
        with pytest.raises(ValueError, match=r"integer right factors of shape \(F, 3\)"):
            graph_from_factors(3, (good, bad), np.zeros((1, 2), dtype=int))
    with pytest.raises(ValueError, match=r"factors \(left, right\)"):
        graph_from_factors(3, (good,), np.zeros((1, 2), dtype=int))


def test_graph_from_factors_rejects_malformed_index():
    factors = (np.zeros((1, 3), dtype=int), np.zeros((1, 3), dtype=int))
    # a pair of index columns, not a (G, 2) array
    for bad in (np.zeros((1, 2)), np.zeros((1, 3), dtype=int), np.zeros(2, dtype=int), [np.arange(3), np.arange(3)]):
        with pytest.raises(ValueError, match=r"integer index of shape \(G, 2\)"):
            graph_from_factors(3, factors, bad)


def test_graph_from_factors_rejects_index_outside_its_side():
    with pytest.raises(ValueError, match=r"left indices must lie in \[0, 2\)"):
        _factored(3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 0]], [[0, 0], [2, 0]])
    with pytest.raises(ValueError, match=r"right indices must lie in \[0, 1\)"):
        _factored(3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 0]], [[0, 0], [1, -1]])


def test_graph_from_factors_rejects_key_overflow():
    # packed phase-free keys below n^4 = 2^64, shifted past the positions,
    # would wrap around in int64
    with pytest.raises(ValueError, match="overflow int64"):
        _factored(2**16, [[0, 0, 0]], [[0, 0, 0]], np.zeros((0, 2), dtype=int))


@st.composite
def raw_factored_tables(draw):
    """(n, left, right, index): factor tables on C^n with entries possibly
    negative or unreduced and rows possibly repeated, and an index into
    them."""
    n = draw(st.integers(2, 6))
    entry = st.integers(-2 * n, 3 * n)
    sides = []
    for _ in range(2):
        rows = draw(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=1, max_size=8))
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        sides.append(np.array(rows, dtype=np.int64))
    left, right = sides
    pairs = st.tuples(st.integers(0, len(left) - 1), st.integers(0, len(right) - 1))
    index = np.array(draw(st.lists(pairs, max_size=24)), dtype=np.int32).reshape(-1, 2)
    return n, left, right, index


@settings(max_examples=80, deadline=None, derandomize=True)
@given(raw_factored_tables())
def test_factored_closure_matches_the_gathered_table(drawn):
    n, left, right, index = drawn
    g = graph_from_factors(n, (left, right), index)
    reference = graph_from_labels(n, np.concatenate([left[index[:, 0]], right[index[:, 1]]], axis=1))
    for got, want in zip(g.factors, reference.factors):
        assert np.array_equal(got, want)
    assert np.array_equal(g.index, reference.index)


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
    # a graph contains the identity; an empty table would count 0 labels and
    # leave the Gram oracle, compress and is_anticlique nothing to index
    with pytest.raises(ValueError, match="word table is empty"):
        OperatorGraph.from_words(3, np.zeros((0, 6), dtype=np.int64))
    # rejected, not reduced: the label oracle packs exponents as stored, and
    # counted 3 labels for this span of dimension 2
    unreduced = np.array([[0, 0, 0, 0, 0, 0], [4, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]])
    for bad in (unreduced, -unreduced):
        with pytest.raises(ValueError, match=r"entries must lie in \[0, n\)"):
            OperatorGraph.from_words(3, bad)
    dims = graph_dim(OperatorGraph.from_words(3, unreduced % 3), "both")
    assert dims.labels == dims.gram == 2
    for bad in (np.zeros((2, 4), dtype=int), np.zeros((2, 6)), np.zeros(6, dtype=int), [[0] * 6]):
        with pytest.raises(ValueError, match="word table of shape"):
            OperatorGraph.from_words(3, bad)
    with pytest.raises(ValueError, match="n >= 1"):
        OperatorGraph.from_words(0, np.zeros((1, 6), dtype=int))


def test_factored_graph_rejects_broken_invariants():
    # left factors (0,0,0) (0,1,0) (0,2,0) (1,0,0) (2,0,0); right factors
    # (0,0,0) (1,1,1) (2,2,0)
    g = graph_from_labels(3, word_table([pair(3, 1, 0, 0, 0), pair(3, 0, 1, 2, 2)]))
    (left, right), index = g.factors, g.index
    assert len(left) == 5 and len(right) == 3
    assert OperatorGraph(3, (left, right), index).words.tolist() == g.words.tolist()
    out_of_range = index.copy()
    out_of_range[1, 1] = len(right)
    negative = index.copy()
    negative[0, 0] = -1
    broken = [
        ((0, (left, right), index), "n >= 1"),
        ((3, (left, right), index[:0]), "index is empty"),
        ((3, (left, right), index.astype(np.int64)), "int32 index of shape"),
        ((3, (left, right), index[:, :1]), "int32 index of shape"),
        ((3, (left[:, :2], right), index), "left factors of shape"),
        ((3, (left, right.astype(float)), index), "right factors of shape"),
        ((3, (left, right + 1), index), r"right factor entries must lie in \[0, n\)"),
        ((3, (left[::-1], right), index), "left factors must be strictly increasing"),
        ((3, (left, right[[0, 0, 1, 2]]), index), "right factors must be strictly increasing"),
        ((3, (left, right), out_of_range), r"right indices must lie in \[0, 3\)"),
        ((3, (left, right), negative), r"left indices must lie in \[0, 5\)"),
        # the identity alone leaves the other factors unused
        ((3, (left, right), index[:1]), "every left factor must be used"),
    ]
    for (n, factors, at), message in broken:
        with pytest.raises(ValueError, match=message):
            OperatorGraph(n, factors, at)


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
        dims = graph_dim(g, "both")
        assert dims.agree, (n, size)


def test_compress_identity_graph():
    g = graph_from_labels(2, word_table([]))
    f = np.array([1, 0, 0, 1]) / np.sqrt(2)
    code = CodeSpace.from_vectors([f])
    out = compress(g, code)
    assert len(out) == 1
    assert max_abs(out[0] - np.eye(1)) < 1e-14


def test_compress_section2_generator_vanishes():
    g, code = build_section2()
    # generator order is [I, sx(x)I, sy(x)I, I(x)sy, I(x)sz]
    compressed = compress(g, code)
    assert max_abs(compressed[2]) < 1e-12
    assert max_abs(compressed[0] - np.eye(2)) < 1e-12


def test_compress_single_flip_graph():
    # I (x) sx is the word I (x) Z at n = 2
    g = graph_from_labels(2, np.array([[0, 0, 0, 0, 1, 0]]))
    e = np.eye(2)
    code = CodeSpace.from_vectors([kron(e[0], e[0]), kron(e[1], e[0])])
    compressed = compress(g, code)
    assert max_abs(compressed[1]) < 1e-14


def test_compress_dimension_mismatch():
    # a code on C^3 (x) C^3 against a graph on C^2 (x) C^2
    g = graph_from_labels(2, word_table([]))
    code = CodeSpace.from_vectors([np.eye(9)[0]])
    with pytest.raises(ValueError, match="does not match"):
        compress(g, code)
    # a space of 3 dimensions is no C^n (x) C^n: rejected when constructed
    with pytest.raises(ValueError, match="do not fit"):
        CodeSpace.from_vectors([np.array([1, 0, 0])])


def test_is_anticlique_negative_control():
    # X is diagonal with eigenvalues 1 and w on the first two basis vectors,
    # so this code sees a non-scalar compression
    n = 3
    g = graph_from_labels(n, word_table([pair(n, 1, 0, 0, 0)]))
    e = np.eye(n)
    code = CodeSpace.from_vectors([kron(e[0], e[0]), kron(e[1], e[0])])
    report = is_anticlique(g, code)
    assert not report.verdict
    assert report.compressed_dim > 1
    compressed = compress(g, code)
    w = np.exp(2j * np.pi / n)
    assert max_abs(compressed[1] - np.diag([1, w])) < 1e-12


def test_is_anticlique_section2():
    g, code = build_section2()
    report = is_anticlique(g, code)
    assert report.verdict
    assert report.compressed_dim == 1
    assert report.residual < 1e-12
    # c_V is 1 for the identity and 0 for the four error words, one entry
    # per generator of a read-only complex array
    c = report.c_values
    assert c.dtype == complex and c.shape == (g.n_generators,)
    assert c[0] == pytest.approx(1.0)
    assert max_abs(c[1:]) < 1e-12
    with pytest.raises(ValueError, match="read-only"):
        c[0] = 0


def test_anticlique_invariant_under_code_basis_change():
    g, code = build_section3(3)
    rng = np.random.default_rng(5)
    m = random_complex(rng, code.code_dim, code.code_dim)
    q, _ = np.linalg.qr(m)
    rotated = CodeSpace(code.space_dim, code.isometry @ q, code.basis_names)
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
    idx = g.words[:, [0, 1, 3, 4]].tolist().index([1, 0, 0, 0])
    table = compress(g, code)
    assert max_abs(table[idx]) < 1e-12


def test_kl_table_section2_last_generator_vanishes():
    g, code = build_section2()
    table = compress(g, code)
    assert max_abs(table[4]) < 1e-12  # I (x) sz over {f+, f-}


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
    code = CodeSpace.from_vectors([random_complex(rng, 16), random_complex(rng, 16)])
    s = code.isometry
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
    # the constructions' codes carry Fourier coordinates, so compress works
    # in the Fourier product basis on the code's support; it must agree with
    # S^dag V S from the scalar standard-basis realization
    g, code = build(arg)
    assert code.fourier is not None
    s = code.isometry
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
    assert (0, 2, 0, 0) not in g.label_keys()
    assert max_abs(compress(graph_from_labels(16, outside), code)[1] - np.diag(1j ** np.arange(4))) < 1e-12
    grown = graph_from_labels(16, np.concatenate([g.words, outside]))
    report = is_anticlique(grown, code)
    assert not report.verdict
    assert report.compressed_dim == 3
    assert report.residual == pytest.approx(1.0)
    at, l, k = report.worst
    assert tuple(grown.words[at, [0, 1, 3, 4]]) in {(0, 2, 0, 0), (0, 14, 0, 0)}
    assert l == k
    # without the word the residual is roundoff
    assert is_anticlique(g, code).residual < 1e-15


def test_codespace_checks_fourier_coordinates():
    _, code = build_section4(Section4Params(2, 4, 1, 2))
    off = code.fourier.copy()
    off[0, 0] += 1e-9
    for bad in (code.fourier[:, ::-1], off):
        with pytest.raises(ValueError, match="fourier coordinates differ"):
            replace(code, fourier=bad)
    with pytest.raises(ValueError, match="do not fit"):
        replace(code, fourier=code.fourier[:-1])
    with pytest.raises(ValueError, match="do not fit"):
        CodeSpace(space_dim=8, isometry=np.eye(8)[:, :1], fourier=np.eye(8)[:, :1])


def test_codespace_stores_arrays():
    # nested lists are stored as arrays, and a code without coordinates gets
    # the ones its isometry has: e_0 (x) e_0 = sum_ij f_i (x) f_j / n
    code = CodeSpace(space_dim=4, isometry=[[1.0], [0.0], [0.0], [0.0]])
    assert isinstance(code.isometry, np.ndarray) and code.code_dim == 1
    assert isinstance(code.fourier, np.ndarray) and code.fourier.shape == (4, 1)
    assert max_abs(code.fourier - 0.5) < 1e-15
    g = graph_from_labels(2, np.array([[1, 0, 0, 0, 0, 0]]))
    listed = CodeSpace(space_dim=4, isometry=np.eye(4)[:, :1], fourier=code.fourier.tolist())
    assert isinstance(listed.fourier, np.ndarray)
    assert max_abs(compress(g, listed) - compress(g, code)) == 0.0


def test_codespace_validation():
    with pytest.raises(ValueError):
        CodeSpace(space_dim=4, isometry=np.ones((4, 2)))
    with pytest.raises(ValueError):
        CodeSpace(space_dim=4, isometry=np.eye(3))
    with pytest.raises(ValueError):
        CodeSpace.from_vectors([np.zeros(4)])


def test_codespace_from_vectors_drops_names_of_dependent_vectors():
    a, b, c = np.eye(4)[:3]
    code = CodeSpace.from_vectors([a, b, a + b], names=("a", "b", "c"))
    assert code.code_dim == 2
    assert code.basis_names == ("a", "b")
    code = CodeSpace.from_vectors([a, 2 * a, c], names=("a", "b", "c"))
    assert code.basis_names == ("a", "c")
    assert CodeSpace.from_vectors([a, 2 * a]).basis_names == ()
    with pytest.raises(ValueError):
        CodeSpace.from_vectors([a, b], names=("a",))


def test_codespace_rejects_basis_names_of_wrong_length():
    with pytest.raises(ValueError, match="basis names"):
        CodeSpace(space_dim=4, isometry=np.eye(4)[:, :2], basis_names=("a", "b", "c"))
    assert CodeSpace(space_dim=4, isometry=np.eye(4)[:, :2], basis_names=("a", "b")).code_dim == 2


def test_codespace_from_vectors_normalizes():
    code = CodeSpace.from_vectors([np.array([2.0, 0, 0, 0]), np.array([0, 3.0, 0, 0])])
    assert code.code_dim == 2
    assert max_abs(dagger(code.isometry) @ code.isometry - np.eye(2)) < 1e-12


def test_full_oracle_agreement_n12():
    g, _ = build_section4(Section4Params(3, 4, 1, 2))
    dims = graph_dim(g, "both")
    assert dims.labels == dims.gram == g.n_generators == 20449


def test_full_oracle_agreement_n16():
    g, _ = build_section4(Section4Params(2, 8, 1, 4))
    dims = graph_dim(g, "both")
    assert dims.labels == dims.gram == g.n_generators == 64513


def _dense_gram_rank(g):
    """Gram rank of the realized generators scattered into dense matrices,
    with no use of the support blocks."""
    rows, vals = pair_monomial(g.words, math.isqrt(g.space_dim))
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


def test_repeated_word_under_two_phases_loses_rank():
    # bypass graph_from_labels, which would drop the repeat by its label
    n = 3
    word = WeylLabelPair(label(n, 1, 2, 0), label(n, 2, 1, 0))
    rephased = WeylLabelPair(label(n, 1, 2, 1), label(n, 2, 1, 0))
    words = word_table([pair(n, 0, 0, 0, 0), word, rephased])
    g = OperatorGraph.from_words(n, words)
    assert graph_dim(g, "gram") == _dense_gram_rank(g) == 2


def _crafted_rows(monkeypatch, n, side, second):
    """Graph on C^n (x) C^n of the identity and one word whose factor on one
    side realizes to the rows ``second`` (values 1), in place of the Weyl
    realization; the identity's factors realize to rows range(n)."""
    word = pair(n, 1, 0, 0, 0) if side == "left" else pair(n, 0, 0, 1, 0)
    rows_of = {(0, 0, 0): list(range(n)), (1, 0, 0): second}

    def realize(factors, n):
        rows = np.array([rows_of[tuple(f)] for f in factors.tolist()]).reshape(len(factors), n)
        return rows, np.ones((len(factors), n), dtype=complex)

    monkeypatch.setattr(graph_module, "weyl_monomial", realize)
    return OperatorGraph.from_words(n, word_table([pair(n, 0, 0, 0, 0), word]))


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
    # a realized factor holding one row twice is no monomial unitary; both
    # realization paths reject it
    g = _crafted_rows(monkeypatch, 2, side, [0, 0])
    with pytest.raises(ValueError, match="not a permutation of range"):
        graph_dim(g, "gram")
    code = CodeSpace.from_vectors([np.array([1.0, 0, 0, 0])])
    with pytest.raises(ValueError, match="not a permutation of range"):
        compress(g, code)


@pytest.mark.parametrize("build, arg", SMALL_LABEL_GRAPHS, ids=SMALL_LABEL_GRAPH_IDS)
def test_factored_gram_blocks_match_full_rows(build, arg):
    # each tensor class's Gram block, the selected principal submatrix of
    # G_P (x) G_Q scaled by the members' phases, equals the Gram matrix of
    # the members' full n^2-long realized rows
    g, _ = build(arg)
    n = math.isqrt(g.space_dim)
    left, right = graph_module._factor_lines(g, DEFAULT_TOL)
    line_l, line_r = left.line[g.index[:, 0]], right.line[g.index[:, 1]]
    classes = left.pattern[line_l] * len(right.grams) + right.pattern[line_r]
    covered = 0
    for c in sorted(set(classes.tolist())):
        members = np.flatnonzero(classes == c)
        p, q = divmod(c, len(right.grams))
        gram_l, gram_r = left.grams[p], right.grams[q]
        selected = left.local[line_l[members]] * len(gram_r) + right.local[line_r[members]]
        block = np.kron(gram_l, gram_r)[np.ix_(selected, selected)]
        _, vals = pair_monomial(g.words[members], n)
        phase = vals[:, 0]
        full = vals @ vals.conj().T
        scaled = phase[:, None] * block * phase.conj()[None, :]
        assert max_abs(scaled - full) <= 1e-12 * np.linalg.eigvalsh(full)[-1]
        covered += len(members)
    assert covered == g.n_generators



@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw_factored_tables())
def test_gram_oracle_matches_dense_on_random_graphs(drawn):
    # the class-major pair keys against the dense Gram of every realized
    # generator, on closures of random factor tables
    n, left, right, index = drawn
    g = graph_from_factors(n, (left, right), index)
    assert graph_dim(g, "gram") == _dense_gram_rank(g) == graph_dim(g, "labels")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(raw_factored_tables(), st.integers(0, 2**16))
def test_gram_oracle_matches_dense_with_a_rephased_repeat(drawn, pick):
    # a word repeated under a second phase, bypassing the closure, spans no
    # new direction: both its copies share one pair of lines and one key
    n, left, right, index = drawn
    words = graph_from_factors(n, (left, right), index).words
    repeat = words[pick % len(words)].copy()
    repeat[2] = (repeat[2] + 1) % n
    g = OperatorGraph.from_words(n, np.concatenate([words, [repeat]]))
    assert graph_dim(g, "gram") == _dense_gram_rank(g) == graph_dim(g, "labels") == g.n_generators - 1


@pytest.mark.parametrize("right_local, raises", [(2**32 - 2, False), (2**32 - 1, True)], ids=["fits", "overflows"])
def test_gram_key_overflow_guard(monkeypatch, right_local, raises):
    # the identity alone has one pair of lines; with their local indices
    # moved up, the pair keys span 1 * 1 * S_L * S_R = 2^31 (2^32 - 1), whose
    # largest key fits in int64, or 2^31 * 2^32 = 2^63, which would not
    g = graph_from_labels(2, np.zeros((0, 6), dtype=int))
    factor_lines = graph_module._factor_lines

    def spread(g, tol):
        left, right = factor_lines(g, tol)
        return replace(left, local=left.local + 2**31 - 1), replace(right, local=right.local + right_local)

    monkeypatch.setattr(graph_module, "_factor_lines", spread)
    if not raises:
        assert graph_dim(g, "gram") == 1
        return
    with pytest.raises(ValueError, match=r"pair keys of 1 x 1 patterns of 2147483648 x 4294967296 lines overflow int64"):
        graph_dim(g, "gram")

def _crafted_graph(monkeypatch, realized, words):
    """Graph on C^2 (x) C^2 whose factors (kx, kz, phase) realize as
    realized[factor] = (rows, vals) in place of the Weyl realization, and
    the plain eigensolve rank of its generators built from those
    realizations."""
    n = 2

    def realize(factors, n):
        pairs = [realized[tuple(f)] for f in factors.tolist()]
        rows = np.array([r for r, _ in pairs]).reshape(len(factors), n)
        return rows, np.array([v for _, v in pairs], dtype=complex).reshape(len(factors), n)

    words = np.array(words)
    rows_l, vals_l = realize(words[:, :3], n)
    rows_r, vals_r = realize(words[:, 3:], n)
    rows = (rows_l[:, :, None] * n + rows_r[:, None, :]).reshape(len(words), n * n)
    vals = (vals_l[:, :, None] * vals_r[:, None, :]).reshape(len(words), n * n)
    dense = np.zeros((len(words), n * n, n * n), dtype=complex)
    dense[np.arange(len(words))[:, None], rows, np.arange(n * n)] = vals
    flat = dense.reshape(len(words), -1)
    eigs = np.linalg.eigvalsh(flat @ flat.conj().T)
    monkeypatch.setattr(graph_module, "weyl_monomial", realize)
    return OperatorGraph.from_words(n, words), int(np.sum(eigs > 1e-9 * eigs[-1]))


IDENTITY = (0, 0, 0)


# a zero hash gives every factor one key, so the check against each line's
# representative alone decides which factors share a line
@pytest.mark.parametrize("mix", [graph_module._LINE_HASH, np.uint64(0)], ids=["hashed", "one-key"])
@pytest.mark.parametrize("eps, rank", [(1e-3, 2), (1e-6, 1)])
def test_near_dependent_lines_are_eigensolved(monkeypatch, eps, rank, mix):
    # two lines of one row pattern, [1, 1] and [1, 1 + eps]: their Gram's
    # discs reach zero, so the class is eigensolved, above the cutoff at
    # eps = 1e-3 and below it at eps = 1e-6
    monkeypatch.setattr(graph_module, "_LINE_HASH", mix)
    realized = {IDENTITY: ([0, 1], [1, 1]), (1, 0, 0): ([0, 1], [1, 1 + eps])}
    g, reference = _crafted_graph(monkeypatch, realized, [IDENTITY * 2, (1, 0, 0) + IDENTITY])
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(gram):
        solved.append(gram.shape[0])
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert graph_dim(g, "gram") == reference == rank
    assert solved[0] == 2


@pytest.mark.parametrize(
    "mix, delta, lines, rank",
    [
        (graph_module._LINE_HASH, 1e-14, 2, 2),
        (graph_module._LINE_HASH, 1e-6, 3, 2),
        (graph_module._LINE_HASH, 0.5, 3, 3),
        # under one key the last two fail the check against the identity's
        # line, and each becomes a line of its own, never merged
        (np.uint64(0), 1e-14, 3, 2),
        (np.uint64(0), 1e-6, 3, 2),
        (np.uint64(0), 0.5, 3, 3),
    ],
    ids=["hashed-merge", "hashed-apart", "hashed-distinct", "one-key-merge", "one-key-apart", "one-key-distinct"],
)
def test_one_line_realized_twice(monkeypatch, mix, delta, lines, rank):
    # the left factors of the last two words are one line up to the scalar
    # 1j, off by delta: within tol.absolute they merge, beyond it they stay
    # two lines, and the rank is the plain eigensolve's either way (at
    # delta = 0.5 they are two distinct lines); the identity's left factor
    # differs from them in its rows only
    monkeypatch.setattr(graph_module, "_LINE_HASH", mix)
    realized = {
        IDENTITY: ([0, 1], [1, 1]),
        (0, 1, 0): ([1, 0], [1, 1]),
        (0, 1, 1): ([1, 0], [1j, 1j * (1 - delta)]),
    }
    words = [IDENTITY * 2, (0, 1, 0) + IDENTITY, (0, 1, 1) + IDENTITY]
    g, reference = _crafted_graph(monkeypatch, realized, words)
    left, _ = graph_module._factor_lines(g, DEFAULT_TOL)
    assert len(left.pattern) == lines
    assert graph_dim(g, "gram") == reference == rank


def test_label_count_matches_key_set():
    for build, arg in SMALL_LABEL_GRAPHS:
        g, _ = build(arg)
        assert graph_dim(g, "labels") == len(g.label_keys())
    # a table that bypasses graph_from_labels: one word under two phases
    words = word_table([pair(3, 1, 2, 0, 1), pair(3, 1, 2, 0, 1), pair(3, 0, 0, 0, 0)])
    words[1, 2] = 2
    assert graph_dim(OperatorGraph.from_words(3, words), "labels") == 2


def test_dense_generators_match_labels():
    # with the whole space as code and the Fourier product basis as its
    # isometry, S = I in that basis, so compress returns each generator's
    # Fourier realization, exactly pair_dense of its Fourier-basis labels
    g, _ = build_section3(4)
    f = fourier_basis(4)
    whole = CodeSpace(space_dim=16, isometry=kron(f, f), fourier=np.eye(16, dtype=complex))
    realized = compress(g, whole)
    assert realized.shape == (g.n_generators, 16, 16)
    for p, dense in zip(scalar_pairs(g), realized):
        assert max_abs(dense - pair_dense(in_fourier(p))) == 0.0


def test_anticlique_memory_is_bounded():
    # the verdict is streamed chunk by chunk and never holds the
    # (64513, 4, 4) compression stack (16.5 MB): about 2.6 MB here, 1 MB of
    # it the c_V array; a c_V tuple of Python complexes would add 2.5 MB
    g, code = build_section4(Section4Params(2, 8, 1, 4))
    tracemalloc.start()
    try:
        report = is_anticlique(g, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict
    assert peak < 6 * 2**20


def _traced_peak(call):
    """(result, peak bytes traced by tracemalloc) of call()."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()



def test_gram_oracle_memory_is_bounded():
    # one in-place sort of one int64 pair key per word, and each tensor class
    # a run of the sorted keys: about 18 MB at n = 32, where the 1,044,481
    # keys take 8.4 MB; a pair sort, a class argsort and a split over
    # per-word line ids peak at 73.8 MB
    g, _ = build_section4(Section4Params(2, 16, 3, 4))
    dim, peak = _traced_peak(lambda: graph_dim(g, "gram"))
    assert dim == g.n_generators == 1044481
    assert peak < 40 * 2**20

def test_closure_memory_is_linear_in_words():
    # the closure holds per-side int32 ids and one sorted array of packed
    # pair keys, never the (2G, 6) stack of words and adjoints (17.2 MB peak
    # at this point) nor a table over all n^4 phase-free keys
    left, right, index = constructions._section4_families(Section4Params(2, 8, 1, 4))
    g, peak = _traced_peak(lambda: graph_from_factors(16, (left, right), index))
    assert g.n_generators == 64513
    assert peak < 12 * 2**20
    # 8 bytes per word and the few distinct factors: 0.5 MB, not the 3 MB of
    # the (64513, 6) int64 word table
    assert sum(f.nbytes for f in g.factors) + g.index.nbytes < 2**20
    # section3 at n = 64 closes 8064 words; an n^4 scratch table of int64
    # would take 134 MB
    left, right, index = constructions._one_sided_powers(64)
    assert len(index) == 8064
    g, peak = _traced_peak(lambda: graph_from_factors(64, (left, right), index))
    assert g.n_generators == 5461
    assert peak < 5 * 2**20
    # the whole build, families, closure and code, never holds a (G, 6)
    # int64 word table: about 5.9 MB here, where building through the
    # 3 MB table peaks at 8.8 MB
    (g, _), peak = _traced_peak(lambda: build_section4(Section4Params(2, 8, 1, 4)))
    assert g.n_generators == 64513
    assert peak < 7 * 2**20


DISTINCT_FACTOR_GRAPHS = SMALL_LABEL_GRAPHS + [(build_section4, Section4Params(2, 8, 1, 4))]


@pytest.mark.parametrize(
    "build, arg", DISTINCT_FACTOR_GRAPHS, ids=SMALL_LABEL_GRAPH_IDS + ["section4-2-8-1-4"]
)
def test_distinct_factors_gather_exactly(build, arg):
    # each side's stored factors are strictly increasing by packed key and
    # each is used by some word; gathered by the int32 index they give the
    # word table's columns back, and their realizations gathered the same way
    # are bit for bit the realizations of the columns themselves
    g, _ = build(arg)
    n = g.n
    assert g.index.dtype == np.int32 and g.index.shape == (g.n_generators, 2)
    for side in (0, 1):
        columns = g.words[:, 3 * side : 3 * side + 3]
        factors, index = g.factors[side], g.index[:, side]
        assert np.array_equal(factors[index], columns)
        keys = (factors[:, 0] * n + factors[:, 1]) * n + factors[:, 2]
        assert np.all(keys[1:] > keys[:-1])
        assert np.bincount(index, minlength=len(factors)).all()
        rows, vals = weyl_monomial(factors, n)
        rows_w, vals_w = weyl_monomial(columns, n)
        assert np.array_equal(rows[index], rows_w)
        assert np.array_equal(vals[index].view(float), vals_w.view(float))


def test_each_distinct_factor_is_realized_once(monkeypatch):
    # the (2,8,1,4) graph's 64513 words use 264 distinct left factors and 464
    # right ones; the Gram oracle and the verdict each realize those 728,
    # where realizing every word's two factors would take 129026 rows
    g, code = build_section4(Section4Params(2, 8, 1, 4))
    realized = []

    def counting(factors, n):
        realized.append(len(factors))
        return weyl_monomial(factors, n)

    monkeypatch.setattr(graph_module, "weyl_monomial", counting)
    assert graph_dim(g, "gram") == 64513
    assert sum(realized) == 264 + 464
    realized.clear()
    assert is_anticlique(g, code).verdict
    assert sum(realized) == 264 + 464


def test_factor_key_keeps_the_phase():
    # negative control at construction scale: at (2,8,1,4) only the identity
    # has a nonzero c_V. Appending the identity with its right phase raised
    # to 1, bypassing graph_from_labels, adds a factor that differs from the
    # identity's only in its phase: the span and the verdict are unchanged,
    # and its c_V is w = exp(2 pi i / 16), which a factor key without the
    # phase would read as 1
    g, code = build_section4(Section4Params(2, 8, 1, 4))
    rephased = OperatorGraph.from_words(16, np.concatenate([g.words, [[0, 0, 0, 0, 0, 1]]]))
    dims = graph_dim(rephased, "both")
    assert dims.labels == dims.gram == 64513
    report = is_anticlique(rephased, code)
    assert report.verdict
    assert abs(report.c_values[-1] - np.exp(2j * np.pi / 16)) < 1e-12
