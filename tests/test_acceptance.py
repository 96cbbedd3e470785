"""Acceptance gate: one test per verification target, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected number asserted here was computed from an independent route:
closed-form label counting (gcd sums, family counts), hand-expanded small
cases, or the dense Gram oracle; claimed formulas enter only as comparison
targets, never as truth.
"""

import functools
import json
import time
from math import gcd

import numpy as np

from opgraph.constructions import (
    Section4Params,
    allowed_shifts,
    baseline_bounds,
    build_code_K1,
    build_remark2,
    build_section2,
    build_section3,
    build_section4,
    claimed_dim_section3,
    claimed_dim_section4,
    enumerate_section4_params,
)
from opgraph.graph import graph_dim, is_anticlique
from opgraph.linalg import max_abs
from opgraph.weyl import fourier_basis

from reference import (
    WeylLabelPair,
    compress,
    dagger,
    graph_from_labels,
    hs_inner,
    isometry,
    label,
    label_adjoint,
    label_mul,
    label_pow,
    weyl_dense,
    word_table,
    x_matrix,
    z_matrix,
)
from conftest import run_cli


def criterion(number: int, summary: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {summary}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {summary}")

        return wrapper

    return decorate


@criterion(1, "four-dimensional construction: orthogonality, anticlique, dimension 5")
def test_criterion_1_section2():
    started = time.perf_counter()
    g, code = build_section2()
    # all 16 inner products <f_a, x f_b> over the four error words
    worst = max(max_abs(c) for c in compress(g, code)[1:])
    assert worst < 1e-12
    report = is_anticlique(g, code)
    assert report.verdict
    assert graph_dim(g, "gram") == 5
    assert time.perf_counter() - started < 0.1


@criterion(2, "product construction at prime n: dimension 2n(n-1)+1, anticlique")
def test_criterion_2_prime_sizes():
    started = time.perf_counter()
    expected = {3: 13, 5: 41, 7: 85}
    for n, dim in expected.items():
        g, code = build_section3(n)
        labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
        assert labels == gram == dim == claimed_dim_section3(n), n
        assert is_anticlique(g, code).verdict, n
    assert time.perf_counter() - started < 10.0


@criterion(3, "product construction at composite n: rank beats the claimed formula")
def test_criterion_3_composite_sizes():
    started = time.perf_counter()
    claimed = {4: 25, 6: 61}
    for n in (4, 6):
        g, code = build_section3(n)
        labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
        by_count = 2 * sum(n // gcd(n, s) for s in range(1, n)) + 1
        assert labels == gram == by_count, n
        assert by_count == {4: 21, 6: 41}[n]
        assert is_anticlique(g, code).verdict, n
        assert claimed_dim_section3(n) == claimed[n]
        assert labels != claimed[n]  # the report must flag the mismatch
    assert time.perf_counter() - started < 10.0


@criterion(4, "entangled construction at (2,4,1,2): anticlique, 3969 vs claimed 3921")
def test_criterion_4_entangled_reference_point():
    params = Section4Params(2, 4, 1, 2)
    code = build_code_K1(params)
    assert code.code_dim == 2
    s = isometry(code)
    assert max_abs(dagger(s) @ s - np.eye(2)) < 1e-12

    g, code = build_section4(params)
    report = is_anticlique(g, code)
    assert report.verdict
    assert report.residual < 1e-9

    labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
    assert labels == gram == 3969

    g_r, code_r = build_remark2(params.n)
    assert is_anticlique(g_r, code_r).verdict

    assert claimed_dim_section4(params) == 3921
    assert graph_dim(g, "labels") != claimed_dim_section4(params)


@criterion(4, "entangled construction full Gram oracle agrees")
def test_criterion_4_entangled_gram_oracle():
    started = time.perf_counter()
    g, _ = build_section4(Section4Params(2, 4, 1, 2))
    assert graph_dim(g, "gram") == 3969
    assert time.perf_counter() - started < 300.0


@criterion(5, "entangled sweep over p*y <= 12: anticliques and support invariants")
def test_criterion_5_sweep():
    started = time.perf_counter()
    points = enumerate_section4_params(12)
    assert points, "sweep range must be nonempty"
    for params in points:
        n = params.n
        g, code = build_section4(params)
        assert is_anticlique(g, code).verdict, params

        s = isometry(code)
        x = x_matrix(n)
        # allowed diagonal shifts move the code off itself
        for m in allowed_shifts(params):
            xm = np.linalg.matrix_power(x, m)
            assert max_abs(dagger(s) @ (np.kron(xm, xm) @ s)) < 1e-12, (params, m)
        # clock words off the subgroup annihilate the first code vector
        q1 = s[:, 0]
        z = z_matrix(n)
        for r in range(1, n):
            if r % params.p != 0:
                op = np.kron(np.eye(n), np.linalg.matrix_power(z, r))
                assert abs(np.vdot(op @ q1, q1)) < 1e-12, (params, r)
        # the period-y diagonal shift fixes every code vector
        xy = np.linalg.matrix_power(x, params.y)
        assert max_abs(np.kron(xy, xy) @ s - s) < 1e-12, params
    assert time.perf_counter() - started < 60.0


@criterion(6, "label algebra matches dense computation everywhere it is sampled")
def test_criterion_6_weyl_algebra():
    # commutation phase, checked densely for every exponent quadruple
    for n in range(2, 6):
        w = np.exp(2j * np.pi / n)
        dense = {(k, m): weyl_dense(label(n, k, m)) for k in range(n) for m in range(n)}
        for (k, m), a in dense.items():
            for (kp, mp), b in dense.items():
                assert max_abs(a @ b - w ** ((m * kp - k * mp) % n) * (b @ a)) < 1e-12

    # shift action on the Fourier basis
    for n in range(2, 9):
        f = fourier_basis(n)
        x = x_matrix(n)
        for j in range(n):
            assert np.linalg.norm(x @ f[:, j] - f[:, (j + 1) % n]) < 1e-12

    # 1000 seeded random products/powers/adjoints per dimension
    rng = np.random.default_rng(42)
    for n in range(2, 10):
        for _ in range(1000):
            a = label(n, int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(n)))
            b = label(n, int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(n)))
            s = int(rng.integers(0, n + 1))
            da, db = weyl_dense(a), weyl_dense(b)
            assert max_abs(weyl_dense(label_mul(a, b)) - da @ db) < 1e-12
            assert max_abs(weyl_dense(label_pow(a, s)) - np.linalg.matrix_power(da, s)) < 1e-12
            assert max_abs(weyl_dense(label_adjoint(a)) - dagger(da)) < 1e-12

    # distinct labels are Hilbert-Schmidt orthogonal
    for n in range(2, 6):
        words = [(kx, kz) for kx in range(n) for kz in range(n)]
        dense = [weyl_dense(label(n, kx, kz)) for kx, kz in words]
        for i in range(len(words)):
            for j in range(len(words)):
                if i != j:
                    assert abs(hs_inner(dense[i], dense[j])) < 1e-10 * n


@criterion(7, "label count equals Gram rank on 50 seeded random generator subsets")
def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(2718)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        size = int(rng.integers(1, 41))
        pairs = [
            WeylLabelPair(
                label(n, int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(n))),
                label(n, int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(n))),
            )
            for _ in range(size)
        ]
        g = graph_from_labels(n, word_table(pairs))
        labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
        assert labels == gram, (n, size)


@criterion(8, "achieved dimension dwarfs both baseline bounds at n = 8")
def test_criterion_8_baseline_bounds():
    bounds = baseline_bounds(64, 8)
    # independent integer characterizations of both bounds
    v = bounds["knill_max"]
    assert v * (v + 1) <= 64 / 8 < (v + 1) * (v + 2)
    assert bounds["commutative_max"] == (64 - 8) // (8 - 1)
    assert bounds == {"knill_max": 2, "commutative_max": 8}

    achieved = graph_dim(build_section4(Section4Params(2, 4, 1, 2))[0], "labels")
    assert achieved == 3969
    assert achieved > bounds["commutative_max"] > bounds["knill_max"]

    result = run_cli("verify", "section3", "--n", "8", "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["bounds"] == {"knill_max": 2, "commutative_max": 8}


@criterion(9, "CLI contract: exit codes, JSON fields, deterministic bytes")
def test_criterion_9_cli_contract():
    result = run_cli("verify", "section3", "--n", "5", "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["anticlique"] is True
    assert report["graph_dim_labels"] == 41

    result = run_cli("verify", "section2", "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["graph_dim_gram"] == 5
    assert report["code_dim"] == 2

    result = run_cli(
        "verify", "section4", "--p", "2", "--y", "4", "--h", "1", "--d", "2", "--json"
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["anticlique"] is True
    assert report["formula_match"] is False
    assert report["paper_claimed_dim"] == 3921
    assert report["graph_dim_labels"] == 3969

    args = ("verify", "section4", "--p", "2", "--y", "4", "--h", "1", "--d", "2",
            "--json", "--deterministic")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
