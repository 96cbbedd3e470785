"""Self-tests of the benchmark: the independent count, the gate, the span
arithmetic, and one traced child on a small point.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import time

import pytest

import gate
import run
import spans


def _brute_force_count(p, y, h, d):
    """Distinct exponent quadruples (a, b, c, e) of the section4 words on
    X^a Z^b (x) X^c Z^e, closed under adjoints, enumerated one by one."""
    n = p * y
    excluded = {((d - j) * (h + 1)) % y for j in range(1, d + 1)}
    excluded |= {(y + (j - d) * (h + 1)) % y for j in range(1, d + 1)}
    words = {(0, 0, 0, 0)}
    for m, j, k, s in itertools.product(range(n), repeat=4):
        if m != j:
            words.add((m, k, j, s))
        elif (m > 0 and m % y not in excluded) or (k + s) % p != 0:
            words.add((m, k, m, s))
    for k, s in itertools.product(range(n), range(1, n)):
        words.add((s, k * s % n, 0, 0))
        words.add((0, 0, s, k * s % n))
    words |= {tuple(-x % n for x in w) for w in words}
    return len(words)


def test_count_at_reference_points():
    assert gate.section4_count(2, 4, 1, 2) == 3969
    assert gate.section4_count(2, 8, 1, 4) == 64513


def test_count_at_small_point_by_hand():
    # n = 4, y = 2: residues 0 and 1 are both excluded, so #A' = 0 and the
    # count is 4^3 * 3 + 0 + 4 * (16 - 8) + 1
    assert gate.allowed_strict_shifts(2, 0, 2, 4) == 0
    assert gate.section4_count(2, 2, 0, 2) == 192 + 32 + 1 == 225


@pytest.mark.parametrize("point", [q for q in gate.section4_points(8) if q[0] * q[1] <= 6])
def test_count_matches_enumeration(point):
    assert gate.section4_count(*point) == _brute_force_count(*point)


def test_sweep_points():
    points = gate.section4_points(12)
    assert len(points) == 25
    assert (2, 4, 1, 2) in points
    assert all(p * y <= 12 and d >= 2 for p, y, h, d in points)


def _report(p=2, y=4, h=1, d=2, **fields):
    report = {
        "params": {"p": p, "y": y, "h": h, "d": d, "n": p * y},
        "anticlique": True,
        "graph_dim_labels": gate.section4_count(p, y, h, d),
        "graph_dim_gram": None,
    }
    report.update(fields)
    return report


def test_gate_passes_good_reports():
    points = [(2, 4, 1, 2), (2, 2, 0, 2)]
    text = json.dumps(_report(), indent=2) + "\n" + json.dumps(_report(2, 2, 0, 2, graph_dim_gram=225))
    assert gate.gate(0, text, points, require_gram=False) == (2, 0, [])


def test_gate_flags_anticlique_false():
    attempted, failed, problems = gate.gate(0, json.dumps(_report(anticlique=False)), [(2, 4, 1, 2)], False)
    assert (attempted, failed) == (1, 1)
    assert "anticlique" in problems[0]


def test_gate_flags_wrong_dimension():
    for fields in ({"graph_dim_labels": 3921}, {"graph_dim_gram": 3968}):
        attempted, failed, problems = gate.gate(0, json.dumps(_report(**fields)), [(2, 4, 1, 2)], False)
        assert (attempted, failed) == (1, 1), fields
        assert problems


def test_gate_requires_full_gram_when_asked():
    assert gate.gate(0, json.dumps(_report()), [(2, 4, 1, 2)], True)[1] == 1
    assert gate.gate(0, json.dumps(_report(graph_dim_gram=3969)), [(2, 4, 1, 2)], True)[1] == 0


def test_gate_counts_missing_extra_and_bad_exit():
    points = [(2, 4, 1, 2), (2, 2, 0, 2)]
    # one point missing, one unexpected
    text = json.dumps(_report()) + "\n" + json.dumps(_report(3, 2, 0, 2))
    assert gate.gate(0, text, points, False)[:2] == (3, 2)
    # a non-zero exit fails every point, even with good reports
    good = json.dumps(_report()) + "\n" + json.dumps(_report(2, 2, 0, 2))
    assert gate.gate(1, good, points, False)[:2] == (2, 2)
    assert gate.gate(0, "not json", points, False)[:2] == (2, 2)


def _span(id, parent, name, start, end, **attrs):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end, "run": "r", **attrs}


def test_self_times_on_synthetic_tree():
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "cli.run_verification", 1.0, 9.0),
        _span(2, 1, "constructions.build", 1.5, 4.0),
        _span(3, 2, "graph.graph_from_labels", 2.0, 3.5),
        _span(4, 1, "linalg.gram_rank", 5.0, 8.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {("r", 0): 2.0, ("r", 1): 2.5, ("r", 2): 1.0, ("r", 3): 1.5, ("r", 4): 3.0}
    assert sum(selfs.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, None, "a", 0.0, 10.0), _span(1, 0, "b", 1.0, 4.0), _span(2, 0, "c", 3.0, 6.0)]
    assert spans.self_times(tree)[("r", 0)] == 5.0


def test_layer_metrics_on_synthetic_tree():
    tree = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "cli.run_verification", 0.0, 10.0),
        _span(2, 1, "graph.graph_from_labels", 0.0, 1.0, generators=400),
        _span(3, 1, "graph.graph_dim.labels", 1.0, 2.0, generators=400),
        _span(4, 1, "graph.graph_dim.gram", 2.0, 6.0, generators=100),
        _span(5, 4, "linalg.gram_rank", 3.0, 6.0, **spans.gram_cost(100, 64)),
    ]
    values = spans.layer_metrics(tree)
    assert values["cli.points"] == 1
    assert values["graph.generators"] == 400
    assert values["graph.label_oracle.s"] == 1.0
    assert values["graph.gram_oracle.self_s"] == 1.0
    assert values["graph.gram_oracle.coverage"] == 0.25
    assert values["linalg.gram_rank.order_max"] == 64
    assert values["weyl.pair_dense.calls"] == 0


def test_gram_cost_by_hand():
    # 3 matrices of 4 entries: order 3, inner length 4
    assert spans.gram_cost(3, 4) == {"order": 3, "flops": 8 * 9 * 4 + 16 * 27 // 3, "bytes": 16 * (24 + 9)}
    assert spans.gram_cost(4, 3)["order"] == 3


def test_traced_child_on_small_point():
    cfg = {
        "mode": "run",
        "argv": ["verify", "section4", "--p", "2", "--y", "2", "--h", "0", "--d", "2", "--json"],
        "optional": [["--full-gram"], ["--no-such-flag"]],
        "trace": True,
        "run_id": "selftest",
    }
    result = run.run_child(cfg, time.monotonic() + 120)
    assert "--full-gram" in result["argv"] and "--no-such-flag" not in result["argv"]
    assert gate.gate(result["exit_code"], result["stdout"], [(2, 2, 0, 2)], True) == (1, 0, [])
    tree = result["spans"]
    assert {s["run"] for s in tree} == {"selftest"}
    assert sum(spans.self_times(tree).values()) == pytest.approx(result["wall_s"], rel=1e-3, abs=1e-3)
    values = spans.layer_metrics(tree)
    assert values["cli.points"] == 1
    assert values["graph.generators"] == 225
    assert values["graph.gram_oracle.coverage"] == 1.0
    assert values["weyl.pair_dense.calls"] == 225


def test_benchmark_json_names_what_the_runs_report():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # sweep-n12 runs on request but is not gated: see run.py
    assert [w["name"] for w in bench["workloads"]] == ["ref-fullgram", "n16-point"]
    assert set(run.WORKLOADS) == {"ref-fullgram", "sweep-n12", "n16-point"}
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    traced = [*spans.LAYER_METRICS, "graph.gram_oracle.coverage", "trace.wall_s", "trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == traced
