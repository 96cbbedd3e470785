"""Correctness gate for section4 reports, independent of the program.

The expected graph dimension comes from a family count derived here, not
from opgraph: off-diagonal shifts give n^3 (n-1) words, allowed strict equal
shifts give #A' n^2, the remaining n - #A' equal shifts keep the n^2 - n y
clock pairs off the subgroup, and the identity adds 1. The one-sided powers
of the section3 family are off-diagonal shifts, so they add nothing.

The gate checks report fields, not a byte digest, so a documented schema
bump that keeps these fields does not break it.
"""

from __future__ import annotations

import json


def allowed_strict_shifts(y: int, h: int, d: int, n: int) -> int:
    """#A': shifts 1 <= m < n whose residue mod y avoids (d-j)(h+1) and
    y + (j-d)(h+1) for every j in 1..d."""
    excluded = set()
    for j in range(1, d + 1):
        excluded.add(((d - j) * (h + 1)) % y)
        excluded.add((y + (j - d) * (h + 1)) % y)
    return sum(1 for m in range(1, n) if m % y not in excluded)


def section4_count(p: int, y: int, h: int, d: int) -> int:
    """Independent section4 graph dimension at (p, y, h, d)."""
    n = p * y
    a = allowed_strict_shifts(y, h, d, n)
    return n**3 * (n - 1) + a * n**2 + (n - a) * (n * n - n * y) + 1


def section4_points(n_max: int) -> list[tuple[int, int, int, int]]:
    """Valid (p, y, h, d) with p*y <= n_max and d >= 2, where validity is
    p, y >= 2 and (h+1)(d+1) >= y >= (h+1)d."""
    return [
        (p, y, h, d)
        for p in range(2, n_max // 2 + 1)
        for y in range(2, n_max // p + 1)
        for h in range(y)
        for d in range(2, y + 1)
        if (h + 1) * (d + 1) >= y >= (h + 1) * d
    ]


def parse_reports(text: str) -> list[dict]:
    """Consecutive JSON objects in ``text``: one indented document from
    ``verify --json`` or one line each from ``sweep --format jsonl``."""
    decoder = json.JSONDecoder()
    reports = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return reports
        value, pos = decoder.raw_decode(text, pos)
        reports.append(value)


def check_report(report: dict, require_gram: bool) -> list[str]:
    """Violations of one section4 report; empty when it passes."""
    problems = []
    key = _point(report)
    if report.get("anticlique") is not True:
        problems.append(f"{key}: anticlique is {report.get('anticlique')!r}")
    labels = report.get("graph_dim_labels")
    gram = report.get("graph_dim_gram")
    if key is not None and labels != section4_count(*key):
        problems.append(f"{key}: graph_dim_labels {labels!r} != family count {section4_count(*key)}")
    if gram is not None and gram != labels:
        problems.append(f"{key}: graph_dim_gram {gram!r} != graph_dim_labels {labels!r}")
    if require_gram and gram is None:
        problems.append(f"{key}: no full Gram cross-check")
    return problems


def _point(report: dict):
    params = report.get("params") if isinstance(report, dict) else None
    try:
        return tuple(int(params[k]) for k in ("p", "y", "h", "d"))
    except (TypeError, KeyError, ValueError):
        return None


def gate(exit_code: int, stdout: str, expected: list[tuple], require_gram: bool) -> tuple[int, int, list[str]]:
    """Check one CLI run. Returns (attempted, failed, problems).

    Every expected point is attempted. A point fails when the run exited
    non-zero, its report is missing or duplicated, or check_report finds a
    violation. A report for an unexpected point counts as one more failed
    attempt.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        reports = parse_reports(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"unparseable output: {exc}")
        reports = []
    by_point: dict = {}
    unexpected = 0
    for report in reports:
        key = _point(report)
        if key in expected and key not in by_point:
            by_point[key] = report
        else:
            unexpected += 1
            problems.append(f"{key}: unexpected or duplicate report")
    failed = unexpected
    for key in expected:
        if key not in by_point:
            problems.append(f"{key}: no report")
            failed += 1
            continue
        point_problems = check_report(by_point[key], require_gram)
        problems.extend(point_problems)
        if point_problems or exit_code != 0:
            failed += 1
    return len(expected) + unexpected, failed, problems
