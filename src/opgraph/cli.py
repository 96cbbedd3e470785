"""Command-line driver: verify / sweep / demo with JSON and CSV reports.

Exit codes: 0 = all hard checks passed, 1 = a mathematical check failed,
2 = usage or parameter error. Hard checks are the anticlique verdict,
agreement of the two dimension oracles over every generator, and
max_residual <= --tol-abs; a mismatch between computed dimension and the
claimed closed form is reported via ``formula_match`` but is never fatal.
A failed anticlique verdict, or else a residual above --tol-abs, also
prints one line to stderr naming the generator's word
X^kx Z^kz (x) X^kx' Z^kz' as (kx, kz, kx', kz') and the code basis vectors
where the residual peaks; oracles that disagree print one line giving both
dimensions.

CSV columns (fixed order):
    construction,n,p,y,h,d,space_dim,code_dim,graph_dim_labels,
    graph_dim_gram,paper_claimed_dim,formula_match,anticlique,max_residual,
    knill_max,commutative_max,runtime_ms
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .constructions import (
    Section4Params,
    baseline_bounds,
    build_remark2,
    build_section2,
    build_section3,
    build_section4,
    claimed_dim_remark2,
    claimed_dim_section2,
    claimed_dim_section3,
    claimed_dim_section4,
    enumerate_section4_params,
)
from .graph import graph_dim, is_anticlique
from .linalg import DEFAULT_TOL, Tolerance
from .weyl import weyl_monomial

CSV_COLUMNS = [
    "construction",
    "n",
    "p",
    "y",
    "h",
    "d",
    "space_dim",
    "code_dim",
    "graph_dim_labels",
    "graph_dim_gram",
    "paper_claimed_dim",
    "formula_match",
    "anticlique",
    "max_residual",
    "knill_max",
    "commutative_max",
    "runtime_ms",
]


# the construction flags each construction reads, keyed by the parser's
# construction choices; setting one that it does not read is an error, never
# ignored
READS = {
    "section2": (),
    "section3": ("--n",),
    "section4": ("--p", "--y", "--h", "--d"),
    "remark2": ("--n",),
}
SWEEP_READS = {"section3": ("--n",), "section4": ("--n-max",)}


class UsageError(Exception):
    pass


def _read(construction: str, args, reads: dict[str, tuple[str, ...]], requires: str | None = None) -> dict:
    """The values of the flags of ``reads`` that the construction reads,
    keyed by argparse destination in ``reads`` order. Raise UsageError when
    args sets a flag that the construction does not read (a flag is set when
    its value is not the parser's default, None), or leaves one that it reads
    unset; the second message is ``requires``, by default
    "<construction> requires <its flags>"."""
    dests = {flag: flag[2:].replace("-", "_") for flag in sum(reads.values(), ())}
    for flag, dest in dests.items():
        if flag not in reads[construction] and getattr(args, dest) is not None:
            raise UsageError(f"{construction} does not read {flag}")
    values = {dests[flag]: getattr(args, dests[flag]) for flag in reads[construction]}
    if None in values.values():
        raise UsageError(requires or f"{construction} requires {' '.join(reads[construction])}")
    return values


def _build(construction: str, values: dict) -> tuple:
    """Build one point from the values of the flags its construction reads
    (see READS and _read). Returns (graph, code, params_echo, claimed_dim)."""
    if construction == "section2":
        return *build_section2(), {}, claimed_dim_section2()
    if construction == "section4":
        params = Section4Params(**values)
        return *build_section4(params), {**values, "n": params.n}, claimed_dim_section4(params)
    if construction == "section3":
        return *build_section3(values["n"]), values, claimed_dim_section3(values["n"])
    # remark2, the one construction left among the parser's choices
    return *build_remark2(values["n"]), values, claimed_dim_remark2(values["n"])


def run_verification(construction: str, values: dict, tol: Tolerance, deterministic: bool) -> tuple[dict, bool]:
    """Build one point from its flag values (see _build), run both oracles
    and the anticlique check at tolerance ``tol``, and assemble the report;
    ``deterministic`` zeroes its runtime_ms. Returns (report,
    hard_checks_passed)."""
    started = time.perf_counter()
    g, code, params_echo, claimed = _build(construction, values)
    # one call per oracle, so a trace times each on its own; the Gram
    # oracle also realizes the graph's factors, which the verdict
    # then reuses, so that cost shows in the Gram oracle's time
    dim_labels = graph_dim(g, "labels")
    dim_gram = graph_dim(g, "gram", tol)
    report_ac = is_anticlique(g, code, tol)
    if not report_ac.verdict or report_ac.residual > tol.absolute:
        at, l, k = report_ac.worst
        names = code.basis_names
        failed = "anticlique fails" if not report_ac.verdict else f"max_residual exceeds --tol-abs {tol.absolute:g}"
        print(
            f"{failed} at generator {at}, word {tuple(g.words_at(at).tolist())}: entry "
            f"({names[l]}, {names[k]}) deviates from c_V * I by {report_ac.residual:.3e}",
            file=sys.stderr,
        )
    if dim_labels != dim_gram:
        print(f"dimension oracles disagree: labels {dim_labels}, gram {dim_gram}", file=sys.stderr)
    bounds = baseline_bounds(g.space_dim, code.code_dim)

    runtime_ms = 0 if deterministic else int((time.perf_counter() - started) * 1000)
    report = {
        "schema": 1,
        "construction": construction,
        "params": params_echo,
        "space_dim": g.space_dim,
        "code_dim": code.code_dim,
        "graph_dim_labels": dim_labels,
        "graph_dim_gram": dim_gram,
        "paper_claimed_dim": claimed,
        "formula_match": dim_labels == claimed,
        "anticlique": report_ac.verdict,
        "max_residual": report_ac.residual,
        "bounds": bounds,
        "tolerance": {"absolute": tol.absolute, "relative": tol.relative},
        "runtime_ms": runtime_ms,
        "tool_version": __version__,
    }
    hard_ok = report_ac.verdict and dim_labels == dim_gram and report_ac.residual <= tol.absolute
    return report, hard_ok


def _print_report_text(report: dict, hard_ok: bool) -> None:
    params = ", ".join(f"{k}={v}" for k, v in report["params"].items())
    print(f"construction: {report['construction']}" + (f" ({params})" if params else ""))
    for key in (
        "space_dim",
        "code_dim",
        "graph_dim_labels",
        "graph_dim_gram",
        "paper_claimed_dim",
        "formula_match",
        "anticlique",
        "max_residual",
        "bounds",
    ):
        print(f"  {key}: {report[key]}")
    print(f"hard checks: {'pass' if hard_ok else 'FAIL'}")


def cmd_verify(args) -> int:
    # both before the build, which may take long or fail to allocate
    tol = Tolerance(absolute=args.tol_abs, relative=args.tol_rel)
    values = _read(args.construction, args, READS)
    report, hard_ok = run_verification(args.construction, values, tol, args.deterministic)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_report_text(report, hard_ok)
    return 0 if hard_ok else 1


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected A..B") from exc


def cmd_sweep(args) -> int:
    construction = args.construction
    usage = {"section3": "--n A..B", "section4": "--n-max"}[construction]
    values = _read(construction, args, SWEEP_READS, f"sweep {construction} requires {usage}")
    if construction == "section3":
        points = [{"n": n} for n in _parse_range(values["n"])]
    else:
        # a point's fields p, y, h, d are the flags verify section4 reads
        points = [vars(q) for q in enumerate_section4_params(values["n_max"])]
    if not points:
        raise UsageError("empty parameter range")
    # before the first build
    tol = Tolerance(absolute=args.tol_abs, relative=args.tol_rel)
    all_ok = True
    writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS, restval="", extrasaction="ignore")
    for index, point in enumerate(points):
        report, hard_ok = run_verification(construction, point, tol, args.deterministic)
        all_ok = all_ok and hard_ok
        if args.format == "jsonl":
            print(json.dumps(report))
            continue
        # the header goes out with the first row, so a point rejected before
        # it leaves stdout empty
        if index == 0:
            writer.writeheader()
        writer.writerow({**report, **report["params"], **report["bounds"]})
    return 0 if all_ok else 1


def cmd_demo(args) -> int:
    tol = Tolerance(absolute=args.tol_abs)
    # before the build, which may take long or fail to allocate
    if args.trials < 0:
        raise UsageError("--trials must be >= 0")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    g, code, _, _ = _build(args.construction, _read(args.construction, args, READS))
    rng = np.random.default_rng(args.seed)
    # words and code both in the Fourier product basis
    s = code.fourier
    worst = 0.0
    for trial in range(args.trials):
        gen_idx = int(rng.integers(g.n_generators))
        word_idx = int(rng.integers(code.code_dim))
        # realize only the sampled generator, one factor per side with
        # V[r[c], c] = v[c], and apply it to the codeword, viewed as an
        # n x n array, as a scatter; graphs can be large
        word = g.words_at(gen_idx)
        (row_l, row_r), (val_l, val_r) = weyl_monomial(word[0::2], word[1::2], g.n)
        image = np.zeros((g.n, g.n), dtype=complex)
        image[row_l[:, None], row_r] = val_l[:, None] * val_r * s[:, word_idx].reshape(g.n, g.n)
        column = s.conj().T @ image.ravel()
        cross = np.abs(column)
        cross[word_idx] = 0.0
        cross_talk = float(cross.max())
        worst = max(worst, cross_talk)
        c_v = column[word_idx]
        print(
            f"trial {trial}: generator {gen_idx}, codeword {code.basis_names[word_idx]}: "
            f"cross-talk {cross_talk:.3e}, c_V {c_v.real:+.6f}{c_v.imag:+.6f}j"
        )
    ok = worst < tol.absolute
    print(f"max cross-talk over {args.trials} trials: {worst:.3e} -> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _add_tol_abs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.absolute,
                        help="absolute tolerance for residuals (default: %(default)g)")


def _add_check_flags(parser: argparse.ArgumentParser) -> None:
    _add_tol_abs(parser)
    parser.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.relative,
                        help="relative eigenvalue cutoff for ranks (default: %(default)g)")
    parser.add_argument("--deterministic", action="store_true",
                        help="zero runtime_ms so repeated runs are byte-identical")


def _add_construction_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="space factor dimension")
    parser.add_argument("--p", type=int, default=None, help="subgroup order (n = p*y)")
    parser.add_argument("--y", type=int, default=None, help="subgroup index (n = p*y)")
    parser.add_argument("--h", type=int, default=None, help="shift step minus one")
    parser.add_argument("--d", type=int, default=None, help="code dimension")


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("construction", choices=list(READS))
    _add_construction_params(parser)
    _add_check_flags(parser)
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("construction", choices=list(SWEEP_READS))
    parser.add_argument("--n", default=None, help="inclusive range A..B (section3)")
    parser.add_argument("--n-max", type=int, default=None,
                        help="enumerate all valid (p,y,h,d) with p*y <= n-max (section4)")
    parser.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    _add_check_flags(parser)


def _demo_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--construction", required=True, choices=list(READS))
    _add_construction_params(parser)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    _add_tol_abs(parser)


# name -> (function, help, flag adder), in the order help lists them
COMMANDS = {
    "verify": (cmd_verify, "verify one construction and print a report", _verify_flags),
    "sweep": (cmd_sweep, "verify a parameter range, one report row per point", _sweep_flags),
    "demo": (cmd_demo, "seeded random error-word distinguishability transcript", _demo_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every command's, or with ``command`` only that
    one's. A one-command parser gives the same help, usage lines and errors
    for argv that starts with its command; its usage still lists all three."""
    parser = argparse.ArgumentParser(
        prog="opgraph",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # argparse writes the usage line from the registered choices, so a
    # one-command parser names all three; the full parser keeps the default,
    # which its invalid-choice error reads as "argument command"
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        _, help_text, add_flags = COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input from any of them, or a point too large to
    allocate, prints ``error: ...`` to stderr and exits 2. Only the named
    command's flags are built: the top level's optionals take no value, so
    a first token that names a command is always the subcommand."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (UsageError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
