"""opgraph benchmark: three fixed CLI workloads in fresh processes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads in turn, each printing its own
block and result line.

Each sample is a fresh child process (child.py) that imports opgraph, makes
its first threaded BLAS/LAPACK call, and calls ``opgraph.cli.main(argv)``
with stdout captured. Samples run one after another (a closed loop with one
client), as many as fit in ``--seconds`` and at least one. Every report is
checked by gate.py. ``--seed`` is passed to the CLI as ``--subsample-seed``
while the CLI still offers that flag; the parameter points are fixed.

BENCHMARK.json gates ref-fullgram and n16-point only; sweep-n12 runs here on
request. With three gated workloads the run budget caps a run near 35 s,
which leaves one or two 13-16 s sweep samples per run, and on a 2-core
shared machine ten such runs spread by 31 % (quartile distance over
median). Two workloads allow 50 s runs, and between them they still cover
every layer the traced run reports.

--trace 0 prints the end-to-end metrics, medians over the samples:
  wall_s       time of cli.main(argv) after set-up
  peak_rss_mb  the child's peak resident set size
  setup_s      child start until opgraph is imported and the first threaded
               BLAS/LAPACK call has returned; taken from set-up-only
               children and from every workload child
Points that fail the gate, over points attempted, are printed as
fail_ratio and returned as "failed" and "attempted".

--trace 1 alternates an untraced and a traced child and prints the
per-layer metrics of spans.py (medians for times; counts must repeat
exactly between traced children) plus trace.wall_s and trace.overhead_s,
the traced minus the untraced wall_s. The self times of each traced run
must sum to its wall_s. Spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Every run also writes its samples and an
environment record (numpy, BLAS/LAPACK, BLAS threads in use, nproc, Python,
git commit or source digest) to perfbench/out/. OpenBLAS is limited to
nproc threads. Exit code 2, with no result, when the checkout holds no
opgraph source or a child cannot start the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
# Set-up-only children per --trace 0 run, after the discarded first child.
SETUP_PROBES = 7

WORKLOADS = {
    "ref-fullgram": {
        "argv": ["verify", "section4", "--p", "2", "--y", "4", "--h", "1", "--d", "2", "--json", "--deterministic"],
        "optional": [["--full-gram"]],
        "points": [(2, 4, 1, 2)],
        "require_gram": True,
    },
    "sweep-n12": {
        "argv": ["sweep", "section4", "--n-max", "12", "--format", "jsonl", "--deterministic"],
        "optional": [],
        "points": gate.section4_points(12),
        "require_gram": False,
    },
    "n16-point": {
        "argv": ["verify", "section4", "--p", "2", "--y", "8", "--h", "1", "--d", "4", "--json", "--deterministic"],
        "optional": [],
        "points": [(2, 8, 1, 4)],
        "require_gram": False,
    },
}


class ChildError(Exception):
    """A child process could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(nproc())
    return env


def run_child(cfg: dict, deadline: float) -> dict:
    """Start child.py with ``cfg`` and return its result. The child is killed
    and waited for if it outlives ``deadline`` (a time.monotonic value)."""
    cfg = {**cfg, "root": str(ROOT), "spawned": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "nproc": nproc()}


def describe(name: str, values: list[float], unit: str) -> str:
    return (
        f"  {name:<30} {statistics.median(values):>14.6g} {unit:<6} "
        f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"
    )


class Run:
    """One benchmark run: samples, gate tallies and problems."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: list[dict] = []

    def setup_probe(self) -> dict:
        return run_child({"mode": "setup"}, self.deadline)

    def sample(self, traced: bool) -> None:
        run_id = f"{self.name}-seed{self.seed}-{len(self.samples)}"
        cfg = {
            "mode": "run",
            "argv": self.workload["argv"],
            "optional": self.workload["optional"] + [["--subsample-seed", str(self.seed)]],
            "trace": traced,
            "run_id": run_id,
        }
        result = run_child(cfg, self.deadline)
        attempted, failed, problems = gate.gate(
            result["exit_code"], result.pop("stdout"), self.workload["points"], self.workload["require_gram"]
        )
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(f"{run_id}: {p}" for p in problems)
        result.update(run_id=run_id, traced=traced, attempted=attempted, failed=failed)
        self.samples.append(result)

    def loop(self, step) -> None:
        """Call ``step`` at least once, and again while the next call, taking
        as long as the last one, would end within --seconds of the first call
        and before the hard limit."""
        start = time.monotonic()
        while True:
            before = time.monotonic()
            step()
            now = time.monotonic()
            expected_end = now + (now - before)
            if expected_end - start > self.seconds or expected_end > self.deadline:
                return

    def end_to_end(self) -> dict:
        setups = [self.setup_probe()["setup_s"] for _ in range(SETUP_PROBES)]
        self.loop(lambda: self.sample(traced=False))
        setups += [s["setup_s"] for s in self.samples]
        walls = [s["wall_s"] for s in self.samples]
        rss = [s["peak_rss_mb"] for s in self.samples]
        print(describe("wall_s", walls, "s"))
        print(describe("peak_rss_mb", rss, "MB"))
        print(describe("setup_s", setups, "s"))
        return {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    def per_layer(self) -> dict:
        self.loop(lambda: (self.sample(traced=False), self.sample(traced=True)))
        traced = [s for s in self.samples if s["traced"]]
        untraced = [s for s in self.samples if not s["traced"]]
        per_run = []
        for s in traced:
            values = spans.layer_metrics(s["spans"])
            total = sum(spans.self_times(s["spans"]).values())
            if abs(total - s["wall_s"]) > 1e-3 * s["wall_s"] + 1e-3:
                self.problems.append(f"{s['run_id']}: self times sum to {total:.6f} s, wall_s is {s['wall_s']:.6f} s")
            per_run.append(values)
        for name in spans.COUNT_METRICS:
            seen = {values[name] for values in per_run}
            if len(seen) > 1:
                self.problems.append(f"{name} differs between traced runs: {sorted(seen)}")
        units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
        units["graph.gram_oracle.coverage"] = "ratio"
        metrics = {}
        for name, unit in units.items():
            values = [v[name] for v in per_run]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(describe(name, values, unit))
        traced_wall = statistics.median([s["wall_s"] for s in traced])
        overhead = traced_wall - statistics.median([s["wall_s"] for s in untraced])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(describe("trace.wall_s", [s["wall_s"] for s in traced], "s"))
        print(f"  {'trace.overhead_s':<30} {overhead:>14.6g} s")
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{self.name}-seed{self.seed}.json"
        span_file.write_text(json.dumps([sp for s in traced for sp in s["spans"]]))
        print(f"  spans written to {span_file.relative_to(ROOT)}")
        return metrics


def run_workload(name: str, seed: int, seconds: int, trace: int) -> bool:
    """Run one workload, print its block and its result line, and write its
    record. Returns False, with no result, when a child fails to start."""
    run = Run(name, seed, seconds, bool(trace))
    try:
        # the first child also warms the page cache and writes bytecode, so
        # its set-up time is not kept
        env = {**run.setup_probe()["env"], **source_record()}
        print(f"environment: {json.dumps(env)}")
        print(f"workload {name}, seed {seed}, trace {trace}:")
        metrics = run.per_layer() if run.trace else run.end_to_end()
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    print(f"  {'fail_ratio':<30} {run.failed / run.attempted:>14.6g} ratio  ({run.failed} of {run.attempted} points)")
    print(f"  argv: {' '.join(run.samples[0]['argv'])}")
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in run.samples],
        "problems": run.problems,
        "metrics": metrics,
    }
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn, each with its own result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opgraph" / "cli.py").is_file():
        print(f"error: no opgraph source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if not run_workload(name, args.seed, args.seconds, args.trace):
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
