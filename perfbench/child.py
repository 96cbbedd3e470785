"""One benchmark sample, run in a fresh process by run.py.

Usage: python3 child.py '<json config>'

The config holds the checkout root, the parent's CLOCK_MONOTONIC reading
just before it started this process ("spawned"), and the mode:

* "setup": import opgraph, make the first threaded BLAS/LAPACK call, and
  report set-up time plus the environment record.
* "run": the same set-up, then call ``opgraph.cli.main(argv)`` with stdout
  captured; with "trace" set, the public functions of each layer are
  wrapped first (see spans.py).

The result is one JSON object on the last line of this process's stdout.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def first_blas_call(np) -> None:
    """A product and a Hermitian eigensolve large enough to start the BLAS
    thread pool, as the first Gram rank of any CLI run does."""
    a = np.ones((256, 256), dtype=complex)
    np.linalg.eigvalsh(a @ a.conj().T)


def blas_threads():
    """Thread count reported by the OpenBLAS loaded in this process, or None
    when no OpenBLAS with a known query symbol is loaded."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "numpy": np.__version__,
        **blas,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
    }


def has_flag(parser, command: str, flag: str) -> bool:
    """Whether ``opgraph <command>`` still accepts ``flag``."""
    for action in parser._actions:
        choices = getattr(action, "choices", None)
        if isinstance(choices, dict) and command in choices:
            return flag in choices[command]._option_string_actions
    return False


def build_argv(cli, argv: list[str], optional: list[list[str]]) -> list[str]:
    """``argv`` plus each optional flag group whose flag the CLI still offers."""
    parser = cli.build_parser()
    out = list(argv)
    for group in optional:
        if has_flag(parser, argv[0], group[0]):
            out.extend(group)
    return out


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    import numpy as np

    import opgraph
    from opgraph import cli

    first_blas_call(np)
    result = {"setup_s": time.monotonic() - cfg["spawned"]}
    if cfg["mode"] == "setup":
        result["env"] = environment(np)
    else:
        argv = build_argv(cli, cfg["argv"], cfg["optional"])
        tracer = None
        if cfg["trace"]:
            import spans

            tracer = spans.Tracer(cfg["run_id"])
            result["wrapped"] = spans.install(tracer, opgraph)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            started = time.perf_counter()
            try:
                exit_code = cli.main(argv)
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # a crash inside the program is a failed run, not a failed sample
                traceback.print_exc()
                exit_code = -1
            wall_s = time.perf_counter() - started
        result.update(
            argv=argv,
            exit_code=exit_code,
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            stdout=captured.getvalue(),
        )
        if tracer is not None:
            result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
