"""Workload child: one closed-loop client calling ``psusyent.cli.main``.

Usage: ``python3 benchmarks/child.py SPEC.json`` with psusyent importable.
run.py starts it with BLAS/OpenMP threads pinned to one.  The child imports
the CLI, loads its op stream, writes ``ready`` on stdout and then, unless
the spec's mode is ``setup``, calls ``main(argv)`` for each op in turn,
each call starting when the previous one returned, until the spec's
seconds are used.  With ``trace`` each op runs twice, untraced and then with
every layer wrapped in spans, and the layer-size probe runs at the end.
Op records go to the spec's records file, one JSON line each; the last
stdout line is one JSON object with the rest of the result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from calibrate import CALIBRATION_PERIOD_S, timed_kernel_ms


def _call(cli, argv: list[str], op: int, grid: bool) -> dict:
    """Run one op through ``cli.main``, looked up at call time so a tracer sees it."""
    out, err = io.StringIO(), io.StringIO()
    exc_name = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # recorded as a failed op, the loop goes on
            rc, exc_name = None, type(exc).__name__
        ms = (time.perf_counter() - t0) * 1e3
    rec = {"op": op, "t": t0, "ms": ms, "rc": rc, "exc": exc_name,
           "out": out.getvalue(), "err": err.getvalue()[-300:]}
    if grid and rc == 0:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return rec


def _run_ops(cli, ops: list[list[str]], seconds: float, log, tracer=None) -> list[tuple[float, float]]:
    """Closed loop over the op stream for ``seconds``.

    Each op record is written to ``log`` as one JSON line, so the child's
    memory does not grow with the number of ops.  Returns the calibration
    kernel samples (start time, ms), taken between ops every
    CALIBRATION_PERIOD_S.  With a tracer each op runs twice, untraced and
    traced, so that both runs of an op see the same host conditions and
    their time ratio is the tracing overhead.  The order alternates from op
    to op, because the second run of an op finds warmer caches.
    """
    grid = ops[0][0] == "grid"

    def run(op: int, traced: bool) -> None:
        if traced:
            with tracer.installed():
                rec = _call(cli, ops[op], op, grid)
        else:
            rec = _call(cli, ops[op], op, grid)
        rec["traced"] = traced
        log.write(json.dumps(rec) + "\n")

    calibration = []
    deadline = time.perf_counter() + seconds
    next_calibration = 0.0
    i = 0
    while True:
        now = time.perf_counter()
        if now >= next_calibration:
            calibration.append((now, timed_kernel_ms()))
            next_calibration = time.perf_counter() + CALIBRATION_PERIOD_S
        op = i % len(ops)
        if tracer is None:
            run(op, False)
        else:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                run(op, traced)
        i += 1
        if time.perf_counter() >= deadline:
            return calibration


def _os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import numpy as np
    import psusyent
    import psusyent.cli as cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(psusyent.__file__).startswith(src + os.sep):
        print(f"error: imported psusyent from {psusyent.__file__}, not {src}", file=sys.stderr)
        return 2
    ops = spec["ops"]
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    with open(spec["records"], "w", encoding="utf-8") as log:
        if not spec["trace"]:
            result = {"calibration": _run_ops(cli, ops, spec["seconds"], log)}
        else:
            from probe import run_probe
            from spans import Tracer, wrapped_bindings

            before = wrapped_bindings()
            tracer = Tracer()
            _run_ops(cli, ops, spec["seconds"], log, tracer)
            result = {
                "restored": wrapped_bindings() == before,
                "spans": {name: s.to_dict() for name, s in tracer.stats.items()},
                "probe": run_probe(),
            }
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "os_threads": _os_threads(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
