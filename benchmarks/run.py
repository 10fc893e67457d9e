"""psusyent benchmark: closed-loop CLI workloads, timed end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload state-mix --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 35 --trace 1

Each workload runs in a fresh child interpreter (benchmarks/child.py) with
BLAS/OpenMP threads pinned to one, importing psusyent from ``src/`` of this
checkout.  One client sends the workload's ops one after another, each
waiting for the previous reply.  Every op's output is checked here, from
outside, by benchmarks/checks.py.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json, with
op times scaled to a reference host speed (calibrate.py; the times as
measured are printed beside them).  ``--trace 1`` runs each op both
untraced and traced and prints the per-layer metrics, the tracing overhead
and the layer-size probe.  Each metric is printed on its own line with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import (  # noqa: E402
    check_grid_csv,
    check_state,
    check_verify,
    grid_row_count,
    verify_checks,
)
from calibrate import host_factors  # noqa: E402
from workloads import GRID, STATE, WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_GRACE_S = 120.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _write_inputs(work: Path, spec: dict, files: dict[str, dict]) -> Path:
    for path, obj in files.items():
        Path(path).write_text(json.dumps(obj), encoding="utf-8")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return spec_path


def _start_child(spec_path: Path) -> tuple[subprocess.Popen, float]:
    """Start the child; return it and the time at which it signalled ready."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"child did not start: {line.strip()!r} {err.strip()[-500:]}")
    return proc, ready


def run_child(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set up SETUP_REPEATS times, running the ops after the middle set-up.

    Returns (ops, child result, set-up times in seconds).  One set-up is
    input generation plus child start and ``import psusyent.cli``, up to the
    child's ready signal before its first op.  Set-ups before and after the
    run spread the samples over the run's host conditions.
    """
    setups, result = [], None
    for k in range(SETUP_REPEATS):
        running = k == SETUP_REPEATS // 2
        t0 = time.perf_counter()
        ops, files = generate(workload, seed, str(work))
        spec = {"src": str(ROOT / "src"), "ops": ops, "mode": "run" if running else "setup",
                "seconds": seconds, "trace": trace, "records": str(work / "records.jsonl")}
        proc, ready = _start_child(_write_inputs(work, spec, files))
        setups.append(ready - t0)
        try:
            out, err = proc.communicate(timeout=(seconds + CHILD_GRACE_S) if running else CHILD_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {err.strip()[-500:]}")
        if running:
            result = json.loads(out.strip().split("\n")[-1])
    with open(work / "records.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    result["untraced"] = [r for r in records if not r["traced"]]
    result["traced"] = [r for r in records if r["traced"]]
    return ops, result, setups


def evaluate(workload: str, ops: list[list[str]], records: list[dict], seed: int):
    """Check every op record; return (reasons, output rows, nan rows) per record.

    A reason is None for a correct op.  Grid files are read once per path:
    every op that wrote a path must have produced the bytes it holds.
    """
    files: dict[str, tuple[str, str | None, int]] = {}
    reasons, rows, nan_rows = [], [], []
    for rec in records:
        argv = ops[rec["op"]]
        reason, n_rows, n_nan = None, 0, 0
        if rec["exc"] is not None:
            reason = f"raised {rec['exc']}"
        elif workload == GRID:
            path = argv[argv.index("--out") + 1]
            if path not in files:
                data = Path(path).read_bytes()
                files[path] = (hashlib.sha256(data).hexdigest(),
                               check_grid_csv(argv, data, seed * 100003 + rec["op"]),
                               data.count(b",nan,nan,nan\n"))
            sha, file_reason, n_nan = files[path]
            if rec["rc"] != 0:
                reason = f"grid exit {rec['rc']}: {rec['err']!r}"
            elif rec.get("sha256") != sha:
                reason = "CSV bytes differ between calls with the same argv"
            else:
                reason, n_rows = file_reason, grid_row_count(argv)
        elif workload == STATE:
            reason = f"state exit {rec['rc']}: {rec['err']!r}" if rec["rc"] != 0 else check_state(argv, rec["out"])
            n_rows = 1
        else:
            reason = check_verify(rec["rc"], rec["out"])
            n_rows = verify_checks(rec["out"])
        reasons.append(reason)
        rows.append(n_rows)
        nan_rows.append(n_nan)
    return reasons, rows, nan_rows


def end_to_end(records: list[dict], rows: list[int], failed: int, attempted: int,
               setups: list[float], rss_kb: int, factors: list[float]) -> dict[str, float]:
    """End-to-end metrics; each op's time is divided by its host factor.

    A host factor is above 1 where the host ran slower than the reference
    (see calibrate.py).  Set-up time is reported as measured.
    """
    lat = [r["ms"] / f for r, f in zip(records, factors)]
    busy_s = sum(lat) / 1e3
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "ops_per_s": len(lat) / busy_s,
        "rows_per_s": sum(rows) / busy_s,
        "peak_rss_mb": rss_kb / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def tail_p99(records: list[dict]) -> str:
    """p99 latency where at least ten samples lie beyond it.

    Only state-mix completes enough ops for that.  On the other workloads
    p99 spreads too widely from run to run on a shared host to be gated,
    so it is reported here and not gated.
    """
    lat = [r["ms"] for r in records]
    if len(lat) < 1000:
        return f"{len(lat)} ops, too few for a p99 with ten samples beyond it"
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98]
    return f"latency_p99_ms {p99:.6g} ms over {len(lat)} ops"


def per_layer(name: str, spans: dict, n_ops: int, extra: dict) -> float:
    """Value of one per-layer metric ``<span>.<stat>`` or ``<span>.errors.<Type>``.

    Counts, times and computed sizes are per op; ``peak_mb`` is the largest
    peak seen.  Names outside the spans (grid.*, trace.*) come from ``extra``.
    """
    if name in extra:
        return extra[name]
    if ".errors." in name:
        span, err_type = name.split(".errors.")
        return spans.get(span, {}).get("errors", {}).get(err_type, 0) / n_ops
    span, stat = name.rsplit(".", 1)
    s = spans.get(span, {"calls": 0, "busy_ns": 0, "self_ns": 0, "extra": {}})
    if stat == "calls":
        return s["calls"] / n_ops
    if stat in ("busy_ms", "wall_ms"):
        return s["busy_ns"] / 1e6 / n_ops
    if stat == "self_ms":
        return s["self_ns"] / 1e6 / n_ops
    if stat == "peak_mb":
        return s["extra"].get("peak_bytes", 0) / 2**20
    if stat in ("dense_bytes", "flops"):
        return s["extra"].get(stat, 0) / n_ops
    raise BenchError(f"BENCHMARK.json names unknown per-layer metric {name!r}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "psusyent").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, metrics: list[dict]):
    """Run one workload; print its metric lines; return (attempted, failed, values)."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work"))
    try:
        ops, result, setups = run_child(workload, seed, seconds, trace, work)
        records = result["untraced"] + result["traced"]
        reasons, rows, nan_rows = evaluate(workload, ops, records, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in reasons if r is not None]
    attempted, failed = len(records), len(failures)
    untraced = result["untraced"]
    if trace:
        traced = result["traced"]
        n, offset = len(traced), len(untraced)
        extra = {
            "trace.overhead_frac": sum(r["ms"] for r in traced) / sum(r["ms"] for r in untraced) - 1.0,
            "grid.rows": sum(rows[offset:]) / n if workload == GRID else 0.0,
            "grid.nan_rows": sum(nan_rows[offset:]) / n,
        }
        values = {m["name"]: per_layer(m["name"], result["spans"], n, extra) for m in metrics}
        if not result["restored"]:
            failures.append("a traced name was not restored after tracing")
    else:
        factors = host_factors([r["t"] for r in untraced], result["calibration"])
        host_factor = statistics.median(factors)
        e2e = end_to_end(untraced, rows[: len(untraced)], failed, attempted, setups,
                         result["peak_rss_kb"], factors)
        raw = end_to_end(untraced, rows[: len(untraced)], failed, attempted, setups,
                         result["peak_rss_kb"], [1.0] * len(untraced))
        values = {m["name"]: e2e[m["name"]] for m in metrics}

    print(f"# {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}; "
          f"{attempted} ops attempted, {failed} failed; {len(untraced)} untraced latency samples")
    for m in metrics:
        print(f"{workload}  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    if not trace:
        print(f"# {workload}: median host factor {host_factor:.4f}; as measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k.startswith(("latency", "ops", "rows"))))
        print(f"# {workload}: {tail_p99(untraced)}, as measured (not gated)")
    for reason in failures[:5]:
        print(f"# FAILED: {reason}", file=sys.stderr)
    env = dict(result["env"], nproc=os.cpu_count(), blas_threads=child_env()["OPENBLAS_NUM_THREADS"],
               commit=_commit(), src_sha256=_src_digest(), setup_samples_s=setups)
    print(json.dumps({"workload": workload, "env": env}))
    if trace:
        errors = {f"{span}.errors.{t}": c / len(result["traced"])
                  for span, s in result["spans"].items() for t, c in s["errors"].items()}
        print(json.dumps({"workload": workload, "span_errors_per_op": errors}))
        print(json.dumps({"workload": workload, "probe": result["probe"]}))
    return attempted, len(failures), values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if not (ROOT / "src" / "psusyent" / "cli.py").is_file():
            raise BenchError(f"no psusyent sources under {ROOT / 'src'}")
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        metrics = bench["per_layer" if args.trace else "end_to_end"]
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        values: dict[str, dict] = {}
        for workload in workloads:
            a, f, v = run_workload(workload, args.seed, args.seconds, bool(args.trace), metrics)
            attempted, failed = attempted + a, failed + f
            prefix = f"{workload}." if args.workload == "all" else ""
            for m in metrics:
                values[prefix + m["name"]] = {"value": v[m["name"]], "unit": m["unit"]}
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
