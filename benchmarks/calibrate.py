"""Host-speed calibration kernel.

Shared hosts change speed by tens of percent over seconds to minutes, for
every process on a core at once, so raw wall times from runs minutes apart
differ more than any change worth gating.  The workload child therefore
times this fixed kernel every CALIBRATION_PERIOD_S between ops, and run.py
divides each op's time by its host factor: the median kernel time within
WINDOW_S of the op, over REFERENCE_MS.  Op times are thus reported as
milliseconds on a host where the kernel takes REFERENCE_MS.

The kernel uses only the stdlib and numpy, in the same mix of work as a CLI
call (argparse, json, small dense numpy calls, scalar float loops), and does
not touch psusyent, so no change to the program can change it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import time

import numpy as np

CALIBRATION_PERIOD_S = 0.2
WINDOW_S = 1.0
# Median kernel time, in ms, on a 2-core x86-64 VM (Python 3.11, numpy 2.4).
REFERENCE_MS = 2.0

_RNG = np.random.default_rng(20260810)
_TALL = _RNG.standard_normal((40, 5))
_SMALL = _RNG.standard_normal((4, 4))
_EYE = np.eye(8)


def kernel() -> float:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        cmd = sub.add_parser(name)
        for j in range(5):
            cmd.add_argument(f"--x{j}", type=float, default=0.0)
    args = parser.parse_args(["b", "--x1", "2.5"])
    json.dumps({"v": [args.x1, args.x2], "w": {"k": 1.0}}, indent=2)
    total = 0.0
    for _ in range(8):
        np.kron(_EYE, _SMALL)
        np.linalg.svd(_TALL, compute_uv=False)
        np.linalg.eigvals(_SMALL)
        total += float(np.linalg.norm(np.cumprod(np.full(40, 0.5 + 0.1j))))
    for i in range(1000):
        total += math.sqrt(i) / (1.0 + i)
    return total


def timed_kernel_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def host_factors(op_starts: list[float], samples: list[tuple[float, float]]) -> list[float]:
    """Host factor of each op: median kernel ms within WINDOW_S, over REFERENCE_MS.

    ``samples`` are (start time, kernel ms) in time order, on the clock of
    ``op_starts``; an op with no sample in its window uses all of them.
    """
    times = [t for t, _ in samples]
    overall = statistics.median(ms for _, ms in samples)
    factors = []
    for t in op_starts:
        near = samples[bisect.bisect_left(times, t - WINDOW_S):bisect.bisect_right(times, t + WINDOW_S)]
        factors.append((statistics.median(ms for _, ms in near) if near else overall) / REFERENCE_MS)
    return factors
