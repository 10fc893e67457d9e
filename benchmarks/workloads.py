"""Seeded workload generators for the psusyent benchmark.

Each workload is the op stream of one closed-loop client, as the argv lists
it passes to ``psusyent.cli.main`` plus the profile files those argv name.
The same (workload, seed, workdir) always gives the same stream.  A run
cycles through the stream if it completes more ops than it holds.

Why each workload exists:

* ``grid-sweep`` is the figure path: closed-form scalar work per CSV row
  (optimal-constant and z-dependent-exact concurrence, the weight series,
  EoF, CSV formatting).  It builds no vector or operator.
* ``state-mix`` inspects single states: 80% small queries (p 1..4,
  |z| <= 3), where per-call CLI work sets the median, and 20% large
  queries (p 5..8, |z| 3.5..5.25), where the dense annihilator sets the
  tail.  |z| stops at 5.25 because default truncation raises
  TruncationError from |z| ~ 5.45 (p=1) up.
* ``verify-suite`` is the only path through the algebra checks, the
  Hamiltonian spectrum and the basis/beta reconstructions: many small
  dense operators.  k <= 4 keeps the suites' internal order caps
  (min(p_max, 4), min(p_max, 5)) from binding.
"""

from __future__ import annotations

import math
import os
import random

GRID = "grid-sweep"
STATE = "state-mix"
VERIFY = "verify-suite"
WORKLOADS = (GRID, STATE, VERIFY)

_STREAM_LEN = {GRID: 2048, STATE: 8000, VERIFY: 1024}
# Every GRID_REPEAT-th grid op re-sends the argv of an earlier op, so the
# CSV bytes of repeated calls can be compared.
GRID_REPEAT = 8
Z_STEP = "0.02"
PROFILES_PER_P = 6


def _num(x: float) -> str:
    # fixed-point, so argparse reads a negative value as a number, not an option
    return f"{x:.15f}"


def _grid_specs(rng: random.Random):
    """Endless grid specs, in passes that each hold every p range once per kind.

    Passes keep the mix of sizes the same from seed to seed; the seed picks
    the order, |z| range and m.
    """
    ranges = [(lo, hi) for lo in range(1, 11) for hi in range(lo, 11)]
    while True:
        one_pass = [(r, kind) for r in ranges for kind in ("optimal-constant", "z-dependent-exact")]
        rng.shuffle(one_pass)
        yield from one_pass


def _grid_stream(rng: random.Random, workdir: str) -> list[list[str]]:
    ops: list[list[str]] = []
    specs = _grid_specs(rng)
    for i in range(_STREAM_LEN[GRID]):
        if i % GRID_REPEAT == GRID_REPEAT - 1:
            ops.append(list(ops[i - GRID_REPEAT // 2]))
            continue
        (p_min, p_max), kind = next(specs)
        argv = [
            "grid",
            "--p-min", str(p_min),
            "--p-max", str(p_max),
            "--z-max", f"{rng.uniform(2.0, 6.0):.2f}",
            "--z-step", Z_STEP,
            "--profile-kind", kind,
        ]
        if kind == "z-dependent-exact":
            argv += ["--m", str(rng.randint(1, 2))]
        argv += ["--out", os.path.join(workdir, f"grid_{i}.csv")]
        ops.append(argv)
    return ops


def _profiles(rng: random.Random, workdir: str) -> tuple[dict[str, dict], dict[int, list[str]]]:
    files: dict[str, dict] = {}
    by_p: dict[int, list[str]] = {}
    for p in range(1, 9):
        for j in range(PROFILES_PER_P):
            # alpha_p is kept away from zero so every branch of the state is populated
            alpha_p = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
            if j < PROFILES_PER_P // 2:
                alphas = [rng.uniform(-2.0, 2.0) for _ in range(p)] + [alpha_p]
                obj = {"p": p, "kind": "explicit", "alphas": alphas}
            else:
                obj = {"p": p, "kind": "optimal-constant", "alpha_p": alpha_p}
            path = os.path.join(workdir, f"profile_p{p}_{j}.json")
            files[path] = obj
            by_p.setdefault(p, []).append(path)
    return files, by_p


def _state_stream(rng: random.Random, by_p: dict[int, list[str]]) -> list[list[str]]:
    ops = []
    # exactly one large query in every block of five, at a seeded position
    for i in range(_STREAM_LEN[STATE]):
        if i % 5 == 0:
            large_at = i + rng.randrange(5)
        if i == large_at:
            p, r = rng.randint(5, 8), rng.uniform(3.5, 5.25)
        else:
            p, r = rng.randint(1, 4), rng.uniform(0.0, 3.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ops.append([
            "state",
            "--p", str(p),
            "--z-re", _num(r * math.cos(theta)),
            "--z-im", _num(r * math.sin(theta)),
            "--profile", rng.choice(by_p[p]),
        ])
    return ops


def _verify_stream(rng: random.Random) -> list[list[str]]:
    # each block of four holds every --p-max in 1..4 once, in seeded order
    ops = []
    while len(ops) < _STREAM_LEN[VERIFY]:
        block = [1, 2, 3, 4]
        rng.shuffle(block)
        ops += [["verify", "--p-max", str(k)] for k in block]
    return ops


def generate(workload: str, seed: int, workdir: str) -> tuple[list[list[str]], dict[str, dict]]:
    """Op stream and profile files (path -> JSON object) for one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == GRID:
        return _grid_stream(rng, workdir), {}
    if workload == STATE:
        files, by_p = _profiles(rng, workdir)
        return _state_stream(rng, by_p), files
    return _verify_stream(rng), {}
