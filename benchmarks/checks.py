"""Output checks made from outside the program, with the benchmark's own formulas.

Every function returns ``None`` for a correct output or a short reason.

* ``state``: the four concurrence routes agree within ROUTE_TOL and the
  eigenstate residual is at most RESIDUAL_TOL (the acceptance suite's
  bounds), and the record echoes the requested p and z.
* ``grid``: the row layout matches the argv, and a seeded sample of rows is
  recomputed from the closed form C = 2AB / (A^2 + B^2 + defect), with the
  profile's coefficients built from exact integer factorials.  A ``nan``
  row is accepted only where the z-dependent-exact rule has no real
  solution: m outside 1..p-1, z = 0, or a negative bracket (decided in
  exact rational arithmetic).  Repeated argv must give identical bytes.
* ``verify``: exit code 0 and a final PASS line.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

ROUTE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
GRID_TOL = 1e-9
GRID_SAMPLE_ROWS = 24
CSV_HEADER = "p,abs_z,concurrence,one_minus_c,eof"
ROUTES = ("closed-form", "pure-amplitude", "wootters-4x4", "schmidt-oracle")
# psusyent grid's documented defaults, for flags an argv leaves out
GRID_DEFAULTS = {"--p-min": "1", "--p-max": "6", "--z-min": "0.0", "--z-max": "5.0",
                 "--z-step": "0.05", "--profile-kind": "optimal-constant", "--m": "1"}


def flags(argv: list[str]) -> dict[str, str]:
    """The ``--name value`` pairs of a subcommand argv."""
    return dict(zip(argv[1::2], argv[2::2]))


def check_state(argv: list[str], stdout: str) -> str | None:
    args = flags(argv)
    try:
        rec = json.loads(stdout)
        routes = [float(rec["concurrence"][name]) for name in ROUTES]
        residual = float(rec["eigenstate_residual"])
        p, z = rec["p"], complex(*rec["z"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable state record: {type(exc).__name__}"
    if p != int(args["--p"]) or z != complex(float(args["--z-re"]), float(args["--z-im"])):
        return "record does not echo the requested p and z"
    if not all(math.isfinite(c) and 0.0 <= c <= 1.0 for c in routes):
        return "concurrence outside [0, 1]"
    if max(routes) - min(routes) > ROUTE_TOL:
        return f"routes disagree by {max(routes) - min(routes):.3e}"
    if not residual <= RESIDUAL_TOL:
        return f"eigenstate residual {residual:.3e}"
    return None


def _coefficient_weight(p: int, n: int) -> float:
    """(p!)^2 / ((n!)^2 (p-n)!), from exact integers."""
    return math.factorial(p) ** 2 / (math.factorial(n) ** 2 * math.factorial(p - n))


def expected_concurrence(p: int, z_text: str, kind: str, m: int) -> float | None:
    """Closed-form concurrence of one grid row; None where the rule is undefined.

    Both families take alpha_p = 1 and alpha_0 = 1/p,
    alpha_k = p! / (p (p-k)! sqrt(k!)); z-dependent-exact replaces
    alpha_{p-m} by sqrt(bracket) / |z|^m.
    """
    z = float(z_text)
    fp = math.factorial(p)
    alphas = [1.0 / p]
    alphas += [fp / (p * math.factorial(p - k) * math.sqrt(math.factorial(k))) for k in range(1, p)]
    alphas.append(1.0)
    if kind == "z-dependent-exact":
        if not 1 <= m <= p - 1 or z == 0.0:
            return None
        w = Fraction(fp * fp, p * p * math.factorial(m) ** 2 * math.factorial(p - m))
        bracket = Fraction(fp, p * p) - 1 + w * Fraction(z_text) ** (2 * m)
        if bracket < 0:
            return None
        alphas[p - m] = math.sqrt(bracket) / z**m
    a_sq = math.fsum(alphas[p - n] ** 2 * z ** (2 * n) for n in range(p))
    b_sq = math.fsum(_coefficient_weight(p, n) * z ** (2 * n) for n in range(p)) / p**2
    defect = (alphas[0] - 1.0 / p) ** 2 * z ** (2 * p)
    return 2.0 * math.sqrt(a_sq) * math.sqrt(b_sq) / (a_sq + b_sq + defect)


def expected_eof(c: float) -> float:
    """H((1 + sqrt(1 - c^2)) / 2), natural-log binary entropy."""
    x = 0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - c * c))
    if x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def _grid_flags(argv: list[str]) -> dict[str, str]:
    return {**GRID_DEFAULTS, **flags(argv)}


def grid_row_count(argv: list[str]) -> int:
    args = _grid_flags(argv)
    span = float(args["--z-max"]) - float(args["--z-min"])
    n_steps = int(math.floor(span / float(args["--z-step"]) + 1e-9)) + 1
    return (int(args["--p-max"]) - int(args["--p-min"]) + 1) * n_steps


def check_grid_csv(argv: list[str], data: bytes, seed: int) -> str | None:
    """Check the CSV written for ``argv``; ``seed`` picks the sampled rows."""
    args = _grid_flags(argv)
    kind, m = args["--profile-kind"], int(args["--m"])
    p_min, z_min, step = int(args["--p-min"]), float(args["--z-min"]), float(args["--z-step"])
    lines = data.decode("utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return "bad CSV header or missing final newline"
    rows = lines[1:-1]
    if len(rows) != grid_row_count(argv):
        return f"{len(rows)} rows, expected {grid_row_count(argv)}"
    n_steps = len(rows) // (int(args["--p-max"]) - p_min + 1)
    picks = random.Random(seed).sample(range(len(rows)), min(GRID_SAMPLE_ROWS, len(rows)))
    for r in {0, len(rows) - 1, *picks}:
        fields = rows[r].split(",")
        p, i = p_min + r // n_steps, r % n_steps
        if len(fields) != 5 or fields[0] != str(p):
            return f"row {r}: bad layout {rows[r]!r}"
        if abs(float(fields[1]) - (z_min + i * step)) > GRID_TOL:
            return f"row {r}: |z| {fields[1]} off the grid"
        c = expected_concurrence(p, fields[1], kind, m)
        if c is None:
            if fields[2:] != ["nan", "nan", "nan"]:
                return f"row {r}: expected nan where the rule is undefined, got {rows[r]!r}"
            continue
        got = [float(x) for x in fields[2:]]
        want = [c, 1.0 - c, expected_eof(c)]
        if not all(abs(g - w) <= GRID_TOL for g, w in zip(got, want)):
            return f"row {r}: got {fields[2:]}, expected {want}"
    return None


def check_verify(rc, stdout: str) -> str | None:
    lines = stdout.strip().split("\n")
    if rc != 0 or not lines[-1].startswith("PASS:"):
        return f"verify exit {rc}: {lines[-1]!r}"
    return None


def verify_checks(stdout: str) -> int:
    """Number of checks a verify run reports (sum of its checks= fields)."""
    return sum(int(tok.split("=")[1]) for tok in stdout.split() if tok.startswith("checks="))
