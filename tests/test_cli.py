import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import psusyent
from psusyent import (
    AlphaProfile,
    NoRealSolutionError,
    algebra,
    cli,
    coherent,
    concurrence_closed_form,
    entanglement,
    entanglement_of_formation,
    model,
    verify,
)
from psusyent.cli import CSV_HEADER, main

import domain


def _write_profile(tmp_path, obj, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _child_env() -> dict:
    src = str(Path(psusyent.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


# ---------------------------------------------------------------- verify


def test_verify_passes_and_lists_suites(capsys):
    rc = main(["verify", "--p-max", "4", "--tol", "1e-8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert sum(line.startswith("ok") for line in out.splitlines()) >= 6
    assert "PASS" in out


def test_verify_rejects_p_max_zero():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--p-max", "0"])
    assert err.value.code == 2


def test_verify_honours_p_max_8(capsys):
    # checks per suite in SUITES order; coherent-identities is 5 z samples x p_max x 3
    for p_max, counts in ((1, (6, 6, 15, 2, 20, 60, 25, 3)), (8, (48, 6, 120, 16, 20, 60, 25, 3))):
        rc = main(["verify", "--p-max", str(p_max)])
        out = capsys.readouterr().out
        assert rc == 0
        found = re.findall(r"checks=(\d+) +failed=(\d+) ", out)
        assert [(int(c), int(f)) for c, f in found] == [(n, 0) for n in counts]


def test_verify_counts_nan_residual_as_failed(monkeypatch):
    def suite_nan(p_max, rng):
        yield 0.0
        yield math.nan

    monkeypatch.setattr(verify, "SUITES", (suite_nan,))
    (report,) = verify.run_all(1, 1e-8)
    assert (report.name, report.passed, report.failed) == ("nan", 1, 1)
    assert not report.ok


def test_verify_builds_each_ladder_table_once(monkeypatch, capsys, fresh_ladder_tables):
    # the run asks for a ladder table 200 times, for |z>, |z^(p)> and A of
    # every state; each (builder, p, capacity) table is built once
    builds = Counter()

    def counting(build):
        def wrapper(n, *params):
            builds[build.__name__, params, n] += 1
            return build(n, *params)

        return wrapper

    sqrt_levels = counting(algebra._sqrt_levels)
    monkeypatch.setattr(algebra, "_sqrt_levels", sqrt_levels)
    monkeypatch.setattr(model, "_sqrt_levels", sqrt_levels)
    monkeypatch.setattr(algebra, "_rising_sqrt", counting(algebra._rising_sqrt))
    monkeypatch.setattr(model, "_raise_weights", counting(model._raise_weights))
    assert main(["verify", "--p-max", "4"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert {name for name, _, _ in builds} == {"_sqrt_levels", "_rising_sqrt", "_raise_weights"}
    assert max(builds.values()) == 1, builds


def test_verify_fails_below_numerical_floor(capsys):
    rc = main(["verify", "--p-max", "8", "--tol", "1e-15"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


# ---------------------------------------------------------------- state


def test_state_bell(tmp_path, capsys):
    profile = _write_profile(tmp_path, {"p": 1, "kind": "explicit", "alphas": [1.0, 1.0]})
    rc = main(["state", "--p", "1", "--z-re", "1.0", "--profile", profile])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    inv_sqrt2 = 1 / math.sqrt(2)
    assert record["qubit_amps"]["a00"] == pytest.approx([inv_sqrt2, 0.0], abs=1e-10)
    assert record["qubit_amps"]["a11"] == pytest.approx([inv_sqrt2, 0.0], abs=1e-10)
    assert record["qubit_amps"]["a01"] == [0.0, 0.0]
    for value in record["concurrence"].values():
        assert value == pytest.approx(1.0, abs=1e-10)
    assert record["eof"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert record["eigenstate_residual"] < 1e-8


def test_state_p2_optimal_origin(tmp_path, capsys):
    profile = _write_profile(tmp_path, {"p": 2, "kind": "optimal-constant", "alpha_p": 1.0})
    rc = main(["state", "--p", "2", "--profile", profile])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    for value in record["concurrence"].values():
        assert value == pytest.approx(0.9428090415820634, abs=1e-8)


def test_state_disentangled_profile(tmp_path, capsys):
    profile = _write_profile(
        tmp_path, {"p": 2, "kind": "explicit", "alphas": [1.0, 0.5, 0.0]}
    )
    rc = main(["state", "--p", "2", "--z-re", "1.1", "--profile", profile])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    for value in record["concurrence"].values():
        assert abs(value) < 1e-8


def test_state_invalid_json_exits_2(tmp_path, capsys):
    digits = b"9" * 400
    cases = [
        (b"{not json", "invalid profile JSON"),
        # integers past the float range
        (b'{"p": 2, "kind": "optimal-constant", "alpha_p": ' + digits + b"}", "'alpha_p': integer"),
        (b'{"p": 2, "kind": "explicit", "alphas": [1.0, -' + digits + b", 1.0]}", "'alphas': integer"),
        # an integer literal past the interpreter's digit limit
        (b'{"p": 2, "kind": "optimal-constant", "alpha_p": ' + b"9" * 4301 + b"}", "invalid profile"),
        # not UTF-8
        (b'{"p": 2, "kind": "optimal-constant", "alpha_p": 1.0, "\xff": 0}', "invalid profile JSON"),
        # nested past the recursion limit
        (b"[" * 100_000 + b"]" * 100_000, "invalid profile JSON"),
    ]
    for i, (content, message) in enumerate(cases):
        path = tmp_path / f"broken{i}.json"
        path.write_bytes(content)
        rc = main(["state", "--p", "2", "--z-re", "0.5", "--profile", str(path)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, err


def test_state_unknown_field_exits_2(tmp_path, capsys):
    profile = _write_profile(
        tmp_path, {"p": 1, "kind": "explicit", "alphas": [1.0, 1.0], "stray": 3}
    )
    rc = main(["state", "--p", "1", "--profile", profile])
    assert rc == 2


def test_state_degenerate_profile_exits_2(tmp_path, capsys):
    profile = _write_profile(tmp_path, {"p": 1, "kind": "explicit", "alphas": [0.0, 0.0]})
    rc = main(["state", "--p", "1", "--profile", profile])
    assert rc == 2
    assert "zero" in capsys.readouterr().err


@pytest.mark.parametrize("z_argv", [["--z-re", "1e200"], ["--z-im=-1e160"]])
def test_state_past_the_float_range_exits_1_with_one_line(tmp_path, z_argv):
    # |z|^2 overflows: the truncation rule used to end in an OverflowError traceback
    profile = _write_profile(tmp_path, {"p": 2, "kind": "optimal-constant", "alpha_p": 1.0})
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "psusyent.cli", "state", "--p", "2", *z_argv, "--profile", profile],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: the boson truncation at |z|=1e+")
    assert "exceeds the float range" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--p", "3000000", "--profile", "PROFILE"],
        ["grid", "--p-min", "300000", "--p-max", "300000", "--out", "OUT"],
    ],
    ids=["state", "grid"],
)
def test_huge_order_fails_at_once(tmp_path, argv):
    # c_0 = p! leaves the float range from p = 171 on; forming (p!)^2 first
    # took minutes for the state and seconds for the grid
    profile = _write_profile(tmp_path, {"p": 3000000, "kind": "optimal-constant", "alpha_p": 1.0})
    argv = [{"PROFILE": profile, "OUT": str(tmp_path / "g.csv")}.get(a, a) for a in argv]
    env = _child_env()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "psusyent.cli", *argv],
        capture_output=True, text=True, env=env, timeout=20,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert "weight coefficients of order" in proc.stderr
    assert "exceed the float range" in proc.stderr
    # the interpreter's start and numpy's import take most of it
    assert elapsed < 3.0
    assert not (tmp_path / "g.csv").exists()


def test_state_missing_file_exits_1(tmp_path):
    rc = main(["state", "--p", "1", "--profile", str(tmp_path / "absent.json")])
    assert rc == 1


def test_state_accepts_exponent_form_negative(tmp_path, capsys):
    profile = _write_profile(tmp_path, {"p": 1, "kind": "explicit", "alphas": [1.0, 1.0]})
    rc = main(["state", "--p", "1", "--z-re", "-1e-3", "--profile", profile])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["z"] == [-0.001, 0.0]


# ---------------------------------------------------------------- grid


def test_grid_default_figure_sweep(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["grid", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,abs_z,concurrence,one_minus_c,eof"
    assert len(lines) == 1 + 6 * 101

    rows = [line.split(",") for line in lines[1:]]
    p1 = [r for r in rows if r[0] == "1"]
    assert all(r[2] == "1" for r in p1)
    row20 = next(r for r in rows if r[0] == "2" and r[1] == "0")
    assert float(row20[2]) == pytest.approx(0.942809, abs=1e-6)
    for p in range(2, 7):
        values = [float(r[2]) for r in rows if r[0] == str(p)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        one_minus = [float(r[3]) for r in rows if r[0] == str(p)]
        assert all(b <= a for a, b in zip(one_minus, one_minus[1:]))


def test_grid_output_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["grid", "--out", str(out1)]) == 0
    assert main(["grid", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_grid_z_exact_kind(tmp_path, capsys):
    out = tmp_path / "zx.csv"
    rc = main(
        ["grid", "--p-min", "2", "--p-max", "3", "--z-min", "0", "--z-max", "2",
         "--z-step", "0.5", "--profile-kind", "z-dependent-exact", "--m", "1",
         "--out", str(out)]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    # rule undefined at z = 0 and below the real-solution threshold -> nan
    assert rows[0][2] == "nan"
    defined = [float(r[2]) for r in rows if r[2] != "nan"]
    assert defined and all(abs(v - 1.0) < 1e-10 for v in defined)


def test_grid_unwritable_path_exits_1(capsys):
    rc = main(["grid", "--out", "/nonexistent-dir/grid.csv"])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


def test_grid_path_with_a_nul_byte_exits_1(capsys):
    # open raises ValueError, not OSError, for an embedded NUL
    assert main(["grid", "--out", "a\0b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write a\0b: embedded null byte\n"


GRID_USAGE_ERRORS = [
    ["grid", "--z-step", "0", "--out", "x.csv"],
    ["grid", "--z-min", "-1", "--out", "x.csv"],
    ["grid", "--p-min", "0", "--out", "x.csv"],
    ["grid", "--p-min", "4", "--p-max", "2", "--out", "x.csv"],
    ["grid", "--z-step", "nan", "--out", "x.csv"],
    ["grid", "--z-max", "inf", "--out", "x.csv"],
    ["grid", "--z-max", "nan", "--out", "x.csv"],
]


@pytest.mark.parametrize("argv", GRID_USAGE_ERRORS)
def test_grid_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


NON_FINITE_ARGV = [
    ["state", "--p", "1", "--z-re", "inf", "--profile", "x.json"],
    ["state", "--p", "1", "--z-re", "nan", "--profile", "x.json"],
    ["verify", "--tol", "nan"],
    # a leading minus must not turn these into unknown options
    ["state", "--p", "1", "--z-re", "-inf", "--profile", "x.json"],
    ["state", "--p", "1", "--z-im", "-Infinity", "--profile", "x.json"],
    ["state", "--p", "1", "--z-re", "-NaN", "--profile", "x.json"],
    ["verify", "--tol", "-INF"],
    ["grid", "--z-min", "-nan", "--out", "x.csv"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGV)
def test_non_finite_number_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err.splitlines()[-1]


# ---------------------------------------------------------------- parser


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    assert main(["verify", "--p-max", "1"]) == 0
    assert main(["grid", "--p-max", "1", "--z-max", "0.1", "--out", str(tmp_path / "g.csv")]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


PARSE_CORPUS = [
    *GRID_USAGE_ERRORS,
    *NON_FINITE_ARGV,
    ["verify"],
    ["verify", "--p-max", "3", "--tol", "1e-9"],
    ["state", "--p", "2", "--z-re", "1.5", "--z-im", "-0.5", "--profile", "x.json"],
    ["grid", "--p-min", "2", "--p-max", "3", "--profile-kind", "z-dependent-exact", "--m", "1",
     "--out", "x.csv"],
    ["state", "--p=2", "--z-re=-1e-3", "--profile=x.json"],
    ["state", "--p", "1", "--z-im", "-1e-3", "--profile", "x.json"],
    # abbreviations: --pro is --profile, --z is ambiguous
    ["state", "--pro", "x.json", "--p", "1"],
    ["state", "--z", "1", "--p", "1", "--profile", "x.json"],
    ["grid", "--prof", "z-dependent-exact", "--out", "x.csv"],
    # leftover tokens
    ["state", "--p", "1", "--profile", "x.json", "extra"],
    ["verify", "--p-max", "2", "x", "y"],
    ["verify", "--", "x"],
    ["grid", "--unknown", "1", "--out", "x.csv"],
    # bad values and missing options
    ["state", "--p", "x", "--profile", "x.json"],
    ["grid", "--profile-kind", "other", "--out", "x.csv"],
    ["state"],
    # help, and argv that does not start with a command
    ["state", "-h"],
    ["grid", "--help"],
    ["-h"],
    ["-h", "state"],
    [],
    ["bogus"],
    ["sta"],
    ["--"],
    ["--", "verify"],
    # a repeated option, and an option string as a value
    ["state", "--p", "1", "--p", "2", "--profile", "x.json"],
    ["state", "--p", "1", "--profile", "--p"],
    # - and the empty string as values
    ["state", "--p", "1", "--profile", "-"],
    ["state", "--p", "1", "--profile", ""],
    ["state", "--p", "", "--profile", "x.json"],
    ["verify", "--tol", "-"],
    # negative numbers argparse's own matcher does not take
    ["state", "--p", "1", "--z-re", "-inf", "--z-im", "-.5", "--profile", "x.json"],
    ["state", "--p", "1", "--z-re", "-.5", "--z-im", "-1e-3", "--profile", "x.json"],
    ["verify", "--tol", "-1e-3"],
    # a value that starts with - and holds a space
    ["state", "--p", "1", "--profile", "-a b"],
    ["state", "--p", "1", "--z-re", "- 1", "--profile", "x.json"],
    # a choice miss and a non-integer order
    ["grid", "--profile-kind", "Optimal-Constant", "--out", "x.csv"],
    ["grid", "--p-max", "2.5", "--out", "x.csv"],
    ["verify", "--p-max", "x"],
    # a missing required option, and a trailing option with no value
    ["grid", "--p-max", "2"],
    ["state", "--p", "1", "--profile"],
    ["grid", "--out", "x.csv", "--m"],
]
# one argv of each benchmark workload's shape
WORKLOAD_ARGV = [
    ["state", "--p", "3", "--z-re", "-1.234567890123456", "--z-im", "0.500000000000000",
     "--profile", "work/profile_p3_1.json"],
    ["grid", "--p-min", "2", "--p-max", "5", "--z-max", "3.21", "--z-step", "0.02",
     "--profile-kind", "z-dependent-exact", "--m", "2", "--out", "work/grid_1.csv"],
    ["grid", "--p-min", "1", "--p-max", "10", "--z-max", "5.97", "--z-step", "0.02",
     "--profile-kind", "optimal-constant", "--out", "work/grid_2.csv"],
    ["verify", "--p-max", "3"],
]
PARSE_CORPUS += WORKLOAD_ARGV


def _parse_outcome(parse, argv, capsys):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CORPUS)
def test_parse_matches_the_full_parse(argv, capsys):
    # the same Namespace, or the same exit code, usage and message
    parser = cli.build_parser()
    expected = _parse_outcome(parser.parse_args, argv, capsys)
    assert _parse_outcome(lambda a: cli._parse(parser, a), argv, capsys) == expected


@pytest.mark.parametrize("argv", WORKLOAD_ARGV, ids=["state", "grid-z-exact", "grid", "verify"])
def test_well_formed_argv_is_read_without_argparse(argv, monkeypatch):
    # read through the command's own actions; argparse parses only what
    # that read leaves to it
    parser = cli.build_parser()
    expected = parser.parse_args(argv)

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed argv reached argparse")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert cli._parse(parser, argv) == expected


def _random_state_record(rng) -> dict:
    """A `state` record of the layout `state` writes, its numbers drawn to
    include every float json spells out specially and the extremes of repr."""
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 1.0, 0.1]

    def number():
        if rng.random() < 0.3:
            return specials[rng.integers(len(specials))]
        value = float(rng.standard_normal() * 10.0 ** rng.integers(-320, 308))
        return np.float64(value) if rng.random() < 0.2 else value

    return {
        "p": int(rng.integers(1, 200)),
        "z": [number(), number()],
        "q_norm": number(),
        "qubit_amps": {name: [number(), number()] for name in ("a00", "a01", "a10", "a11")},
        "concurrence": {name: number() for name in cli._ROUTES},
        "eof": number(),
        "eigenstate_residual": number(),
    }


def test_state_json_equals_json_dumps():
    rng = np.random.default_rng(20051)
    for _ in range(2000):
        rec = _random_state_record(rng)
        amps = [complex(*pair) for pair in rec["qubit_amps"].values()]
        text = cli._state_json(rec["p"], complex(*rec["z"]), rec["q_norm"], amps,
                               rec["concurrence"], rec["eof"], rec["eigenstate_residual"])
        assert text == json.dumps(rec, indent=2) + "\n"


def test_state_output_is_indented_json(tmp_path, capsys):
    profile = _write_profile(tmp_path, {"p": 3, "kind": "optimal-constant", "alpha_p": 1.0})
    assert main(["state", "--p", "3", "--z-re", "1.2", "--z-im", "-0.4", "--profile", profile]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert list(json.loads(out)) == [
        "p", "z", "q_norm", "qubit_amps", "concurrence", "eof", "eigenstate_residual"
    ]


def test_state_computes_eof_once_per_op(tmp_path, monkeypatch, capsys):
    # the record's EoF; nothing reads the EoF of the Wootters route's result
    calls = []
    original = entanglement.entanglement_of_formation

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(entanglement, "entanglement_of_formation", counting)
    monkeypatch.setattr(cli, "entanglement_of_formation", counting)
    for p in (1, 3, 6):
        profile = _write_profile(tmp_path, {"p": p, "kind": "optimal-constant", "alpha_p": 1.0})
        calls.clear()
        assert main(["state", "--p", str(p), "--z-re", "0.7", "--profile", profile]) == 0
        record = json.loads(capsys.readouterr().out)
        assert calls == [record["concurrence"]["closed-form"]]


def test_state_forms_the_amplitudes_once_per_op(tmp_path, monkeypatch, capsys):
    # the routes and the record read the same amplitudes
    calls = []
    original = coherent._amplitudes

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(coherent, "_amplitudes", counting)
    for p in (1, 3, 6):
        profile = _write_profile(tmp_path, {"p": p, "kind": "optimal-constant", "alpha_p": 1.0})
        calls.clear()
        assert main(["state", "--p", str(p), "--z-re", "0.7", "--profile", profile]) == 0
        capsys.readouterr()
        assert len(calls) == 1


def _text_mode_read(path: str):
    """The profile as a text-mode read gives it to `state`, or that read's rc and stderr."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), None
    except OSError as exc:
        return None, (1, f"error: cannot read profile: {exc}\n")
    except (ValueError, RecursionError) as exc:
        return None, (2, f"error: invalid profile JSON: {exc}\n")


_PROFILE_LINES = ["{", '  "p": 3,', '  "kind": "optimal-constant",', '  "alpha_p": 1.0', "}"]
PROFILE_BYTES = {
    "lf": "\n".join(_PROFILE_LINES).encode() + b"\n",
    "crlf": "\r\n".join(_PROFILE_LINES).encode() + b"\r\n",
    "lone cr": "\r".join(_PROFILE_LINES).encode() + b"\r",
    "cr cr lf": "\r\r\n".join(_PROFILE_LINES).encode(),
    "bom": b"\xef\xbb\xbf" + "\n".join(_PROFILE_LINES).encode(),
    "invalid utf-8": b'{"p": 3,\r\n "kind": "optimal-constant", "alpha_p": 1.0, "\xff": 0}',
    "truncated utf-8": "\n".join(_PROFILE_LINES).encode() + b"\xe2\x82",
    "empty": b"",
    "malformed crlf": b'{\r\n  "p": 3,\r\n  "kind": "optimal-constant"\r\n  "alpha_p": 1.0\r\n}',
    "cr in a string": b'{"p": 3, "kind": "optimal\r\n-constant", "alpha_p": 1.0}',
    "not an object": b"[1,\r\n 2]",
    "utf-8 text": '{"p": 3, "kind": "optimal-constant", "alpha_p": 1.0, "\u00e9": 0}'.encode(),
}


@pytest.mark.parametrize("case", [*PROFILE_BYTES, "directory", "missing"])
def test_state_reads_the_profile_as_a_text_mode_read_does(tmp_path, capsys, case):
    # the bytes are decoded and their line endings translated as universal
    # newlines would: the same rc, stdout and stderr, with json's line and
    # column in its messages
    if case == "directory":
        path = str(tmp_path)
    elif case == "missing":
        path = str(tmp_path / "missing.json")
    else:
        path = str(tmp_path / "profile.json")
        Path(path).write_bytes(PROFILE_BYTES[case])
    argv = ["state", "--p", "3", "--z-re", "0.4", "--z-im", "-1.1", "--profile"]
    profile, failure = _text_mode_read(path)
    if failure is None:
        clean = _write_profile(tmp_path, profile, name="clean.json")
        expected_rc = main(argv + [clean])
        expected = capsys.readouterr()
        expected = (expected_rc, expected.out, expected.err)
    else:
        expected = (failure[0], "", failure[1])
    rc = main(argv + [path])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == expected
    if case == "malformed crlf":
        assert "line 4 column 3" in captured.err


def test_state_non_finite_vector_exits_1_with_one_line(tmp_path, capsys):
    # the order-166 |z^(p)> overflows; the vector used to reach the SVD, whose
    # LinAlgError was reported as a usage error
    profile = _write_profile(tmp_path, {"p": 166, "kind": "optimal-constant", "alpha_p": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["state", "--p", "166", "--z-re", "1", "--profile", profile])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: the state vector of order p=166 at |z|=1 leaves the float range\n"


@pytest.mark.parametrize(
    "profile_obj",
    [
        {"p": 3, "kind": "optimal-constant", "alpha_p": 1e200},
        {"p": 3, "kind": "explicit", "alphas": [1.0, 0.5, 0.2, 1e200]},
        {"p": 3, "kind": "z-dependent-exact", "alpha_p": 1e200, "m": 1},
    ],
    ids=["optimal-constant", "explicit", "z-dependent-exact"],
)
def test_state_alpha_p_past_the_square_range_exits_1_with_one_line(tmp_path, capsys,
                                                                   profile_obj):
    # (alpha_p/p)^2 overflows: the state ended in an OverflowError traceback
    profile = _write_profile(tmp_path, profile_obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["state", "--p", "3", "--z-re", "1.5", "--profile", profile])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (
        "error: the normalization denominator at |z|=1.5 leaves the float range\n"
    )


@pytest.mark.parametrize("p, z_re", [(2, "6"), (120, "3"), (99, "5")])
def test_state_the_old_cutoff_truncated_exits_0_with_a_small_residual(tmp_path, capsys, p,
                                                                      z_re):
    # the |z|^2 + 10|z| + p + 20 cutoff failed these: at p = 2 its absolute
    # tail check (need n_max >= 124), at p = 120 and 99 the Schmidt route's
    # trace, as it dropped more than 1e-8 of the norm
    profile = _write_profile(tmp_path, {"p": p, "kind": "optimal-constant", "alpha_p": 1.0})
    rc = main(["state", "--p", str(p), "--z-re", z_re, "--profile", profile])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    assert json.loads(captured.out)["eigenstate_residual"] <= 1e-10


def test_state_where_the_coherent_vector_leaves_the_float_range_exits_1(tmp_path, capsys):
    # the absolute tail check asked for n_max >= 4377, where the vector
    # leaves the float range anyway
    profile = _write_profile(tmp_path, {"p": 3, "kind": "optimal-constant", "alpha_p": 1.0})
    rc = main(["state", "--p", "3", "--z-re", "40", "--profile", profile])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "error: the coherent vector at |z|=40 leaves the float range\n"


def test_usage_error_leaves_shared_parser_correct(tmp_path, capsys):
    profile = _write_profile(tmp_path, {"p": 1, "kind": "explicit", "alphas": [1.0, 1.0]})
    with pytest.raises(SystemExit):
        main(["state", "--p", "1", "--z-re", "-inf", "--profile", profile])
    with pytest.raises(SystemExit):
        main(["grid", "--p-max", "2", "--z-step", "0", "--out", "x.csv"])
    capsys.readouterr()
    assert main(["state", "--p", "1", "--z-re", "-1e-3", "--profile", profile]) == 0
    assert json.loads(capsys.readouterr().out)["z"] == [-0.001, 0.0]
    # options set by earlier calls do not leak into the defaults
    out = tmp_path / "grid.csv"
    assert main(["grid", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6 * 101


# ---------------------------------------------------------------- grid rows


def _exact_concurrence_sq(p: int, z: float, kind: str, m: int) -> Fraction | None:
    """C^2 = 4 A^2 B^2 / (A^2 + B^2)^2 of a grid row in exact rationals.

    Both families have alpha_p = 1 and alpha_0 = 1/p (no defect term) and
    alpha_{p-n}^2 = c_n / p^2 for 0 < n < p, with
    c_n = (p!)^2 / ((n!)^2 (p-n)!); z-dependent-exact sets
    alpha_{p-m}^2 |z|^(2m) to its bracket.  None where that rule is undefined.
    """
    fp = math.factorial(p)
    z2 = Fraction(z) ** 2
    w = [Fraction(fp**2, math.factorial(n) ** 2 * math.factorial(p - n)) * z2**n for n in range(p)]
    a_terms = [Fraction(1)] + [t / p**2 for t in w[1:]]
    if kind == "z-dependent-exact":
        if not 1 <= m <= p - 1 or z == 0.0:
            return None
        bracket = Fraction(fp, p**2) - 1 + w[m] / p**2
        if bracket < 0:
            return None
        a_terms[m] = bracket
    a_sq, b_sq = sum(a_terms), sum(w) / p**2
    return 4 * a_sq * b_sq / (a_sq + b_sq) ** 2


def _scalar_row(p: int, z: float, kind: str, m: int) -> tuple[float, float, float]:
    """The library's C, 1 - C and EoF of a grid row at one |z|."""
    if kind == "optimal-constant":
        c, one_minus_c = entanglement._optimal_concurrence(p, coherent.PowerTable(z))
        return c, one_minus_c, entanglement_of_formation(c)
    if not 1 <= m <= p - 1:
        return math.nan, math.nan, math.nan
    try:
        result = concurrence_closed_form(p, z, AlphaProfile.z_dependent_exact(p, m))
    except NoRealSolutionError:
        return math.nan, math.nan, math.nan
    # the z-exact C is 1 exactly, so 1 - C is 0 exactly
    return result.value, 1.0 - result.value, result.eof


@pytest.mark.parametrize(
    "kind,m",
    [("optimal-constant", 1), ("z-dependent-exact", 1), ("z-dependent-exact", 2),
     ("z-dependent-exact", 3)],
)
def test_grid_rows_match_scalar_functions_and_exact_oracle(tmp_path, capsys, kind, m):
    out = tmp_path / "grid.csv"
    argv = ["grid", "--p-min", "1", "--p-max", "10", "--z-min", "0.37", "--z-max", "3.3",
            "--z-step", "0.29", "--profile-kind", kind, "--m", str(m), "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 1 + 10 * 11
    undefined = 0
    for r, line in enumerate(lines[1:]):
        p, i = 1 + r // 11, r % 11
        z = 0.37 + i * 0.29
        c, one_minus_c, eof = _scalar_row(p, z, kind, m)
        assert line == "%d,%.12g,%.12g,%.12g,%.12g" % (p, z, c, one_minus_c, eof)
        fields = [float(x) for x in line.split(",")]
        assert abs(Fraction(fields[1]) - (Fraction("0.37") + i * Fraction("0.29"))) <= 1e-12
        c_sq = _exact_concurrence_sq(p, z, kind, m)
        if c_sq is None:
            assert line.endswith(",nan,nan,nan")
            undefined += 1
            continue
        exact_c = math.sqrt(c_sq)
        root = math.sqrt(1 - c_sq)  # sqrt(1 - C^2), free of cancellation
        x = 0.5 + 0.5 * root
        exact_eof = -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)
        assert abs(fields[2] - exact_c) <= 1e-12
        exact_one_minus_c = float(1 - c_sq) / (1.0 + exact_c)
        assert abs(fields[3] - exact_one_minus_c) <= 1e-12
        # the library's 1 - C, printed above, is exact to 1e-12 relative, also
        # where C is near 1 and 1.0 - C would cancel
        assert abs(one_minus_c - exact_one_minus_c) <= 1e-12 * exact_one_minus_c
        assert abs(fields[4] - exact_eof) <= 1e-12
    # p <= 3 has rows below the real-solution threshold, and every p <= m has none
    assert (undefined > 0) == (kind == "z-dependent-exact")


@pytest.mark.parametrize("chunk_rows", [7, 4096])
@pytest.mark.parametrize(
    "kind,m",
    [("optimal-constant", 1), ("z-dependent-exact", 1), ("z-dependent-exact", 2),
     ("z-dependent-exact", 3)],
)
def test_grid_rows_equal_the_formatted_values(tmp_path, monkeypatch, capsys, kind, m,
                                              chunk_rows):
    # each row is the library's C and EoF at (p, |z|) formatted as a whole:
    # the writer formats an optimal-constant block with one % and writes a
    # z-exact row's fixed text; |z| = 0 is undefined for the z-exact rule,
    # p <= 3 has undefined rows below its threshold and p <= m has no profile
    monkeypatch.setattr(cli, "GRID_CHUNK_ROWS", chunk_rows)
    out = tmp_path / "grid.csv"
    argv = ["grid", "--p-min", "1", "--p-max", "10", "--z-min", "0", "--z-max", "3",
            "--z-step", "0.1", "--profile-kind", kind, "--m", str(m), "--out", str(out)]
    assert main(argv) == 0
    rows = [CSV_HEADER]
    for p in range(1, 11):
        for i in range(31):
            z = 0.0 + i * 0.1
            rows.append("%d,%.12g,%.12g,%.12g,%.12g" % (p, z, *_scalar_row(p, z, kind, m)))
    assert out.read_bytes() == ("\n".join(rows) + "\n").encode()
    # z-exact: every p <= m block, |z| = 0, and the low |z| rows of p = 2, 3
    undefined = sum(row.endswith(",nan,nan,nan") for row in rows)
    assert undefined == (0 if kind == "optimal-constant" else {1: 51, 2: 77, 3: 100}[m])


def test_z_exact_grid_evaluates_no_eof(tmp_path, monkeypatch, capsys):
    # a z-exact row's EoF is the fixed ln 2, or nan: none is evaluated, while
    # each optimal-constant block from p = 2 on still evaluates its own (p = 1
    # is a Bell state at every |z|, so its rows are fixed text too)
    calls = [0]
    eof = entanglement.entanglement_of_formation

    def counting(c):
        calls[0] += 1
        return eof(c)

    monkeypatch.setattr(entanglement, "entanglement_of_formation", counting)
    monkeypatch.setattr(cli, "entanglement_of_formation", counting)
    argv = ["grid", "--p-max", "6", "--z-max", "3", "--out", str(tmp_path / "grid.csv")]
    for m in ("1", "2"):
        assert main([*argv, "--profile-kind", "z-dependent-exact", "--m", m]) == 0
    assert calls[0] == 0
    assert main(argv) == 0
    assert calls[0] == 5


@pytest.mark.parametrize(
    "kind,p_range,z_range",
    [
        ("optimal-constant", ("2", "4"), ("0.1", "2.9", "0.05")),  # 57 rows: 8 chunks of 7 and 1
        ("z-dependent-exact", ("2", "4"), ("0.1", "2.9", "0.05")),
        # a full 4096-row chunk at p >= 8, where the A^2 sum is pairwise
        ("z-dependent-exact", ("8", "9"), ("0", "5", "0.001")),
        # ten orders over the same rows: one power table per chunk, or per (p, chunk)
        ("optimal-constant", ("1", "10"), ("0.1", "2.9", "0.05")),
        ("z-dependent-exact", ("1", "10"), ("0.1", "2.9", "0.05")),
    ],
)
def test_grid_chunk_size_does_not_change_bytes(tmp_path, monkeypatch, capsys, kind, p_range,
                                               z_range):
    argv = ["grid", "--p-min", p_range[0], "--p-max", p_range[1], "--z-min", z_range[0],
            "--z-max", z_range[1], "--z-step", z_range[2], "--profile-kind", kind, "--m", "1",
            "--out"]
    assert main([*argv, str(tmp_path / "whole.csv")]) == 0
    monkeypatch.setattr(cli, "GRID_CHUNK_ROWS", 7)
    assert main([*argv, str(tmp_path / "chunked.csv")]) == 0
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("kind_argv", [[], ["--profile-kind", "z-dependent-exact", "--m", "2"]])
def test_grid_computes_each_power_once_per_chunk(tmp_path, monkeypatch, capsys, kind_argv):
    # 301 |z| rows and ten orders: every p block of the chunk shares one
    # table, so no more libm powers than 12 per row (each p recomputing its
    # own took 13,545 and 22,831)
    count = [0]
    libm_powers = coherent._libm_powers

    def counting(values, exponents):
        count[0] += len(values) * len(exponents)
        return libm_powers(values, exponents)

    monkeypatch.setattr(coherent, "_libm_powers", counting)
    argv = ["grid", "--p-min", "1", "--p-max", "10", "--z-max", "6", "--z-step", "0.02",
            *kind_argv, "--out", str(tmp_path / "grid.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("wrote 3010 rows")
    if kind_argv:  # the z-exact rows make no power column at all (below)
        assert count[0] == 0
    else:
        assert 0 < count[0] <= 301 * 12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_z_exact_grid_rows_are_the_exact_value(tmp_path, capsys, m):
    # the rule makes A = B with no defect, so C = 1 exactly: 1 - C is 0 and EoF
    # is ln 2.  Summing A^2 and B^2 printed 1.11e-16 or 2.22e-16 for 1 - C on
    # 101 of the 606 rows of the default --m 1 grid.
    out = tmp_path / "grid.csv"
    argv = ["grid", "--p-min", "1", "--p-max", "10", "--z-min", "0", "--z-max", "5",
            "--z-step", "0.05", "--profile-kind", "z-dependent-exact", "--m", str(m)]
    assert main([*argv, "--out", str(out)]) == 0
    for r, line in enumerate(out.read_text().splitlines()[1:]):
        p, z = 1 + r // 101, float(line.split(",")[1])
        undefined = _exact_concurrence_sq(p, z, "z-dependent-exact", m) is None
        assert line.endswith(",nan,nan,nan" if undefined else ",1,0,0.69314718056"), line


def test_z_exact_grid_makes_no_power_column(tmp_path, monkeypatch, capsys):
    # alpha_{p-m} is classified at two |z| of each block in Python floats, the
    # float-range bound takes one power of the largest |z| per p, and the
    # weight series is summed only where that bound overflows.  The p = 2 and
    # 3 blocks that hold rows below z* made |z|^m and |z|^(2m) columns for
    # m = 1 and 2 (602 powers each) while a coefficient array resolved them
    count = [0]
    libm_powers = coherent._libm_powers

    def counting(values, exponents):
        count[0] += len(values) * len(exponents)
        return libm_powers(values, exponents)

    monkeypatch.setattr(coherent, "_libm_powers", counting)
    for m in ("1", "2", "3"):
        argv = ["grid", "--p-min", "1", "--p-max", "10", "--z-max", "6", "--z-step", "0.02",
                "--profile-kind", "z-dependent-exact", "--m", m, "--out", str(tmp_path / "g.csv")]
        assert main(argv) == 0
        assert count[0] == 0, m


@pytest.mark.parametrize("chunk_rows", [7, 4096])
@pytest.mark.parametrize("on_z_star", [0, 8])
@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (3, 2)])
def test_z_exact_grid_cuts_after_a_row_on_z_star(tmp_path, monkeypatch, capsys, p, m, on_z_star,
                                                 chunk_rows):
    # the grid writes each block's rows as fixed text split at one cut of its
    # ascending |z| axis: the row exactly on z* is undefined and the next is
    # C = 1.  With z* at row 8 (8 * (z*/8) is z* exactly) and 7-row chunks, the
    # cut falls inside the second chunk; p <= m blocks are nan throughout
    monkeypatch.setattr(cli, "GRID_CHUNK_ROWS", chunk_rows)
    z_star = coherent._z_star(p, m)
    z_min, z_step = (z_star, 0.01) if on_z_star == 0 else (0.0, z_star / 8)
    zs = z_min + np.arange(20) * z_step
    assert zs[on_z_star] == z_star
    out = tmp_path / "grid.csv"
    argv = ["grid", "--p-min", "1", "--p-max", str(p), "--z-min", repr(z_min),
            "--z-max", repr(z_min + 19.5 * z_step), "--z-step", repr(z_step),
            "--profile-kind", "z-dependent-exact", "--m", str(m), "--out", str(out)]
    assert main(argv) == 0
    rows = [CSV_HEADER]
    for q in range(1, p + 1):
        if q <= m:
            value = eof = np.full(len(zs), np.nan)
        else:
            result = concurrence_closed_form(q, zs, AlphaProfile.z_dependent_exact(q, m))
            value, eof = result.value, result.eof
        rows += ["%d,%.12g,%.12g,%.12g,%.12g" % (q, z, c, 1.0 - c, e)
                 for z, c, e in zip(zs.tolist(), value.tolist(), eof.tolist())]
    assert out.read_bytes() == ("\n".join(rows) + "\n").encode()
    block = rows[-20:]
    assert block[on_z_star].endswith(",nan,nan,nan")
    assert block[on_z_star + 1].endswith(",1,0,0.69314718056")


def test_grid_makes_one_traced_coefficients_call_per_block_below_z_star(tmp_path, monkeypatch,
                                                                       capsys):
    # the benchmark's tracer counts the NoRealSolutionError of this call: one
    # per z-exact block of p = 2 or 3 with rows in (0, z*], at its first such
    # row; none for p >= 4, a block wholly above z*, or an optimal-constant block
    calls = []
    coefficients = AlphaProfile.coefficients

    def recording(self, z_abs):
        try:
            return coefficients(self, z_abs)
        except NoRealSolutionError:
            calls.append((self.p, self.m, z_abs))
            raise

    monkeypatch.setattr(AlphaProfile, "coefficients", recording)
    out = str(tmp_path / "grid.csv")

    def grid_calls(*argv):
        calls.clear()
        assert main(["grid", "--p-max", "6", "--z-max", "3", *argv, "--out", out]) == 0
        return calls

    assert grid_calls("--profile-kind", "z-dependent-exact") == [(2, 1, 0.05), (3, 1, 0.05)]
    assert grid_calls("--profile-kind", "z-dependent-exact", "--m", "2") == [(3, 2, 0.05)]
    assert grid_calls("--profile-kind", "z-dependent-exact", "--z-min", "1") == []
    assert grid_calls("--p-min", "4", "--profile-kind", "z-dependent-exact") == []
    assert grid_calls() == []


def _dispatch_levels() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values for each SIMD level this host dispatches to.

    From the running numpy, as CI takes them: the dispatched features the
    CPU has, in numpy's order, disabled from the top down, to the baseline.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return [" ".join(found[k:]) for k in range(len(found), -1, -1)]


def test_z_exact_grid_digits_do_not_depend_on_the_simd_level(tmp_path):
    # numpy picks its loops by CPU; A^2 by np.power made 36 of these 4,000
    # rows differ between the AVX-512 and AVX2 levels
    src = str(Path(psusyent.__file__).resolve().parent.parent)
    grids = {}
    for disabled in _dispatch_levels():
        out = tmp_path / f"grid_{len(grids)}.csv"
        env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled,
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "psusyent.cli", "grid", "--profile-kind", "z-dependent-exact",
             "--m", "1", "--p-max", "8", "--z-min", "0.01", "--z-max", "5", "--z-step", "0.01",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), disabled
        grids[disabled] = out.read_bytes()
    default = grids[""]
    assert len(default.splitlines()) == 1 + 8 * 500
    differing = [level for level, data in grids.items() if data != default]
    assert not differing, f"levels run: {list(grids)}; differing from the default: {differing}"


# Runs seeded `state` ops through cli.main, as the state-mix benchmark draws
# them, and prints the closed-form fields of each record (or its exit code).
_STATE_OPS_CHILD = """
import contextlib, io, json, math, os, random, sys
from psusyent.cli import main

rng = random.Random(int(sys.argv[1]))
records = []
for i in range(int(sys.argv[2])):
    p, r = (rng.randint(5, 8), rng.uniform(3.5, 5.25)) if i % 5 == 4 else (
        rng.randint(1, 4), rng.uniform(0.0, 3.0))
    theta, alpha_p = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.2, 2.0) * rng.choice((-1, 1))
    kind = rng.choice(("explicit", "optimal-constant", "z-dependent-exact") if p > 1 else
                      ("explicit", "optimal-constant"))
    profile = {"p": p, "kind": kind, "alpha_p": alpha_p}
    if kind == "explicit":
        profile = {"p": p, "kind": kind,
                   "alphas": [rng.uniform(-2.0, 2.0) for _ in range(p)] + [alpha_p]}
    elif kind == "z-dependent-exact":
        profile["m"] = rng.randint(1, p - 1)
    path = os.path.join(sys.argv[3], "profile.json")
    with open(path, "w") as fh:
        json.dump(profile, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["state", "--p", str(p), "--z-re", repr(r * math.cos(theta)),
                   "--z-im", repr(r * math.sin(theta)), "--profile", path])
    if rc:
        records.append(rc)
        continue
    record = json.loads(out.getvalue())
    routes = record["concurrence"]
    records.append([record["q_norm"], record["qubit_amps"],
                    [routes[k] for k in ("closed-form", "pure-amplitude", "wootters-4x4")]])
print(json.dumps(records))
"""


def test_state_closed_form_fields_do_not_depend_on_the_simd_level(tmp_path):
    # A^2 by np.power made 50 of 4,000 seeded ops differ in these fields at
    # numpy's baseline level.  eof (numpy's np.log) and the schmidt-oracle
    # route and eigen-residual (numpy reductions and BLAS) still may differ.
    src = str(Path(psusyent.__file__).resolve().parent.parent)
    runs = {}
    for disabled in _dispatch_levels():
        env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled,
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", _STATE_OPS_CHILD, "2525", "200", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), disabled
        runs[disabled] = json.loads(proc.stdout)
    default = runs[""]
    assert len(default) == 200 and sum(isinstance(r, list) for r in default) > 150
    differing = {level: sum(a != b for a, b in zip(ops, default)) for level, ops in runs.items()}
    assert not any(differing.values()), f"ops differing from the default level: {differing}"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_grid_memory_does_not_grow_with_rows(tmp_path):
    # The child caps its own address space 40 MiB above what it has mapped
    # after import.  500,001 rows held in memory before writing need ~70 MiB
    # and end in MemoryError; streamed chunks need a few MiB.
    child = (
        "import resource, sys\n"
        "from psusyent.cli import main\n"
        "with open('/proc/self/statm') as fh:\n"
        "    mapped = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (mapped + 40 * 2**20, hard))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "big.csv"
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-c", child, "grid", "--p-max", "1", "--z-max", "500",
         "--z-step", "0.001", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"wrote 500001 rows to {out}\n"
    with open(out, "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 500001


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_grid_failed_write_exits_1(capsys):
    assert main(["grid", "--out", "/dev/full"]) == 1
    assert "error: cannot write /dev/full" in capsys.readouterr().err


def _assert_grid_write_fails_past_a_64k_cap(out: Path):
    # The child caps the size of the files it writes at 64 KiB; with SIGXFSZ
    # ignored, a write past the cap fails with EFBIG after some rows are out.
    child = (
        "import resource, signal, sys\n"
        "from psusyent.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (2**16, resource.RLIM_INFINITY))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "grid", "--p-max", "2", "--z-max", "20",
         "--z-step", "0.001", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


def test_grid_failed_write_removes_the_partial_file(tmp_path):
    _assert_grid_write_fails_past_a_64k_cap(tmp_path / "big.csv")


def test_grid_failed_write_over_a_larger_file_removes_it(tmp_path):
    # the rewrite in place fails at the cap, inside the old file's length
    out = tmp_path / "big.csv"
    out.write_bytes(b"x" * 2**17)
    _assert_grid_write_fails_past_a_64k_cap(out)


@pytest.mark.parametrize("old_size", [200_000, 100])
def test_grid_rewrite_over_an_existing_file_equals_a_fresh_write(tmp_path, capsys, old_size):
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    assert main(["grid", "--out", str(fresh)]) == 0
    old.write_bytes((b"9,9.99,0.5,0.5,0.5\r\n" * (old_size // 20 + 1))[:old_size])
    assert main(["grid", "--out", str(old)]) == 0
    # the other file is longer than the sweep, then shorter
    assert (old_size > fresh.stat().st_size) == (old_size == 200_000)
    assert old.read_bytes() == fresh.read_bytes()
    assert capsys.readouterr().out == f"wrote 606 rows to {fresh}\nwrote 606 rows to {old}\n"


def test_grid_opens_its_output_without_truncation(tmp_path, monkeypatch, capsys):
    # truncating would free the old file's blocks only for the sweep to allocate them again
    flags, real_open = [], os.open
    monkeypatch.setattr(os, "open",
                        lambda path, f, *mode: flags.append(f) or real_open(path, f, *mode))
    assert main(["grid", "--p-max", "1", "--z-max", "0", "--out", str(tmp_path / "g.csv")]) == 0
    assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC


def test_grid_to_the_null_device_exits_0(capsys):
    # the null device is not truncated: it is written as a stream
    assert main(["grid", "--out", os.devnull]) == 0
    assert capsys.readouterr() == (f"wrote 606 rows to {os.devnull}\n", "")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_grid_to_dev_stdout_writes_the_csv_into_a_pipe(tmp_path, capsys):
    fresh = tmp_path / "grid.csv"
    assert main(["grid", "--out", str(fresh)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "psusyent.cli", "grid", "--out", "/dev/stdout"],
        capture_output=True, env=_child_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == fresh.read_bytes() + b"wrote 606 rows to /dev/stdout\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_grid_to_dev_stdout_redirected_to_a_file_prints_after_the_rows(tmp_path):
    # /dev/stdout opens the file anew at offset 0: the summary printed through
    # stdout's own offset 0 wrote over the header
    fresh, out = tmp_path / "grid.csv", tmp_path / "f"
    assert main(["grid", "--p-max", "1", "--z-max", "0.1", "--out", str(fresh)]) == 0
    proc = subprocess.run(
        ["sh", "-c", f'"$0" -m psusyent.cli grid --p-max 1 --z-max 0.1 --out /dev/stdout > "$1"',
         sys.executable, str(out)],
        capture_output=True, env=_child_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == fresh.read_bytes() + b"wrote 3 rows to /dev/stdout\n"


@pytest.mark.parametrize(
    "argv",
    [
        # alpha_{p-m} of the z-dependent-exact profile exceeds the float range
        ["--p-min", "4", "--p-max", "4", "--profile-kind", "z-dependent-exact", "--m", "1",
         "--z-min", "1e200", "--z-max", "1e200"],
        # the weight coefficients exceed the float range
        ["--p-min", "167", "--p-max", "167"],
        # alpha_{p-m} of the z-dependent-exact profile underflows
        ["--p-min", "4", "--p-max", "4", "--profile-kind", "z-dependent-exact", "--m", "2",
         "--z-min", "1e-170", "--z-max", "1e-170"],
        # p = 166 fails on its own: its series S overflows from |z| = 1.12 on
        ["--p-min", "166", "--p-max", "167"],
        # S overflows from |z| = 4.975 on; C = sqrt(1 - r^2) printed 1 there
        ["--p-min", "150", "--p-max", "150"],
        # p = 149 is written before p = 150 fails
        ["--p-min", "149", "--p-max", "150"],
        # only the first row's alpha_2 leaves the float range, and only the last row's alpha_3
        ["--p-min", "4", "--p-max", "4", "--profile-kind", "z-dependent-exact", "--m", "2",
         "--z-min", "1e-170", "--z-max", "2e-150", "--z-step", "1e-150"],
        ["--p-min", "4", "--p-max", "4", "--profile-kind", "z-dependent-exact", "--m", "1",
         "--z-min", "1", "--z-max", "1e200", "--z-step", "1e200"],
    ],
)
def test_grid_numerical_failure_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "grid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["grid", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: grid at p=")
    # no truncated sweep is left behind
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # D = 2B^2 overflows on every row
        ["--p-min", "150", "--p-max", "150", "--z-min", "4.9", "--z-max", "5"],
        # |z|^(2n) exceeds the float range
        ["--p-min", "60", "--p-max", "60", "--z-min", "1000", "--z-max", "1000"],
    ],
)
def test_grid_z_exact_past_the_range_of_d_writes_c_1(tmp_path, capsys, argv):
    # C = 1 is read off alpha_{p-m} alone, which stays a float on these rows
    out = tmp_path / "grid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["grid", *argv, "--profile-kind", "z-dependent-exact", "--m", "1",
                   "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "")
    header, *rows = out.read_text().splitlines()
    assert header == CSV_HEADER and rows
    assert all(row.endswith(",1,0,0.69314718056") for row in rows)


def test_grid_numerical_failure_over_an_existing_file_removes_it(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    out.write_text(CSV_HEADER + "\n1,0,0,1,0\n")
    assert main(["grid", "--p-min", "167", "--p-max", "167", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: grid at p=167: ")
    assert not out.exists()


def test_main_reads_sys_argv_when_given_no_argv(tmp_path, monkeypatch, capsys):
    out = tmp_path / "grid.csv"
    monkeypatch.setattr(sys, "argv", ["psusyent", "grid", "--p-max", "1", "--z-max", "0",
                                      "--out", str(out)])
    assert main() == 0
    assert capsys.readouterr().out == f"wrote 1 rows to {out}\n"
    assert out.read_text() == CSV_HEADER + "\n1,0,1,0,0.69314718056\n"


def test_state_over_a_domain_tiling_is_accurate_or_exits_1(tmp_path, capsys):
    # each cell at z = |z| (0.6 + 0.8i) either exits 0 with an eigen-residual
    # <= 1e-10 and its four routes within 1e-12, or exits 1 with one line;
    # under the |z|^2 + 10|z| + p + 20 cutoff 22 optimal-constant cells
    # exited 0 with residuals up to 8.0e-4
    exits = {}
    for p in domain.ORDERS:
        profiles = {
            "optimal-constant": {"p": p, "kind": "optimal-constant", "alpha_p": 1.0},
            "explicit": {"p": p, "kind": "explicit", "alphas": [0.7] * p + [1.0]},
        }
        for kind, obj in profiles.items():
            profile = _write_profile(tmp_path, obj)
            for z_abs in domain.Z_ABS:
                z = z_abs * complex(0.6, 0.8)
                argv = ["--z-re", repr(z.real), "--z-im", repr(z.imag), "--profile", profile]
                rc = main(["state", "--p", str(p), *argv])
                captured = capsys.readouterr()
                cell = (kind, p, z_abs)
                if rc == 0:
                    record = json.loads(captured.out)
                    routes = record["concurrence"].values()
                    assert record["eigenstate_residual"] <= 1e-10, cell
                    assert max(routes) - min(routes) <= 1e-12, cell
                else:
                    assert rc == 1 and len(captured.err.splitlines()) == 1, (cell, captured.err)
                exits[cell] = rc
    for p, z_abs in [(40, 1.0), (80, 1.0), (80, 3.0), (3, 30.0)]:
        assert exits["optimal-constant", p, z_abs] == 0, (p, z_abs)
    assert Counter(exits.values())[0] >= 200
