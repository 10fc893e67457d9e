"""Tests of the benchmark itself: seeded inputs, output checks and tracing.

Run from the repository root: python -m pytest benchmarks/tests -q
"""

import contextlib
import io
import json

import pytest

import psusyent.cli as cli
from checks import check_grid_csv, check_state, check_verify
from run import end_to_end, evaluate
from spans import Tracer, wrapped_bindings
from workloads import GRID, STATE, VERIFY, WORKLOADS, generate


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _record(op, out, rc=0, **extra):
    return {"op": op, "t": 0.0, "ms": 1.0, "rc": rc, "exc": None, "out": out, "err": "", **extra}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = generate(workload, 7, "work")
    assert first == generate(workload, 7, "work")
    assert first[0] != generate(workload, 8, "work")[0]


def test_grid_stream_repeats_argv():
    ops, _ = generate(GRID, 3, "work")
    assert ops[7] == ops[3] and ops[15] == ops[11]


def _write_profiles(files):
    for path, obj in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def test_tracer_records_spans_and_restores_every_name(tmp_path):
    ops, files = generate(STATE, 1, str(tmp_path))
    _write_profiles(files)
    grid = ["grid", "--p-max", "3", "--z-max", "1", "--profile-kind", "z-dependent-exact",
            "--out", str(tmp_path / "g.csv")]
    before = wrapped_bindings()
    tracer = Tracer()
    with tracer.installed():
        assert wrapped_bindings() != before
        assert _call(ops[0])[0] == 0
        assert _call(grid)[0] == 0
    assert wrapped_bindings() == before
    stats = tracer.stats
    assert stats["cli.main"].calls == 2
    assert stats["coherent.build_state"].calls == 1
    assert stats["model.build_annihilator"].extra["dense_bytes"] > 0
    assert stats["coherent.AlphaProfile.coefficients"].errors["NoRealSolutionError"] > 0
    main = stats["cli.main"]
    assert 0 < main.self_ns < main.busy_ns


def test_tracer_restores_names_after_an_error():
    before = wrapped_bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert wrapped_bindings() == before


def test_corrupted_state_output_counts_as_failed(tmp_path):
    ops, files = generate(STATE, 2, str(tmp_path))
    _write_profiles(files)
    rc, out = _call(ops[0])
    assert rc == 0 and check_state(ops[0], out) is None
    rec = json.loads(out)
    rec["concurrence"]["wootters-4x4"] += 1e-6
    bad = json.dumps(rec)
    assert "routes disagree" in check_state(ops[0], bad)

    records = [_record(0, out), _record(0, bad)]
    reasons, rows, _ = evaluate(STATE, ops, records, seed=2)
    failed = sum(r is not None for r in reasons)
    assert failed == 1
    assert end_to_end(records, rows, failed, len(records), [0.2], 1024, [1.0, 1.0])["ok_frac"] == 0.5


@pytest.mark.parametrize("kind", ["optimal-constant", "z-dependent-exact"])
def test_grid_check_accepts_the_cli_output_and_rejects_corruption(tmp_path, kind):
    # 22 rows, within the sample size, so every row is checked; for
    # z-dependent-exact the p=3 rows are nan (negative bracket), p=4 are not
    path = tmp_path / "g.csv"
    argv = ["grid", "--p-min", "3", "--p-max", "4", "--z-max", "0.2", "--z-step", "0.02",
            "--profile-kind", kind, "--m", "2", "--out", str(path)]
    assert _call(argv)[0] == 0
    lines = path.read_text().split("\n")
    assert check_grid_csv(argv, path.read_bytes(), seed=0) is None

    row = lines.index(next(line for line in lines if line.startswith("4,0.1,")))
    fields = lines[row].split(",")
    shifted = fields[:2] + [repr(float(fields[2]) + 1e-6)] + fields[3:]
    for bad_row in (shifted, fields[:2] + ["nan"] * 3):
        corrupted = lines[:row] + [",".join(bad_row)] + lines[row + 1:]
        assert check_grid_csv(argv, "\n".join(corrupted).encode(), seed=0) is not None


def test_grid_bytes_must_match_across_repeated_calls(tmp_path):
    path = tmp_path / "g.csv"
    argv = ["grid", "--p-max", "2", "--z-max", "1", "--profile-kind", "optimal-constant",
            "--out", str(path)]
    _, out = _call(argv)
    records = [_record(0, out, sha256="0" * 64)]
    reasons, _, _ = evaluate(GRID, [argv], records, seed=0)
    assert "differ" in reasons[0]


def test_verify_check_needs_exit_zero():
    rc, out = _call(["verify", "--p-max", "1"])
    assert check_verify(rc, out) is None
    assert check_verify(1, out) is not None
    assert evaluate(VERIFY, [["verify"]], [_record(0, out, rc=1)], seed=0)[0][0] is not None
