import json
import math
import re

import pytest

from psusyent import verify
from psusyent.cli import main


def _write_profile(tmp_path, obj, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["state", "--p", "1", "--profile", str(path)])
    assert rc == 2
    assert "invalid profile JSON" in capsys.readouterr().err


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


def test_state_truncation_exits_1(tmp_path, capsys):
    profile = _write_profile(tmp_path, {"p": 2, "kind": "optimal-constant", "alpha_p": 1.0})
    rc = main(["state", "--p", "2", "--z-re", "6", "--profile", profile])
    assert rc == 1
    assert "need n_max >= 124" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--z-step", "0", "--out", "x.csv"],
        ["grid", "--z-min", "-1", "--out", "x.csv"],
        ["grid", "--p-min", "0", "--out", "x.csv"],
        ["grid", "--p-min", "4", "--p-max", "2", "--out", "x.csv"],
        ["grid", "--z-step", "nan", "--out", "x.csv"],
        ["grid", "--z-max", "inf", "--out", "x.csv"],
        ["grid", "--z-max", "nan", "--out", "x.csv"],
    ],
)
def test_grid_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--p", "1", "--z-re", "inf", "--profile", "x.json"],
        ["state", "--p", "1", "--z-re", "nan", "--profile", "x.json"],
        ["verify", "--tol", "nan"],
    ],
)
def test_non_finite_number_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err.splitlines()[-1]
