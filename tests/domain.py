"""A map of the input domain: every tiled (kind, p, |z|) cell, computed or classified.

Stdlib and the package only.  The tiling crosses 18 orders p with 14 moduli
|z|, each at z = |z| (0.6 + 0.8i), and three profile kinds:
optimal-constant, explicit (0.7, ..., 0.7, 1) and z-dependent-exact with
m = 1 (which needs p >= 2).  Each cell records

* ``verdict``: the library's outcome for the default ``build_state``, its
  four concurrence routes and its eigen-residual, taken in the order the
  ``state`` command takes them.  ``ok`` where the residual is <= 1e-10 and
  the routes agree within 1e-12, ``inaccurate`` where one of those fails,
  else the class of what was raised (a leaked RuntimeWarning included);
* ``exit``: the exit code of the ``state`` command on the same cell.

Each (p, |z|) also records the exit code of a one-row z-dependent-exact
``grid`` with m = 1.  No digits are recorded, so the map does not depend on
numpy's SIMD level.  ``tests/DOMAIN.json`` is the committed map; a tier-1
test regenerates it and compares.  To rewrite it after a change that moves a
cell on purpose::

    PYTHONPATH=src python tests/domain.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from psusyent import AlphaProfile, build_state, concurrence_routes
from psusyent.cli import main
from psusyent.verify import eigenstate_residual

ORDERS = (1, 2, 3, 4, 6, 8, 12, 20, 40, 80, 99, 120, 150, 166, 167, 170, 171, 200)
Z_ABS = (0.0, 0.5, 1.0, 3.0, 5.0, 5.7, 8.0, 10.0, 20.0, 30.0, 37.0, 38.0, 40.0, 60.0)
KINDS = ("optimal-constant", "explicit", "z-dependent-exact")
PHASE = complex(0.6, 0.8)
RESIDUAL_BOUND = 1e-10
SPREAD_BOUND = 1e-12

MAP_PATH = Path(__file__).resolve().parent / "DOMAIN.json"


def profile_object(kind: str, p: int) -> dict | None:
    """The profile JSON of a kind at order p; None where the kind has no member."""
    if kind == "optimal-constant":
        return {"p": p, "kind": kind, "alpha_p": 1.0}
    if kind == "explicit":
        return {"p": p, "kind": kind, "alphas": [0.7] * p + [1.0]}
    return {"p": p, "kind": kind, "alpha_p": 1.0, "m": 1} if p >= 2 else None


def library_verdict(p: int, z: complex, profile: dict) -> str:
    """``ok``, ``inaccurate`` or the class of the error, for the default state at z."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = build_state(p, z, AlphaProfile.from_dict(profile))
            routes = concurrence_routes(state)
            residual = eigenstate_residual(state)
    except Exception as exc:  # the map records whatever the library raises
        return type(exc).__name__
    spread = max(routes.values()) - min(routes.values())
    return "ok" if residual <= RESIDUAL_BOUND and spread <= SPREAD_BOUND else "inaccurate"


def _exit_code(argv: list[str]) -> int:
    """``cli.main(argv)`` in process, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def domain_map() -> dict:
    """The map of every tiled cell: ``cells`` for ``state``, ``grid`` for one-row grids."""
    cells, grid = [], []
    with tempfile.TemporaryDirectory() as tmp:
        profile_path, out = os.path.join(tmp, "profile.json"), os.path.join(tmp, "grid.csv")
        for p in ORDERS:
            for kind in KINDS:
                profile = profile_object(kind, p)
                if profile is None:
                    continue
                with open(profile_path, "w", encoding="utf-8") as fh:
                    json.dump(profile, fh)
                for z_abs in Z_ABS:
                    z = z_abs * PHASE
                    argv = ["state", "--p", str(p), "--z-re", repr(z.real), "--z-im",
                            repr(z.imag), "--profile", profile_path]
                    cells.append({"kind": kind, "p": p, "z_abs": z_abs,
                                  "verdict": library_verdict(p, z, profile),
                                  "exit": _exit_code(argv)})
            for z_abs in Z_ABS:
                argv = ["grid", "--p-min", str(p), "--p-max", str(p), "--z-min", repr(z_abs),
                        "--z-max", repr(z_abs), "--profile-kind", "z-dependent-exact", "--m",
                        "1", "--out", out]
                grid.append({"p": p, "z_abs": z_abs, "exit": _exit_code(argv)})
    return {"cells": cells, "grid": grid}


def dumps(domain: dict) -> str:
    """The map as JSON text, one record per line, so that a moved cell is a one-line diff."""
    parts = []
    for key, records in domain.items():
        rows = ",\n".join("    " + json.dumps(record) for record in records)
        parts.append(f'  "{key}": [\n{rows}\n  ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    text = dumps(domain_map())
    if sys.argv[1:] == ["--write"]:
        MAP_PATH.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
