"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines inline.
"""

import math
import time

import numpy as np

from psusyent import (
    AlphaProfile,
    build_hamiltonian,
    build_state,
    coherent_vector,
    concurrence_closed_form,
    concurrence_optimal,
    concurrence_routes,
    concurrence_schmidt_oracle,
    degeneracy_profile,
    entanglement_of_formation,
)
from psusyent.cli import main
from psusyent.verify import (
    eigenstate_residual,
    random_states,
    route_spread,
    suite_parafermi_algebra,
)

from conftest import random_explicit_profile, random_z


def _report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_algebra_relations():
    t0 = time.perf_counter()
    worst = max(suite_parafermi_algebra(8, rng=None))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"six operator relations for p=1..8: max residual {worst:.2e} "
        f"(<= 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_spectrum_degeneracy():
    t0 = time.perf_counter()
    ok = True
    for p in (1, 2, 3):
        n_max = 2 * p + 10
        profile = degeneracy_profile(build_hamiltonian(1.0, p, n_max))
        mults = [mult for _, mult in profile]
        expected = [n + 1 for n in range(p)] + [p + 1] * (n_max - p - (p + 1) + 1)
        ok = ok and mults[: len(expected)] == expected
    elapsed = time.perf_counter() - t0
    _report(
        2,
        ok and elapsed < 1.0,
        f"multiplicities n+1 then p+1 for p=1..3 away from truncation, "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_03_eigenstate_property(rng):
    t0 = time.perf_counter()
    worst = max(eigenstate_residual(state) for state in random_states(rng, 30, 4, 3.0))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        worst <= 1e-8 and elapsed < 5.0,
        f"||A|Z> - z|Z>|| over 30 random (p<=4, |z|<=3): max {worst:.2e} "
        f"(<= 1e-8), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_04_bell_state_reproduction():
    z_values = [0.0, 0.4, 1.0, -1.3, 0.8j, 2.0 + 1.0j, -0.5 - 0.5j, 2.9, 1.7j, 0.1 - 2.2j]
    profile = AlphaProfile.explicit([1.0, 1.0])
    target = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    worst_amp, worst_conc = 0.0, 0.0
    for z in z_values:
        state = build_state(1, z, profile)
        worst_amp = max(worst_amp, float(np.max(np.abs(np.array(state.qubit_amps) - target))))
        worst_conc = max(worst_conc, *(abs(v - 1.0) for v in concurrence_routes(state).values()))
    _report(
        4,
        worst_amp <= 1e-10 and worst_conc <= 1e-10,
        f"p=1, alpha_0=alpha_1 over {len(z_values)} z values: amplitude error "
        f"{worst_amp:.2e}, concurrence error {worst_conc:.2e} (<= 1e-10 on all four routes)",
    )


def test_criterion_05_four_route_equivalence(rng):
    t0 = time.perf_counter()
    worst = max(route_spread(state) for state in random_states(rng, 250, 5, 3.0))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        worst <= 1e-8 and elapsed < 30.0,
        f"pairwise route spread over 250 random (p<=5, |z|<=3): max {worst:.2e} "
        f"(<= 1e-8), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_06_disentanglement_iff(rng):
    worst_conc, worst_dist = 0.0, 0.0
    smallest_entangled = math.inf
    for _ in range(10):
        p = int(rng.integers(1, 6))
        z = random_z(rng, 2.5) + 0.3  # keep |z| > 0 so the product state is normalizable
        alphas = rng.uniform(-2.0, 2.0, p + 1)
        alphas[p] = 0.0
        if np.all(alphas == 0.0):
            alphas[0] = 1.0
        profile = AlphaProfile.explicit(alphas)
        worst_conc = max(worst_conc, concurrence_closed_form(p, z, profile).value)

        state = build_state(p, z, profile)
        ferm = np.array(
            [alphas[0] * np.conj(z) ** p]
            + [alphas[k] * z ** (p - k) for k in range(1, p + 1)]
        )
        product = np.kron(coherent_vector(z, state.n_max), ferm)
        product /= np.linalg.norm(product)
        worst_dist = max(worst_dist, float(np.linalg.norm(state.full_vector - product)))

        entangled = random_explicit_profile(rng, p)
        smallest_entangled = min(
            smallest_entangled, concurrence_closed_form(p, z, entangled).value
        )
    _report(
        6,
        worst_conc < 1e-12 and worst_dist <= 1e-10 and smallest_entangled > 0.0,
        f"alpha_p=0: concurrence {worst_conc:.2e} (< 1e-12), product-form distance "
        f"{worst_dist:.2e} (<= 1e-10); alpha_p!=0 minimum concurrence "
        f"{smallest_entangled:.3e} (> 0)",
    )


def test_criterion_07_near_maximality():
    worst = 0.0
    for p in range(2, 7):
        worst = max(worst, 1.0 - concurrence_optimal(p, 3.0))
    print("           measured 1-C of the optimal-constant family over 1 < |z| < 3:")
    for p in range(2, 7):
        curve = ", ".join(
            f"|z|={z:.2f}: {1.0 - concurrence_optimal(p, z):.3e}"
            for z in (1.25, 1.5, 2.0, 2.5, 3.0)
        )
        print(f"           p={p}: {curve}")
    _report(
        7,
        worst <= 1e-3,
        f"optimal-constant family at |z|=3, p=2..6: max 1-C = {worst:.3e} (<= 1e-3)",
    )


def test_criterion_08_exact_maximality():
    worst = 0.0
    for p, m, z in ((2, 1, 1.0), (3, 1, 1.5), (3, 2, 1.5), (4, 2, 2.0)):
        profile = AlphaProfile.z_dependent_exact(p, m)
        closed = concurrence_closed_form(p, z, profile).value
        oracle = concurrence_schmidt_oracle(build_state(p, z, profile))
        worst = max(worst, abs(closed - 1.0), abs(oracle - 1.0))
    _report(
        8,
        worst <= 1e-10,
        f"z-dependent profiles at (2,1,1), (3,1,1.5), (3,2,1.5), (4,2,2): "
        f"max |C - 1| = {worst:.2e} (<= 1e-10, Schmidt-oracle cross-checked)",
    )


def test_criterion_09_figure_grid(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "figure_grid.csv"
    rc = main(["grid", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    elapsed = time.perf_counter() - t0

    p1_constant = all(float(r[2]) == 1.0 for r in rows if r[0] == "1")
    monotone = True
    for p in range(2, 7):
        vals = [float(r[2]) for r in rows if r[0] == str(p)]
        monotone = monotone and all(b >= a for a, b in zip(vals, vals[1:]))
    row20 = next(r for r in rows if r[0] == "2" and r[1] == "0")
    anchor = abs(float(row20[2]) - 0.942809) <= 1e-6
    _report(
        9,
        rc == 0 and p1_constant and monotone and anchor and elapsed < 10.0,
        f"grid CSV p=1..6, |z|=0..5: p=1 row constant 1.0, p>=2 rows nondecreasing, "
        f"row (2,0) = {row20[2]} (0.942809 +- 1e-6), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_10_eof_endpoints_and_monotonicity():
    end0 = entanglement_of_formation(0.0)
    end1 = abs(entanglement_of_formation(1.0) - math.log(2.0))
    grid = np.linspace(0.0, 1.0, 1000)
    values = np.array([entanglement_of_formation(c) for c in grid])
    strict = bool(np.all(np.diff(values) > 0.0))
    _report(
        10,
        end0 == 0.0 and end1 <= 1e-12 and strict,
        f"EoF(0) = {end0}, |EoF(1) - ln 2| = {end1:.2e} (<= 1e-12), "
        f"strictly increasing on a 1000-point grid: {strict}",
    )
