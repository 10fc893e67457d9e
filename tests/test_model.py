import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psusyent import (
    AlphaProfile,
    TruncationError,
    algebra,
    build_annihilator,
    build_boson,
    build_hamiltonian,
    build_parafermi,
    build_state,
    coherent_vector,
    concurrence_schmidt_oracle,
    default_n_max,
    degeneracy_profile,
    required_n_max,
    verify_eigenstate,
)
from psusyent.verify import eigenstate_residual

from conftest import annihilator_matrix, hamiltonian_matrix, random_explicit_profile


def test_hamiltonian_p1_spectrum():
    h = build_hamiltonian(1.0, 1, 3)
    evals = np.sort(np.linalg.eigvalsh(hamiltonian_matrix(h)))
    assert_allclose(evals, [0, 1, 1, 2, 2, 3], atol=1e-12)


def test_hamiltonian_ground_energy_p2():
    h = build_hamiltonian(1.0, 2, 8)
    profile = degeneracy_profile(h)
    energy, mult = profile[0]
    assert abs(energy + 0.5) < 1e-12
    assert mult == 1


def test_hamiltonian_linear_in_omega():
    h1 = build_hamiltonian(1.0, 3, 8)
    h2 = build_hamiltonian(2.0, 3, 8)
    assert_allclose(hamiltonian_matrix(h2), 2.0 * hamiltonian_matrix(h1), atol=1e-12)


def test_hamiltonian_matches_enumerated_diagonal():
    omega, p, n_max = 0.7, 3, 9
    dense = hamiltonian_matrix(build_hamiltonian(omega, p, n_max))
    assert np.max(np.abs(dense - dense.conj().T)) == 0.0
    expected = np.empty(n_max * (p + 1))
    for n_b in range(n_max):
        for n_f in range(p + 1):
            m = p / 2.0 - n_f
            # boson-major flat index of |n_b>|n_f>
            expected[n_b * (p + 1) + n_f] = omega * (n_b + 0.5 - m)
    assert_allclose(np.diag(dense).real, expected, atol=1e-12)
    assert np.max(np.abs(np.diag(dense).imag)) == 0.0


@pytest.mark.parametrize("omega,p,n_max", [(0.0, 1, 8), (-1.0, 1, 8), (1.0, 3, 4)])
def test_hamiltonian_invalid_arguments(omega, p, n_max):
    with pytest.raises(ValueError):
        build_hamiltonian(omega, p, n_max)


@pytest.mark.parametrize(
    "p,prefix",
    [(1, [1, 2, 2, 2, 2]), (2, [1, 2, 3, 3, 3]), (3, [1, 2, 3, 4, 4, 4])],
)
def test_degeneracy_profiles(p, prefix):
    h = build_hamiltonian(1.0, p, 2 * p + 8)
    mults = [mult for _, mult in degeneracy_profile(h)]
    assert mults[: len(prefix)] == prefix
    # constant p+1 plateau away from the truncation boundary
    plateau_end = h.n_max - p - 1
    assert all(m == p + 1 for m in mults[p:plateau_end])


def _grouped_levels(h):
    """Each run of sorted eigenvalues within 1e-9 omega of its first, at its mean."""
    evals = np.sort(h.energies)
    gap = 1e-9 * h.omega
    profile = []
    group_start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[group_start] > gap:
            group = evals[group_start:i]
            profile.append((float(np.mean(group)), len(group)))
            group_start = i
    return profile


@pytest.mark.parametrize("omega", [1.0, 0.3, 1.7, 1e-3, 123.456, 0.7])
def test_degeneracy_profile_matches_grouping_oracle(omega):
    for p in range(1, 9):
        for n_max in (2 * p + 2, 2 * p + 8, 40, 100):
            h = build_hamiltonian(omega, p, n_max)
            assert degeneracy_profile(h) == _grouped_levels(h), (p, n_max)


def test_degeneracy_requires_wide_truncation():
    h = build_hamiltonian(1.0, 3, 6)
    with pytest.raises(ValueError):
        degeneracy_profile(h)


def test_annihilator_p1_structure():
    n_max = 6
    a_op = build_annihilator(1, n_max)
    boson = build_boson(n_max)
    pf = build_parafermi(1)
    expected = np.kron(boson.a, np.eye(2)) + np.kron(np.eye(n_max), pf.b_dag)
    assert_allclose(annihilator_matrix(a_op), expected, atol=1e-14)


def test_annihilator_p2_second_term():
    n_max = 6
    a_op = build_annihilator(2, n_max)
    boson = build_boson(n_max)
    pf = build_parafermi(2)
    bdag_sq = np.linalg.matrix_power(pf.b_dag, 2)
    # (b†)^2 sends |n_f = 2> to 2 |n_f = 0>: single entry p! = 2
    expected_bdag_sq = np.zeros((3, 3))
    expected_bdag_sq[0, 2] = 2.0
    assert_allclose(bdag_sq, expected_bdag_sq, atol=1e-14)
    second = annihilator_matrix(a_op) - np.kron(boson.a, np.eye(3))
    assert_allclose(second, np.kron(boson.a_dag / 2.0, bdag_sq), atol=1e-14)


@pytest.mark.parametrize("p", range(1, 9))
def test_annihilator_apply_matches_dense_oracle(p, rng):
    for n_max in (p + 2, 20, 60):
        a_op = build_annihilator(p, n_max)
        dense = annihilator_matrix(a_op)
        for _ in range(3):
            v = rng.normal(size=n_max * (p + 1)) + 1j * rng.normal(size=n_max * (p + 1))
            expected = dense @ v
            error = np.linalg.norm(a_op.apply(v) - expected) / np.linalg.norm(expected)
            assert error <= 1e-14, (p, n_max, error)


def test_large_z_residual_builds_no_dense_matrix():
    z = 20.0 * np.exp(0.3j)
    tracemalloc.start()
    try:
        state = build_state(8, z, AlphaProfile.optimal_constant(8), n_max=628, check=False)
        a_op = build_annihilator(8, state.n_max)
        residual = verify_eigenstate(a_op, state.full_vector, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.n_max == 628
    assert residual <= 1e-8
    # a dense A on this space would take (628 * 9)^2 * 16 bytes = 511 MB
    assert peak < 16 * 2**20, peak


def test_eigenstate_at_z_zero():
    profile = AlphaProfile.explicit([0.3, -1.1, 0.9])
    state = build_state(2, 0.0, profile)
    a_op = build_annihilator(2, state.n_max)
    assert verify_eigenstate(a_op, state.full_vector, 0.0) < 1e-12


@pytest.mark.parametrize(
    "p,z",
    [(1, 1.0 + 0.5j), (2, 2.0 - 1.0j), (3, 2.0), (4, 0.5 - 2.5j)],
)
def test_eigenstate_residual_small(p, z, rng):
    profile = random_explicit_profile(rng, p)
    state = build_state(p, z, profile)
    a_op = build_annihilator(p, state.n_max)
    assert verify_eigenstate(a_op, state.full_vector, z) < 1e-8


def test_eigenstate_optimal_profile_p3():
    state = build_state(3, 2.0, AlphaProfile.optimal_constant(3))
    a_op = build_annihilator(3, state.n_max)
    assert verify_eigenstate(a_op, state.full_vector, 2.0) < 1e-8


def test_eigenstate_residual_of_a_truncated_state_raises_truncation_error():
    # n_max = 179 drops 3.6e-6 of this state's norm: a truncation defect,
    # where an arbitrary unnormalized vector stays a plain ValueError; built
    # unchecked, as build_state itself rejects that cutoff
    state = build_state(120, 3.0, AlphaProfile.optimal_constant(120), n_max=179, check=False)
    with pytest.raises(TruncationError, match=r"state norm 0\.99999644\d* is short of 1"):
        eigenstate_residual(state)
    a_op = build_annihilator(120, state.n_max)
    with pytest.raises(ValueError, match="not normalized") as err:
        verify_eigenstate(a_op, state.full_vector, 3.0)
    assert type(err.value) is ValueError
    # in a stack, the short row raises it too
    stack = build_state(
        120, np.array([1.0, 3.0]), [AlphaProfile.optimal_constant(120)] * 2, n_max=179,
        check=False,
    )
    with pytest.raises(TruncationError, match="short of 1"):
        eigenstate_residual(stack)


def test_eigenstate_residual_of_a_state_longer_than_1_raises_a_plain_value_error():
    # only a norm short of 1 is a truncation defect; a longer one is passed on
    state = build_state(2, 1.0, AlphaProfile.optimal_constant(2))
    doubled = dataclasses.replace(state, full_vector=2 * state.full_vector)
    with pytest.raises(ValueError, match=r"^state is not normalized: \|\|state\|\| = 2$") as err:
        eigenstate_residual(doubled)
    assert type(err.value) is ValueError


def test_truncation_errors_of_a_built_state_name_the_default_cutoff():
    # n_max = 179 passes |z>'s tail check but truncates |z^(p)>: built
    # unchecked, the residual and the Schmidt route name the default cutoff,
    # the largest over a stack's rows, which holds the residual under 1e-10
    profile = AlphaProfile.optimal_constant(120)
    state = build_state(120, 3.0, profile, n_max=179, check=False)
    stack = build_state(120, np.array([1.0, 3.0]), [profile] * 2, n_max=179, check=False)
    assert default_n_max(3.0, 120) == 220 and default_n_max(1.0, 120) < 220
    for check, text in ((eigenstate_residual, "short of 1"),
                        (concurrence_schmidt_oracle, "differs from 1 beyond 1e-8")):
        for truncated in (state, stack):
            with pytest.raises(TruncationError, match=text + ".*; increase n_max to 220$") as err:
                check(truncated)
            assert err.value.required_n_max == 220
    assert eigenstate_residual(build_state(120, 3.0, profile, n_max=220)) <= 1e-10


@pytest.mark.parametrize("p, n_max, needed", [(8, 20, 72), (120, 179, 220)])
def test_a_short_cutoff_names_the_state_cutoff_as_its_remedy(p, n_max, needed):
    # the tail rule of |z> alone asks for 41: at p = 8 a state built there has
    # residual 3.2e-3, and at p = 120 a state built at 179 drops 3.6e-6 of its norm
    profile = AlphaProfile.optimal_constant(p)
    stack = (np.array([1.0, 3.0]), [profile] * 2)
    for z, profiles in ((3.0, profile), stack):
        with pytest.raises(TruncationError, match=rf"at \|z\|=3; need n_max >= {needed}$") as err:
            build_state(p, z, profiles, n_max=n_max)
        assert err.value.required_n_max == needed
    # the coherent vector's own error keeps its tail rule
    with pytest.raises(TruncationError, match=r"need n_max >= 41$"):
        coherent_vector(3.0, 20, tail_tol=1e-14)
    assert eigenstate_residual(build_state(p, 3.0, profile, n_max=needed)) <= 1e-10


@pytest.mark.parametrize(
    "p, z_abs, n_max, needed",
    [(1, 0.5, 11, 20), (3, 0.5, 11, 22), (8, 3.0, 41, 72), (8, 5.0, 73, 111)],
)
def test_a_cutoff_that_holds_the_tail_of_z_is_checked_by_the_residual_rule(p, z_abs, n_max, needed):
    # n_max is |z>'s own tail rule's cutoff; a state built there unchecked has an
    # eigen-residual of 3.4e-6 to 3.2e-3, so build_state names the residual
    # rule's cutoff (the default rule without its floor of 32) instead
    z, profile = z_abs * complex(0.6, 0.8), AlphaProfile.optimal_constant(p)
    assert required_n_max(z_abs, algebra.DEFAULT_TAIL_TOL) == n_max
    assert algebra._cutoff(z_abs, p, p + 2) == needed
    assert eigenstate_residual(build_state(p, z, profile, n_max=n_max, check=False)) > 1e-6
    text = rf"^truncation n_max={n_max} .* at \|z\|={z_abs:g}; need n_max >= {needed}$"
    with pytest.raises(TruncationError, match=text) as err:
        build_state(p, z, profile, n_max=n_max)
    assert err.value.required_n_max == needed
    assert eigenstate_residual(build_state(p, z, profile, n_max=needed)) <= 1e-10


def test_annihilator_lowers_energy_by_omega(rng):
    # [H, A] v = -omega A v on vectors supported away from the truncation top
    omega, n_max = 1.3, 16
    for p in (1, 2, 3):
        h = build_hamiltonian(omega, p, n_max)
        a_op = build_annihilator(p, n_max)
        v = np.zeros(n_max * (p + 1), dtype=complex)
        safe = (n_max - p - 1) * (p + 1)
        v[:safe] = rng.normal(size=safe) + 1j * rng.normal(size=safe)
        v /= np.linalg.norm(v)
        a_dense, h_dense = annihilator_matrix(a_op), hamiltonian_matrix(h)
        av = a_dense @ v
        residual = h_dense @ av - a_dense @ (h_dense @ v) + omega * av
        assert np.linalg.norm(residual) < 1e-12 * n_max


def test_residual_decreases_with_truncation():
    profile = AlphaProfile.explicit([1.0, -0.7, 0.4])
    residuals = []
    for n_max in (12, 18, 24):
        state = build_state(2, 1.5, profile, n_max=n_max, check=False)
        vec = state.full_vector / np.linalg.norm(state.full_vector)
        residuals.append(verify_eigenstate(build_annihilator(2, n_max), vec, 1.5))
    assert residuals[0] > residuals[1] > residuals[2]


def test_verify_eigenstate_input_validation():
    a_op = build_annihilator(1, 8)
    with pytest.raises(ValueError):
        verify_eigenstate(a_op, np.zeros(5), 0.0)
    with pytest.raises(ValueError):
        verify_eigenstate(a_op, np.ones(16), 0.0)  # not normalized


@pytest.mark.parametrize("p,n_max", [(1, 2), (3, 4)])
def test_annihilator_invalid_dimensions(p, n_max):
    with pytest.raises(ValueError):
        build_annihilator(p, n_max)
