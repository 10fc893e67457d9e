"""Stacks of states: one order p, one row per state, equal to the states alone."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from psusyent import (
    AlphaProfile,
    FloatRangeError,
    TruncationError,
    beta_coefficients,
    build_annihilator,
    build_state,
    concurrence_pure,
    concurrence_routes,
    concurrence_schmidt_oracle,
    concurrence_wootters,
    default_n_max,
    density_from_amplitudes,
    qubit_bases,
    verify_eigenstate,
)
from psusyent.model import _norms
from psusyent.verify import consistency_residuals, eigenstate_residual, route_spread

from conftest import random_explicit_profile, random_z

CLOSED_FORM_FIELDS = ("z_abs", "alphas", "a_sq", "b_sq", "defect", "denom", "weight_sum")
# states per stack: one state alone, and stacks of mixed size
ROWS = (1, 2, 5, 9)


def _random_profile(rng, p):
    """An explicit, optimal-constant or (for p >= 4) z-dependent-exact profile."""
    kind = int(rng.integers(0, 3 if p >= 4 else 2))
    alpha_p = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
    if kind == 0:
        return random_explicit_profile(rng, p)
    if kind == 1:
        return AlphaProfile.optimal_constant(p, alpha_p)
    # p!/p^2 > 1 from p = 4 on: the rule is defined at every |z| > 0
    return AlphaProfile.z_dependent_exact(p, int(rng.integers(1, p)), alpha_p)


def _random_stack(rng, p, rows, z_max=4.0):
    zs = np.array([random_z(rng, z_max) for _ in range(rows)])
    zs[zs == 0] = 0.5  # z-dependent-exact profiles are undefined at z = 0
    return zs, [_random_profile(rng, p) for _ in range(rows)]


def _stacks():
    rng = np.random.default_rng(1212)
    for p in range(1, 9):
        for rows in ROWS:
            zs, profiles = _random_stack(rng, p, rows)
            yield p, zs, profiles


STACKS = list(_stacks())


@pytest.mark.parametrize("p, zs, profiles", STACKS)
def test_stack_rows_are_the_states_alone_bit_for_bit(p, zs, profiles):
    stack = build_state(p, zs, profiles)
    assert stack.full_vector.shape == (len(zs), stack.n_max * (p + 1))
    assert stack.coherent.shape == stack.derivative.shape == (len(zs), stack.n_max)
    assert stack.profile == tuple(profiles)
    amps = stack.qubit_amps
    assert amps.shape == (len(zs), 4)
    for i, (z, profile) in enumerate(zip(zs.tolist(), profiles)):
        alone = build_state(p, z, profile, n_max=stack.n_max)
        assert stack.z[i] == alone.z
        for name in ("full_vector", "coherent", "derivative"):
            assert np.array_equal(getattr(stack, name)[i], getattr(alone, name)), name
        for name in CLOSED_FORM_FIELDS:
            row = getattr(stack.closed_form, name)[i]
            assert np.array_equal(row, getattr(alone.closed_form, name)), name
        assert stack.q_norm[i] == alone.q_norm
        assert tuple(amps[i].tolist()) == alone.qubit_amps


@pytest.mark.parametrize("p, zs, profiles", STACKS)
def test_stacked_betas_and_bases_are_the_states_alone_bit_for_bit(p, zs, profiles):
    stack = build_state(p, zs, profiles)
    beta = beta_coefficients(stack)
    bases = qubit_bases(stack)
    assert beta.shape == (len(zs), p + 1, stack.n_max)
    for i, (z, profile) in enumerate(zip(zs.tolist(), profiles)):
        alone = build_state(p, z, profile, n_max=stack.n_max)
        assert np.array_equal(beta[i], beta_coefficients(alone))
        alone_bases = qubit_bases(alone)
        for name in ("b0", "b1", "f0", "f1"):
            assert np.array_equal(getattr(bases, name)[i], getattr(alone_bases, name)), name


@pytest.mark.parametrize("p, zs, profiles", STACKS)
def test_stacked_residuals_and_routes_match_the_states_alone(p, zs, profiles):
    stack = build_state(p, zs, profiles)
    residuals = eigenstate_residual(stack)
    consistency = consistency_residuals(stack)
    spreads = route_spread(stack)
    routes = concurrence_routes(stack)
    wootters = concurrence_wootters(density_from_amplitudes(stack.qubit_amps))
    schmidt = concurrence_schmidt_oracle(stack)
    pure = concurrence_pure(stack.qubit_amps)
    for result in (residuals, spreads, schmidt, pure, wootters.value, *consistency):
        assert result.shape == (len(zs),)
    assert wootters.lambdas.shape == (len(zs), 4)
    for i, (z, profile) in enumerate(zip(zs.tolist(), profiles)):
        alone = build_state(p, z, profile, n_max=stack.n_max)
        assert residuals[i] == eigenstate_residual(alone)
        for stacked, single in zip(consistency, consistency_residuals(alone)):
            assert stacked[i] == single
        assert spreads[i] == route_spread(alone)
        for name, value in concurrence_routes(alone).items():
            assert routes[name][i] == value, name
        single = concurrence_wootters(density_from_amplitudes(alone.qubit_amps))
        assert wootters.value[i] == single.value
        assert tuple(wootters.lambdas[i].tolist()) == single.lambdas
        assert schmidt[i] == concurrence_schmidt_oracle(alone)
        assert pure[i] == concurrence_pure(alone.qubit_amps)


def test_route_rows_are_the_rows_alone_for_any_states():
    # complex a00 and a11, mixed densities and full Schmidt rank, which no
    # coherent state gives: numpy's complex multiply and abs round otherwise
    # than Python's, and np.sum adds many pairs in another order
    rng = np.random.default_rng(14)
    for p, n_max in ((3, 5), (8, 12)):
        # a product state plus noise: every Schmidt value nonzero, C below 1
        shape = (50, n_max * (p + 1))
        vectors = np.zeros(shape, dtype=complex)
        vectors[:, 0] = 1.0
        vectors += 0.2 / shape[1] ** 0.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        schmidt = concurrence_schmidt_oracle(SimpleNamespace(p=p, n_max=n_max, full_vector=vectors))
        for i, row in enumerate(vectors):
            alone = SimpleNamespace(p=p, n_max=n_max, full_vector=row)
            assert schmidt[i] == concurrence_schmidt_oracle(alone)
    amps = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    pure = concurrence_pure(amps)
    mixing = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
    rho = mixing @ mixing.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    for densities in (density_from_amplitudes(amps), rho):
        wootters = concurrence_wootters(densities)
        for i, matrix in enumerate(densities):
            single = concurrence_wootters(matrix)
            assert wootters.value[i] == single.value
            assert tuple(wootters.lambdas[i].tolist()) == single.lambdas
    for i, row in enumerate(amps):
        assert pure[i] == concurrence_pure(row)
    amps[3] *= 1.1
    with pytest.raises(ValueError, match=r"sum \|a\|\^2 = 1.21"):
        concurrence_pure(amps)


def test_stack_cutoff_is_the_largest_default_of_its_rows():
    profiles = [AlphaProfile.optimal_constant(3)] * 3
    zs = np.array([0.2, 3.0 - 1.0j, 1.5j])
    stack = build_state(3, zs, profiles)
    assert stack.n_max == max(default_n_max(z, 3) for z in zs.tolist())
    assert stack.n_max == default_n_max(3.0 - 1.0j, 3) > default_n_max(0.2, 3)


def test_stack_checks_the_tail_of_each_row():
    profiles = [AlphaProfile.explicit([1.0, 1.0])] * 3
    # n_max = 12 holds the tail at |z| = 0.5, not at |z| = 3
    build_state(1, np.array([0.5, 0.25, 0.1j]), profiles, n_max=12)
    with pytest.raises(TruncationError, match=r"\|z\|=3"):
        build_state(1, np.array([0.5, 3.0, 0.1j]), profiles, n_max=12)
    with pytest.raises(TruncationError):
        build_state(1, 3.0, profiles[0], n_max=12)


def test_stack_needs_one_profile_of_order_p_per_row():
    profile = AlphaProfile.optimal_constant(2)
    with pytest.raises(ValueError, match="one profile each"):
        build_state(2, np.array([0.5, 1.0]), [profile])
    with pytest.raises(ValueError, match="order mismatch"):
        build_state(2, np.array([0.5, 1.0]), [profile, AlphaProfile.optimal_constant(3)])
    with pytest.raises(ValueError, match="1-D z array"):
        build_state(2, np.ones((2, 2), dtype=complex), [profile] * 4)


def test_stack_past_the_float_range_names_its_row():
    # |z> overflows from |z| ~ 37 on; the rows at |z| = 1 and 2 stay finite
    profiles = [AlphaProfile.explicit([1.0, 1.0])] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=r"\|z\|=40 leaves"):
            build_state(1, np.array([1.0, 40.0, 2.0]), profiles, n_max=3000, tail_tol=None)


def test_annihilator_applies_to_each_row_of_a_stack():
    rng = np.random.default_rng(7)
    for p, n_max in ((1, 3), (3, 12), (8, 40)):
        a_op = build_annihilator(p, n_max)
        psi = rng.normal(size=(4, n_max * (p + 1))) + 1j * rng.normal(size=(4, n_max * (p + 1)))
        out = a_op.apply(psi)
        assert out.shape == psi.shape
        for row, result in zip(psi, out):
            assert np.array_equal(result, a_op.apply(row))


def test_verify_eigenstate_checks_each_row_of_a_stack():
    rng = np.random.default_rng(8)
    zs, profiles = _random_stack(rng, 3, 4, z_max=3.0)
    stack = build_state(3, zs, profiles)
    a_op = build_annihilator(3, stack.n_max)
    residuals = verify_eigenstate(a_op, stack.full_vector, stack.z)
    for i in range(len(zs)):
        assert residuals[i] == verify_eigenstate(a_op, stack.full_vector[i], stack.z[i])
    scaled = stack.full_vector.copy()
    scaled[2] *= 2.0
    with pytest.raises(ValueError, match="not normalized"):
        verify_eigenstate(a_op, scaled, stack.z)
    with pytest.raises(ValueError, match="shape"):
        verify_eigenstate(a_op, stack.full_vector[:, :-1], stack.z)
    # each row's norm is the norm of the row alone, bit for bit: strided
    # views, rows from 1e-20 to 1e5, one row, and rows of length 1
    scales = 10.0 ** np.linspace(-20.0, 5.0, 6)[:, None]
    wide = (rng.normal(size=(6, 301)) + 1j * rng.normal(size=(6, 301))) * scales
    strided = (wide[:, ::3], wide[::2, 1::2], np.asfortranarray(wide), wide.real)
    for vectors in (wide, *strided, wide[:1], wide[:, :1]):
        assert np.array_equal(_norms(vectors), [np.linalg.norm(row) for row in vectors])
