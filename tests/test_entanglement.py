import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psusyent import (
    AlphaProfile,
    FloatRangeError,
    NoRealSolutionError,
    TruncationError,
    build_state,
    concurrence_closed_form,
    concurrence_optimal,
    concurrence_pure,
    concurrence_routes,
    concurrence_schmidt_oracle,
    concurrence_wootters,
    density_from_amplitudes,
    entanglement_of_formation,
)
from psusyent.entanglement import ROUTE_CLOSED_FORM, ROUTE_PURE, ROUTE_SCHMIDT, ROUTE_WOOTTERS
from psusyent.verify import random_states, route_spread

from conftest import random_explicit_profile, random_z

TWO_SQRT2_OVER_3 = 0.9428090415820634  # 2*sqrt(2)/3
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


# ---------------------------------------------------------------- closed form


def test_closed_form_zero_iff_alpha_p_zero(rng):
    assert concurrence_closed_form(2, 1.3, AlphaProfile.explicit([1.0, 0.4, 0.0])).value == 0.0
    for _ in range(15):
        p = int(rng.integers(1, 6))
        z = random_z(rng, 3.0)
        alphas = rng.uniform(-2, 2, p + 1)
        alphas[p] = 0.0
        if np.all(alphas == 0.0):
            alphas[0] = 1.0
        assert concurrence_closed_form(p, z, AlphaProfile.explicit(alphas)).value == 0.0
        assert concurrence_closed_form(p, z, random_explicit_profile(rng, p)).value > 0.0


@pytest.mark.parametrize("z", [0.0, 0.9, 2.1 - 0.7j])
@pytest.mark.parametrize("scale", [1.0, -0.6])
def test_closed_form_susy_bell_is_maximal(z, scale):
    profile = AlphaProfile.explicit([scale, scale])
    assert abs(concurrence_closed_form(1, z, profile).value - 1.0) < 1e-12


def test_closed_form_p2_optimal_at_origin():
    result = concurrence_closed_form(2, 0.0, AlphaProfile.optimal_constant(2))
    assert abs(result.value - TWO_SQRT2_OVER_3) < 1e-12
    state = build_state(2, 0.0, AlphaProfile.optimal_constant(2))
    assert abs(concurrence_schmidt_oracle(state) - TWO_SQRT2_OVER_3) < 1e-10


def test_closed_form_result_fields():
    result = concurrence_closed_form(1, 0.5, AlphaProfile.explicit([1.0, 1.0]))
    assert result.route == "closed-form"
    assert result.lambdas is None
    assert abs(result.eof - math.log(2.0)) < 1e-12


# ---------------------------------------------------------------- pure amplitudes


def test_pure_concurrence_examples():
    assert abs(concurrence_pure(BELL) - 1.0) < 1e-14
    assert concurrence_pure([1.0, 0.0, 0.0, 0.0]) == 0.0
    assert abs(concurrence_pure([0.6, 0.0, 0.0, 0.8]) - 0.96) < 1e-14


def test_pure_concurrence_rejects_unnormalized():
    with pytest.raises(ValueError):
        concurrence_pure([1.0, 0.0, 0.0, 1.0])


# ---------------------------------------------------------------- Wootters 4x4


def test_wootters_bell_projector():
    result = concurrence_wootters(density_from_amplitudes(BELL))
    assert abs(result.value - 1.0) < 1e-10
    assert result.lambdas[0] == pytest.approx(1.0, abs=1e-10)
    assert result.lambdas[1:] == (0.0, 0.0, 0.0)


def test_wootters_maximally_mixed():
    result = concurrence_wootters(np.eye(4) / 4.0)
    assert result.value == 0.0
    assert_allclose(result.lambdas, [0.25] * 4, atol=1e-12)


def test_wootters_werner_state():
    w = 0.8
    rho = w * np.outer(BELL, BELL) + (1 - w) * np.eye(4) / 4.0
    result = concurrence_wootters(rho)
    assert abs(result.value - (3 * w - 1) / 2.0) < 1e-10
    assert result.lambdas == tuple(sorted(result.lambdas, reverse=True))


def test_wootters_rejects_invalid_density():
    bad_trace = np.eye(4) / 2.0
    with pytest.raises(ValueError):
        concurrence_wootters(bad_trace)
    non_hermitian = np.eye(4) / 4.0 + 0j
    non_hermitian[0, 1] = 0.1
    with pytest.raises(ValueError):
        concurrence_wootters(non_hermitian)
    non_psd = np.diag([0.6, 0.6, -0.1, -0.1])
    with pytest.raises(ValueError):
        concurrence_wootters(non_psd)
    with pytest.raises(ValueError):
        concurrence_wootters(np.eye(3) / 3.0)


@pytest.mark.parametrize(
    "rho",
    [
        np.full((4, 4), np.nan, dtype=complex),
        np.full((4, 4), np.inf, dtype=complex),
        np.stack([np.eye(4) / 4.0, np.full((4, 4), np.nan), np.eye(4) / 4.0]),
    ],
    ids=["nan", "inf", "stack-with-one-nan"],
)
def test_wootters_classifies_a_non_finite_density(rho):
    # nan passes every tolerance comparison and inf makes the Hermitian
    # difference nan; neither may reach eigvalsh or warn on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError):
            concurrence_wootters(rho)


def _wootters_written_out(rho):
    """(C, lambdas) by the numpy formulation the route used before it
    finished its four eigenvalues in Python floats."""
    sy_sy = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])
    rho = np.asarray(rho, dtype=complex)
    evals = np.real(np.linalg.eigvals(rho @ (sy_sy @ rho.conj() @ sy_sy)))
    dust = 1e-12 * max(float(np.max(np.abs(evals))), 1e-300)
    evals[np.abs(evals) < dust] = 0.0
    assert np.min(evals) >= 0.0
    lams = np.sort(np.sqrt(evals))[::-1]
    value = max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
    return min(max(value, 0.0), 1.0), tuple(float(x) for x in lams)


def _route_kernel_states():
    return list(random_states(np.random.default_rng(2005), 200, 8, 3.0))


def test_wootters_kernel_is_bit_identical_in_python_floats():
    w = 0.8
    densities = [density_from_amplitudes(s.qubit_amps) for s in _route_kernel_states()] + [
        density_from_amplitudes(BELL),
        w * np.outer(BELL, BELL) + (1 - w) * np.eye(4) / 4.0,
        np.eye(4) / 4.0,
    ]
    for rho in densities:
        result = concurrence_wootters(rho)
        assert type(result.value) is float
        assert all(type(lam) is float for lam in result.lambdas)
        assert list(result.lambdas) == sorted(result.lambdas, reverse=True)
        assert (result.value, result.lambdas) == _wootters_written_out(rho)


def test_schmidt_kernel_is_bit_identical_in_python_floats():
    for state in _route_kernel_states():
        psi = state.full_vector.reshape(state.n_max, state.p + 1)
        mu = np.linalg.svd(psi, compute_uv=False) ** 2
        mu = mu / float(np.sum(mu))
        pairwise = 0.0
        for i in range(len(mu)):
            for j in range(i + 1, len(mu)):
                pairwise += mu[i] * mu[j]  # numpy scalars
        expected = min(max(2.0 * math.sqrt(pairwise), 0.0), 1.0)
        assert concurrence_schmidt_oracle(state) == expected


# ---------------------------------------------------------------- Schmidt oracle


def test_schmidt_oracle_bell_and_product():
    bell_state = build_state(1, 0.9, AlphaProfile.explicit([1.0, 1.0]))
    assert abs(concurrence_schmidt_oracle(bell_state) - 1.0) < 1e-10
    product = build_state(2, 1.1, AlphaProfile.explicit([0.7, -0.3, 0.0]))
    assert concurrence_schmidt_oracle(product) < 1e-10


def test_schmidt_oracle_matches_closed_form(rng):
    profile = random_explicit_profile(rng, 3)
    state = build_state(3, 1.7, profile)
    closed = concurrence_closed_form(3, 1.7, profile).value
    assert abs(concurrence_schmidt_oracle(state) - closed) < 1e-8


def test_schmidt_oracle_flags_bad_truncation():
    state = build_state(1, 2.5, AlphaProfile.explicit([1.0, 1.0]), n_max=8, tail_tol=None)
    with pytest.raises(TruncationError):
        concurrence_schmidt_oracle(state)


# ---------------------------------------------------------------- route agreement


def test_concurrence_routes_keys_in_route_order():
    profile = AlphaProfile.optimal_constant(2)
    state = build_state(2, 1.2 + 0.4j, profile)
    routes = concurrence_routes(state)
    assert list(routes) == [ROUTE_CLOSED_FORM, ROUTE_PURE, ROUTE_WOOTTERS, ROUTE_SCHMIDT]
    assert routes[ROUTE_CLOSED_FORM] == concurrence_closed_form(2, 1.2 + 0.4j, profile).value
    assert route_spread(state) < 1e-8


# ---------------------------------------------------------------- maximality analysis


def test_ab_terms_and_am_gm_bound(rng):
    for _ in range(20):
        p = int(rng.integers(1, 7))
        z_abs = rng.uniform(0.0, 3.0)
        profile = random_explicit_profile(rng, p)
        form = build_state(p, z_abs, profile).closed_form
        a_term, b_term = math.sqrt(form.a_sq), math.sqrt(form.b_sq)
        assert form.a_sq >= 0.0 and form.b_sq >= 0.0
        assert 2 * a_term * b_term <= a_term**2 + b_term**2 + 1e-15
        assert concurrence_closed_form(p, z_abs, profile).value <= 1.0


def _one_minus_c_squared(form):
    """((A^2 - B^2) / (A^2 + B^2))^2, which is 1 - C^2 when alpha_0 = alpha_p/p."""
    return ((form.a_sq - form.b_sq) / (form.a_sq + form.b_sq)) ** 2


def test_one_minus_c_squared_examples():
    form = build_state(1, 1.7, AlphaProfile.optimal_constant(1)).closed_form
    assert _one_minus_c_squared(form) == 0.0
    # p=2, optimal, |z|=2: (0.5-1)^2 / (1.5 + 2*4)^2 = 0.25/90.25
    value = _one_minus_c_squared(build_state(2, 2.0, AlphaProfile.optimal_constant(2)).closed_form)
    assert abs(value - 0.25 / 90.25) < 1e-15
    c = concurrence_optimal(2, 2.0)
    assert abs(value - (1.0 - c * c)) < 1e-12


def test_one_minus_c_squared_matches_general_ratio(rng):
    # on alpha_0 = alpha_p/p profiles the defect vanishes, D = A^2 + B^2, and
    # 1 - C^2 reduces to ((A^2-B^2)/(A^2+B^2))^2
    for p in (2, 3, 5):
        alphas = rng.uniform(-1.5, 1.5, p + 1)
        alphas[p] = 1.2
        alphas[0] = alphas[p] / p
        profile = AlphaProfile.explicit(alphas)
        z_abs = rng.uniform(0.1, 2.5)
        form = build_state(p, z_abs, profile).closed_form
        assert form.defect == 0.0 and form.denom == form.a_sq + form.b_sq
        c = concurrence_closed_form(p, z_abs, profile).value
        assert abs(_one_minus_c_squared(form) - (1 - c * c)) < 1e-12


def test_concurrence_optimal_values():
    for z_abs in (0.0, 0.5, 2.0, 4.5):
        assert concurrence_optimal(1, z_abs) == 1.0
    assert abs(concurrence_optimal(2, 0.0) - TWO_SQRT2_OVER_3) < 1e-12
    # frozen from exact arithmetic: 1 - C = 3.287851477985737e-4 at p=2, |z|=3
    assert abs((1.0 - concurrence_optimal(2, 3.0)) - 3.287851477985737e-4) < 1e-12


def test_concurrence_optimal_matches_closed_form():
    for p in (1, 2, 3, 6):
        profile = AlphaProfile.optimal_constant(p)
        for z_abs in (0.0, 0.8, 2.2):
            closed = concurrence_closed_form(p, z_abs, profile).value
            assert abs(concurrence_optimal(p, z_abs) - closed) < 1e-12


@pytest.mark.parametrize("z_abs", [0.0, 0.3, 1.0, 2.0])
def test_concurrence_optimal_and_closed_form_at_large_p(z_abs):
    # (p!)^2 overflows a float from p = 99 on; the weight series must not form it
    optimal = concurrence_optimal(100, z_abs)
    closed = concurrence_closed_form(100, z_abs, AlphaProfile.optimal_constant(100)).value
    assert 0.0 <= optimal <= 1.0 and 0.0 <= closed <= 1.0
    assert abs(optimal - closed) < 1e-12


def test_concurrence_optimal_nondecreasing_in_z():
    grid = np.arange(0.0, 5.0 + 1e-12, 0.01)
    for p in range(2, 7):
        values = np.array([concurrence_optimal(p, z) for z in grid])
        assert np.all(np.diff(values) >= 0.0)


@pytest.mark.parametrize("p,m,z", [(2, 1, 1.0), (3, 1, 1.5), (3, 2, 1.5), (4, 2, 2.0)])
def test_exact_maximal_profile_reaches_one(p, m, z):
    profile = AlphaProfile.z_dependent_exact(p, m)
    assert abs(concurrence_closed_form(p, z, profile).value - 1.0) < 1e-10
    state = build_state(p, z, profile)
    assert abs(concurrence_schmidt_oracle(state) - 1.0) < 1e-10


def test_exact_maximal_profile_errors():
    with pytest.raises(NoRealSolutionError):
        AlphaProfile.z_dependent_exact(2, 1).coefficients(1e-4)  # bracket -> -1/2 as z -> 0
    with pytest.raises(NoRealSolutionError):
        AlphaProfile.z_dependent_exact(3, 1).coefficients(0.0)
    with pytest.raises(ValueError):
        AlphaProfile.z_dependent_exact(2, 2)  # m out of range


def test_concurrence_phase_invariance(rng):
    for p in (1, 3):
        profile = random_explicit_profile(rng, p)
        for theta in (0.3, 1.1, 2.9):
            z = 1.3 * np.exp(1j * theta)
            a = concurrence_closed_form(p, z, profile).value
            b = concurrence_closed_form(p, 1.3, profile).value
            assert abs(a - b) < 1e-12


# ---------------------------------------------------------------- EoF


def test_eof_endpoints():
    assert entanglement_of_formation(0.0) == 0.0
    assert abs(entanglement_of_formation(1.0) - math.log(2.0)) < 1e-12


def test_eof_value_at_096():
    # H(0.64) with natural logs, frozen from 50-digit evaluation
    assert abs(entanglement_of_formation(0.96) - 0.6534181947937018) < 1e-12


def test_eof_strictly_increasing():
    grid = np.linspace(0.0, 1.0, 1001)
    values = np.array([entanglement_of_formation(c) for c in grid])
    assert np.all(np.diff(values) > 0.0)


def test_eof_domain_errors():
    with pytest.raises(ValueError):
        entanglement_of_formation(-0.01)
    with pytest.raises(ValueError):
        entanglement_of_formation(1.01)
    # values inside the 1e-12 tolerance band are clamped, not rejected
    assert entanglement_of_formation(1.0 + 5e-13) == pytest.approx(math.log(2.0))
    with pytest.raises(FloatRangeError):
        entanglement_of_formation(math.nan)
    with pytest.raises(FloatRangeError):
        entanglement_of_formation(np.array([0.5, math.nan]))


def test_closed_form_overflow_raises_instead_of_nan():
    # alpha^2 |z|^(2n) overflows at p = 150, |z| = 5
    with np.errstate(all="ignore"), pytest.raises(FloatRangeError):
        concurrence_closed_form(150, 5.0, AlphaProfile.optimal_constant(150))


@pytest.mark.parametrize(
    "profile",
    [AlphaProfile.optimal_constant(166), AlphaProfile.z_dependent_exact(166, 1)],
    ids=["optimal-constant", "z-dependent-exact"],
)
def test_closed_form_of_inf_over_inf_raises_without_a_warning(profile):
    # A^2 and B^2 are both inf at p = 166, |z| = 5, so C = 2AB/D is inf/inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError):
            concurrence_closed_form(166, 5.0, profile)


@pytest.mark.parametrize("z", [1e-170, np.array([1e-170, 1.0])])
def test_z_exact_alpha_past_the_float_range_raises(z):
    # |z|^2 underflows to 0, so alpha_{p-m} = ... / |z|^m is past the float range
    with np.errstate(all="ignore"), pytest.raises(FloatRangeError):
        concurrence_closed_form(4, z, AlphaProfile.z_dependent_exact(4, 2))


# ---------------------------------------------------------------- |z| arrays


def _closed_form_at(p, z, profile):
    try:
        result = concurrence_closed_form(p, z, profile)
    except NoRealSolutionError:
        return math.nan, math.nan
    return result.value, result.eof


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 9])
def test_array_evaluation_equals_scalar_evaluation(p):
    # every |z| array result is bit for bit the scalar result at each |z|,
    # with nan exactly where the z-dependent-exact rule has no solution
    zs = np.array([0.0, 0.05, 0.3, 0.71, 1.0, 2.2, 4.7])
    assert np.array_equal(concurrence_optimal(p, zs), [concurrence_optimal(p, z) for z in zs])
    grid = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(
        entanglement_of_formation(grid), [entanglement_of_formation(c) for c in grid]
    )
    profiles = [
        AlphaProfile.optimal_constant(p, 1.3),
        AlphaProfile.explicit(np.linspace(0.4, 1.6, p + 1)),
    ]
    profiles += [AlphaProfile.z_dependent_exact(p, m) for m in range(1, p)]
    for profile in profiles:
        result = concurrence_closed_form(p, zs, profile)
        value, eof = zip(*[_closed_form_at(p, z, profile) for z in zs])
        assert np.array_equal(result.value, value, equal_nan=True)
        assert np.array_equal(result.eof, eof, equal_nan=True)
