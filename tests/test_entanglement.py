import functools
import math
import random
import re
import warnings
from collections import Counter
from decimal import Decimal

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
from psusyent.coherent import PowerTable
from psusyent.entanglement import ROUTE_CLOSED_FORM, ROUTE_PURE, ROUTE_SCHMIDT, ROUTE_WOOTTERS
from psusyent import cli, coherent, entanglement, verify
from psusyent.verify import random_states, route_spread

import oracle
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


@pytest.mark.parametrize(
    "amps",
    [(1e200, 0, 0, 1e200), (complex(1e308, 1e308), 0, 0, 0), (math.inf, 0, 0, 1.0)],
    ids=["square overflows", "abs overflows", "infinite"],
)
def test_pure_concurrence_past_the_float_range_raises(amps):
    # Python's abs(a) ** 2 raised a bare OverflowError at 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="sum \\|a\\|\\^2 overflows"):
            concurrence_pure(amps)
        with pytest.raises(FloatRangeError):
            concurrence_pure(np.array([BELL, amps]))


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


_SY_SY = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]])


def _wootters_written_out(rho):
    """(C, lambdas) by the numpy formulation the route used before it
    finished its four eigenvalues in Python floats and before it formed the
    spin flip as a signed index reversal; a list of them over a stack."""
    rho = np.asarray(rho, dtype=complex)
    evals = np.real(np.linalg.eigvals(rho @ (_SY_SY @ rho.conj() @ _SY_SY)))
    if rho.ndim == 3:
        return [_wootters_finished(row) for row in evals]
    return _wootters_finished(evals)


def _wootters_finished(evals):
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


def test_wootters_spin_flip_is_byte_equal_to_the_sigma_y_matmuls():
    rng = np.random.default_rng(2245)
    mixing = rng.normal(size=(12, 4, 4)) + 1j * rng.normal(size=(12, 4, 4))
    mixed = mixing @ mixing.conj().swapaxes(-1, -2)
    mixed /= np.trace(mixed, axis1=1, axis2=2).real[:, None, None]
    stacks = [
        density_from_amplitudes(stack.qubit_amps)
        for stack in verify._random_stacks(rng, 160, 8, 3.0)
    ]
    assert len(stacks) == 8  # one per order p = 1..8
    for densities in (*stacks, mixed):
        result = concurrence_wootters(densities)
        expected = _wootters_written_out(densities)
        assert result.value.tobytes() == np.array([c for c, _ in expected]).tobytes()
        assert result.lambdas.tobytes() == np.array([lams for _, lams in expected]).tobytes()
        for matrix, (value, lams) in zip(densities, expected):
            single = concurrence_wootters(matrix)
            assert np.array([single.value, *single.lambdas]).tobytes() == (
                np.array([value, *lams]).tobytes()
            )


def test_wootters_keeps_its_full_validation(monkeypatch):
    # a caller's matrix is checked in full, each failure with its own message
    non_hermitian = np.eye(4) / 4.0 + 0j
    non_hermitian[0, 1] = 0.1
    cases = [
        (non_hermitian, ValueError, "density matrix is not Hermitian within 1e-10"),
        (np.diag([0.6, 0.6, -0.1, -0.1]), ValueError,
         "density matrix is not positive semidefinite within 1e-10"),
        (np.eye(4) / 2.0, ValueError, "density matrix trace differs from 1 beyond 1e-10"),
        (np.full((4, 4), np.nan), FloatRangeError, "density matrix has a nan or inf entry"),
        (np.full((4, 4), np.inf), FloatRangeError, "density matrix has a nan or inf entry"),
        (np.eye(3) / 3.0, ValueError, "density matrix must be 4x4 or a stack of them"),
    ]
    for rho, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            concurrence_wootters(rho)
    # a valid projector still takes the eigenvalue check
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    concurrence_wootters(density_from_amplitudes(BELL))
    concurrence_wootters(density_from_amplitudes(np.stack([BELL, BELL])))
    assert calls == [(1, 4, 4), (2, 4, 4)]


def _verdict(check, amps):
    """The projector ``check`` returns for ``amps``, or the class and text it raises."""
    try:
        return check(amps).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def _projector_corpus():
    rng = np.random.default_rng(2245_1998)
    unit = rng.normal(size=(60, 4)) + 1j * rng.normal(size=(60, 4))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    corpus = list(unit) + [BELL, [1.0, 0.0, 0.0, 0.0], tuple(complex(a) for a in unit[0])]
    # norms off 1 on both sides of the 1e-10 tolerance
    for off in (1e-11, 1e-10, 1e-9):
        for sign in (1.0, -1.0):
            corpus += list(unit[:20] * math.sqrt(1.0 + sign * off))
    for bad in (math.nan, math.inf, -math.inf, complex(math.inf, math.nan), complex(0.0, math.inf)):
        for i in range(4):
            row = unit[i].copy()
            row[i] = bad
            corpus.append(row)
    # finite amplitudes whose products overflow: v v+ has inf entries
    corpus += [unit[0] * 1e200, unit[1] * 1e155, np.full(4, 1e154)]
    # stacks, one of them with one bad row each
    corpus.append(unit[:7])
    for bad_row in (unit[3] * math.sqrt(1.0 + 1e-9), unit[3] * math.nan, unit[3] * 1e200):
        stack = unit[:7].copy()
        stack[3] = bad_row
        corpus.append(stack)
    corpus.append(np.ones((16, 5)) / math.sqrt(5.0))  # rows that are not two-qubit amplitudes
    return corpus


def test_projector_check_gives_the_full_validation_verdict():
    # the routes check a projector by its trace alone; on every entry of the
    # corpus that gives the projector _validate_density returns, or the class
    # and message it raises
    def full(amps):
        return entanglement._validate_density(density_from_amplitudes(amps))

    outcomes = Counter()
    with np.errstate(all="ignore"):  # inf amplitudes make inf * 0 in the product
        for amps in _projector_corpus():
            expected = _verdict(full, amps)
            assert _verdict(entanglement._checked_projector, amps) == expected, amps
            outcomes[expected if isinstance(expected, tuple) else "passes"] += 1
    assert outcomes["passes"] >= 100
    assert outcomes[(FloatRangeError, "density matrix has a nan or inf entry")] >= 20
    assert outcomes[(ValueError, "density matrix trace differs from 1 beyond 1e-10")] >= 40


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


def _route_states():
    profiles = [AlphaProfile.optimal_constant(3), AlphaProfile.explicit([0.3, -1.0, 0.5, 1.0]),
                AlphaProfile.z_dependent_exact(3, 1)]
    stack = build_state(3, np.array([0.5 + 0.2j, 1.5, -2.0j]), profiles)
    return [build_state(3, 1.2 - 0.4j, profiles[1]), stack]


def test_routes_check_the_wootters_projector_without_eigvalsh(monkeypatch):
    # v v+ is Hermitian and positive semidefinite by construction; the routes
    # check its trace, and give the value of the fully validated route
    states = _route_states()
    expected = [
        np.asarray(concurrence_wootters(density_from_amplitudes(s.qubit_amps)).value).tobytes()
        for s in states
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("concurrence_routes called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for state, value in zip(states, expected):
        assert np.asarray(concurrence_routes(state)[ROUTE_WOOTTERS]).tobytes() == value


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


def _optimal_oracle_points():
    """(p, |z| array as grid forms it, row indices checked) over three sets."""
    # the default grid, with every row of its large-|z| end, where 1 - C is smallest
    default = np.arange(101) * 0.05
    for p in range(1, 11):
        yield p, default, [*range(0, 90, 3), *range(90, 101)]
    # |z| 0..1 step 0.01 to p = 40: every tenth row and 0.01 and 0.81; at |z| = 0,
    # S = 0 and sqrt(1 - r^2) cancelled from p = 11 on
    fine = np.arange(101) * 0.01
    for p in range(1, 41):
        yield p, fine, [*range(0, 101, 10), 1, 81]
    rand = random.Random(26)
    for _ in range(60):
        yield rand.randint(1, 60), np.array([rand.uniform(0.0, 8.0)]), [0]


def test_concurrence_optimal_and_one_minus_c_match_the_exact_oracle():
    # C = sqrt(1 - r^2) printed 0 at p = 25, |z| = 0 (exact 1.27e-11), and
    # 1.0 - C printed 0 at p = 10, |z| = 5 (exact 4.69e-19)
    tol = Decimal("1e-12")
    checked = 0
    for p, zs, rows in _optimal_oracle_points():
        values, one_minus = entanglement._optimal_concurrence(p, PowerTable(zs))
        assert np.array_equal(concurrence_optimal(p, zs), np.minimum(values, 1.0))
        for i in rows:
            exact_c, exact_one_minus = oracle.optimal_concurrence(p, float(zs[i]))
            assert abs(Decimal(values[i]) - exact_c) <= tol * exact_c, (p, zs[i])
            # exactly 0 where the oracle gives 0: every |z| at p = 1
            error = abs(Decimal(one_minus[i]) - exact_one_minus)
            assert error <= tol * exact_one_minus, (p, zs[i])
            checked += 1
    assert checked == 10 * 41 + 40 * 13 + 60


@pytest.mark.parametrize("p, first", [(150, 4.975), (160, 2.465), (166, 1.12)])
def test_optimal_concurrence_past_the_float_range_raises(p, first):
    # S first overflows at these |z| on a 0.005 step; C = sqrt(1 - r^2) came out
    # 1.0 there while concurrence_closed_form raises
    zs = np.array([first - 0.005, first, 5.0])
    message = f"optimal-constant D at p={p}, |z|={first:.4g} leaves the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (first, zs):
            with pytest.raises(FloatRangeError, match=re.escape(message)):
                concurrence_optimal(p, z)
        with pytest.raises(FloatRangeError):
            concurrence_closed_form(p, 5.0, AlphaProfile.optimal_constant(p))
        assert 0.0 < concurrence_optimal(p, zs[0]) <= 1.0


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


def _outcome(call):
    """None where ``call()`` returns, else the class and text of what it raised."""
    try:
        call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


_D_OVERFLOW = (FloatRangeError, "concurrence is nan: its formula left the float range")


def test_z_exact_float_range_from_two_rows_matches_every_row():
    # a block classifies alpha_{p-m} at its smallest defined and its largest
    # |z| only, in Python floats; the reference resolves the
    # coefficients of every row alone, and takes the first float-range error
    rng = np.random.default_rng(28)
    seen = Counter()
    for _ in range(3000):
        p = int(rng.integers(2, 13))
        m = int(rng.integers(1, p))
        alpha_p = 1.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-300.0, 300.0))
        zs = 10.0 ** rng.uniform(-320.0, 200.0, size=int(rng.integers(1, 7)))
        zs[rng.random(zs.size) < 0.1] = 0.0
        profile = AlphaProfile.z_dependent_exact(p, m, alpha_p)
        rows = [_outcome(functools.partial(profile.coefficients, z)) for z in zs.tolist()]
        reference = next((row for row in rows if row and row[0] is not NoRealSolutionError), None)
        got = _outcome(lambda: concurrence_closed_form(p, zs, profile))
        if reference is None and got == _D_OVERFLOW:
            seen["D overflows"] += 1  # the D bound after the alpha classification
            continue
        assert got == reference, (p, m, alpha_p, zs.tolist())
        seen["ok" if got is None else "alpha overflows"] += 1
    assert min(seen.values()) >= 100, seen


def test_z_exact_block_defined_at_every_nonzero_z_resolves_no_coefficients(monkeypatch):
    calls = Counter()
    coefficients, libm_powers = AlphaProfile.coefficients, coherent._libm_powers

    def counting_coefficients(self, z_abs):
        calls["coefficients"] += 1
        return coefficients(self, z_abs)

    def counting_columns(values, exponents):
        calls["columns"] += len(exponents)
        return libm_powers(values, exponents)

    monkeypatch.setattr(AlphaProfile, "coefficients", counting_coefficients)
    monkeypatch.setattr(coherent, "_libm_powers", counting_columns)
    blocks = [(p, m, np.linspace(0.0, 5.0, 251)) for p in range(4, 13) for m in range(1, p)]
    blocks += [(2, 1, np.linspace(0.71, 5.0, 251)), (3, 1, np.array([0.0, 0.41, 2.0])),
               (3, 2, np.array([5.0, 0.0, 0.76]))]
    for p, m, zs in blocks:
        powers = PowerTable(zs)
        value = concurrence_closed_form(p, powers, AlphaProfile.z_dependent_exact(p, m)).value
        assert np.array_equal(np.isnan(value), zs == 0.0)
    assert calls == {}
    # a row below z* keeps one coefficients call, at that row alone, which
    # raises naming it; no power column is made (the array call made two)
    powers = PowerTable(np.linspace(0.0, 5.0, 251))
    value = concurrence_closed_form(2, powers, AlphaProfile.z_dependent_exact(2, 1)).value
    assert np.count_nonzero(np.isnan(value)) == 36
    assert calls == {"coefficients": 1}


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


def test_eof_relative_error_against_a_50_digit_oracle(tmp_path):
    # y = 1 - x formed as C^2/(4x): 1 - x itself lost every digit below
    # C ~ 1e-8, where EoF came out 0.0, and `grid` printed eof 0 at p = 25, |z| = 0
    assert cli.main(["grid", "--out", str(tmp_path / "grid.csv")]) == 0
    rows = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    grid_cs = [float(row.split(",")[2]) for row in rows]
    rng = random.Random(2245)
    seeded = [10.0 ** rng.uniform(-12.0, 0.0) for _ in range(400)]
    seeded += [
        concurrence_optimal(rng.randint(1, 12), rng.uniform(0.0, 8.0)) for _ in range(200)
    ]
    cs = [c for c in grid_cs + seeded + [1e-12, 1e-8, 1e-6, 1.0] if 1e-12 <= c <= 1.0]
    assert len(cs) > 1000
    values = entanglement_of_formation(np.array(cs))
    for c, value in zip(cs, values.tolist()):
        exact = oracle.entanglement_of_formation(c)
        assert abs(Decimal(value) - exact) <= Decimal(1e-12) * exact, c
        assert entanglement_of_formation(c) == value
    # the absolute endpoints, bit for bit
    assert entanglement_of_formation(0.0) == 0.0
    assert entanglement_of_formation(1.0) == math.log(2.0)


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


@pytest.mark.parametrize("rows", [False, True])
def test_z_exact_closed_form_at_the_edge_of_the_float_range(rows):
    # p = 3, m = 1: D = 2 (1/3)^2 (6 + 18|z|^2 + 9|z|^4).  At |z| = 6.3e76 the
    # bound on D overflows but D is finite, so C = 1; at 7e76 9|z|^4 overflows
    profile = AlphaProfile.z_dependent_exact(3, 1)
    inside, past = (np.array([0.1, 1.0, z]) if rows else z for z in (6.3e76, 7e76))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = concurrence_closed_form(3, inside, profile).value
        with pytest.raises(FloatRangeError, match="concurrence is nan"):
            concurrence_closed_form(3, past, profile)
    assert np.array_equal(value, [np.nan, 1.0, 1.0] if rows else 1.0, equal_nan=True)


@pytest.mark.parametrize("p, z_abs", [(2, 1e100), (3, 1e60), (8, 1e20)])
def test_closed_form_past_the_defect_power_range_is_the_optimal_value(p, z_abs):
    # alpha_0 = alpha_p/p, so the defect is exactly 0 although |z|^(2p) is
    # inf; it was 0 * inf = nan, and the closed form raised where
    # concurrence_optimal gives its value
    profile = AlphaProfile.optimal_constant(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimal = concurrence_optimal(p, z_abs)
        closed = concurrence_closed_form(p, z_abs, profile).value
        at_one = concurrence_closed_form(p, 1.0, profile).value
        rows = concurrence_closed_form(p, np.array([1.0, z_abs]), profile).value
        z_exact = concurrence_closed_form(p, z_abs, AlphaProfile.z_dependent_exact(p, 1)).value
    assert math.isfinite(closed) and abs(closed - optimal) <= 1e-12
    assert np.array_equal(rows, [at_one, closed])
    assert 0.0 < z_exact <= 1.0


@pytest.mark.parametrize(
    "z", [1e60 * (1 + 1j), np.array([1.0, 1e60 * math.sqrt(2.0)])], ids=["one", "rows"]
)
def test_closed_form_where_only_the_denominator_overflows_raises(z):
    # A^2 ~ 1e240 and B^2 ~ 4e240 are finite, but the defect (2/3)^2 |z|^6 is
    # inf: C = 2AB/D came out 0.0, where the true C is about 1e-120
    explicit = AlphaProfile.explicit((1.0, 0.5, 0.2, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=re.escape(
            "the normalization denominator at |z|=1.414e+60 leaves the float range"
        )):
            concurrence_closed_form(3, z, explicit)
        # the first row whose D is not a finite normal float is named, also ahead of
        # a later row where C would be nan
        with pytest.raises(FloatRangeError, match=re.escape(
            "the normalization denominator at |z|=1.414e+60 leaves the float range"
        )):
            concurrence_closed_form(3, np.array([1.0, 1e60 * math.sqrt(2.0), 1e200]), explicit)


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


def test_complex_z_array_rows_equal_each_z_alone():
    # each |z| is Python's abs, as build_state takes it: numpy's complex abs
    # differs from it in the last bit on about a third of these z
    rng = np.random.default_rng(2500)
    zs = np.array([random_z(rng, 4.0) for _ in range(2000)])
    profile = AlphaProfile.explicit([0.7, -1.2, 0.4, 1.1])
    rows = concurrence_closed_form(3, zs, profile).value
    alone = [concurrence_closed_form(3, z, profile).value for z in zs.tolist()]
    assert rows.tolist() == alone
    stack = build_state(3, zs[:200], [profile] * 200)
    stack_rows = entanglement._clip_unit(stack.closed_form.concurrence, "concurrence")
    assert stack_rows.tolist() == alone[:200]
    with pytest.raises(FloatRangeError, match="nan"):
        concurrence_closed_form(3, np.array([1.0, complex(math.nan, 1.0)]), profile)
