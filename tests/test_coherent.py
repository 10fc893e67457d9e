import functools
import json
import math
import operator
import re
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psusyent import (
    AlphaProfile,
    DegenerateProfileError,
    FloatRangeError,
    NoRealSolutionError,
    PowerTable,
    TruncationError,
    beta_coefficients,
    build_state,
    coherent_vector,
    concurrence_routes,
    derivative_coherent_vector,
    normalization_q,
    qubit_amplitudes,
    qubit_bases,
)
from psusyent import algebra, cli, coherent, entanglement, model, verify
from psusyent.cli import main
from psusyent.coherent import _resolve, _weight_series, bosonic_weight_sum
from psusyent.verify import consistency_residuals, random_states

import oracle
from conftest import random_explicit_profile, random_z

BELL_Z_VALUES = [0.0, 0.4, 1.0, -1.3, 0.8j, 2.0 + 1.0j, -0.5 - 0.5j, 2.9, 1.7j, 0.1 - 2.2j]


# ---------------------------------------------------------------- profiles


def test_explicit_profile_validation():
    with pytest.raises(ValueError):
        AlphaProfile(p=2, kind="explicit", alphas=(1.0, 2.0))  # wrong length
    with pytest.raises(ValueError):
        AlphaProfile.explicit([1.0, float("nan")])
    with pytest.raises(DegenerateProfileError):
        AlphaProfile.explicit([0.0, 0.0, 0.0])
    # as numpy's float conversion reads them: None is nan, complex is a TypeError
    with pytest.raises(ValueError, match="finite"):
        AlphaProfile.explicit([None, 1.0])
    with pytest.raises(TypeError):
        AlphaProfile.explicit([1j, 1.0])
    with pytest.raises(ValueError):
        AlphaProfile(p=1, kind="no-such-kind", alphas=(1.0, 1.0))


def test_optimal_constant_coefficients():
    # alpha_0 = alpha_p/p, alpha_k = p! alpha_p / (p (p-k)! sqrt(k!))
    assert_allclose(AlphaProfile.optimal_constant(2).coefficients(0.7), [0.5, 1.0, 1.0])
    assert_allclose(
        AlphaProfile.optimal_constant(3).coefficients(1.3),
        [1.0 / 3.0, 1.0, math.sqrt(2.0), 1.0],
    )
    scaled = AlphaProfile.optimal_constant(3, alpha_p=-2.0).coefficients(0.0)
    assert_allclose(scaled, -2.0 * np.array([1.0 / 3.0, 1.0, math.sqrt(2.0), 1.0]))


def test_optimal_constant_rejects_zero_scale():
    with pytest.raises(DegenerateProfileError):
        AlphaProfile.optimal_constant(2, alpha_p=0.0)


def test_z_dependent_exact_resolution():
    # p=2, m=1, z=1: alpha_1^2 = (2/4 - 1) + 4/(4*1*1) = 1/2
    alphas = AlphaProfile.z_dependent_exact(2, 1).coefficients(1.0)
    assert_allclose(alphas, [0.5, 1.0 / math.sqrt(2.0), 1.0])


def test_z_dependent_exact_no_real_solution():
    profile = AlphaProfile.z_dependent_exact(2, 1)
    with pytest.raises(NoRealSolutionError):
        profile.coefficients(0.1)  # bracket negative at small |z|
    with pytest.raises(NoRealSolutionError):
        profile.coefficients(0.0)  # rule undefined at z = 0


@pytest.mark.parametrize("p, m, z_star, bracket_misses", [
    (2, 1, 2**-0.5, 0), (3, 1, 6**-0.5, 1), (3, 2, 3**-0.25, 0),
])
def test_defined_agrees_with_the_exact_oracle_near_z_star(p, m, z_star, bracket_misses):
    # 20,001 |z| within 1e-9 (relative) of z*: the exact rule decides every
    # row, where the sign of the float bracket misses one at (3, 1)
    zs = z_star * (1.0 + 1e-9 * np.linspace(-1.0, 1.0, 20001))
    profile = AlphaProfile.z_dependent_exact(p, m)
    exact = np.array([oracle.z_exact_defined(p, m, z) for z in zs.tolist()])
    assert np.array_equal(profile.defined(PowerTable(zs)), exact)
    (w_m,) = _weight_series(p, PowerTable(zs), m, m + 1)
    bracket = (math.factorial(p) / p**2 - 1.0) + w_m / p**2
    assert np.count_nonzero((bracket >= 0.0) != exact) == bracket_misses
    # z* itself is the last undefined float; every row the exact rule solves
    # gets a finite alpha_{p-m} >= 0, nan on the others
    last = coherent._z_star(p, m)
    assert not oracle.z_exact_defined(p, m, last)
    assert oracle.z_exact_defined(p, m, math.nextafter(last, 1.0))
    alphas = np.array([_exceptional_or_nan(profile, z) for z in zs.tolist()])
    assert np.array_equal(~np.isnan(alphas), exact)
    assert (alphas[exact] >= 0.0).all()
    value = entanglement.concurrence_closed_form(p, PowerTable(zs), profile).value
    assert np.array_equal(value == 1.0, exact) and np.array_equal(np.isnan(value), ~exact)


def _numpy_exceptional_alpha(profile, z_abs):
    """alpha_{p-m} by the numpy formula over a one-row |z| table that it replaced."""
    p, m, powers = profile.p, profile.m, PowerTable(np.array([z_abs]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        (w_m,) = _weight_series(p, powers, m, m + 1)
        bracket = (algebra.float_factorial(p) / p**2 - 1.0) + w_m / p**2
        root = np.sqrt(np.maximum(bracket, 0.0))
        return float((abs(profile.alpha_p) * root / powers.column(m))[0])


def test_exceptional_alpha_is_the_numpy_formula_bit_for_bit():
    # the same operations in the same order, with libm powers: near each z*,
    # at ordinary |z| and at both ends of the float range
    rng = np.random.default_rng(29)
    seen = Counter()
    for _ in range(3000):
        p = int(rng.integers(2, 13))
        m = int(rng.integers(1, p))
        alpha_p = 1.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-300.0, 300.0))
        profile = AlphaProfile.z_dependent_exact(p, m, alpha_p)
        z_star = coherent._z_star(p, m)
        near = z_star * (1.0 + 1e-15 * rng.uniform(-50.0, 50.0)) if z_star else 5e-324
        z_abs = float(rng.choice([
            near, 10.0 ** rng.uniform(-324.0, -150.0), 10.0 ** rng.uniform(-5.0, 5.0),
            10.0 ** rng.uniform(150.0, 308.25), 5e-324, sys.float_info.max, math.inf,
        ]))
        expected = _numpy_exceptional_alpha(profile, z_abs)
        if z_abs <= z_star:
            with pytest.raises(NoRealSolutionError):
                profile._exceptional_alpha(z_abs)
            seen["undefined"] += 1
        elif not math.isfinite(expected):
            with pytest.raises(FloatRangeError):
                profile._exceptional_alpha(z_abs)
            seen["float range"] += 1
        else:
            assert profile._exceptional_alpha(z_abs).hex() == expected.hex(), (p, m, z_abs)
            seen["finite"] += 1
    assert min(seen.values()) >= 100, seen


def test_z_exact_is_defined_at_every_nonzero_z_from_p_4_on():
    zs = np.array([0.0, 5e-324, 1e-300, 1e-9, 0.3, 1.0, 1e100, math.inf])
    for p in (4, 5, 8, 40, 170):
        for m in sorted({1, 2, p - 1}):
            assert coherent._z_star(p, m) == 0.0
            defined = AlphaProfile.z_dependent_exact(p, m).defined(PowerTable(zs))
            assert defined.tolist() == [False] + [True] * 7
            assert all(oracle.z_exact_defined(p, m, z) for z in zs[1:-1].tolist())
    # a negative |z| is no modulus: undefined, and said so (it used to get a negative root)
    with pytest.raises(NoRealSolutionError, match=re.escape("(p=4, m=1) is undefined at |z|=-1")):
        AlphaProfile.z_dependent_exact(4, 1).coefficients(-1.0)


def _exceptional_or_nan(profile, z_abs):
    """The z-exact profile's alpha_{p-m} at one |z|, nan where its rule is undefined."""
    try:
        return profile.coefficients(z_abs)[profile.p - profile.m]
    except NoRealSolutionError:
        return math.nan


def test_coefficients_over_a_z_array():
    # one profile over a |z| array resolves as a stack of it: each row of the
    # closed form's alphas is the profile's coefficients at that |z| alone
    zs = np.array([0.0, 0.1, 0.5, 1.0, 2.0])
    profiles = (
        AlphaProfile.z_dependent_exact(3, 1),
        AlphaProfile.optimal_constant(3, 0.7),
        AlphaProfile.explicit([0.3, -1.0, 0.2, 1.1]),
    )
    for profile, rows in zip(profiles, (zs[2:], zs, zs)):
        alphas = _resolve(3, rows, profile).alphas
        assert alphas.shape == (len(rows), 4)
        for z, row in zip(rows.tolist(), alphas):
            assert np.array_equal(row, profile.coefficients(z))
        q = normalization_q(3, rows, profile)
        assert q.tolist() == [normalization_q(3, z, profile) for z in rows.tolist()]
    # p = 3, m = 1: bracket -1/3 + 2|z|^2 is negative below |z| = 0.408, and z
    # = 0 is undefined.  The array raises its first undefined row's error, the
    # one that row raises alone, with no count of the others
    for start, reason in ((0, "is undefined at z = 0"), (1, "|z|=0.1: bracket -0.3133 < 0")):
        with pytest.raises(NoRealSolutionError) as info:
            _resolve(3, zs[start:], profiles[0])
        assert str(info.value).endswith(reason)
        with pytest.raises(NoRealSolutionError, match=re.escape(str(info.value)) + "$"):
            profiles[0].coefficients(zs[start])
    with pytest.raises(ValueError, match="need at least one"):
        _resolve(3, np.array([]), profiles[0])


@pytest.mark.parametrize("p, m", [(8, 1), (4, 2)])
@pytest.mark.parametrize("z_abs", [5e-324, 1e152, math.inf, math.nan])
@pytest.mark.parametrize("rows", [False, True])
def test_exceptional_alpha_past_the_float_range_raises_without_a_warning(p, m, z_abs, rows):
    # |z|^m underflows at 5e-324, w_m overflows at 1e152 for (8, 1), and inf
    # or nan |z| has no finite root.  Over an array these leaked numpy's
    # "divide by zero", "overflow" and "invalid value" warnings.
    profile = AlphaProfile.z_dependent_exact(p, m)
    z = np.array([1.0, z_abs]) if rows else z_abs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError):
            _resolve(p, z, profile) if rows else profile.coefficients(z)
        with pytest.raises(FloatRangeError):
            entanglement.concurrence_closed_form(p, z, profile)


def test_z_dependent_exact_m_range():
    with pytest.raises(ValueError):
        AlphaProfile.z_dependent_exact(2, 2)
    with pytest.raises(ValueError):
        AlphaProfile.z_dependent_exact(1, 1)
    with pytest.raises(ValueError):
        AlphaProfile.z_dependent_exact(3, 0)


@pytest.mark.parametrize(
    "profile",
    [
        AlphaProfile.explicit([0.2, -1.0, 0.0, 0.7]),
        AlphaProfile.optimal_constant(4, alpha_p=0.3),
        AlphaProfile.z_dependent_exact(3, 2, alpha_p=-1.5),
    ],
)
def test_profile_json_roundtrip(profile):
    blob = json.dumps(profile.to_dict())
    restored = AlphaProfile.from_dict(json.loads(blob))
    assert restored == profile


def test_profile_json_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError):
        AlphaProfile.from_dict({"p": 1, "kind": "explicit", "alphas": [1, 1], "extra": 0})
    with pytest.raises(ValueError):
        AlphaProfile.from_dict({"p": 2, "kind": "optimal-constant"})
    with pytest.raises(ValueError):
        AlphaProfile.from_dict({"p": 2, "kind": "optimal-constant", "alpha_p": 1.0, "m": 1})
    with pytest.raises(ValueError):
        AlphaProfile.from_dict({"p": "2", "kind": "optimal-constant", "alpha_p": 1.0})
    with pytest.raises(ValueError):
        AlphaProfile.from_dict({"p": 1, "kind": "explicit", "alphas": [1, "x"]})
    with pytest.raises(ValueError):
        AlphaProfile.from_dict([1, 2, 3])


def _stack_past_the_float_range():
    # at |z| 29 and 30, alpha_k = 1e123 leaves Q positive, yet alpha_k z^(p-k) |z>
    # overflows before Q scales it
    big = AlphaProfile.explicit([1e123] * 4)
    zs = np.array([1.0, 29.0, 30.0], dtype=complex)
    build_state(3, zs, [AlphaProfile.optimal_constant(3), big, big], n_max=1300, tail_tol=None)


VALIDATION_ERRORS = {
    "p not a positive integer": (
        lambda: AlphaProfile(p=0, kind="optimal-constant", alpha_p=1.0),
        "order p must be a positive integer, got 0",
    ),
    "explicit profile given alpha_p": (
        lambda: AlphaProfile(p=1, kind="explicit", alphas=(1.0, 1.0), alpha_p=1.0),
        "explicit profiles take 'alphas' only",
    ),
    "alphas on another kind": (
        lambda: AlphaProfile(p=1, kind="optimal-constant", alphas=(1.0, 1.0)),
        "optimal-constant profiles take 'alpha_p', not 'alphas'",
    ),
    "non-finite alpha_p": (
        lambda: AlphaProfile.optimal_constant(2, math.inf),
        "optimal-constant profile needs a finite alpha_p",
    ),
    "m on another kind": (
        lambda: AlphaProfile(p=2, kind="optimal-constant", alpha_p=1.0, m=1),
        "'m' is only meaningful for z-dependent-exact profiles",
    ),
    "from_dict unknown kind": (
        lambda: AlphaProfile.from_dict({"p": 1, "kind": "squeezed"}),
        "unknown profile kind 'squeezed'; expected one of "
        "('explicit', 'optimal-constant', 'z-dependent-exact')",
    ),
    "from_dict non-number alpha_p": (
        lambda: AlphaProfile.from_dict({"p": 1, "kind": "optimal-constant", "alpha_p": "1"}),
        "'alpha_p' must be a number, got '1'",
    ),
    "from_dict non-integer m": (
        lambda: AlphaProfile.from_dict(
            {"p": 3, "kind": "z-dependent-exact", "alpha_p": 1.0, "m": 1.0}
        ),
        "'m' must be an integer, got 1.0",
    ),
    "float_factorial(-1)": (lambda: algebra.float_factorial(-1), "factorial of negative -1"),
    "coherent_vector n_max 0": (lambda: coherent_vector(1.0, 0), "n_max must be >= 1, got 0"),
    "concurrence_optimal p 0": (
        lambda: entanglement.concurrence_optimal(0, 1.0),
        "order p must be >= 1, got 0",
    ),
    "derivative_coherent_vector n_max at the order": (
        lambda: algebra.derivative_coherent_vector(1.0, 3, 3),
        "n_max=3 must exceed derivative order p=3",
    ),
    "derivative_coherent_vector negative order": (
        lambda: algebra.derivative_coherent_vector(1.0, -1, 5),
        "derivative order must be >= 0, got -1",
    ),
    "coherent_tail past the float range": (
        lambda: algebra.coherent_tail(1.0, 10**400),
        "the boson truncation at |z|=1 exceeds the float range",
    ),
    # the annihilator, and so the state's residual, needs p + 2 levels
    "build_state n_max below p + 2": (
        lambda: build_state(2, 0.0, AlphaProfile.optimal_constant(2), n_max=3),
        "a state of order p=2 needs n_max >= p + 2, got 3",
    ),
    "wootters negative eigenvalue": (
        lambda: entanglement._wootters_concurrence([1.0, -0.5, 0.0, 0.0]),
        "rho*rho~ has a negative eigenvalue -5.000e-01 beyond dust tolerance",
    ),
    "build_annihilator p 0": (
        lambda: model.build_annihilator(0, 10),
        "parafermion order must be a positive integer, got 0",
    ),
    "build_state stack names its first non-finite row": (
        _stack_past_the_float_range,
        "the state vector of order p=3 at |z|=29 leaves the float range",
    ),
    "verify --tol 0": (lambda: main(["verify", "--tol", "0"]), "--tol must be positive"),
    "state --p 0": (
        lambda: main(["state", "--p", "0", "--profile", "profile.json"]),
        "--p must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATION_ERRORS))
def test_validation_error_messages(case, capsys):
    # each a raise that no other test reaches; a CLI usage error exits 2
    call, message = VALIDATION_ERRORS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except SystemExit as exc:
            assert exc.code == 2
            text = capsys.readouterr().err.splitlines()[-1].split(" error: ", 1)[1]
        except ValueError as exc:
            text = str(exc)
        else:
            pytest.fail(f"{case}: no error raised")
    assert text == message


# ---------------------------------------------------------------- weight series


@pytest.mark.parametrize("z_abs", [0.0, 0.3, 1.0, 2.5, 6.0])
def test_weight_terms_match_exact_arithmetic(z_abs):
    z2 = Fraction(z_abs) ** 2
    for p in range(1, 13):
        terms = _weight_series(p, PowerTable(z_abs), 0, p)
        assert len(terms) == p
        for n, term in enumerate(terms):
            exact = Fraction(
                math.factorial(p) ** 2, math.factorial(n) ** 2 * math.factorial(p - n)
            ) * z2**n
            assert abs(Fraction(term) - exact) <= Fraction(1e-15) * exact
        # bit for bit Python's float ** (libm pow), which numpy's power is not
        coeffs = [Fraction(math.factorial(p) ** 2, math.factorial(n) ** 2 * math.factorial(p - n))
                  for n in range(p)]
        assert terms == [float(c) * z_abs ** (2 * n) for n, c in enumerate(coeffs)]
        rows = np.column_stack(_weight_series(p, PowerTable(np.array([z_abs, 0.5])), 0, p))
        assert rows.shape == (2, p) and np.array_equal(rows[0], terms)


@pytest.mark.parametrize("p, z_abs", [(2, 1e200), (3, math.inf), (8, 1e40)])
@pytest.mark.parametrize("rows", [False, True])
def test_weight_sum_past_the_float_range_raises(p, z_abs, rows):
    # the sum came out inf silently
    z = np.array([1.0, z_abs]) if rows else z_abs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=re.escape(f"(p={p}, |z|={z_abs:.4g})")):
            bosonic_weight_sum(p, z)


@pytest.mark.parametrize("p", [1, 2, 5, 8, 9, 12])
def test_weight_sum_is_a_left_to_right_fold(p):
    # Python's sum adds with compensation from 3.12 on, and np.sum pairwise
    # from 8 terms on; one |z| and a |z| array both add n = 0, 1, ... in turn
    zs = np.array([0.3, 0.77, 1.0, 2.5, 3.3, 6.0])
    profile = AlphaProfile.optimal_constant(p)
    rows = _resolve(p, zs, profile).weight_sum
    exact_differs = False
    for z_abs, row in zip(zs.tolist(), rows.tolist()):
        terms = _weight_series(p, PowerTable(z_abs), 0, p)
        fold = functools.reduce(operator.add, terms)
        assert bosonic_weight_sum(p, z_abs) == fold
        assert _resolve(p, z_abs, profile).weight_sum == fold
        assert row == fold
        exact_differs |= math.fsum(terms) != fold
    # from p = 5 on the cases include sums that exact summation rounds otherwise
    assert exact_differs or p < 5


# ---------------------------------------------------------------- power table


def test_power_table_keeps_one_read_only_column_per_exponent():
    zs = np.array([0.0, 0.5, 1.5, 3.0])
    table = PowerTable(zs)
    assert not table.scalar and table.values == zs.tolist()
    column = table.column(4)
    assert table.column(4) is column
    assert table.columns((2, 4))[1] is column
    assert column.tolist() == [z**4 for z in zs.tolist()]
    assert not column.flags.writeable
    with pytest.raises(ValueError):
        column[0] = 1.0
    assert PowerTable.of(table) is table


def test_power_table_of_one_z_gives_python_floats():
    table = PowerTable(1.7)
    assert table.scalar and table.values == [1.7]
    powers = table.columns(range(6))
    assert all(type(x) is float for x in powers)
    assert powers == [1.7**e for e in range(6)]
    assert type(table.column(3)) is float and table.column(3) == 1.7**3
    # a power past the float range is inf, not OverflowError
    assert PowerTable(1e200).column(2) == math.inf


def test_power_table_rejects_an_empty_array():
    with pytest.raises(ValueError, match="at least one"):
        PowerTable(np.array([]))


def test_power_table_first():
    table = PowerTable(np.array([0.5, 1.0, 2.0]))
    assert table.first(np.array([False, True, True])) == 1.0
    assert table.first(np.zeros(3, dtype=bool)) is None
    one = PowerTable(2.5)
    assert one.first(True) == 2.5
    assert one.first(False) is None


# ---------------------------------------------------------------- normalization


def test_normalization_q_values():
    assert_allclose(normalization_q(1, 0.0, AlphaProfile.explicit([1.0, 1.0])), 1 / math.sqrt(2))
    for p in (1, 2, 3, 5):
        profile = AlphaProfile.optimal_constant(p, alpha_p=1.7)
        expected = 1.0 / (1.7 * math.sqrt(1.0 + math.factorial(p) / p**2))
        assert_allclose(normalization_q(p, 0.0, profile), expected, rtol=1e-13)


def test_normalization_q_degenerate_at_zero():
    # alpha_p = 0 leaves no weight at z = 0: nothing to normalize
    with pytest.raises(DegenerateProfileError):
        normalization_q(2, 0.0, AlphaProfile.explicit([1.0, 0.5, 0.0]))
    # over a |z| array the first vanishing row is named
    with pytest.raises(DegenerateProfileError, match=r"at \|z\|=0 "):
        _resolve(2, np.array([1.0, 0.0, 2.0]), AlphaProfile.explicit([1.0, 0.5, 0.0]))


def test_states_built_with_q_have_unit_norm(rng):
    for state in random_states(rng, 25, 6, 4.0):
        assert abs(np.linalg.norm(state.full_vector) - 1.0) < 1e-10


# ---------------------------------------------------------------- exact oracle


def _oracle_stacks(rng, count):
    """Stacks of 1..8 (|z|, profile) rows of one order p, ``count`` rows in all.

    p is 1..12 and |z| 0..8; the profiles are of all three kinds.
    """
    stacks, total = [], 0
    while total < count:
        p, rows = int(rng.integers(1, 13)), []
        for _ in range(int(rng.integers(1, 9))):
            z_abs, kind = float(rng.uniform(0.0, 8.0)), int(rng.integers(0, 3 if p > 1 else 2))
            alpha_p = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
            if kind == 0:
                profile = random_explicit_profile(rng, p)
            elif kind == 1:
                profile = AlphaProfile.optimal_constant(p, alpha_p)
            else:
                profile = AlphaProfile.z_dependent_exact(p, int(rng.integers(1, p)), alpha_p)
                try:
                    profile.coefficients(z_abs)
                except NoRealSolutionError:
                    continue  # no state there
            rows.append((z_abs, profile))
        if rows:
            stacks.append((p, rows))
            total += len(rows)
    return stacks


def test_closed_form_is_within_a_few_ulps_of_the_exact_oracle():
    # every closed-form quantity is a libm power of |z|, a product or a
    # left-to-right sum: a few roundings each
    fields = ("a_sq", "b_sq", "defect", "denom", "weight_sum")
    worst = dict.fromkeys(("a_sq", "weight_sum", "denom"), 0.0)
    kinds = Counter()
    for p, rows in _oracle_stacks(np.random.default_rng(2525), 2000):
        alone = []
        for z_abs, profile in rows:
            form = _resolve(p, z_abs, profile)
            exact = oracle.closed_form(p, z_abs, form.alphas.tolist())
            for field in worst:
                error = oracle.ulps(getattr(form, field), getattr(exact, field))
                worst[field] = max(worst[field], error)
            alone.append(form)
            kinds[profile.kind] += 1
        # a stack row is its state alone, so it is as close to the oracle
        zs, profiles = zip(*rows)
        stack = _resolve(p, np.array(zs), profiles)
        for field in fields:
            assert getattr(stack, field).tolist() == [getattr(f, field) for f in alone]
    assert sum(kinds.values()) >= 2000 and min(kinds.values()) > 300, kinds
    assert worst["a_sq"] <= 4.0 and worst["weight_sum"] <= 4.0 and worst["denom"] <= 6.0, worst


# ---------------------------------------------------------------- beta recursion


def test_beta_seeds_p1_z0():
    profile = AlphaProfile.explicit([1.0, 1.0])
    beta = beta_coefficients(build_state(1, 0.0, profile, n_max=5, tail_tol=None))
    assert beta[0, 0] == 0.0  # carries conj(z)^p
    assert_allclose(beta[1, 1], 1 / math.sqrt(2))  # alpha_1 * Q(0)


def test_beta_tower_ratio():
    profile = AlphaProfile.explicit([0.4, 1.2])
    z = 0.9 - 0.3j
    beta = beta_coefficients(build_state(1, z, profile, n_max=6, tail_tol=None))
    assert_allclose(beta[1, 3], z**2 / math.sqrt(2) * beta[1, 1], rtol=1e-13)


def test_beta_zero_below_tower_start():
    state = build_state(3, 1.1, AlphaProfile.optimal_constant(3), n_max=7, tail_tol=None)
    beta = beta_coefficients(state)
    for k in range(1, 4):
        assert np.all(beta[k, :k] == 0.0)


def test_beta_requires_n_cut_at_least_p():
    # the towers run over the state's n_max levels, and a state needs n_max > p
    with pytest.raises(ValueError):
        build_state(3, 1.0, AlphaProfile.optimal_constant(3), n_max=3, tail_tol=None)


def test_beta_assembly_matches_closed_form():
    state = build_state(2, 1.3, AlphaProfile.optimal_constant(2))
    _, _, beta_distance, _ = consistency_residuals(state)
    assert beta_distance < 1e-10


# ---------------------------------------------------------------- state and amplitudes


@pytest.mark.parametrize("z", BELL_Z_VALUES)
def test_bell_amplitudes_p1(z):
    state = build_state(1, z, AlphaProfile.explicit([1.0, 1.0]))
    expected = (1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2))
    assert np.max(np.abs(np.array(state.qubit_amps) - expected)) < 1e-10


def test_product_state_when_alpha_p_zero():
    z = 1.2 + 0.3j
    profile = AlphaProfile.explicit([0.8, -0.4, 0.0])
    state = build_state(2, z, profile)
    coh = coherent_vector(z, state.n_max)
    ferm = np.array([0.8 * np.conj(z) ** 2, -0.4 * z, 0.0])
    product = np.kron(coh, ferm)
    product /= np.linalg.norm(product)
    assert np.linalg.norm(state.full_vector - product) < 1e-10


def test_a10_vanishes_on_optimal_profile():
    amps = qubit_amplitudes(2, 1.0, AlphaProfile.optimal_constant(2))
    assert amps[2] == 0.0


def test_a00_zero_when_alpha_p_zero():
    amps = qubit_amplitudes(3, 0.9, AlphaProfile.explicit([1.0, 0.3, -0.2, 0.0]))
    assert amps[0] == 0.0


def test_a01_always_zero(rng):
    for _ in range(20):
        p = int(rng.integers(1, 6))
        amps = qubit_amplitudes(p, random_z(rng, 3.0), random_explicit_profile(rng, p))
        assert amps[1] == 0.0


def test_amplitudes_are_normalized(rng):
    for _ in range(20):
        p = int(rng.integers(1, 6))
        amps = qubit_amplitudes(p, random_z(rng, 3.0), random_explicit_profile(rng, p))
        assert abs(sum(abs(a) ** 2 for a in amps) - 1.0) < 1e-10


def test_phase_covariance(rng):
    # |a_ij| depend on |z| only; a10 picks up exp(-i p theta)
    for p in (1, 2, 4):
        profile = random_explicit_profile(rng, p)
        z = 1.4
        theta = 0.77
        base = qubit_amplitudes(p, z, profile)
        rotated = qubit_amplitudes(p, z * np.exp(1j * theta), profile)
        assert np.max(np.abs(np.abs(np.array(rotated)) - np.abs(np.array(base)))) < 1e-12
        assert abs(rotated[2] - base[2] * np.exp(-1j * p * theta)) < 1e-12


@pytest.mark.parametrize("p", range(1, 9))
def test_state_towers_are_bit_exact(rng, p):
    # |z> and |z^(p)> are made once per state, |z^(p)> from a prefix of |z>,
    # and the columns k >= 1 in one outer product: each must equal the
    # vectors built on their own and the column-by-column assembly, bit for
    # bit.  Swapping the operands of the complex products changes last bits.
    for z in (0.0, 0.45, 1.2 - 0.7j, -2.3j, 3.1 + 1.4j):
        profile = random_explicit_profile(rng, p)
        state = build_state(p, z, profile)
        n_max, z = state.n_max, complex(z)
        coh = coherent_vector(z, n_max)
        dcoh = derivative_coherent_vector(z, p, n_max)
        assert np.array_equal(state.coherent, coh)
        assert np.array_equal(state.derivative, dcoh)
        for vector in (state.coherent, state.derivative, state.full_vector):
            assert not vector.flags.writeable
        alphas, q = state.closed_form.alphas, state.closed_form.q
        columns = np.zeros((n_max, p + 1), dtype=complex)
        columns[:, 0] = alphas[0] * np.conj(z) ** p * coh - (alphas[p] / p) * dcoh
        for k in range(1, p + 1):
            columns[:, k] = alphas[k] * z ** (p - k) * coh
        assert np.array_equal(state.full_vector, q * columns.reshape(-1))


def _reference_states(rng, count, p_max, z_max):
    """(p, z, alphas) as random_states drew them with rng.choice for the sign."""
    for _ in range(count):
        p = int(rng.integers(1, p_max + 1))
        z = rng.uniform(0, z_max) * np.exp(2j * np.pi * rng.uniform())
        alphas = rng.uniform(-2.0, 2.0, size=p + 1)
        alphas[p] = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        yield p, z, alphas


@pytest.mark.parametrize("seed", [20260810, 5])
def test_random_states_keep_the_sampler_stream(seed):
    # verify draws at p_max 1..4; at p_max = 1, integers(1, 2) consumes no bits
    for p_max in (1, 4, 8):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = zip(
            random_states(ours, 200, p_max, 3.0), _reference_states(reference, 200, p_max, 3.0)
        )
        count = 0
        for state, (p, z, alphas) in draws:
            assert (state.p, state.z) == (p, complex(z))
            assert state.profile.alphas == tuple(alphas.tolist())
            count += 1
        assert count == 200
        assert ours.bit_generator.state == reference.bit_generator.state, p_max


def test_build_state_truncation_enforced():
    with pytest.raises(TruncationError):
        build_state(1, 3.0, AlphaProfile.explicit([1.0, 1.0]), n_max=12)


@pytest.mark.parametrize(
    "p, z, n_max, error",
    [(8, 1e25, None, FloatRangeError), (2, 1e200, 64, FloatRangeError)],
)
def test_build_state_classifies_overflow_without_a_warning(p, z, n_max, error):
    # A^2 overflows in the closed form; the cutoff rule or the tail check
    # classifies the coherent vector first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            build_state(p, z, AlphaProfile.optimal_constant(p), n_max=n_max)


def test_build_state_far_out_raises_the_coherent_vectors_float_range_error():
    # the absolute tail check raised TruncationError "need n_max >= 4377" at
    # |z| = 40, and at that cutoff the vector left the float range anyway
    with pytest.raises(FloatRangeError, match=r"^the coherent vector at \|z\|=40 leaves"):
        build_state(3, 40.0, AlphaProfile.optimal_constant(3))
    # classified before anything sized by a cutoff of ~1e50 levels is allocated
    tracemalloc.start()
    try:
        with pytest.raises(FloatRangeError, match=r"coherent vector at \|z\|=1e\+25"):
            build_state(8, 1e25, AlphaProfile.optimal_constant(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_default_build_state_at_p3_is_accurate_up_to_z_30():
    # the absolute tail check rejected the default cutoff from |z| ~ 5.7 on
    for z_abs in np.arange(61) * 0.5:
        state = build_state(3, complex(z_abs * 0.6, z_abs * 0.8), AlphaProfile.optimal_constant(3))
        assert verify.eigenstate_residual(state) <= 1e-10, z_abs


def test_build_state_rejects_a_non_finite_vector():
    # the order-166 |z^(p)> overflows at |z| = 1
    with np.errstate(all="ignore"), pytest.raises(FloatRangeError, match="state vector"):
        build_state(166, 1.0, AlphaProfile.optimal_constant(166))


def test_build_state_classifies_a_non_finite_vector_without_a_warning():
    # as above, with numpy's own error state: the builder silences its overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="state vector of order p=166"):
            build_state(166, 1.0, AlphaProfile.optimal_constant(166))


_EXPLICIT_3 = AlphaProfile.explicit((1.0, 0.5, 0.2, 1.0))
DENOMINATOR_PAST_THE_FLOAT_RANGE = {
    # A^2 and B^2 overflow, so D = inf: the amplitudes came out 0, with sum |a|^2 = 0
    "amplitudes, D = inf": lambda: qubit_amplitudes(3, 1e60 * (1 + 1j), _EXPLICIT_3),
    # D = inf and a nan amplitude, silently
    "amplitudes, nan": lambda: qubit_amplitudes(3, 1e80 * (1 + 1j), _EXPLICIT_3),
    # conj(z)^p overflowed in numpy's scalar power
    "amplitudes, conj(z)^p": lambda: qubit_amplitudes(3, 1e103 * (1 + 1j), _EXPLICIT_3),
    # the defect is 0 * |z|^2 = 0 * inf, and so was a10
    "amplitudes, infinite z": lambda: qubit_amplitudes(
        1, complex(math.inf, 0.0), AlphaProfile.optimal_constant(1)
    ),
    # the exceptional alpha^2 is inf where |z|^2 underflows: A^2 = inf * 0
    "q, tiny z": lambda: normalization_q(8, 1e-300, AlphaProfile.z_dependent_exact(8, 1)),
    "q, defect 0 * inf": lambda: normalization_q(2, 1e152, AlphaProfile.optimal_constant(2)),
    # A^2, B^2 and |z|^(2p) all overflow at p = 99
    "q, order 99": lambda: normalization_q(99, 37.6, AlphaProfile.optimal_constant(99)),
    "q over rows": lambda: _resolve(2, np.array([1.0, 1e152]), AlphaProfile.optimal_constant(2)).q,
    "amplitudes over rows": lambda: _resolve(
        3, np.array([1.0, 1e60]), AlphaProfile.optimal_constant(3)
    ).amplitudes(np.array([1.0, 1e60 + 0j])),
}


@pytest.mark.parametrize("entry", sorted(DENOMINATOR_PAST_THE_FLOAT_RANGE))
def test_closed_form_past_the_float_range_raises_without_a_warning(entry):
    # D is inf or nan at each point: Q and the amplitudes came out 0 or nan,
    # or leaked numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="leaves the float range"):
            DENOMINATOR_PAST_THE_FLOAT_RANGE[entry]()


def test_defect_of_an_optimal_profile_is_exactly_zero_past_the_power_range():
    # alpha_0 = alpha_p/p: the defect is 0 at every finite |z|, one state and
    # each row of a stack, although |z|^(2p) is inf; it was 0 * inf = nan
    profile = AlphaProfile.optimal_constant(2)
    zs = np.array([1.0, 1e100])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = _resolve(2, 1e100, profile)
        rows = _resolve(2, zs, profile)
        stack = _resolve(2, zs, (profile, AlphaProfile.z_dependent_exact(2, 1)))
    assert one.defect == 0.0 and math.copysign(1.0, one.defect) == 1.0
    for form in (rows, stack):
        assert form.defect.tobytes() == np.zeros(2).tobytes()
        assert np.isfinite(form.denom).all()
    assert one.denom == rows.denom[1] == 2e200
    # at an infinite |z| no state exists: the defect stays 0 * inf = nan, and so D
    b_sq, defect, denom = coherent._denominator(2, 1.0, math.inf, math.inf, math.inf, 0.5, 1.0)
    assert math.isnan(defect) and math.isnan(denom)
    with pytest.raises(FloatRangeError, match=re.escape(
        "the normalization denominator at |z|=inf leaves the float range"
    )):
        _resolve(2, math.inf, profile)


ALPHA_P_PAST_THE_SQUARE_RANGE = {
    "optimal-constant": AlphaProfile.optimal_constant(3, 1e200),
    "explicit": AlphaProfile.explicit((1.0, 0.5, 0.2, 1e200)),
    "z-dependent-exact": AlphaProfile.z_dependent_exact(3, 1, 1e200),
}


@pytest.mark.parametrize("kind", sorted(ALPHA_P_PAST_THE_SQUARE_RANGE))
def test_an_alpha_p_past_the_square_range_raises_float_range_error(kind):
    # (alpha_p/p)^2 overflows: Python's float ** raised a bare OverflowError,
    # for one state and for every stack holding such a row
    profile = ALPHA_P_PAST_THE_SQUARE_RANGE[kind]
    zs = np.array([1.0, 1.5])
    stack = (AlphaProfile.optimal_constant(3), profile)
    calls = {
        "build_state": lambda: build_state(3, 1.5, profile),
        "build_state stack": lambda: build_state(3, zs.astype(complex), stack),
        "q": lambda: normalization_q(3, 1.5, profile),
        "q over |z|": lambda: normalization_q(3, zs, profile),
        "q stack": lambda: normalization_q(3, zs, stack),
        "concurrence": lambda: entanglement.concurrence_closed_form(3, 1.5, profile),
        "concurrence over |z|": lambda: entanglement.concurrence_closed_form(3, zs, profile),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            with pytest.raises(FloatRangeError, match="float range"):
                call()


ALPHA_P_PAST_THE_UNDERFLOW_RANGE = {
    "optimal-constant": AlphaProfile.optimal_constant(3, 1e-170),
    "explicit": AlphaProfile.explicit((1e-170, 0.0, 0.0, 1e-170)),
}


@pytest.mark.parametrize("kind", sorted(ALPHA_P_PAST_THE_UNDERFLOW_RANGE))
def test_an_underflowed_denominator_raises_float_range_error(kind):
    # D = 0 exactly only where alpha_p = 0 at z = 0; at alpha_p = 1e-170 every
    # term of D underflows, which was reported as a degenerate profile (exit 2)
    profile = ALPHA_P_PAST_THE_UNDERFLOW_RANGE[kind]
    zs = np.array([1.0, 1.5])
    stack = (AlphaProfile.optimal_constant(3), profile)
    calls = {
        "build_state": lambda: build_state(3, 1.5, profile),
        "build_state stack": lambda: build_state(3, zs.astype(complex), stack),
        "q": lambda: normalization_q(3, 1.5, profile),
        "q stack": lambda: normalization_q(3, zs, stack),
        "concurrence": lambda: entanglement.concurrence_closed_form(3, 1.5, profile),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            with pytest.raises(FloatRangeError, match=r"at \|z\|=1.5 .*underflows to 0"):
                call()
        # alpha_p != 0: an underflow at z = 0 too
        with pytest.raises(FloatRangeError, match=r"at \|z\|=0 .*underflows to 0"):
            normalization_q(3, 0.0, profile)
        # a degenerate row is named as such in a stack that also underflows
        degenerate = (AlphaProfile.explicit((1.0, 0.5, 0.5, 0.0)), profile)
        with pytest.raises(DegenerateProfileError, match=r"at \|z\|=0 "):
            normalization_q(3, np.array([0.0, 1.5]), degenerate)
    # alpha_p = 1e-150 still leaves a normal D
    assert normalization_q(3, 1.5, AlphaProfile.optimal_constant(3, 1e-150)) > 1e148


def test_state_with_an_underflowed_denominator_exits_1(tmp_path, capsys):
    for name, profile in ALPHA_P_PAST_THE_UNDERFLOW_RANGE.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(profile.to_dict()))
        rc = main(["state", "--p", "3", "--z-re", "1.5", "--profile", str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == (
            "error: the normalization denominator at |z|=1.5 leaves the float range: "
            "it underflows to 0\n"
        )


def test_a_subnormal_denominator_raises_float_range_error(tmp_path, capsys):
    # D = 2.08e-319 keeps about 5 digits: the Schmidt route's trace came out
    # 0.99978 and `state` exited 1 with "increase n_max", which no cutoff mends
    profile = AlphaProfile.optimal_constant(3, 1e-160)
    stack = (AlphaProfile.optimal_constant(3), profile)
    calls = [
        lambda: normalization_q(3, 1.5, profile),
        lambda: normalization_q(3, np.array([1.0, 1.5]), stack),
        lambda: build_state(3, 1.5, profile),
    ]
    message = "the normalization denominator at |z|=1.5 leaves the float range: "
    message += "it underflows to 2.08e-319"
    for call in calls:
        with pytest.raises(FloatRangeError, match=re.escape(message) + "$"):
            call()
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile.to_dict()))
    rc = main(["state", "--p", "3", "--z-re", "1.5", "--profile", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n")


def test_an_underflowed_branch_weight_raises_float_range_error(tmp_path, capsys):
    # (alpha_p/p)^2 ~ 1e-324 underflows where D ~ 1e-158 is normal: B^2 came out
    # 0, so C = 0 where it is about 1 and the state's norm sqrt(2), and `state`
    # asked for a cutoff it already had
    profile = AlphaProfile.optimal_constant(99, 1e-160)
    stack = (AlphaProfile.optimal_constant(99), profile)
    message = "the branch weight B^2 at |z|=1.5 leaves the float range: (alpha_p/p)^2 underflows"
    calls = [
        lambda: build_state(99, 1.5, profile),
        lambda: entanglement.concurrence_closed_form(99, 1.5, profile),
        lambda: normalization_q(99, np.array([1.0, 1.5]), stack),
    ]
    for call in calls:
        with pytest.raises(FloatRangeError, match=re.escape(message) + "$"):
            call()
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile.to_dict()))
    rc = main(["state", "--p", "99", "--z-re", "1.5", "--profile", str(path)])
    assert (rc, capsys.readouterr().err) == (1, f"error: {message}\n")
    # where alpha_p/p squares to a normal float the state is accurate
    state = build_state(99, 1.5, AlphaProfile.optimal_constant(99, 1e-150))
    assert verify.eigenstate_residual(state) <= 1e-10


@pytest.mark.parametrize(
    "compute",
    [
        lambda: normalization_q(3, 40.0, AlphaProfile.optimal_constant(3)),
        lambda: _resolve(3, np.array([1.0, 40.0]), AlphaProfile.optimal_constant(3)).q,
        lambda: normalization_q(2, 1e100, AlphaProfile.optimal_constant(2)),
        lambda: qubit_amplitudes(3, 40.0, AlphaProfile.optimal_constant(3)),
    ],
    ids=["q at 40", "q over rows", "q with the defect 0", "amplitudes at 40"],
)
def test_an_underflowed_q_raises_without_a_warning(compute):
    # D is finite, but exp(-|z|^2/2) underflows to 0: Q came out 0.0 silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="Q at .* underflows to 0"):
            compute()


def test_stack_amplitudes_are_formed_once_and_read_only():
    stack = build_state(3, np.array([0.5, 1.2j]), [AlphaProfile.optimal_constant(3)] * 2)
    amps = stack.qubit_amps
    assert stack.qubit_amps is amps
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        amps[0, 0] = 1.0


NAN_Z_ENTRIES = {
    "build_state": lambda: build_state(1, complex(math.nan), AlphaProfile.optimal_constant(1)),
    "build_state row": lambda: build_state(
        1, np.array([0.5, complex(math.nan)]), [AlphaProfile.optimal_constant(1)] * 2, n_max=32
    ),
    "default_n_max": lambda: algebra.default_n_max(math.nan, 3),
    "coherent_vector": lambda: coherent_vector(complex(0.5, math.nan), 16),
    "concurrence_closed_form": lambda: entanglement.concurrence_closed_form(
        1, math.nan, AlphaProfile.optimal_constant(1)
    ),
    "qubit_amplitudes": lambda: qubit_amplitudes(1, math.nan, AlphaProfile.optimal_constant(1)),
    # the entries that take |z|: the tail bound summed to 0.0 and the closed
    # forms came out nan, without a warning
    "coherent_tail": lambda: algebra.coherent_tail(math.nan, 40),
    "required_n_max": lambda: algebra.required_n_max(math.nan, 1e-14),
    "concurrence_optimal": lambda: entanglement.concurrence_optimal(3, math.nan),
    "concurrence_optimal row": lambda: entanglement.concurrence_optimal(
        3, np.array([1.0, math.nan])
    ),
    "normalization_q": lambda: normalization_q(3, math.nan, AlphaProfile.optimal_constant(3)),
    "bosonic_weight_sum": lambda: coherent.bosonic_weight_sum(3, math.nan),
}


@pytest.mark.parametrize("stale_errno", [False, True])
@pytest.mark.parametrize("entry", sorted(NAN_Z_ENTRIES))
def test_a_nan_z_is_classified(entry, stale_errno):
    # complex abs of a nan keeps the ERANGE a caught libm overflow leaves
    # behind, and raises OverflowError from it; math.ceil of a nan |z| raises
    # a bare ValueError; without either the amplitudes came out nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="nan"):
            if stale_errno:
                try:
                    math.exp(1000.0)
                except OverflowError:
                    pass
            NAN_Z_ENTRIES[entry]()


def test_build_state_order_mismatch():
    with pytest.raises(ValueError):
        build_state(2, 0.5, AlphaProfile.explicit([1.0, 1.0]))


@pytest.fixture
def coefficient_calls(monkeypatch):
    """The |z| of every AlphaProfile.coefficients call made during the test."""
    calls = []
    original = AlphaProfile.coefficients

    def counting(self, z_abs):
        calls.append(z_abs)
        return original(self, z_abs)

    monkeypatch.setattr(AlphaProfile, "coefficients", counting)
    return calls


@pytest.mark.parametrize(
    "profile", [AlphaProfile.optimal_constant(3), AlphaProfile.z_dependent_exact(3, 2)]
)
def test_build_state_resolves_profile_once(coefficient_calls, profile):
    build_state(3, 1.5 - 0.5j, profile)
    assert coefficient_calls == [abs(1.5 - 0.5j)]


@pytest.mark.parametrize(
    "profile", [AlphaProfile.optimal_constant(3), AlphaProfile.explicit((0.7, 0.5, 0.2, 1.0))]
)
def test_a_z_independent_profile_resolves_once_over_a_z_array(coefficient_calls, profile):
    zs = np.linspace(0.01, 5, 4096)
    rows = _resolve(3, zs, profile)
    assert len(coefficient_calls) == 1
    per_row = _resolve(3, zs, (profile,) * len(zs))  # a stack: one resolve per row
    assert len(coefficient_calls) == 1 + len(zs)
    for field in ("alphas", "a_sq", "b_sq", "defect", "denom", "weight_sum"):
        assert getattr(rows, field).tobytes() == getattr(per_row, field).tobytes()


@pytest.mark.parametrize(
    "profile", [AlphaProfile.optimal_constant(3), AlphaProfile.z_dependent_exact(3, 2)]
)
def test_state_command_resolves_profile_once(coefficient_calls, tmp_path, capsys, profile):
    # the four concurrence routes read the state's closed form: no second resolve
    state = build_state(3, 1.5 - 0.5j, profile)
    coefficient_calls.clear()
    concurrence_routes(state)
    assert coefficient_calls == []
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile.to_dict()))
    rc = main(["state", "--p", "3", "--z-re", "1.5", "--z-im", "-0.5", "--profile", str(path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["p"] == 3
    assert coefficient_calls == [abs(1.5 - 0.5j)]


@pytest.mark.parametrize(
    "profile", [AlphaProfile.optimal_constant(3), AlphaProfile.z_dependent_exact(3, 2)]
)
def test_state_command_forms_q_once(monkeypatch, tmp_path, capsys, profile):
    # the vector, the q_norm field and the amplitudes' checks all read the
    # state's one Q; each formed its own
    calls = []
    original = coherent._q

    def counting(z_abs, denom):
        calls.append(z_abs)
        return original(z_abs, denom)

    monkeypatch.setattr(coherent, "_q", counting)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile.to_dict()))
    argv = ["state", "--p", "3", "--z-re", "1.5", "--z-im", "-0.5", "--profile", str(path)]
    assert main(argv) == 0
    assert calls == [abs(1.5 - 0.5j)]
    # a stack forms Q once per row, in build_state
    calls.clear()
    stack = build_state(3, np.array([1.0, 1.2j]), [profile] * 2)
    stack.q_norm, stack.qubit_amps
    assert calls == [1.0, 1.2]


def test_verify_reads_each_state_closed_form(coefficient_calls, capsys):
    # the beta towers and qubit bases of state-consistency take the state's
    # closed form: 60 resolves, where resolving them again made 90
    assert main(["verify", "--p-max", "4"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(coefficient_calls) <= 60


def test_verify_builds_each_state_vectors_once(monkeypatch, capsys):
    # the 60 random states make |z> and |z^(p)> once and the checks read them;
    # each of the 20 coherent-identity samples makes |z> once and |z^(p)>
    # from it.  Making them for every check built 220 and 110, and the
    # qubit-basis reconstruction called np.kron 60 times.
    counts = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in ("coherent_vector", "_derivative_tower"):
        wrapper = counting(name, getattr(algebra, name))
        for module in (algebra, coherent, entanglement, model, verify, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(np, "kron", counting("kron", np.kron))
    assert main(["verify", "--p-max", "4"]) == 0
    assert "PASS" in capsys.readouterr().out
    # 20 coherent-identity samples, and one stack per order in each of the
    # three per-state suites (the 60 states built one by one made 80)
    assert 0 < counts["coherent_vector"] <= 20 + 3 * 4
    assert 0 < counts["_derivative_tower"] <= 20 + 3 * 4
    assert counts["kron"] == 0


def _count_calls(monkeypatch, calls: Counter, module, names) -> None:
    """Count each call to one of ``names`` in ``module`` into ``calls``."""
    for name in names:
        function = getattr(module, name)

        def wrapper(*args, _name=name, _function=function, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)


def test_verify_makes_one_svd_per_order(monkeypatch):
    # the Schmidt route, the Wootters route and its density check make one
    # svd, eigvals and eigvalsh call per stack; 25 states alone made 25 each
    calls = Counter()
    _count_calls(monkeypatch, calls, np.linalg, ("svd", "eigvals", "eigvalsh"))
    rng = np.random.default_rng(20260810)
    for suite in verify.SUITES:
        calls.clear()
        report = verify._run_suite(suite, 4, 1e-8, rng)
        assert report.ok, report
        assert max(calls.values(), default=0) <= 4, (report.name, calls)


def test_verify_checks_each_stack_without_a_call_per_row(monkeypatch):
    # norms are one vecdot pair over a stack; np.linalg.norm per row made 85
    # calls at --p-max 4.  The routes finish each row in the single-state
    # kernel by design.
    calls = Counter()
    _count_calls(monkeypatch, calls, np.linalg, ("norm",))
    assert all(report.ok for report in verify.run_all(4, 1e-8))
    assert calls == Counter()


# ---------------------------------------------------------------- qubit bases


def test_qubit_bases_orthonormal():
    profile = AlphaProfile.optimal_constant(2)
    bases = qubit_bases(build_state(2, 1.5 + 0.5j, profile))
    assert abs(np.linalg.norm(bases.b0) - 1.0) < 1e-10
    assert abs(np.linalg.norm(bases.b1) - 1.0) < 1e-10
    assert abs(np.vdot(bases.b0, bases.b1)) < 1e-10
    assert abs(np.linalg.norm(bases.f0) - 1.0) < 1e-12
    assert abs(np.linalg.norm(bases.f1) - 1.0) < 1e-12
    assert abs(np.vdot(bases.f0, bases.f1)) < 1e-12


def test_qubit_bases_f1_special_cases():
    # p = 1: the sum has the single term k = 1
    bases = qubit_bases(build_state(1, 0.7 - 0.2j, AlphaProfile.explicit([0.5, 2.0])))
    assert_allclose(bases.f1, [0.0, 1.0], atol=1e-14)
    # z = 0: only the k = p term carries |z|^0
    bases0 = qubit_bases(build_state(3, 0.0, AlphaProfile.optimal_constant(3)))
    expected = np.zeros(4)
    expected[3] = 1.0
    assert_allclose(bases0.f1, expected, atol=1e-14)


def test_qubit_bases_degenerate_without_upper_alphas():
    with pytest.raises(DegenerateProfileError):
        qubit_bases(build_state(2, 1.0, AlphaProfile.explicit([1.0, 0.0, 0.0])))


def test_amplitudes_reconstruct_full_vector():
    state = build_state(2, 0.8j, AlphaProfile.optimal_constant(2))
    *_, recon_distance = consistency_residuals(state)
    assert recon_distance < 1e-10


def test_triple_equivalence_random(rng):
    # beta assembly, closed form, and amplitude reconstruction agree pairwise:
    # the sum of the two distances to the closed form bounds the third
    for state in random_states(rng, 10, 5, 3.0):
        _, _, beta_distance, recon_distance = consistency_residuals(state)
        assert beta_distance + recon_distance < 1e-9
