import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psusyent import (
    FloatRangeError,
    TruncationError,
    algebra,
    build_state,
    model,
    verify,
    build_boson,
    build_parafermi,
    check_algebra,
    coherent_tail,
    coherent_vector,
    default_n_max,
    derivative_coherent_vector,
    required_n_max,
)
from psusyent.coherent import AlphaProfile

import domain
import oracle


def test_parafermi_p1_matrices():
    ops = build_parafermi(1)
    assert_allclose(ops.b, [[0, 0], [1, 0]])
    assert_allclose(ops.j3, np.diag([0.5, -0.5]))
    comm = ops.b_dag @ ops.b - ops.b @ ops.b_dag
    assert_allclose(comm, 2 * ops.j3)


def test_parafermi_p2_entries():
    # C_beta = sqrt(beta (p - beta + 1)) puts sqrt(2) at (2,1) and (3,2), 1-based
    b = build_parafermi(2).b
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = math.sqrt(2)
    assert_allclose(b, expected)


def test_parafermi_b_dag_is_adjoint():
    ops = build_parafermi(5)
    assert_allclose(ops.b_dag, ops.b.conj().T)


@pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
def test_parafermi_invalid_order(bad):
    with pytest.raises(ValueError):
        build_parafermi(bad)


@pytest.mark.parametrize("p", range(1, 9))
def test_algebra_relations_hold_to_1e12(p):
    report = check_algebra(build_parafermi(p), tol=1e-12)
    assert report.passed, report.residuals
    assert report.max_residual <= 1e-12


def test_algebra_relations_exact_at_p1():
    # C_1 = 1, so every p = 1 relation is integer/half-integer arithmetic
    report = check_algebra(build_parafermi(1), tol=1e-12)
    assert report.max_residual == 0.0


def test_multilinear_p2_is_4b():
    ops = build_parafermi(2)
    b, bd = ops.b, ops.b_dag
    lhs = b @ b @ bd + b @ bd @ b + bd @ b @ b
    # p(p+1)(p+2)/6 = 4 at p = 2
    assert_allclose(lhs, 4 * b, atol=1e-14)


def _check_algebra_written_out(ops):
    """check_algebra's residuals as it formed them before it shared [b†, b]
    with su2_ladder and reduced with ndarray.max."""
    p, b, bd, j3 = ops.p, ops.b, ops.b_dag, ops.j3

    def rel(lhs, rhs):
        return float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(rhs))))

    zero = np.zeros_like(b)
    comm = bd @ b - b @ bd
    powers = [np.eye(p + 1, dtype=complex)]
    for _ in range(p + 1):
        powers.append(powers[-1] @ b)
    multilinear = sum(powers[p - k] @ bd @ powers[k] for k in range(p + 1))
    return {
        "nilpotency": max(
            rel(powers[p + 1], zero), rel(np.linalg.matrix_power(bd, p + 1), zero)
        ),
        "double_commutator_b": rel(comm @ b - b @ comm, -2.0 * b),
        "double_commutator_b_dag": rel(comm @ bd - bd @ comm, 2.0 * bd),
        "multilinear": rel(multilinear, (p * (p + 1) * (p + 2) / 6.0) * powers[p - 1]),
        "su2_ladder": rel(bd @ b - b @ bd, 2.0 * j3),
        "su2_j3": max(rel(j3 @ bd - bd @ j3, bd), rel(j3 @ b - b @ j3, -b)),
    }


def test_check_algebra_residuals_equal_the_written_out_relations():
    for p in range(1, 13):
        ops = build_parafermi(p)
        expected = {k: v.hex() for k, v in _check_algebra_written_out(ops).items()}
        assert {k: v.hex() for k, v in check_algebra(ops).residuals.items()} == expected, p


def test_boson_truncation_suite_equals_its_written_out_residuals():
    expected = []
    for n_max in (2, 8, 32):
        ops = build_boson(n_max)
        comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
        block = comm[: n_max - 1, : n_max - 1] - np.eye(n_max - 1)
        number = np.max(np.abs(ops.a_dag @ ops.a - ops.number_op))
        expected += [float(np.max(np.abs(block))), float(number)]
    observed = list(verify.suite_boson_truncation(4, None))
    assert [r.hex() for r in observed] == [r.hex() for r in expected]


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_nilpotency_exact_and_bp_nonzero(p):
    b = build_parafermi(p).b
    assert np.max(np.abs(np.linalg.matrix_power(b, p + 1))) == 0.0
    bp = np.linalg.matrix_power(b, p)
    assert np.max(np.abs(bp)) > 0.0
    # the surviving entry of b^p is the product of all C_beta, i.e. p!
    assert_allclose(np.max(np.abs(bp)), float(math.factorial(p)), rtol=1e-13)


def test_boson_small_matrices():
    assert_allclose(build_boson(2).a, [[0, 1], [0, 0]])
    a3 = build_boson(3).a
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2)
    assert_allclose(a3, expected)


def test_boson_invalid_dimension():
    with pytest.raises(ValueError):
        build_boson(1)


def test_boson_commutator_below_truncation():
    # fl(sqrt(n))^2 is not exactly n, so allow rounding dust
    ops = build_boson(10)
    comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
    block = comm[:8, :8] - np.eye(8)
    assert np.max(np.abs(block)) < 1e-14
    assert_allclose(ops.a_dag @ ops.a, ops.number_op, atol=1e-14)


def test_coherent_vector_examples():
    assert_allclose(coherent_vector(0.0, 5), [1, 0, 0, 0, 0])
    assert_allclose(coherent_vector(1.0, 3), [1, 1, 1 / math.sqrt(2)])


@pytest.mark.parametrize("z", [0.3, 1.0 + 0.5j, 2.0 - 1.0j, 3.5j, 5.0])
def test_coherent_norm_is_exp_z_squared(z):
    vec = coherent_vector(z, default_n_max(z, 1), tail_tol=1e-14)
    expz2 = math.exp(abs(z) ** 2)
    assert abs(np.vdot(vec, vec).real - expz2) / expz2 < 1e-12


def test_coherent_vector_prefix_is_bit_identical():
    rng = np.random.default_rng(61)
    zs = [*verify._Z_SAMPLES, *(complex(*xy) for xy in rng.uniform(-5.0, 5.0, (20, 2)))]
    for z in zs:
        longest = coherent_vector(z, 140)
        for n in (1, 2, 32, 63, 64, 65, 100, 129, 140):
            assert longest[:n].tobytes() == coherent_vector(z, n).tobytes(), (z, n)


def test_coherent_identities_suite_equals_its_per_order_vectors():
    # the suite as written before it read each order's |z> from one longest vector
    p_max = 8
    expected = []
    for z in verify._Z_SAMPLES:
        for p in range(1, p_max + 1):
            n_max = default_n_max(z, p)
            coh = coherent_vector(z, n_max)
            dcoh = algebra._derivative_tower(coh, p, n_max)
            expz2 = math.exp(abs(z) ** 2)
            closed = (verify.bosonic_weight_sum(p, abs(z)) + abs(z) ** (2 * p)) * expz2
            expected += [
                abs(np.vdot(coh, coh) - expz2) / expz2,
                abs(np.vdot(coh, dcoh) - np.conj(z) ** p * expz2) / expz2,
                abs(np.vdot(dcoh, dcoh) - closed) / closed,
            ]
    observed = list(verify.suite_coherent_identities(p_max, None))
    assert [r.hex() for r in observed] == [r.hex() for r in expected]


def test_derivative_vector_examples():
    for p in (1, 2, 3):
        vec = derivative_coherent_vector(0.0, p, p + 4)
        expected = np.zeros(p + 4)
        expected[p] = math.sqrt(math.factorial(p))
        assert_allclose(vec, expected)
    assert_allclose(derivative_coherent_vector(1.0, 1, 3), [0, 1, 2 / math.sqrt(2)])


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("z", [0.7, 1.0 + 0.5j, 2.0 - 1.0j])
def test_overlap_identity(p, z):
    n_max = default_n_max(z, p)
    coh = coherent_vector(z, n_max)
    dcoh = derivative_coherent_vector(z, p, n_max)
    expz2 = math.exp(abs(z) ** 2)
    assert abs(np.vdot(coh, dcoh) - np.conj(z) ** p * expz2) / expz2 < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("z", [0.7, 1.0 + 0.5j, 2.0 - 1.0j, 3.0])
def test_derivative_norm_identity_uses_even_powers(p, z):
    # <z^(p)|z^(p)> = sum_{n=0..p} (p!)^2/((n!)^2 (p-n)!) |z|^(2n) e^(|z|^2);
    # the |z|^(2n) power is forced by differentiating the series term by term.
    n_max = default_n_max(z, p)
    dcoh = derivative_coherent_vector(z, p, n_max)
    closed = sum(
        math.factorial(p) ** 2
        / (math.factorial(n) ** 2 * math.factorial(p - n))
        * abs(z) ** (2 * n)
        for n in range(p + 1)
    ) * math.exp(abs(z) ** 2)
    assert abs(np.vdot(dcoh, dcoh).real - closed) / closed < 1e-8


@pytest.mark.parametrize("p,step", [(1, 1e-4), (2, 1e-4), (3, 1e-3)])
def test_coherent_vector_is_holomorphic(p, step):
    # p-fold central difference of the vector matches the analytic derivative;
    # the p = 3 step is wider because eps/h^3 roundoff dominates at 1e-4.
    z0 = 1.1 + 0.4j
    n = 32
    approx = np.zeros(n, dtype=complex)
    for j in range(p + 1):
        weight = (-1) ** j * math.comb(p, j)
        approx += weight * coherent_vector(z0 + (p / 2 - j) * step, n)
    approx /= step**p
    exact = derivative_coherent_vector(z0, p, n)
    assert np.linalg.norm(approx - exact) / np.linalg.norm(exact) < 1e-5


def test_truncation_error_reports_required_n_max():
    with pytest.raises(TruncationError) as err:
        coherent_vector(3.0, 10, tail_tol=1e-14)
    needed = err.value.required_n_max
    assert needed is not None and needed > 10
    assert coherent_tail(3.0, needed) < 1e-14
    coherent_vector(3.0, needed, tail_tol=1e-14)  # no raise


def test_required_n_max_is_minimal():
    n = required_n_max(2.0, 1e-14)
    assert coherent_tail(2.0, n) < 1e-14 <= coherent_tail(2.0, n - 1)


def _linear_scan_n_max(z_abs, tail_tol):
    n = 2
    while coherent_tail(z_abs, n) >= tail_tol:
        n += 1
    return n


@pytest.mark.parametrize("z_abs", [0.5 * k for k in range(1, 13)])
def test_required_n_max_matches_linear_scan(z_abs):
    assert required_n_max(z_abs, 1e-14) == _linear_scan_n_max(z_abs, 1e-14)


def test_required_n_max_at_large_z():
    # the unnormalized tail's leading term exceeds the float range for
    # n_max ~ 500 here; below the Poisson peak at |z|^2 = 900 the dropped
    # fraction is all but 1
    n = required_n_max(30.0, 1e-14)
    assert coherent_tail(30.0, n) < 1e-14 <= coherent_tail(30.0, n - 1)
    assert coherent_tail(30.0, 500) == pytest.approx(1.0, abs=1e-15)


def test_required_n_max_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        required_n_max(1.0, 0.0)


def test_check_tail_verdict_equals_the_summed_series():
    # |z>'s own rule: coherent_vector raises exactly where the summed tail
    # reaches tail_tol, and names the smallest cutoff whose tail is below it
    rng = np.random.default_rng(2766)
    cases = []
    for z_abs in [0.0, 1e-300, 0.3, 1.0, 2.5, 5.0, 6.5, 12.0, *rng.uniform(0.0, 9.0, 60).tolist()]:
        for tail_tol in (1e-14, 1e-10, 1e-3, 0.9, 5.0):
            if z_abs == 0.0:
                cases += [(z_abs, n, tail_tol) for n in (1, 2, 32)]
                continue
            needed = required_n_max(z_abs, tail_tol)
            # around the crossing, below it where |z|^2 >= (n+1)/2, and far above it
            near = {needed - 1, needed, needed + 1, max(1, int(z_abs * z_abs) // 2), 4 * needed}
            cases += [(z_abs, n, tail_tol) for n in near if n >= 1]
    assert any(2.0 * z * z >= n + 1 for z, n, _ in cases)
    verdicts = set()
    for z_abs, n_max, tail_tol in cases:
        try:
            coherent_vector(z_abs, n_max, tail_tol)
        except TruncationError as exc:
            needed = exc.required_n_max
            assert coherent_tail(z_abs, n_max) >= tail_tol, (z_abs, n_max, tail_tol)
            assert coherent_tail(z_abs, needed) < tail_tol <= coherent_tail(z_abs, needed - 1)
            verdicts.add("raised")
        else:
            assert coherent_tail(z_abs, n_max) < tail_tol, (z_abs, n_max, tail_tol)
            verdicts.add("passed")
    assert verdicts == {"raised", "passed"}


def test_default_n_max_rule():
    # the smallest n >= max(32, p + 2, |z|^2 + p) whose predicted residual
    # sqrt(n (2 |b0_n|^2 + 3 |b1_n|^2)) is <= 1e-12, against a 40-digit one
    assert default_n_max(0.0, 1) == 32
    assert default_n_max(0.0, 40) == 42  # the annihilator acts on p + 2 levels or more
    assert default_n_max(3.0, 4) == 65
    for p, z_abs in [(4, 3.0), (1, 0.5), (3, 5.7), (8, 5.25), (80, 3.0), (120, 3.0), (3, 30.0)]:
        n = default_n_max(z_abs * np.exp(0.4j), p)
        start = max(32, p + 2, math.ceil(z_abs * z_abs) + p)
        assert n >= start and oracle.predicted_residual(p, z_abs, n) <= 1e-12, (p, z_abs)
        assert n == start or oracle.predicted_residual(p, z_abs, n - 1) > 1e-12, (p, z_abs)
    for z in (0.5, 2.0, 5.0):
        assert coherent_tail(z, default_n_max(z, 8)) < 1e-14


def test_default_cutoff_search_lands_where_a_linear_scan_does(monkeypatch):
    # _cutoff tries its start first and returns it only where it passes, so a
    # linear scan with each level in turn as the start finds the first passing n
    rng = np.random.default_rng(4000)
    cases = [(float(rng.uniform(0.0, 5.25)), int(rng.integers(1, 9))) for _ in range(4000)]
    cases += [(z_abs, p) for p in domain.ORDERS for z_abs in domain.Z_ABS]
    lgamma, calls = math.lgamma, [0]

    def counting_lgamma(x):
        calls[0] += 1
        return lgamma(x)

    evaluations, out_of_range = [], 0
    for z_abs, p in cases:
        calls[0] = 0
        with monkeypatch.context() as patched:
            patched.setattr(math, "lgamma", counting_lgamma)
            try:
                n = default_n_max(z_abs, p)
            except FloatRangeError:
                out_of_range += 1  # |z> leaves the float range before any level is tried
                continue
        evaluations.append(calls[0] // 2)  # two per level tried
        start = max(32, p + 2, math.ceil(z_abs * z_abs) + p)
        assert algebra._cutoff(z_abs, p, n) == n, (z_abs, p)  # n passes
        assert all(algebra._cutoff(z_abs, p, k) > k for k in range(start, n)), (z_abs, p)
    # |z| = 38, 40 and 60 at every order, and every |z| > 0 at p = 167, 170, 171
    # and 200, whose weight coefficients leave the float range
    assert out_of_range == 3 * len(domain.ORDERS) + 4 * (len(domain.Z_ABS) - 4)
    assert np.median(evaluations) <= 4  # doubling and bisection took 7


def test_default_cutoff_passes_the_tail_check_by_construction():
    # past |z|^2 + p each Poisson term is under 1 - 2/(n+1) times the one
    # before, so the dropped fraction is under (n+1)/2 |b1_n|^2, and the
    # rule holds 3 n |b1_n|^2 <= 1e-24
    for p in (1, 3, 8, 40, 120):
        for z_abs in (1e-3, 0.5, 2.0, 5.7, 12.0, 30.0, 37.5):
            n = default_n_max(z_abs, p)
            assert coherent_tail(z_abs, n) < 1e-24, (p, z_abs)
            algebra._check_tail(z_abs, n, algebra.DEFAULT_TAIL_TOL)


def test_derivative_rejects_too_small_n_max():
    with pytest.raises(ValueError):
        derivative_coherent_vector(1.0, 3, 3)


def test_derivative_past_the_float_range_raises_without_a_warning():
    # the order-166 ladder sqrt((m+1)...(m+166)) overflows from m = 6 on:
    # the caller gets the classified error, not numpy's overflow warning
    # and 28 non-finite amplitudes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="p=166"):
            derivative_coherent_vector(1.0, 166, 200)


def test_coherent_vector_past_the_float_range_raises_without_a_warning():
    # z^n/sqrt(n!) peaks near e^(|z|^2/2): past the float range from |z| ~ 37.7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=r"\|z\|=40 leaves"):
            coherent_vector(40.0, 3000)
        with pytest.raises(FloatRangeError, match=r"\|z\|=40 leaves"):
            coherent_vector(np.array([1.0, 40.0j, 50.0]), 3000)
        # up to the bound below which the vector is not checked, it stays finite
        for z in (37.0, -37.0j, 37.0 * np.exp(0.7j), np.array([37.0, 36.9j])):
            assert np.isfinite(coherent_vector(z, 4000)).all()


@pytest.mark.parametrize(
    "z",
    [complex(math.inf, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0),
     np.array([1.0, complex(math.inf, 0.0)])],
)
def test_coherent_vector_at_an_infinite_z_raises_without_a_warning(z):
    # z/sqrt(n) of an infinite z has a nan part: numpy warned in the divide,
    # which ran before the |z| gate of the float-range check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match=r"\|z\|=inf leaves"):
            coherent_vector(z, 16)


@pytest.mark.parametrize("z_abs", [1e200, math.inf])
def test_truncation_past_the_float_range_raises(z_abs):
    # |z|^2 is inf: default_n_max had math.ceil(inf) and required_n_max
    # doubled its bracket until lgamma overflowed, both as OverflowError
    with pytest.raises(FloatRangeError, match="float range"):
        default_n_max(z_abs, 2)
    with pytest.raises(FloatRangeError, match="float range"):
        required_n_max(z_abs, 1e-14)


@pytest.mark.parametrize("z", [1e200, -1.3e154j, 1e154])
def test_build_state_past_the_float_range_raises(z):
    profile = AlphaProfile.optimal_constant(2)
    with pytest.raises(FloatRangeError, match="float range"):
        build_state(2, z, profile)
    with pytest.raises(FloatRangeError, match="float range"):
        build_state(2, z, profile, n_max=64)


# ---------------------------------------------------------------- ladder tables

# lengths on both sides of the 64 and 128 capacity boundaries
_TABLE_LENGTHS = (1, 63, 64, 65, 129, 700)


def _tables_written_out(n, p):
    """The sqrt levels, rising sqrt and raise weights of length n, as the
    package computed them for every call before they were tabled."""
    m = np.arange(n, dtype=float)
    rising = np.ones_like(m)
    for j in range(1, p + 1):
        rising *= m + j
    raise_w = np.prod(np.sqrt(m[:, None] + np.arange(1, p)), axis=1)
    return {
        (algebra._sqrt_levels, ()): np.sqrt(np.arange(1, n + 1, dtype=float)),
        (algebra._rising_sqrt, (p,)): np.sqrt(rising),
        (model._raise_weights, (p,)): raise_w,
    }


def _coherent_vector_written_out(z, n_max):
    amps = np.empty(n_max, dtype=complex)
    amps[0] = 1.0
    if n_max > 1:
        amps[1:] = np.cumprod(z / np.sqrt(np.arange(1, n_max, dtype=float)))
    return amps


def _derivative_tower_written_out(coh, p, n_max):
    m = np.arange(n_max - p, dtype=float)
    rising = np.ones_like(m)
    for j in range(1, p + 1):
        rising *= m + j
    out = np.zeros(n_max, dtype=complex)
    out[p:] = coh[: n_max - p] * np.sqrt(rising)
    return out


def _apply_written_out(p, n_max, psi):
    x = psi.reshape(n_max, p + 1)
    out = np.zeros(x.shape, dtype=np.result_type(x, float))
    out[:-1] = np.sqrt(np.arange(1.0, n_max))[:, None] * x[1:]
    kept = n_max - p + 1
    n = np.arange(kept, dtype=float)
    raise_w = np.prod(np.sqrt(n[:, None] + np.arange(1, p)), axis=1)
    out[p - 1 :, 0] += raise_w * x[:kept, p]
    return out.reshape(-1)


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("p", range(1, 9))
def test_ladder_tables_are_read_only_prefixes(p, descending, fresh_ladder_tables):
    for n in sorted(_TABLE_LENGTHS, reverse=descending):
        for (build, params), expected in _tables_written_out(n, p).items():
            table = algebra._ladder_table(build, n, *params)
            assert table.shape == (n,) and not table.flags.writeable, (build, n)
            assert np.array_equal(table, expected), (build, n)
            with pytest.raises(ValueError):
                table[0] = 0.0


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("p", range(1, 9))
def test_tabled_vectors_and_annihilator_are_bit_identical(p, descending, fresh_ladder_tables):
    rng = np.random.default_rng(p)
    for n in sorted(_TABLE_LENGTHS, reverse=descending):
        z = complex(*rng.uniform(-4.0, 4.0, size=2))
        # each n_max puts a table length at n
        coh = coherent_vector(z, n + 1)
        assert np.array_equal(coh, _coherent_vector_written_out(z, n + 1))
        coh = coherent_vector(z, n + p)
        assert np.array_equal(
            algebra._derivative_tower(coh, p, n + p), _derivative_tower_written_out(coh, p, n + p)
        )
        for n_max in {max(n + 1, p + 2), max(n + p - 1, p + 2)}:
            a_op = model.build_annihilator(p, n_max)
            dim = n_max * (p + 1)
            for psi in (rng.normal(size=dim), rng.normal(size=dim) + 1j * rng.normal(size=dim)):
                assert np.array_equal(a_op.apply(psi), _apply_written_out(p, n_max, psi))


def test_float_factorial_stops_at_the_float_range():
    # 170! ~ 7.3e306 is the largest factorial a float holds; ln 171! ~ 711.7 is
    # past ln(max float) ~ 709.8, where the lgamma branch raised a bare OverflowError
    assert algebra.float_factorial(170) == float(math.factorial(170))
    with pytest.raises(FloatRangeError, match="171! exceeds the float range"):
        algebra.float_factorial(171)
