"""The failure contract of the public API, over a seeded sweep of adversarial inputs.

Every numeric entry point in ``psusyent.__all__`` is called with adversarial
z, p, alpha_p, stack rows, density matrices and amplitudes.  Each call
either returns finite values (a z-dependent-exact |z| array may also hold
nan on the rows where its rule is undefined), or raises FloatRangeError,
TruncationError, DegenerateProfileError or NoRealSolutionError, or, for
malformed input only, a plain ValueError.  No call raises LinAlgError,
OverflowError or ZeroDivisionError or emits a RuntimeWarning, and a state
that builds never fails later with a plain ValueError.

The sweep records its warnings itself, so it passes the same way plain and
under ``-W error::RuntimeWarning``.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
import warnings

import numpy as np

import psusyent
from psusyent import (
    AlphaProfile,
    DegenerateProfileError,
    FloatRangeError,
    NoRealSolutionError,
    PowerTable,
    TruncationError,
    algebra,
)
from psusyent.verify import eigenstate_residual

CLASSIFIED = (FloatRangeError, TruncationError, DegenerateProfileError, NoRealSolutionError)

NAN, INF = math.nan, math.inf
# an ordinary z, also the well-formed row next to each adversarial one in a stack
GOOD_Z = 1.3 - 0.4j
Z_VALUES = (0.0, 5e-324, 1e-300, GOOD_Z, 37.6, 37.8, 40.0, 1e3, 1e152, 1e200,
            NAN, INF, -INF, complex(NAN, NAN), complex(0.0, INF))
ORDERS = (1, 2, 8, 99, 120, 150, 166, 167, 170, 171, 200)
ALPHA_P = (1e-170, 1e-160, 1.0, 1e200)

# the entry points called below; test_every_numeric_entry_point_is_swept keeps the list whole
SWEPT = {
    "beta_coefficients", "build_annihilator", "build_boson", "build_hamiltonian",
    "build_parafermi", "build_state", "check_algebra", "coherent_tail", "coherent_vector",
    "concurrence_closed_form", "concurrence_optimal", "concurrence_pure", "concurrence_routes",
    "concurrence_schmidt_oracle", "concurrence_wootters", "default_n_max", "degeneracy_profile",
    "density_from_amplitudes", "derivative_coherent_vector", "entanglement_of_formation",
    "normalization_q", "qubit_amplitudes", "qubit_bases", "required_n_max", "run_all",
    "verify_eigenstate",
}


def _finite(value) -> bool:
    """Whether every number in ``value`` (nested containers and dataclasses) is finite."""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (AlphaProfile, PowerTable)):
        return True
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


class _Sweep:
    """Calls entry points and collects every breach of the contract."""

    def __init__(self):
        self.failures: list[str] = []
        self.calls = 0

    def call(self, what: str, fn, *args, malformed: bool = False, finite: bool = True):
        """``fn(*args)``, or None where it raised as the contract allows.

        ``malformed`` allows a plain ValueError; ``finite`` asks for a finite value.
        """
        self.calls += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = fn(*args)
            except CLASSIFIED:
                value = None
            except ValueError as exc:
                value = None
                if type(exc) is not ValueError or not malformed:
                    self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            except Exception as exc:  # OverflowError, ZeroDivisionError, ...
                value = None
                self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                self.failures.append(f"{what}: RuntimeWarning: {w.message}")
        if value is not None and finite and not _finite(value):
            self.failures.append(f"{what}: returned a value that is not finite")
        return value

    def check(self):
        assert self.calls
        assert not self.failures, "\n".join(self.failures[:25])


def _profiles(p: int, alpha_p: float):
    """The adversarial profiles of order p: each kind, z-dependent-exact at both ends of m.

    The top m is an np.int64, which the profile stores as the Python int it equals.
    """
    yield AlphaProfile.optimal_constant(p, alpha_p)
    yield AlphaProfile.explicit((0.7,) * p + (alpha_p,))
    for m in sorted({1, np.int64(p - 1)}) if p >= 2 else ():
        yield AlphaProfile.z_dependent_exact(p, m, alpha_p)


def _abs(z) -> float:
    return abs(z) if not cmath.isnan(z) else NAN


def test_every_numeric_entry_point_is_swept():
    callable_names = {
        name for name in psusyent.__all__
        if callable(getattr(psusyent, name)) and not isinstance(getattr(psusyent, name), type)
    }
    assert callable_names == SWEPT


def _downstream(sweep: _Sweep, what: str, state) -> None:
    """Everything read from a built state: classified errors only, no plain ValueError."""
    for name in ("concurrence_routes", "qubit_bases", "beta_coefficients",
                 "concurrence_schmidt_oracle"):
        sweep.call(f"{name}({what})", getattr(psusyent, name), state)
    amps = sweep.call(f"qubit_amps({what})", lambda: state.qubit_amps)
    if amps is not None:
        sweep.call(f"concurrence_pure({what})", psusyent.concurrence_pure, amps)
        sweep.call(f"concurrence_wootters({what})", lambda: psusyent.concurrence_wootters(
            psusyent.density_from_amplitudes(amps)).eof)
    # the state's own residual: a norm short of 1 is a TruncationError there, where
    # verify_eigenstate keeps a plain ValueError for any unnormalized vector
    sweep.call(f"eigenstate_residual({what})", eigenstate_residual, state)


def test_states_and_closed_forms_keep_the_contract():
    rng = random.Random(20261021)
    sweep = _Sweep()
    cases = [(p, a, z) for p in ORDERS for a in ALPHA_P for z in Z_VALUES]
    for p, alpha_p, z in cases:
        for profile in _profiles(p, alpha_p):
            what = f"p={p}, {profile.kind}, m={profile.m}, alpha_p={alpha_p:g}, z={z}"
            z_abs = _abs(z)
            sweep.call(f"normalization_q({what})", psusyent.normalization_q, p, z_abs, profile)
            sweep.call(f"qubit_amplitudes({what})", psusyent.qubit_amplitudes, p, z, profile)
            result = sweep.call(f"concurrence_closed_form({what})",
                                psusyent.concurrence_closed_form, p, z, profile)
            if result is not None:
                sweep.call(f"eof({what})", lambda: result.eof)
            # the full state of a seeded share of the cells, and every ordinary one
            if z == GOOD_Z or rng.random() < 0.25:
                state = sweep.call(f"build_state({what})", psusyent.build_state, p, z, profile)
                if state is not None:
                    _downstream(sweep, what, state)
    sweep.check()


def test_stacks_with_one_bad_row_keep_the_contract():
    rng = random.Random(20261022)
    sweep = _Sweep()
    for p in ORDERS:
        for alpha_p in ALPHA_P:
            for profile in _profiles(p, alpha_p):
                bad = rng.choice(Z_VALUES)
                rows = [GOOD_Z, bad] if rng.random() < 0.5 else [bad, GOOD_Z]
                zs = np.array(rows, dtype=complex)
                z_abs = np.array([_abs(z) for z in rows])
                what = f"p={p}, {profile.kind}, m={profile.m}, alpha_p={alpha_p:g}, zs={rows}"
                sweep.call(f"normalization_q({what})", psusyent.normalization_q,
                           p, z_abs, profile)
                result = sweep.call(f"concurrence_closed_form({what})",
                                    psusyent.concurrence_closed_form, p, zs, profile,
                                    finite=profile.kind != "z-dependent-exact")
                if result is not None and profile.kind == "z-dependent-exact":
                    # nan exactly on the rows where the rule is undefined
                    defined = profile.defined(PowerTable(z_abs))
                    if not np.array_equal(np.isnan(result.value), ~defined):
                        sweep.failures.append(f"concurrence_closed_form({what}): nan rows")
                state = sweep.call(f"build_state({what})", psusyent.build_state,
                                   p, zs, (profile, profile))
                if state is not None:
                    _downstream(sweep, what, state)
            sweep.call(f"concurrence_optimal(p={p}, {z_abs})", psusyent.concurrence_optimal,
                       p, z_abs)
    sweep.check()


def test_vectors_cutoffs_and_operators_keep_the_contract():
    sweep = _Sweep()
    for z in Z_VALUES:
        z_abs = _abs(z)
        for n_max in (0, 1, 41, 10**400):
            sweep.call(f"coherent_tail({z_abs}, {n_max})", psusyent.coherent_tail,
                       z_abs, n_max, malformed=n_max < 1)
        for tol in (1e-300, 1e-12, 0.5, 0.0, NAN, INF):
            sweep.call(f"required_n_max({z_abs}, {tol})", psusyent.required_n_max,
                       z_abs, tol, malformed=not tol > 0.0)
        for n_max in (0, 1, 41, 300, np.int64(41)):
            for tail_tol in (None, 1e-12):
                sweep.call(f"coherent_vector({z}, {n_max}, {tail_tol})",
                           psusyent.coherent_vector, z, n_max, tail_tol, malformed=n_max < 1)
        stack = np.array([GOOD_Z, z], dtype=complex)
        sweep.call(f"coherent_vector([{GOOD_Z}, {z}], 80)", psusyent.coherent_vector,
                   stack, 80, 1e-12)
        for p in ORDERS:
            sweep.call(f"default_n_max({z}, {p})", psusyent.default_n_max, z, p)
            sweep.call(f"concurrence_optimal({p}, {z_abs})", psusyent.concurrence_optimal,
                       p, z_abs)
            for n_max in (p, p + 41):
                sweep.call(f"derivative_coherent_vector({z}, {p}, {n_max})",
                           psusyent.derivative_coherent_vector, z, p, n_max,
                           malformed=n_max <= p)
    for p in (-1, 0, *ORDERS, np.int64(8)):
        sweep.call(f"concurrence_optimal({p}, 1.0)", psusyent.concurrence_optimal, p, 1.0,
                   malformed=p < 1)
        ops = sweep.call(f"build_parafermi({p})", psusyent.build_parafermi, p, malformed=p < 1)
        if ops is not None:
            sweep.call(f"check_algebra(p={p})", psusyent.check_algebra, ops)
        for n_max in (p + 1, 2 * p + 2):
            sweep.call(f"build_annihilator({p}, {n_max})", psusyent.build_annihilator,
                       p, n_max, malformed=p < 1 or n_max < p + 2)
            h = sweep.call(f"build_hamiltonian(1, {p}, {n_max})", psusyent.build_hamiltonian,
                           1.0, p, n_max, malformed=p < 1 or n_max < p + 2)
            if h is not None:
                sweep.call(f"degeneracy_profile({p}, {n_max})", psusyent.degeneracy_profile,
                           h, malformed=n_max < 2 * p + 2)
    for omega in (NAN, INF, -1.0, 0.0, 5e-324, 1e-300, 1e300, 1e308):
        h = sweep.call(f"build_hamiltonian({omega}, 3, 8)", psusyent.build_hamiltonian,
                       omega, 3, 8, malformed=not omega > 0)
        if h is not None:
            sweep.call(f"degeneracy_profile(omega={omega})", psusyent.degeneracy_profile, h)
    for n_max in (-1, 0, 1, 2, 300, np.int64(300)):
        sweep.call(f"build_boson({n_max})", psusyent.build_boson, n_max, malformed=n_max < 2)
    for m in (1.5, np.float64(1.5)):  # a fractional index m is malformed
        sweep.call(f"concurrence_closed_form(3, m={m!r})", lambda: psusyent.concurrence_closed_form(
            3, GOOD_Z, AlphaProfile.z_dependent_exact(3, m)), malformed=True)
    a_op = psusyent.build_annihilator(2, 8)
    vacuum = np.zeros(24, dtype=complex)
    vacuum[0] = 1.0
    for z in Z_VALUES:
        sweep.call(f"verify_eigenstate(|0>, {z})", psusyent.verify_eigenstate, a_op, vacuum, z)
        sweep.call(f"verify_eigenstate([|0>, |0>], [{GOOD_Z}, {z}])", psusyent.verify_eigenstate,
                   a_op, np.stack([vacuum, vacuum]), np.array([GOOD_Z, z]))
    for entry in (NAN, INF, 1e200, 2.0):
        vector = vacuum.copy()
        vector[1] = entry
        sweep.call(f"verify_eigenstate([1, {entry}, 0, ...], 1)", psusyent.verify_eigenstate,
                   a_op, vector, 1.0, malformed=True)
    sweep.call("run_all(1, 1e-8)", psusyent.run_all, 1, 1e-8)
    sweep.check()


def _rule_cutoffs(p: int, z) -> tuple[int, ...]:
    """The residual rule's cutoff at |z| and one level below it; none past the float range."""
    try:
        needed = algebra._cutoff(abs(z), p, p + 2)
    except FloatRangeError:
        return ()
    return needed - 1, needed


def test_explicit_cutoffs_keep_the_contract():
    # unchecked, a short cutoff builds a truncated state, whose errors come
    # from the eigen-residual and the Schmidt route downstream
    # an np.int64 order, and its np.int64 cutoffs p..p + 2, act as the Python ints they equal
    sweep = _Sweep()
    for p in (1, 2, 8, 120, np.int64(8)):
        for z in (0.0, GOOD_Z, 3.0, 37.6, 40.0):
            for n_max in (p, p + 1, p + 2, 41, 300, *_rule_cutoffs(p, z)):
                for check in (True, False):
                    what = f"build_state({p}, {z}, n_max={n_max}, check={check})"
                    state = sweep.call(what, psusyent.build_state, p, z,
                                       AlphaProfile.optimal_constant(p), n_max, check,
                                       malformed=n_max < p + 2)
                    if state is not None:
                        _downstream(sweep, what, state)
    sweep.check()


def _amplitude_rows():
    half = math.sqrt(0.5)
    yield (1.0, 0.0, 0.0, 0.0)
    yield (half, 0.0, 0.0, half * 1j)
    for bad in (NAN, INF, -INF, complex(NAN, 0.0), complex(0.0, INF), 1e155, 1e200, 1e308,
                complex(1.5e308, 1.5e308)):
        yield (bad, 0.0, 0.0, 0.0)
        yield (half, 0.0, 0.0, bad)
    yield (2.0, 0.0, 0.0, 0.0)  # not normalized
    yield (0.0, 0.0, 0.0, 0.0)


def test_amplitudes_and_density_matrices_keep_the_contract():
    sweep = _Sweep()
    good = (math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5))
    for row in _amplitude_rows():
        for amps in (row, np.array([good, row], dtype=complex)):
            what = f"amplitudes {np.asarray(amps).tolist()}"
            sweep.call(f"concurrence_pure({what})", psusyent.concurrence_pure, amps,
                       malformed=True)
            rho = sweep.call(f"density_from_amplitudes({what})",
                             psusyent.density_from_amplitudes, amps)
            if rho is not None:
                sweep.call(f"concurrence_wootters({what})", psusyent.concurrence_wootters, rho,
                           malformed=True)
    rho = psusyent.density_from_amplitudes(good)
    # nan, inf, huge and non-Hermitian entries, a negative eigenvalue, a zero trace, a shape
    bad_matrices = []
    for entry in (NAN, INF, complex(0.0, NAN), 1e200, -0.5):
        bad = rho.copy()
        bad[1, 2] = entry
        bad_matrices.append(bad)
    bad_matrices += [np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), np.zeros((4, 4)),
                     np.eye(3) / 3, np.full((4, 4), NAN)]
    for bad in bad_matrices:
        for matrix in (bad, np.stack([rho, bad]) if bad.shape == (4, 4) else bad):
            sweep.call(f"concurrence_wootters({matrix.tolist()})", psusyent.concurrence_wootters,
                       matrix, malformed=True)
    for c in (0.0, 0.5, 1.0, -1e-13, 1.0 + 1e-13, -0.5, 2.0, NAN, INF, -INF,
              np.array([0.5, NAN]), np.array([0.5, 2.0]), np.array([0.0, 1.0])):
        sweep.call(f"entanglement_of_formation({c})", psusyent.entanglement_of_formation, c,
                   malformed=True)
    sweep.check()
