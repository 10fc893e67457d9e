"""Concurrence of the coherent states by four independent routes, plus EoF.

Routes:

* ``closed-form``: C = 2AB / (A^2 + B^2 + defect) evaluated directly from
  the coefficient profile.
* ``pure-amplitude``: C = 2 |a00 a11 - a01 a10| from the two-qubit
  amplitudes.
* ``wootters-4x4``: the mixed-state recipe (sqrt-eigenvalues of rho
  rho~) applied to the 4x4 projector in the logical-qubit frame; kept as a
  verification oracle.
* ``schmidt-oracle``: partial trace of the full tensor vector over the
  boson space, C = sqrt(2 (1 - Tr rho_f^2)); exact because the state has
  Schmidt rank <= 2.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import _checked_abs, _largest_cutoff, float_factorial
from .coherent import (
    KIND_Z_EXACT,
    AlphaProfile,
    PowerTable,
    PsusyCoherentState,
    _check_order,
    _fold,
    _resolve,
    _weight_series,
)
from .errors import FloatRangeError, NoRealSolutionError, TruncationError

__all__ = [
    "ConcurrenceResult",
    "ROUTE_CLOSED_FORM",
    "ROUTE_PURE",
    "ROUTE_WOOTTERS",
    "ROUTE_SCHMIDT",
    "concurrence_closed_form",
    "concurrence_pure",
    "concurrence_wootters",
    "concurrence_schmidt_oracle",
    "concurrence_routes",
    "density_from_amplitudes",
    "concurrence_optimal",
    "entanglement_of_formation",
]

ROUTE_CLOSED_FORM = "closed-form"
ROUTE_PURE = "pure-amplitude"
ROUTE_WOOTTERS = "wootters-4x4"
ROUTE_SCHMIDT = "schmidt-oracle"

# Eigenvalues of rho*rho~ below this fraction of the spectral scale are
# treated as exact zero; without the clamp the final square root turns
# 1e-16 noise into 1e-8 errors.  Relative to the scale so that genuinely
# small concurrences are not zeroed out.
_EIGENVALUE_DUST = 1e-12

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)

# sigma_y x sigma_y is the anti-diagonal (-1, 1, 1, -1), so the spin flip
# (sigma_y x sigma_y) rho* (sigma_y x sigma_y) is rho* with both indices
# reversed and entry (i, j) signed by s_i s_j
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class ConcurrenceResult:
    """A concurrence and its EoF; arrays of them for a |z| array.

    ``eof`` is computed from ``value`` on first read, nan where ``value`` is
    nan, so a caller that reads only ``value`` does not pay for it.
    """

    value: float | np.ndarray
    route: str
    lambdas: tuple[float, float, float, float] | None = None

    @functools.cached_property
    def eof(self) -> float | np.ndarray:
        value = self.value
        if isinstance(value, np.ndarray):
            undefined = np.isnan(value)
            if undefined.any():
                eof = entanglement_of_formation(np.where(undefined, 0.0, value))
                return np.where(undefined, np.nan, eof)
        return entanglement_of_formation(value)


def _clip_unit(value, what: str, tol: float = 1e-10):
    """``value`` clipped to [0, 1], elementwise for an array.

    nan raises FloatRangeError; a value more than ``tol`` outside [0, 1]
    raises ValueError.  A float is checked with Python comparisons, which
    cost a tenth of numpy's on one element.
    """
    if isinstance(value, np.ndarray) and value.ndim:
        outside = value[~((value >= -tol) & (value <= 1.0 + tol))]  # nan is outside
        if outside.size:
            _reject(float(outside[0]), what)
        return np.minimum(np.maximum(value, 0.0), 1.0)
    value = float(value)
    if not -tol <= value <= 1.0 + tol:
        _reject(value, what)
    return min(max(value, 0.0), 1.0)


def _reject(value: float, what: str):
    if math.isnan(value):
        raise FloatRangeError(f"{what} is nan: its formula left the float range")
    raise ValueError(f"{what} = {value!r} outside [0, 1] beyond tolerance")


def _result(value, route: str, lambdas=None) -> ConcurrenceResult:
    """Clip ``value`` to [0, 1]."""
    return ConcurrenceResult(_clip_unit(value, "concurrence"), route, lambdas)


def concurrence_closed_form(p: int, z, profile: AlphaProfile) -> ConcurrenceResult:
    """C = 2AB / (A^2 + B^2 + (alpha_0 - alpha_p/p)^2 |z|^(2p)).

    Zero exactly when alpha_p = 0 (then B = 0 and the state is a product);
    raises DegenerateProfileError where the denominator vanishes, at
    alpha_p = 0 and z = 0, where no normalizable state exists.  ``z`` is a
    complex number, a 1-D array of complex z or of real |z|, or a
    :class:`PowerTable` over one; over an array the result holds arrays,
    each row equal to its z alone.  A z-dependent-exact profile gets its
    exact C = 1 from alpha_{p-m} alone (:func:`_z_exact_concurrence`); any
    other raises FloatRangeError where D is not a finite normal float or B^2
    has lost digits to underflow (:func:`_resolve`).  Elsewhere C is finite.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        # each complex z's |z| is Python's, as build_state takes it
        z = np.array([_checked_abs(v) for v in z.tolist()]) if np.iscomplexobj(z) else np.abs(z)
    elif not isinstance(z, PowerTable):
        z = _checked_abs(complex(z))
    powers = PowerTable.of(z)
    if profile.kind == KIND_Z_EXACT:
        return _z_exact_concurrence(p, powers, profile)
    return _result(_resolve(p, powers, profile).concurrence, ROUTE_CLOSED_FORM)


def _z_exact_concurrence(p: int, powers: PowerTable, profile: AlphaProfile) -> ConcurrenceResult:
    """C = 2AB/D = 1, as alpha_{p-m} makes A^2 = B^2 = (alpha_p/p)^2 W with no defect.

    nan on the |z| rows where the rule is undefined (:meth:`AlphaProfile.defined`);
    FloatRangeError where alpha_{p-m} leaves the float range, but not where D does.
    """
    _check_order(p, profile)
    zs, z_top, defined = powers.zs, float(powers.zs.max()), profile.defined(powers)
    if powers.scalar:  # raises where the rule is undefined or alpha_{p-m} leaves the range
        profile._exceptional_alpha(z_top)
    else:
        below = powers.first(~defined & (zs != 0.0))
        if below is not None:  # a row in (0, z*]: p = 2 or 3
            # kept for the traced-error contract of benchmarks/tests, which counts
            # the NoRealSolutionError raised inside AlphaProfile.coefficients;
            # until ROADMAP item 6 replaces that tracer
            with contextlib.suppress(NoRealSolutionError):
                profile.coefficients(below)
        # alpha_{p-m} can leave the float range only at the ends, checked once each
        # (a set): |z|^m underflows at the smallest |z|, c_m |z|^(2m) overflows at the largest
        if defined.any():
            for z_abs in {float(zs[defined].min()), z_top}:
                profile._exceptional_alpha(z_abs)
    value = 1.0 if powers.scalar else np.where(defined, 1.0, np.nan)
    return ConcurrenceResult(value, ROUTE_CLOSED_FORM)


def concurrence_pure(amps):
    """C = 2 |a00 a11 - a01 a10| for normalized pure-state amplitudes.

    A (k, 4) array of amplitudes gives k concurrences, one per row.  Raises
    FloatRangeError where sum |a|^2 overflows.
    """
    if isinstance(amps, np.ndarray) and amps.ndim == 2:
        return np.array([concurrence_pure(row) for row in amps.tolist()])
    try:
        a00, a01, a10, a11 = (complex(a) for a in amps)
        norm_sq = abs(a00) ** 2 + abs(a01) ** 2 + abs(a10) ** 2 + abs(a11) ** 2
    except OverflowError:  # an amplitude or its square past the float range
        norm_sq = math.inf
    if norm_sq == math.inf:
        raise FloatRangeError("amplitudes leave the float range: sum |a|^2 overflows")
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"amplitudes are not normalized: sum |a|^2 = {norm_sq:.8g}")
    return _clip_unit(2.0 * abs(a00 * a11 - a01 * a10), "concurrence")


def density_from_amplitudes(amps) -> np.ndarray:
    """Pure-state projector in the ordered basis {|00>, |01>, |10>, |11>}.

    A (k, 4) array of amplitudes gives a (k, 4, 4) stack of projectors.
    Raises FloatRangeError where an entry a_i conj(a_j) would be nan or inf:
    it is at most max |a|^2 in size, so it is finite where each |a| is
    below sqrt(float max).
    """
    vec = np.asarray(amps, dtype=complex)
    if vec.ndim != 2:
        vec = vec.reshape(4)
    rows = vec.tolist() if vec.ndim == 2 else (vec.tolist(),)
    try:  # in Python floats, cheaper than numpy calls on a few; nan fails the comparison
        finite = all(abs(a) < _SQRT_FLOAT_MAX for row in rows for a in row)
    except OverflowError:  # |a| itself past the float range
        finite = False
    if not finite:
        raise FloatRangeError("density matrix has a nan or inf entry")
    return vec[..., :, None] * vec.conj()[..., None, :]


def _validate_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim > 3:
        raise ValueError(f"density matrix must be 4x4 or a stack of them, got shape {rho.shape}")
    # before the checks below: nan passes every tolerance comparison, and inf
    # makes the Hermitian difference nan
    if not np.isfinite(rho).all():
        raise FloatRangeError("density matrix has a nan or inf entry")
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max() > 1e-10:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    stack = rho.reshape(-1, 4, 4)
    if not _unit_traces(stack):
        raise ValueError("density matrix trace differs from 1 beyond 1e-10")
    # eigvalsh sorts ascending: the first eigenvalue of each matrix is its smallest
    if min(np.linalg.eigvalsh(stack)[:, 0].tolist()) < -1e-10:
        raise ValueError("density matrix is not positive semidefinite within 1e-10")
    return rho


def concurrence_wootters(rho: np.ndarray) -> ConcurrenceResult:
    """Mixed-state concurrence via the spin-flipped product rho * rho~.

    rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y); the lambdas are the
    decreasingly sorted square roots of the eigenvalues of rho rho~ and
    C = max(0, l1 - l2 - l3 - l4).  Eigenvalues within 1e-12 of zero
    relative to the spectral scale are clamped before the square root.  A
    (k, 4, 4) stack gives k values and a (k, 4) array of lambdas, from one
    eigenvalue call.
    """
    return _wootters(_validate_density(rho))


def _unit_traces(stack: np.ndarray) -> bool:
    """Whether each matrix of a (k, 4, 4) stack has trace 1 within 1e-10; nan has not.

    Checked per matrix in Python floats, cheaper than numpy calls on a few.
    """
    for trace in stack.trace(0, -2, -1).tolist():
        if not (abs(trace.real - 1.0) <= 1e-10 and abs(trace.imag) <= 1e-10):
            return False
    return True


def _checked_projector(amps) -> np.ndarray:
    """``density_from_amplitudes(amps)``, with the verdict :func:`_validate_density` gives it.

    A projector v v+ is Hermitian and positive semidefinite by construction,
    so only its trace, sum |a_i|^2, is checked: within 1e-10 of 1 for each
    row, each entry is at most 1 in size, and the Hermitian and eigenvalue
    checks cannot fail.  Elsewhere, including at a nan or inf amplitude, the
    full validation runs and raises what it raises for that projector.
    """
    rho = density_from_amplitudes(amps)
    if rho.shape[-2:] != (4, 4) or not _unit_traces(rho.reshape(-1, 4, 4)):
        _validate_density(rho)  # raises: its shape or trace check fails
    return rho


def _wootters(rho: np.ndarray) -> ConcurrenceResult:
    """:func:`concurrence_wootters` of a 4x4 density matrix or a stack, unvalidated."""
    # + 0.0 turns the -0.0 entries of the product into the +0.0 the two
    # matmuls by sigma_y x sigma_y would give
    rho_tilde = rho.conj()[..., ::-1, ::-1] * _FLIP_SIGNS + 0.0
    evals = np.linalg.eigvals(rho @ rho_tilde).real
    if rho.ndim == 2:
        value, lams = _wootters_concurrence(evals.tolist())
        return _result(value, ROUTE_WOOTTERS, lams)
    values, lams = zip(*map(_wootters_concurrence, evals.tolist()))
    return _result(np.array(values), ROUTE_WOOTTERS, np.array(lams))


def _wootters_concurrence(evals: list[float]) -> tuple[float, tuple[float, float, float, float]]:
    """(C, lambdas) from four eigenvalues of rho rho~, finished in Python floats.

    Cheaper than numpy calls on four elements; a stack calls it once per row.
    """
    dust = _EIGENVALUE_DUST * max(max(map(abs, evals)), 1e-300)
    evals = [0.0 if abs(e) < dust else e for e in evals]
    if min(evals) < 0.0:
        raise ValueError(
            f"rho*rho~ has a negative eigenvalue {min(evals):.3e} beyond dust tolerance"
        )
    l1, l2, l3, l4 = lams = tuple(sorted(map(math.sqrt, evals), reverse=True))
    return max(0.0, l1 - l2 - l3 - l4), lams


def concurrence_schmidt_oracle(state: PsusyCoherentState):
    """Concurrence from the partial trace over the boson space.

    Evaluates sqrt(2 (1 - Tr rho_f^2)) for the trace-normalized reduced
    parafermion density matrix rho_f, valid because a01 = 0 forces Schmidt
    rank <= 2.  The quantity is computed through the Schmidt spectrum
    (singular values of the reshaped amplitude matrix, whose squares are
    the eigenvalues of rho_f) as 2 sqrt(sum_{i<j} mu_i mu_j): singular
    values carry linear rounding error, so product states come out at
    ~1e-16 instead of the sqrt(eps) floor of a direct purity evaluation.
    Independent of every closed-form expression used by the other routes.
    One state is a stack of one; a stack gives a value per state from one SVD.
    """
    psi = state.full_vector.reshape(-1, state.n_max, state.p + 1)
    mu = np.linalg.svd(psi, compute_uv=False) ** 2
    trace = mu.sum(axis=-1)  # = Tr rho_f = ||psi||^2, one per row
    for value in trace.tolist():
        if abs(value - 1.0) > 1e-8:
            needed = _largest_cutoff(state.closed_form.z_abs, state.p)
            raise TruncationError(
                f"reduced density trace {value:.10g} differs from 1 beyond 1e-8; "
                f"increase n_max to {needed}", needed
            )
    values = [_schmidt_concurrence(row) for row in (mu / trace[:, None]).tolist()]
    return np.array(values) if state.full_vector.ndim > 1 else values[0]


def _schmidt_concurrence(mu: list[float]) -> float:
    """2 sqrt(sum_{i<j} mu_i mu_j) of a trace-normalized Schmidt spectrum ``mu``."""
    pairwise = 0.0
    for i, mu_i in enumerate(mu):
        for mu_j in mu[i + 1 :]:
            pairwise += mu_i * mu_j
    return _clip_unit(2.0 * math.sqrt(pairwise), "concurrence")


def concurrence_routes(state: PsusyCoherentState) -> dict:
    """Concurrence of ``state`` by all four routes, keyed by route name.

    The closed-form route reads the state's own :class:`ClosedForm`; the
    Wootters route checks the projector of the state's amplitudes by its
    trace alone (:func:`_checked_projector`).  For a stack of states each
    route holds an array, one value per state.
    """
    amps = state.qubit_amps
    return {
        ROUTE_CLOSED_FORM: _clip_unit(state.closed_form.concurrence, "concurrence"),
        ROUTE_PURE: concurrence_pure(amps),
        ROUTE_WOOTTERS: _wootters(_checked_projector(amps)).value,
        ROUTE_SCHMIDT: concurrence_schmidt_oracle(state),
    }


def concurrence_optimal(p: int, z_abs):
    """Concurrence of the optimal-constant family, as :func:`_optimal_concurrence` forms it.

    Identically 1 for p = 1 and increasing in |z| toward 1 for p >= 2; elementwise over
    a 1-D |z| array or a :class:`PowerTable` over one.  FloatRangeError where D overflows.
    """
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    return _clip_unit(_optimal_concurrence(p, PowerTable.of(z_abs))[0], "concurrence")


def _optimal_concurrence(p: int, powers: PowerTable):
    """(C, 1 - C) of the optimal-constant family, neither formed by cancellation.

    C = 2AB/D with alpha_p scaled out: A^2 = 1 + S, B^2 = g + S, D = A^2 + B^2 (no
    defect), g = p!/p^2, S = sum_{n=1..p-1} w_n / p^2 over :func:`bosonic_weight_sum`'s
    terms, n = 1 first; 1 - C = r^2 / (1 + C), r = (1 - g)/D.  FloatRangeError where D overflows.
    """
    # from zero rows, so that p = 1, with no terms, still gives one row per |z|
    zero = 0.0 if powers.scalar else np.zeros(len(powers.zs))
    with np.errstate(over="ignore", invalid="ignore"):
        s = _fold((w / p**2 for w in _weight_series(p, powers, 1, p)), zero)
        g = float_factorial(p) / p**2
        a_sq, b_sq = 1.0 + s, g + s
        denom = a_sq + b_sq
        value = 2.0 * np.sqrt(a_sq) * np.sqrt(b_sq) / denom
    at = powers.first(denom == math.inf)
    if at is not None:
        raise FloatRangeError(f"optimal-constant D at p={p}, |z|={at:.4g} leaves the float range")
    r = (1.0 - g) / denom  # 1 - C^2 = r^2, as A^2 - B^2 = 1 - g
    return value, r * r / (1.0 + value)


def entanglement_of_formation(c):
    """EoF of a two-qubit state with concurrence c, in natural-log units.

    H(1/2 + sqrt(1 - c^2)/2) with H the natural-log binary entropy, so the
    maximum is ln 2, not 1 bit.  Strictly increasing in c on (0, 1).
    Elementwise over an array; nan is rejected.
    """
    c = _clip_unit(c, "concurrence", tol=1e-12)
    x = 0.5 + 0.5 * np.sqrt(1.0 - c * c)  # in [0.5, 1]
    y = c * c / (4.0 * x)  # 1 - x without cancellation, as x (1 - x) = c^2 / 4
    # at y = 0 the log sees the smallest subnormal instead of 0, and
    # H = +0.0 - (-0.0) comes out +0.0
    h = -x * np.log1p(-y) - y * np.log(np.maximum(y, _SMALLEST_SUBNORMAL))
    return h if isinstance(h, np.ndarray) else float(h)
