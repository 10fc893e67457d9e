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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import float_factorial
from .coherent import (
    AlphaProfile,
    PowerTable,
    PsusyCoherentState,
    _closed_form,
    _col,
    _fold,
    _weight_series,
)
from .errors import FloatRangeError, TruncationError

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

_SMALLEST_NORMAL = np.finfo(float).tiny

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


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


def _result(value, route: str, lambdas=None, undefined=None) -> ConcurrenceResult:
    """Clip ``value`` to [0, 1]; entries marked ``undefined`` come out nan."""
    if undefined is None:
        return ConcurrenceResult(_clip_unit(value, "concurrence"), route, lambdas)
    value = _clip_unit(np.where(undefined, 0.0, value), "concurrence")
    return ConcurrenceResult(np.where(undefined, np.nan, value), route, lambdas)


def concurrence_closed_form(p: int, z, profile: AlphaProfile) -> ConcurrenceResult:
    """C = 2AB / (A^2 + B^2 + (alpha_0 - alpha_p/p)^2 |z|^(2p)).

    Zero exactly when alpha_p = 0 (then B = 0 and the state is a product);
    raises DegenerateProfileError where the denominator vanishes, at
    alpha_p = 0 and z = 0, where no normalizable state exists.  ``z`` is a
    complex number, a 1-D array of |z| or a :class:`PowerTable` over one;
    over an array the result holds arrays, nan on rows where a
    z-dependent-exact rule is undefined.
    """
    if isinstance(z, PowerTable):
        z_abs = z
    elif isinstance(z, np.ndarray) and z.ndim:
        z_abs = np.abs(z)
    else:
        z_abs = abs(complex(z))
    # past the float range C comes out nan (inf/inf), which _result classifies
    with np.errstate(over="ignore", invalid="ignore"):
        form = _closed_form(p, z_abs, profile)
        value = form.concurrence
    if form.alphas.ndim == 1:
        return _result(value, ROUTE_CLOSED_FORM)
    # nan alphas mark the |z| rows where a z-dependent-exact rule is undefined
    return _result(value, ROUTE_CLOSED_FORM, undefined=np.isnan(form.alphas).any(axis=1))


def concurrence_pure(amps):
    """C = 2 |a00 a11 - a01 a10| for normalized pure-state amplitudes.

    A (k, 4) array of amplitudes gives k concurrences, one per row.
    """
    if isinstance(amps, np.ndarray) and amps.ndim == 2:
        return np.array([concurrence_pure(row) for row in amps.tolist()])
    a00, a01, a10, a11 = (complex(a) for a in amps)
    norm_sq = abs(a00) ** 2 + abs(a01) ** 2 + abs(a10) ** 2 + abs(a11) ** 2
    if abs(norm_sq - 1.0) > 1e-8:
        raise ValueError(f"amplitudes are not normalized: sum |a|^2 = {norm_sq:.8g}")
    return _clip_unit(2.0 * abs(a00 * a11 - a01 * a10), "concurrence")


def density_from_amplitudes(amps) -> np.ndarray:
    """Pure-state projector in the ordered basis {|00>, |01>, |10>, |11>}.

    A (k, 4) array of amplitudes gives a (k, 4, 4) stack of projectors.
    """
    vec = np.asarray(amps, dtype=complex)
    if vec.ndim != 2:
        vec = vec.reshape(4)
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
    # checked per matrix in Python floats, cheaper than numpy calls on a few
    for trace in stack.trace(0, -2, -1).tolist():
        if abs(trace.real - 1.0) > 1e-10 or abs(trace.imag) > 1e-10:
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
    rho = _validate_density(rho)
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
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
    A stack of states gives one value per state, from one SVD call.
    """
    vectors = state.full_vector
    psi = vectors.reshape(vectors.shape[:-1] + (state.n_max, state.p + 1))
    mu = np.linalg.svd(psi, compute_uv=False) ** 2
    trace = mu.sum(axis=-1)  # = Tr rho_f = ||psi||^2
    traces = trace.tolist()
    for value in traces if vectors.ndim > 1 else (traces,):
        if abs(value - 1.0) > 1e-8:
            raise TruncationError(
                f"reduced density trace {value:.10g} differs from 1 beyond 1e-8; "
                "increase n_max"
            )
    spectra = mu / _col(trace)
    if vectors.ndim == 1:
        return _schmidt_concurrence(spectra.tolist())
    # the products mu_i mu_j in _schmidt_concurrence's pair order, added in
    # that order by the running sum
    left, right = _pairs(spectra.shape[1])
    pairwise = np.add.accumulate(spectra[:, left] * spectra[:, right], axis=1)[:, -1]
    return _clip_unit(2.0 * np.sqrt(pairwise), "concurrence")


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n columns, in row-major order."""
    return np.triu_indices(n, 1)


def _schmidt_concurrence(mu: list[float]) -> float:
    """2 sqrt(sum_{i<j} mu_i mu_j) of a trace-normalized Schmidt spectrum ``mu``."""
    pairwise = 0.0
    for i, mu_i in enumerate(mu):
        for mu_j in mu[i + 1 :]:
            pairwise += mu_i * mu_j
    return _clip_unit(2.0 * math.sqrt(pairwise), "concurrence")


def concurrence_routes(state: PsusyCoherentState) -> dict:
    """Concurrence of ``state`` by all four routes, keyed by route name.

    The closed-form route reads the state's own :class:`ClosedForm`.  For a
    stack of states each route holds an array, one value per state.
    """
    amps = state.qubit_amps
    return {
        ROUTE_CLOSED_FORM: _clip_unit(state.closed_form.concurrence, "concurrence"),
        ROUTE_PURE: concurrence_pure(amps),
        ROUTE_WOOTTERS: concurrence_wootters(density_from_amplitudes(amps)).value,
        ROUTE_SCHMIDT: concurrence_schmidt_oracle(state),
    }


def concurrence_optimal(p: int, z_abs):
    """Concurrence of the optimal-constant family, directly in closed form.

    C = sqrt(1 - (p!/p^2 - 1)^2 / (p!/p^2 + 1 + 2 sum_{n=1..p-1} w_n / p^2)^2)
    with w_n the weight terms of :func:`bosonic_weight_sum`; identically 1 for
    p = 1 and increasing in |z| toward 1 for p >= 2.  Elementwise over a
    1-D |z| array or a :class:`PowerTable` over one; the series is added
    left to right, n = 1 first.
    """
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    powers = PowerTable.of(z_abs)
    # from zero rows, so that p = 1, with no terms, still gives one row per |z|
    zero = 0.0 if powers.scalar else np.zeros(len(powers.zs))
    series = _fold((w / p**2 for w in _weight_series(p, powers, 1, p)), zero)
    fp = float_factorial(p)
    ratio = (fp / p**2 - 1.0) / (fp / p**2 + 1.0 + 2.0 * series)
    value = np.sqrt(np.maximum(0.0, 1.0 - ratio * ratio))
    return float(value) if powers.scalar else value


def entanglement_of_formation(c):
    """EoF of a two-qubit state with concurrence c, in natural-log units.

    H(1/2 + sqrt(1 - c^2)/2) with H the natural-log binary entropy, so the
    maximum is ln 2, not 1 bit.  Strictly increasing in c on (0, 1).
    Elementwise over an array; nan is rejected.
    """
    c = _clip_unit(c, "concurrence", tol=1e-12)
    x = 0.5 + 0.5 * np.sqrt(1.0 - c * c)  # in [0.5, 1]
    y = 1.0 - x
    # y + tiny is y for every y > 0 (y >= 2^-53); at y = 0 the log sees tiny
    # instead of 0, and H = -0.0 - (-0.0) comes out +0.0
    h = -x * np.log(x) - y * np.log(y + _SMALLEST_NORMAL)
    return h if isinstance(h, np.ndarray) else float(h)
