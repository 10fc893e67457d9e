"""Parafermi and truncated-boson operator matrices, coherent vectors.

Conventions used throughout the package:

* Parafermi operators of order p live on a (p+1)-dimensional Fock space.
  Basis vector ``e_k`` (0-based) is the state with k parafermions, which is
  the spin projection m = p/2 - k of the spin-p/2 representation.
* Matrix elements follow the 1-based convention
  ``b[alpha, beta] = C_beta * delta(alpha, beta+1)`` with
  ``C_beta = sqrt(beta * (p - beta + 1))``; storage is 0-based, so the
  annihilator ``b`` carries ``C_{k+1}`` at ``[k+1, k]``.  ``b`` raises the
  parafermion number (lowers m), ``b_dag`` lowers it.
* Bosonic operators are truncated to occupation numbers ``0 .. n_max-1``.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FloatRangeError, TruncationError

__all__ = [
    "ParafermiOps",
    "BosonOps",
    "AlgebraReport",
    "build_parafermi",
    "check_algebra",
    "build_boson",
    "coherent_vector",
    "derivative_coherent_vector",
    "default_n_max",
    "coherent_tail",
    "required_n_max",
    "float_factorial",
]

#: A bound on the dropped fraction of a coherent vector's norm (:func:`coherent_tail`).
DEFAULT_TAIL_TOL = 1e-14

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# |z|^n / sqrt(n!) peaks near exp(|z|^2/2) / (2 pi |z|^2)^(1/4), which stays in the
# float range up to |z| ~ 37.7 (1e296 at 37; the lam = |z|^2 below is |z| = 37.73743)
_FINITE_Z_ABS = 37.0
_VECTOR_LAM_MAX = 2.0 * _LOG_FLOAT_MAX + 0.5 * math.log(math.tau * 2.0 * _LOG_FLOAT_MAX)


def float_factorial(n: int) -> float:
    """n! as a float; FloatRangeError from n = 171 on, where it exceeds the float range."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if n > 170:
        raise FloatRangeError(f"{n}! exceeds the float range")
    return float(math.factorial(n))


@functools.lru_cache(maxsize=None)
def _weight_coefficients(p: int) -> tuple[float, ...]:
    # c_0 = p! alone exceeds the float range from p = 171 on; failing here
    # spares the big-integer (p!)^2, which takes minutes at p ~ 1e6
    if p > 170:
        raise _weight_range_error(p)
    # exact integer true division: correctly rounded, and no float (p!)^2,
    # which overflows from p = 99 on
    fp_sq = math.factorial(p) ** 2
    try:
        return tuple(fp_sq / (math.factorial(n) ** 2 * math.factorial(p - n)) for n in range(p))
    except OverflowError:
        raise _weight_range_error(p) from None


def _weight_range_error(p: int) -> FloatRangeError:
    return FloatRangeError(f"weight coefficients of order p={p} exceed the float range")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParafermiOps:
    """Order-p parafermi matrices b, b† and the spin projection J3.

    ``b_dag`` doubles as the SU(2) raising operator J+ and ``b`` as J-.
    """

    p: int
    b: np.ndarray
    b_dag: np.ndarray
    j3: np.ndarray


@dataclass(frozen=True)
class BosonOps:
    """Truncated bosonic annihilation/creation and number operators."""

    n_max: int
    a: np.ndarray
    a_dag: np.ndarray
    number_op: np.ndarray


def build_parafermi(p: int) -> ParafermiOps:
    """Build the (p+1)x(p+1) parafermi matrices of order p.

    The annihilator has subdiagonal entries C_beta = sqrt(beta*(p-beta+1)),
    beta = 1..p, so b^(p+1) vanishes identically and
    J3 = [b†, b]/2 = diag(p/2, p/2-1, ..., -p/2).
    """
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"parafermion order must be a positive integer, got {p!r}")
    beta = np.arange(1, p + 1, dtype=float)
    c = np.sqrt(beta * (p - beta + 1.0))
    b = np.diag(c, -1).astype(complex)
    b_dag = b.conj().T.copy()
    j3 = np.diag(p / 2.0 - np.arange(p + 1, dtype=float)).astype(complex)
    return ParafermiOps(int(p), _readonly(b), _readonly(b_dag), _readonly(j3))


@dataclass(frozen=True)
class AlgebraReport:
    """Scale-normalized residuals of the defining operator relations."""

    residuals: dict[str, float]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    # Normalized by the relation's own scale: entries of high matrix powers
    # grow like p!, so raw absolute residuals are meaningless across p.
    scale = max(1.0, float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def check_algebra(ops: ParafermiOps, tol: float = 1e-12) -> AlgebraReport:
    """Report residuals of the six defining relations of the order-p algebra.

    Checked relations: nilpotency b^(p+1) = 0 (and its adjoint), the double
    commutators [[b†,b],b] = -2b and [[b†,b],b†] = 2b†, the degree-p
    multilinear identity
    ``sum_k b^(p-k) b† b^k = p(p+1)(p+2)/6 * b^(p-1)``,
    and the SU(2) relations [J+,J-] = 2 J3, [J3,J±] = ±J±.

    Residuals are max-norms divided by max(1, max-norm of the right side);
    the caller decides pass/fail against ``tol``.  Raises FloatRangeError
    from p = 169 on, where the relations' matrices leave the float range.
    """
    p, b, bd, j3 = ops.p, ops.b, ops.b_dag, ops.j3
    zero = np.zeros_like(b)
    comm = bd @ b - b @ bd

    # an entry of b^p is p!, and of b^(p-k) b† b^k about p! p: past the float range
    # from p = 169 on, where the sum comes out inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [np.eye(p + 1, dtype=complex)]
        for _ in range(p + 1):
            powers.append(powers[-1] @ b)
        multilinear = sum(powers[p - k] @ bd @ powers[k] for k in range(p + 1))
    if not np.isfinite(multilinear).all():
        raise FloatRangeError(f"the algebra relations of order p={p} leave the float range")

    residuals = {
        "nilpotency": max(
            _rel_residual(powers[p + 1], zero),
            _rel_residual(np.linalg.matrix_power(bd, p + 1), zero),
        ),
        "double_commutator_b": _rel_residual(comm @ b - b @ comm, -2.0 * b),
        "double_commutator_b_dag": _rel_residual(comm @ bd - bd @ comm, 2.0 * bd),
        "multilinear": _rel_residual(
            multilinear, (p * (p + 1) * (p + 2) / 6.0) * powers[p - 1]
        ),
        "su2_ladder": _rel_residual(comm, 2.0 * j3),
        "su2_j3": max(
            _rel_residual(j3 @ bd - bd @ j3, bd),
            _rel_residual(j3 @ b - b @ j3, -b),
        ),
    }
    return AlgebraReport(residuals, tol)


def build_boson(n_max: int) -> BosonOps:
    """Truncated harmonic-oscillator ladder operators on n_max levels.

    ``a`` carries sqrt(n) on the superdiagonal; the canonical commutator
    [a, a†] = 1 holds exactly on the span of |0> .. |n_max - 2>.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 2:
        raise ValueError(f"boson truncation must be an integer >= 2, got {n_max!r}")
    a = np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), 1).astype(complex)
    a_dag = a.conj().T.copy()
    number = np.diag(np.arange(n_max, dtype=float)).astype(complex)
    return BosonOps(int(n_max), _readonly(a), _readonly(a_dag), _readonly(number))


def default_n_max(z: complex, p: int) -> int:
    """Default boson truncation: the smallest n >= max(32, p + 2, |z|^2 + p) where
    the predicted eigen-residual sqrt(n (2 |b0_n|^2 + 3 |b1_n|^2)) is <= 1e-12.

    |b1_n|^2 = e^-lam lam^n / n! and |b0_n|^2 = e^-lam lam^(n-p) (lam^p / sqrt(n!)
    - sqrt(n!) / (n-p)!)^2 / W, lam = |z|^2, are level n of ``qubit_bases``' b1
    and b0, and every state is a00 b0 f0 + a10 b1 f0 + a11 b1 f1 with |a| <= 1.
    Raises FloatRangeError where the coherent vector leaves the float range.
    """
    return _cutoff(_checked_abs(z), p, 32)


def _largest_cutoff(z_abs, p: int, start: int = 32) -> int:
    """The smallest n >= ``start`` passing :func:`default_n_max`'s rule at |z| or each row."""
    # from the largest |z| down, most rows pass at once
    rows = sorted(z_abs.tolist() if isinstance(z_abs, np.ndarray) else [z_abs], reverse=True)
    return functools.reduce(lambda n, v: _cutoff(v, p, n), rows, start)


def _cutoff(z_abs: float, p: int, start: int) -> int:
    """The smallest n >= max(start, p + 2, |z|^2 + p) passing :func:`default_n_max`'s rule."""
    lam = z_abs * z_abs
    _check_vector_range(z_abs, lam)
    start = max(start, p + 2, math.ceil(lam) + p)  # the annihilator needs p + 2 levels
    if lam == 0.0:  # b1 = |0> and b0 = |p> lie below p + 2
        return start
    w = 0.0
    for c in reversed(_weight_coefficients(p)):
        w = w * lam + c
    # -inf where W overflows: no state in the float range has a b0 part there
    log_lam, b0_scale = math.log(lam), -lam - math.log(w)
    lo, hi, n = start - 1, math.inf, start  # the answer lies in (lo, hi]
    while True:
        try:
            lg_n, lg_m = math.lgamma(n + 1), math.lgamma(n - p + 1)
        except OverflowError:  # an explicit cutoff n or log(n!) past the float range
            raise _truncation_range_error(z_abs) from None
        b1_sq = math.exp(n * log_lam - lam - lg_n)
        r = math.exp(p * log_lam + lg_m - lg_n)  # lam^p (n-p)! / n! < 1 past lam + p
        b0_sq = math.exp((n - p) * log_lam + lg_n - 2.0 * lg_m + b0_scale) * (1.0 - r) ** 2
        q = n * (2.0 * b0_sq + 3.0 * b1_sq)  # the residual squared
        if q <= 1e-24:
            hi = n
        else:
            lo = n
        if hi - lo == 1:
            return hi
        # a Newton step on log(q / 1e-24), whose slope at n is about -log((n + 1/2) / lam)
        # < 0 from start on, kept inside (lo, hi); bisection where q underflows
        n = math.ceil(n + math.log(q * 1e24) / math.log((n + 0.5) / lam)) if q else (lo + hi) // 2
        n = hi - 1 if n >= hi else lo + 1 if n <= lo else n


def _checked_abs(z) -> float:
    """Python's |z|; a nan z raises FloatRangeError first (CPython's complex
    abs of it keeps a stale libm errno and may raise OverflowError)."""
    if cmath.isnan(z):
        raise FloatRangeError(f"z = {z} has a nan part: no state exists there")
    return abs(z)


def _check_vector_range(z_abs: float, lam: float) -> None:
    """FloatRangeError where |z>, or every cutoff n >= lam = |z|^2, leaves the float range."""
    if lam == math.inf:
        raise _truncation_range_error(z_abs)
    if lam > _VECTOR_LAM_MAX:
        raise FloatRangeError(f"the coherent vector at |z|={z_abs:.4g} leaves the float range")


def _truncation_range_error(z_abs: float) -> FloatRangeError:
    return FloatRangeError(f"the boson truncation at |z|={z_abs:.4g} exceeds the float range")


def coherent_tail(z_abs: float, n_max: int) -> float:
    """Dropped fraction e^-|z|^2 sum_{n >= n_max} |z|^{2n} / n! of a coherent vector's norm.

    Summed away from the Poisson peak: as 1 minus the kept terms where n_max <= |z|^2.
    Raises FloatRangeError for a nan |z| and where |z> or n_max leaves the float range.
    """
    if math.isnan(z_abs):
        # nan fails every comparison below, and the series would sum to 0.0
        raise FloatRangeError("|z| is nan: no state exists there")
    lam = z_abs * z_abs
    if lam == 0.0:
        return 0.0
    _check_vector_range(z_abs, lam)
    kept = n_max <= lam
    n = n_max - 1 if kept else n_max
    try:  # log(e^-lam lam^n / n!), the leading Poisson term
        term, total = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1)), 0.0
    except OverflowError:  # n or log(n!) is past the float range
        raise _truncation_range_error(z_abs) from None
    while term > total * 1e-18:  # each term away from the peak is smaller
        total += term
        term, n = (term * n / lam, n - 1) if kept else (term * lam / (n + 1), n + 1)
    return 1.0 - total if kept else total


def required_n_max(z_abs: float, tail_tol: float) -> int:
    """Smallest truncation whose dropped fraction is below ``tail_tol``.

    The fraction falls monotonically in n_max, so the crossing is bracketed
    by doubling and then bisected: O(log n_max) tail evaluations.  Raises
    FloatRangeError where the coherent vector leaves the float range.
    """
    if not tail_tol > 0.0:
        raise ValueError(f"tail tolerance must be positive, got {tail_tol}")
    lo, hi = 1, 2  # the answer lies in (lo, hi]
    while not coherent_tail(z_abs, hi) < tail_tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if coherent_tail(z_abs, mid) < tail_tol else (mid, hi)
    return hi


def _check_tail(z_abs: float, n_max: int, tail_tol: float) -> None:
    tail = coherent_tail(z_abs, n_max)
    if tail >= tail_tol:
        needed = required_n_max(z_abs, tail_tol)
        raise TruncationError(
            f"truncation n_max={n_max} leaves tail {tail:.3e} >= {tail_tol:.1e} "
            f"at |z|={z_abs:.4g}; need n_max >= {needed}",
            required_n_max=needed,
        )


def coherent_vector(z, n_max: int, tail_tol: float | None = None) -> np.ndarray:
    """Unnormalized coherent vector with amplitudes z^n / sqrt(n!).

    Its squared norm is exp(|z|^2) up to the dropped tail.  When
    ``tail_tol`` is given, the dropped fraction (:func:`coherent_tail`) is
    checked against it and a TruncationError carrying the required n_max is
    raised on failure.  A 1-D complex ``z`` array gives one row per z, each
    checked on its own and bit-identical to the vector of that z alone.
    Raises FloatRangeError, naming |z|, where an amplitude leaves the
    float range.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    stacked = isinstance(z, np.ndarray) and z.ndim
    rows_abs = [_checked_abs(v) for v in (z.tolist() if stacked else (z,))]
    if tail_tol is not None:
        for z_abs in rows_abs:
            _check_tail(z_abs, n_max, tail_tol)
    amps = np.empty(z.shape + (n_max,) if stacked else n_max, dtype=complex)
    amps[..., 0] = 1.0
    if n_max > 1:
        # only past _FINITE_Z_ABS can the quotient or the product overflow (a
        # nan z raised above); entering numpy's error state and checking the
        # result there would cost about as much as building a short vector
        far = not max(rows_abs) <= _FINITE_Z_ABS
        with np.errstate(over="ignore", invalid="ignore") if far else contextlib.nullcontext():
            # amplitude n is amplitude n-1 times z/sqrt(n), accumulated in place
            rest = np.divide(
                z[:, None] if stacked else z,
                _ladder_table(_sqrt_levels, n_max - 1),
                out=amps[..., 1:],
            )
            np.multiply.accumulate(rest, -1, out=rest)
        if far and not np.isfinite(amps).all():
            # name the first row that left the range
            z_abs = rows_abs[np.isfinite(amps).all(axis=-1).argmin()]
            raise FloatRangeError(f"the coherent vector at |z|={z_abs:.4g} leaves the float range")
    return amps


def derivative_coherent_vector(z: complex, p: int, n_max: int) -> np.ndarray:
    """p-th holomorphic derivative of the coherent vector.

    Amplitudes are sqrt(n!)/(n-p)! * z^(n-p) for n >= p and zero below;
    equivalently the n = m+p amplitude is the coherent amplitude at m times
    sqrt((m+1)(m+2)...(m+p)).  Raises FloatRangeError where an amplitude
    leaves the float range.
    """
    _check_derivative_order(p, n_max)
    # an amplitude past the float range comes out inf or nan, classified below
    with np.errstate(over="ignore", invalid="ignore"):
        out = _derivative_tower(coherent_vector(z, n_max - p), p, n_max)
    if not np.isfinite(out).all():
        raise FloatRangeError(
            f"the derivative tower of order p={p} at |z|={abs(z):.4g} leaves the float range"
        )
    return out


def _check_derivative_order(p: int, n_max: int) -> None:
    if p < 0:
        raise ValueError(f"derivative order must be >= 0, got {p}")
    if n_max <= p:
        raise ValueError(f"n_max={n_max} must exceed derivative order p={p}")


def _derivative_tower(coh: np.ndarray, p: int, n_max: int) -> np.ndarray:
    """|z^(p)> on n_max levels from a coherent vector |z> of n_max - p or more.

    Only the first n_max - p amplitudes of ``coh`` are read, in each row of
    a stack.  A prefix of a coherent vector is bit-identical to a shorter
    one (its product runs in order), so the result is the one
    :func:`derivative_coherent_vector` gives.
    """
    _check_derivative_order(p, n_max)
    out = np.zeros(coh.shape[:-1] + (n_max,), dtype=complex)
    out[..., p:] = coh[..., : n_max - p] * _ladder_table(_rising_sqrt, n_max - p, p)
    return out


# Ladder tables: weights that depend only on the level index and the order
# p, never on z.  Each builder computes entry m on its own, so a prefix of
# a longer table is bit-identical to a shorter one.

_MIN_TABLE_CAPACITY = 64


def _sqrt_levels(n: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(n): the lowering weights of a and of |z>'s recursion."""
    return np.sqrt(np.arange(1, n + 1, dtype=float))


def _rising_sqrt(n: int, p: int) -> np.ndarray:
    """sqrt((m+1)(m+2)...(m+p)) for m = 0..n-1, the factors of |z^(p)>."""
    m = np.arange(n, dtype=float)
    rising = np.ones_like(m)
    for j in range(1, p + 1):
        rising *= m + j
    return np.sqrt(rising)


def _ladder_table(build, n: int, *params) -> np.ndarray:
    """Entries 0..n-1 of ``build(n, *params)``, read-only, from a per-process table.

    The table is built once per (build, params, capacity), with capacity n
    rounded up to a power of two and at least 64, so it holds at most twice
    the longest prefix asked for.
    """
    capacity = max(_MIN_TABLE_CAPACITY, 1 << (int(n) - 1).bit_length())  # n may be np.int64
    return _ladder_table_at(build, capacity, *params)[:n]


@functools.lru_cache(maxsize=None)
def _ladder_table_at(build, capacity: int, *params) -> np.ndarray:
    return _readonly(build(capacity, *params))
