"""Coherent eigenstates of the PSUSY annihilator and their two-qubit reduction.

A state is parameterized by the order p, the complex eigenvalue z and a real
coefficient profile alpha_0..alpha_p.  It can be assembled three equivalent
ways: from the recursion coefficients beta_{k,n}, from the closed form

    |Z> = Q [ (alpha_0 conj(z)^p |z> - alpha_p/p |z^(p)>) |0>_f
              + |z> sum_{k=1..p} alpha_k z^(p-k) |k>_f ],

or from the two logical-qubit amplitudes (a00, a01, a10, a11) in the
orthonormal bases returned by :func:`qubit_bases`.  a01 vanishes
identically, which is what makes the two-qubit reduction exact.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    _checked_abs,
    _cutoff,
    _derivative_tower,
    _largest_cutoff,
    _weight_coefficients,
    coherent_vector,
    float_factorial,
)
from .errors import DegenerateProfileError, FloatRangeError, NoRealSolutionError, TruncationError

__all__ = [
    "AlphaProfile",
    "ClosedForm",
    "PowerTable",
    "PsusyCoherentState",
    "QubitBases",
    "beta_coefficients",
    "normalization_q",
    "build_state",
    "qubit_bases",
    "qubit_amplitudes",
]

KIND_EXPLICIT = "explicit"
KIND_OPTIMAL = "optimal-constant"
KIND_Z_EXACT = "z-dependent-exact"
_KINDS = (KIND_EXPLICIT, KIND_OPTIMAL, KIND_Z_EXACT)

_JSON_FIELDS = {
    KIND_EXPLICIT: {"p", "kind", "alphas"},
    KIND_OPTIMAL: {"p", "kind", "alpha_p"},
    KIND_Z_EXACT: {"p", "kind", "alpha_p", "m"},
}


def _optimal_alphas(p: int, alpha_p: float) -> np.ndarray:
    """alpha_0 = alpha_p/p and alpha_k = p! alpha_p / (p (p-k)! sqrt(k!)).

    For 0 < k < p that is (alpha_p/p) sqrt(c_{p-k}), with c_n the weight
    coefficient of :func:`bosonic_weight_sum`.
    """
    alphas = (alpha_p / p) * np.sqrt([1.0, *_weight_coefficients(p)[:0:-1], 0.0])
    alphas[p] = alpha_p
    return alphas


@dataclass(frozen=True)
class AlphaProfile:
    """Real coefficient profile alpha_0..alpha_p selecting one coherent state.

    Three kinds are supported:

    * ``explicit``: the coefficients are given directly (``alphas``).
    * ``optimal-constant``: the constant family alpha_0 = alpha_p/p,
      alpha_k = p! alpha_p / (p (p-k)! sqrt(k!)), which maximizes the
      z-independent part of the concurrence.
    * ``z-dependent-exact``: as optimal-constant except at index p - m,
      where alpha_{p-m}^2 |z|^(2m) = alpha_p^2 [(p!/p^2 - 1) + w_m / p^2]
      with w_m the weight term m of :func:`bosonic_weight_sum`.  The positive
      root is taken; concurrence depends only on the square.  The rule has
      no real solution at z = 0 and, for p = 2 and 3, where the bracket is
      negative: at |z| <= :func:`_z_star` (:meth:`defined`).
    """

    p: int
    kind: str
    alphas: tuple[float, ...] | None = None
    alpha_p: float | None = None
    m: int | None = None

    def __post_init__(self):
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise ValueError(f"order p must be a positive integer, got {self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == KIND_EXPLICIT:
            if self.alphas is None or self.alpha_p is not None or self.m is not None:
                raise ValueError("explicit profiles take 'alphas' only")
            if len(self.alphas) != self.p + 1:
                raise ValueError(
                    f"explicit profile needs p+1={self.p + 1} coefficients, got {len(self.alphas)}"
                )
            alphas = _float_tuple(self.alphas)
            if not all(map(math.isfinite, alphas)):
                raise ValueError("profile coefficients must be finite")
            if not any(alphas):
                raise DegenerateProfileError("all alpha_k are zero")
            object.__setattr__(self, "alphas", alphas)
        else:
            if self.alphas is not None:
                raise ValueError(f"{self.kind} profiles take 'alpha_p', not 'alphas'")
            if self.alpha_p is None or not np.isfinite(self.alpha_p):
                raise ValueError(f"{self.kind} profile needs a finite alpha_p")
            if self.alpha_p == 0.0:
                raise DegenerateProfileError("alpha_p = 0 makes every coefficient zero")
            if self.kind == KIND_Z_EXACT:
                if self.m not in range(1, self.p):  # None, 1.5 and "1" are not in it
                    raise ValueError(
                        f"exceptional index m must satisfy 1 <= m <= p-1, got {self.m!r}"
                    )
                object.__setattr__(self, "m", int(self.m))
            elif self.m is not None:
                raise ValueError("'m' is only meaningful for z-dependent-exact profiles")

    @classmethod
    def explicit(cls, alphas) -> "AlphaProfile":
        return cls(p=len(alphas) - 1, kind=KIND_EXPLICIT, alphas=tuple(alphas))

    @classmethod
    def optimal_constant(cls, p: int, alpha_p: float = 1.0) -> "AlphaProfile":
        return cls(p=p, kind=KIND_OPTIMAL, alpha_p=float(alpha_p))

    @classmethod
    def z_dependent_exact(cls, p: int, m: int, alpha_p: float = 1.0) -> "AlphaProfile":
        return cls(p=p, kind=KIND_Z_EXACT, alpha_p=float(alpha_p), m=m)

    def coefficients(self, z_abs: float) -> np.ndarray:
        """Materialize alpha_0..alpha_p at one |z|; only z-dependent-exact resolves there.

        Raises NoRealSolutionError where its rule is undefined (:meth:`defined`)
        and FloatRangeError where its alpha_{p-m} leaves the float range.
        """
        if self.kind == KIND_EXPLICIT:
            return np.array(self.alphas)
        alphas = _optimal_alphas(self.p, self.alpha_p)
        if self.kind == KIND_Z_EXACT:
            alphas[self.p - self.m] = self._exceptional_alpha(float(z_abs))
        return alphas

    def defined(self, powers: "PowerTable") -> np.ndarray:
        """Where the z-dependent-exact rule has a real solution: |z| > :func:`_z_star`, per row."""
        return powers.zs > _z_star(self.p, self.m)

    def _exceptional_alpha(self, z_abs: float) -> float:
        """alpha_{p-m} at one |z|, in Python floats with libm powers.

        NoRealSolutionError where the rule is undefined, FloatRangeError where
        alpha_{p-m} is not finite: an underflowed |z|^m, an inf or nan |z| or
        an overflowed term.
        """
        p, m = self.p, self.m
        w_m = _weight_coefficients(p)[m] * _pow_or_inf(z_abs, 2 * m)
        bracket = (float_factorial(p) / p**2 - 1.0) + w_m / p**2
        if z_abs <= _z_star(p, m):
            raise NoRealSolutionError(self._undefined_reason(z_abs, bracket))
        z_m = _pow_or_inf(z_abs, m)
        # max: the float bracket rounds below 0 within an ulp of z*
        alpha = abs(self.alpha_p) * math.sqrt(max(bracket, 0.0)) / z_m if z_m else math.inf
        if not math.isfinite(alpha):
            raise self._float_range_error()
        return alpha

    def _undefined_reason(self, z_abs: float, bracket: float) -> str:
        p, m = self.p, self.m
        if z_abs <= 0.0:  # z = 0, or a negative |z|: no modulus
            where = "z = 0" if z_abs == 0.0 else f"|z|={z_abs:.4g}"
            return f"z-dependent-exact profile (p={p}, m={m}) is undefined at {where}"
        return (
            f"no real alpha_{p - m} for p={p}, m={m}, |z|={z_abs:.4g}: "
            f"bracket {bracket:.4g} < 0"
        )

    def _float_range_error(self) -> FloatRangeError:
        return FloatRangeError(
            f"alpha_{self.p - self.m} of the z-dependent-exact profile "
            f"(p={self.p}, m={self.m}) exceeds the float range"
        )

    def to_dict(self) -> dict:
        """JSON-ready dict; the field set depends on the kind."""
        if self.kind == KIND_EXPLICIT:
            return {"p": self.p, "kind": self.kind, "alphas": list(self.alphas)}
        out = {"p": self.p, "kind": self.kind, "alpha_p": self.alpha_p}
        if self.kind == KIND_Z_EXACT:
            out["m"] = self.m
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "AlphaProfile":
        """Parse a profile from its JSON object form; unknown fields rejected."""
        if not isinstance(obj, dict):
            raise ValueError(f"profile must be a JSON object, got {type(obj).__name__}")
        kind = obj.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown profile kind {kind!r}; expected one of {_KINDS}")
        expected = _JSON_FIELDS[kind]
        if set(obj) != expected:
            raise ValueError(
                f"profile of kind {kind!r} must have exactly fields {sorted(expected)}, "
                f"got {sorted(obj)}"
            )
        p = obj["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"'p' must be an integer, got {p!r}")
        if kind == KIND_EXPLICIT:
            alphas = obj["alphas"]
            if not isinstance(alphas, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in alphas
            ):
                raise ValueError("'alphas' must be a list of numbers")
            return cls(p=p, kind=kind, alphas=tuple(_json_float(x, "'alphas'") for x in alphas))
        alpha_p = obj["alpha_p"]
        if not isinstance(alpha_p, (int, float)) or isinstance(alpha_p, bool):
            raise ValueError(f"'alpha_p' must be a number, got {alpha_p!r}")
        if kind == KIND_OPTIMAL:
            return cls(p=p, kind=kind, alpha_p=_json_float(alpha_p, "'alpha_p'"))
        m = obj["m"]
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"'m' must be an integer, got {m!r}")
        return cls(p=p, kind=kind, alpha_p=_json_float(alpha_p, "'alpha_p'"), m=m)


@functools.lru_cache(maxsize=None)
def _z_star(p: int, m: int) -> float:
    """The largest float |z| where c_m |z|^(2m) < p^2 - p! holds exactly: 0.0 from p = 4
    on, 1/sqrt(2) at (p, m) = (2, 1), 1/sqrt(6) at (3, 1) and 3^(-1/4) at (3, 2)."""
    if p >= 4:  # p^2 - p! < 0
        return 0.0
    gap, c_m = p * p - math.factorial(p), Fraction(_weight_coefficients(p)[m])
    z = float(gap / c_m) ** (0.5 / m) * (1.0 + 1e-15)  # a few floats above z*
    while c_m * Fraction(z) ** (2 * m) >= gap:
        z = math.nextafter(z, 0.0)
    return z


def _float_tuple(values) -> tuple[float, ...]:
    """``values`` as Python floats, read as numpy's float conversion reads them."""
    if isinstance(values, tuple):
        try:
            return tuple(map(float, values))
        except TypeError:
            pass  # numpy reads None as nan and rejects a nested sequence
    return tuple(np.asarray(values, dtype=float).tolist())


def _json_float(value: int | float, name: str) -> float:
    """A JSON number as a float; an integer past the float range is a ValueError."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name}: integer beyond the float range") from None


def _libm_powers(values: list[float], exponents) -> list[float]:
    """z**e for each e in ``exponents`` and each z in ``values``, column-major.

    Python's float ``**`` is the C library's ``pow``.  numpy's vectorized
    power differs from it in the last bit for about 5% of arguments, and the
    grid CSV's digits are pinned to libm's.  A power past the float range is
    inf rather than OverflowError.
    """
    try:
        return [z**e for e in exponents for z in values]
    except OverflowError:
        return [_pow_or_inf(z, e) for e in exponents for z in values]


def _pow_or_inf(x: float, e: int) -> float:
    try:
        return x**e
    except OverflowError:
        return math.inf


class PowerTable:
    """|z| values and their powers |z|**e by the C library's ``pow``.

    Every function that takes a 1-D |z| array also takes a table over one.
    Over an array the table keeps one column per exponent, computed on first
    use, so the functions handed the same table share its powers: ``grid``
    builds one per |z| chunk for all its orders p.  Built from one |z| given
    as a number, it has a single row and its powers are Python floats,
    computed on each request, which is cheapest for one state.  A nan |z|
    raises FloatRangeError: every closed form would come out nan there.
    """

    __slots__ = ("zs", "values", "scalar", "_columns")

    def __init__(self, z_abs):
        if isinstance(z_abs, np.ndarray) and z_abs.ndim:
            if not z_abs.size:
                raise ValueError("need at least one |z|, got an empty array")
            self.zs, self.scalar = z_abs.astype(float, copy=False).reshape(-1), False
            nan = np.isnan(self.zs).any()
        else:
            z_abs = float(z_abs)
            self.zs, self.scalar = np.array([z_abs]), True
            nan = math.isnan(z_abs)
        if nan:
            raise FloatRangeError("|z| is nan: no state exists there")
        self.values = self.zs.tolist()
        self._columns: dict[int, np.ndarray] = {}

    @classmethod
    def of(cls, z_abs) -> "PowerTable":
        """``z_abs`` itself if it is a table, else a new table over it."""
        return z_abs if isinstance(z_abs, cls) else cls(z_abs)

    def columns(self, exponents) -> list:
        """|z|**e for each e in ``exponents``: a float each over one |z|, else an array."""
        if self.scalar:
            return _libm_powers(self.values, exponents)
        out = []
        for e in exponents:
            column = self._columns.get(e)
            if column is None:
                column = self._columns[e] = np.array(_libm_powers(self.values, (e,)))
                column.setflags(write=False)  # shared by every caller of the table
            out.append(column)
        return out

    def column(self, e: int):
        """|z|**e: a float over one |z|, else an array."""
        return self.columns((e,))[0]

    def first(self, mask) -> float | None:
        """The first |z| where ``mask`` holds (one bool over one |z|), or None."""
        if self.scalar:
            return self.values[0] if mask else None
        return self.values[int(np.argmax(mask))] if mask.any() else None


def _fold(terms, total=0.0):
    """``total`` plus each term in turn, added left to right.

    Python's ``sum`` adds with compensation from 3.12 on, and np.sum adds
    pairwise from 8 terms on; the grid CSV's digits are pinned to this order
    on every Python version.
    """
    for term in terms:
        total = total + term
    return total


def _weight_series(p: int, powers: PowerTable, first: int, stop: int) -> list:
    """Weight terms c_n |z|^(2n), n = first..stop-1: a float or a |z| column each."""
    coeffs = _weight_coefficients(p)[first:stop]
    return [c * x for c, x in zip(coeffs, powers.columns(range(2 * first, 2 * stop, 2)))]


def bosonic_weight_sum(p: int, z_abs: float) -> float:
    """Sum of the weight terms w_n = c_n |z|^(2n), n = 0..p-1, always >= p!.

    c_n = (p!)^2 / ((n!)^2 (p-n)!); the full series, with its n = p term
    |z|^(2p), is exp(-|z|^2) <z^(p)|z^(p)>.  The terms are added left to
    right, n = 0 first.  Raises FloatRangeError where the sum overflows.
    """
    powers = PowerTable.of(z_abs)
    with np.errstate(over="ignore"):
        total = _fold(_weight_series(p, powers, 0, p))
    at = powers.first(total == math.inf)
    if at is not None:
        raise FloatRangeError(f"the weight sum (p={p}, |z|={at:.4g}) leaves the float range")
    return total


@dataclass(frozen=True)
class ClosedForm:
    """The closed form of one state, resolved once from its profile at |z|.

    A^2 = sum_{n<p} alpha_{p-n}^2 |z|^(2n), B^2 = (alpha_p/p)^2 W with W the
    weight series sum (:func:`bosonic_weight_sum`), defect =
    (alpha_0 - alpha_p/p)^2 |z|^(2p) (exactly 0 where alpha_0 = alpha_p/p,
    however large |z|), and D = A^2 + B^2 + defect =
    exp(-|z|^2)/Q^2, whose Q is formed on first read.  Each row is a
    normalizable state: its D is a finite normal float.  Over a 1-D |z| array
    every field but ``p`` holds one row per |z|; so does the closed form of a
    stack of states, one profile per row.  Each row is bit-identical to its
    |z| and profile alone.
    """

    p: int
    z_abs: float | np.ndarray
    alphas: np.ndarray
    a_sq: float | np.ndarray
    b_sq: float | np.ndarray
    defect: float | np.ndarray
    denom: float | np.ndarray
    weight_sum: float | np.ndarray

    @functools.cached_property
    def q(self):
        """Normalization factor Q = exp(-|z|^2/2) / sqrt(D); one per row over rows.

        Raises FloatRangeError where Q underflows to 0 (from |z| ~ 38.6 on,
        where exp(-|z|^2/2) does).
        """
        return _each(_q, self.z_abs, self.denom)

    @property
    def concurrence(self):
        """C = 2AB/D, unclipped; elementwise over a |z| array."""
        return 2.0 * np.sqrt(self.a_sq) * np.sqrt(self.b_sq) / self.denom

    def amplitudes(self, z):
        """Two-qubit amplitudes (a00, a01, a10, a11) at z, with |z| = ``z_abs``.

        a00 = (alpha_p/p) sqrt(W) / sqrt(D), a01 = 0,
        a10 = conj(z)^p (alpha_0 - alpha_p/p) / sqrt(D), a11 = A / sqrt(D)
        (Q exp(|z|^2/2) = 1/sqrt(D) cancels all exponentials).  a00 keeps the
        sign of alpha_p so that the amplitudes reconstruct the tensor state
        exactly; its magnitude is B/sqrt(D).  Over rows, with one z each,
        this is a (rows, 4) complex array, each row the amplitudes of its
        state alone.  Raises FloatRangeError where :attr:`q` does.
        """
        self.q  # the amplitudes exist where Q does
        amplitudes = functools.partial(_amplitudes, self.p)
        return _each(amplitudes, self.a_sq, self.b_sq, self.denom, self.alphas, z)


def _q(z_abs: float, denom: float) -> float:
    q = math.exp(-0.5 * z_abs * z_abs) / math.sqrt(denom)
    if q == 0.0:  # Q > 0 everywhere: 0 is exp(-|z|^2/2) or the quotient underflowed
        raise FloatRangeError(
            f"the normalization factor Q at |z|={z_abs:.4g} leaves the float range: "
            "it underflows to 0"
        )
    return q


def _amplitudes(p: int, a_sq: float, b_sq: float, denom: float, alphas, z: complex):
    # read where Q exists: D finite and Q a positive float.  A finite D holds
    # c_(p-1) |z|^(2(p-1)) and, at p = 1, a finite |z|, so conj(z)^p below
    # cannot overflow
    inv = 1.0 / math.sqrt(denom)
    a00 = complex(math.copysign(math.sqrt(b_sq), alphas[p]) * inv)
    a10 = np.conj(z) ** p * (alphas[0] - alphas[p] / p) * inv
    a11 = complex(math.sqrt(a_sq) * inv)
    return (a00, 0j, complex(a10), a11)


def _resolve(p: int, z_abs, profile) -> ClosedForm:
    """The :class:`ClosedForm` of ``profile`` at |z|, or over a 1-D |z| array.

    ``z_abs`` may be a :class:`PowerTable`, whose powers are then shared.
    Over one |z| the series are added in Python floats, which is cheapest
    for one state; over an array, one |z| column at a time, in the same
    order.  Over an array ``profile`` may also be a sequence of profiles,
    one per |z|: a stack of states, each resolved at its own |z|, where an
    undefined z-dependent-exact rule raises as it does for one state.
    Raises DegenerateProfileError where D is 0, and FloatRangeError for the
    first row whose D is not a finite normal float (no normalizable state
    exists there) or whose (alpha_p/p)^2 underflows (B^2 has lost digits).
    """
    # a closed form past the float range comes out inf or nan, classified by _closed_form
    with np.errstate(over="ignore", invalid="ignore"):
        return _closed_form(p, z_abs, profile)


def _closed_form(p: int, z_abs, profile) -> ClosedForm:
    """:func:`_resolve` under the caller's numpy error state.

    A |z| power comes from the table, a series is one :func:`_fold` (n = 0
    first) and a square is a product, so one |z| and the rows round alike.
    """
    powers = PowerTable.of(z_abs)
    if isinstance(profile, AlphaProfile) and (powers.scalar or profile.kind != KIND_Z_EXACT):
        _check_order(p, profile)
        alphas = profile.coefficients(powers.values[0])
        if not powers.scalar:  # independent of |z|: resolved once, its row repeated
            alphas = np.tile(alphas, (len(powers.zs), 1))
    else:
        if isinstance(profile, AlphaProfile):  # one profile over a |z| array: a stack of it
            profile = (profile,) * len(powers.zs)
        if powers.scalar or len(profile) != len(powers.zs):
            raise ValueError(f"a stack of {len(powers.zs)} |z| values needs one profile each")
        for row in profile:
            _check_order(p, row)
        alphas = np.array([row.coefficients(z) for row, z in zip(profile, powers.values)])
    p = int(p)  # equal to profile.p: a numpy integer would take numpy's powers, not libm's
    # ks[k] is alpha_k: a float over one |z|, else its column over the rows
    zs, ks = (powers.values[0], alphas.tolist()) if powers.scalar else (powers.zs, alphas.T)
    a_sq = _fold(a * a * x for a, x in zip(ks[p:0:-1], powers.columns(range(0, 2 * p, 2))))
    w, z2p = _fold(_weight_series(p, powers, 0, p)), powers.column(2 * p)
    if powers.scalar:
        b_sq, defect, denom = _denominator(p, a_sq, w, z2p, zs, ks[0], ks[p])
    else:  # the same step once per row, so each row is its state's alone
        step = functools.partial(_denominator, p)
        b_sq, defect, denom = _each(step, a_sq, w, z2p, zs, ks[0], ks[p]).T
    # D = 0 exactly only where alpha_p = 0 at z = 0; elsewhere it underflowed
    vanishing = powers.first((ks[p] == 0.0) & (zs == 0.0))
    if vanishing is not None:
        raise DegenerateProfileError(
            f"normalization denominator vanishes at |z|={vanishing:.4g} for this profile"
        )
    # a subnormal D has lost digits, 0 all of them, and inf or nan (nan != nan) every one
    outside = (denom < sys.float_info.min) | (denom == math.inf) | (denom != denom)
    at = powers.first(outside)
    if at is not None:
        d = denom if powers.scalar else denom[np.argmax(outside)]
        below = f": it underflows to {d:.3g}" if d < sys.float_info.min else ""
        raise FloatRangeError(
            f"the normalization denominator at |z|={at:.4g} leaves the float range{below}"
        )
    # B^2 = (alpha_p/p)^2 W: where the square is subnormal, B^2, and so C and the state's
    # norm, have lost digits.  Where it is normal, W >= |z|^(2n) (n < p) makes the error
    # of an underflowed alpha_(p-n)^2 |z|^(2n) in A^2 under 2^-53 B^2
    b = ks[p] / p
    lost = (b * b < sys.float_info.min) & (b != 0.0)
    at = powers.first(lost)
    if at is not None:
        raise FloatRangeError(
            f"the branch weight B^2 at |z|={at:.4g} leaves the float range: "
            f"(alpha_p/p)^2 underflows"
        )
    return ClosedForm(p, zs, alphas, a_sq, b_sq, defect, denom, w)


def _denominator(p: int, a_sq: float, w: float, z2p: float, z_abs: float, a_0: float, a_p: float):
    """(B^2, defect, D) of one state from A^2, W, |z|^(2p), |z|, alpha_0 and alpha_p.

    A square past the float range is inf, where D comes out inf or nan for
    :func:`_closed_form` to classify.  Where alpha_0 = alpha_p/p the defect
    is 0 * |z|: +0.0 at every finite |z|, also where 0 * |z|^(2p) would be
    nan, and nan at an infinite |z|, where no state exists.
    """
    b = a_p / p
    b_sq, d_sq = b * b * w, (a_0 - b) * (a_0 - b)
    defect = d_sq * (z2p if d_sq else z_abs)
    return b_sq, defect, a_sq + b_sq + defect


def _check_order(p: int, profile: AlphaProfile) -> None:
    if p != profile.p:
        raise ValueError(f"order mismatch: p={p} but profile.p={profile.p}")


def normalization_q(p: int, z_abs: float, profile: AlphaProfile) -> float:
    """Normalization factor Q(|z|) of the coherent state; see :class:`ClosedForm`."""
    return _resolve(p, z_abs, profile).q


def _col(x):
    """One factor per row as a column over a stack; a scalar as it is."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def _each(f, *args):
    """``f(*args)``, or over arrays with one entry per row an array of f per row.

    f takes Python floats, so a row's value is the one of its state alone.
    """
    if isinstance(args[0], np.ndarray):
        return np.array(list(map(f, *(a.tolist() for a in args))))
    return f(*args)


def beta_coefficients(state: PsusyCoherentState) -> np.ndarray:
    """Expansion coefficients beta_{k,n} of the state |Z> over |n-k>_b |k>_f.

    Returns a (p+1) x n_max array, row k holding beta_{k,n}.  Seeds are
    beta_{0,0} = alpha_0 Q conj(z)^p and beta_{k,k} = alpha_k Q z^(p-k);
    the towers follow beta_{k,n} = z^(n-k)/sqrt((n-k)!) beta_{k,k} for
    k >= 1 and
    beta_{0,n} = -sqrt(n!)/(p (n-p)!) z^(n-p) beta_{p,p}
                 + z^n/sqrt(n!) beta_{0,0},
    the first term vanishing for n < p (reciprocal factorial convention).
    They are made from the state's closed form and boson vectors.  A stack
    gives one such array per row.
    """
    p, z, n_max = state.p, state.z, state.n_max
    coh, dcoh = state.coherent, state.derivative
    # alphas[k] is alpha_k, a float or one per row
    alphas, q = state.closed_form.alphas.T, state.closed_form.q
    beta = np.zeros(np.shape(z) + (p + 1, n_max), dtype=complex)
    beta_pp = alphas[p] * q
    beta[..., 0, :] = _col(alphas[0] * q * np.power(np.conj(z), p)) * coh
    beta[..., 0, :] -= _col(beta_pp / p) * dcoh
    for k in range(1, p + 1):
        seed = alphas[k] * q * np.power(z, p - k)
        beta[..., k, k:] = _col(seed) * coh[..., : n_max - k]
    return beta


@dataclass(frozen=True)
class PsusyCoherentState:
    """A normalized coherent eigenstate and what it was built from.

    ``closed_form`` is the profile resolved at |z|; ``coherent`` (|z>) and
    ``derivative`` (|z^(p)>) are the read-only boson vectors of length n_max
    that ``full_vector`` is assembled from.  A stack of k states of one
    order p holds a z array, a tuple of k profiles, a closed form over
    rows, ``full_vector`` of shape (k, n_max (p+1)) and boson vectors of
    shape (k, n_max); ``q_norm`` is then an array and ``qubit_amps`` a
    read-only (k, 4) array.  ``qubit_amps`` is formed on first read.
    """

    p: int
    z: complex | np.ndarray
    profile: AlphaProfile | tuple[AlphaProfile, ...]
    closed_form: ClosedForm
    n_max: int
    full_vector: np.ndarray
    coherent: np.ndarray
    derivative: np.ndarray

    @property
    def q_norm(self):
        return self.closed_form.q

    @functools.cached_property
    def qubit_amps(self):
        amps = self.closed_form.amplitudes(self.z)
        if isinstance(amps, np.ndarray):
            amps.setflags(write=False)  # shared by every reader of the stack
        return amps


def build_state(
    p: int,
    z,
    profile,
    n_max: int | None = None,
    check: bool = True,
) -> PsusyCoherentState:
    """Assemble the closed-form coherent state on the truncated tensor space.

    ``n_max`` defaults to :func:`default_n_max`'s cutoff, whose predicted
    eigen-residual is <= 1e-12.  Unless ``check`` is False (for convergence
    studies only), an explicit cutoff below that rule's, without its floor
    of 32, raises TruncationError naming it.  One below p + 2, which the
    annihilator needs, is a ValueError.

    A 1-D complex ``z`` array with one profile of order p per entry builds a
    stack of states on one cutoff: by default the largest of its rows'
    default_n_max, and an explicit one is checked for each row.  Each row is
    bit-identical to the state of its z and profile built alone at that
    n_max.
    """
    # each |z| is Python's own: numpy's complex abs differs from it in the
    # last bit for about a third of all z
    stacked = isinstance(z, np.ndarray) and z.ndim > 0
    if stacked:
        if z.ndim != 1 or not z.size:
            raise ValueError(f"a stack of states needs a nonempty 1-D z array, got {z.shape}")
        z = z.astype(complex, copy=False)
        z_abs = np.array([_checked_abs(v) for v in z.tolist()])
        profile = tuple(profile)
    else:
        z = complex(z)
        z_abs = _checked_abs(z)
    if n_max is None:
        n_max = _largest_cutoff(z_abs, p)
    elif n_max < p + 2:  # the annihilator, and so every check of the state, needs p + 2 levels
        raise ValueError(f"a state of order p={p} needs n_max >= p + 2, got {n_max}")
    elif check and (needed := _largest_cutoff(z_abs, p, n_max)) > n_max:
        # the row that needs the most: the rule's cutoff is not monotone in |z|
        row = max(z_abs.tolist() if stacked else [z_abs], key=lambda v: _cutoff(v, p, n_max))
        raise TruncationError(
            f"truncation n_max={n_max} leaves a predicted eigen-residual above 1e-12 "
            f"at |z|={row:.4g}; need n_max >= {needed}", needed
        )
    full_shape = (len(z), -1) if stacked else -1

    # a vector past the float range comes out inf or nan: the finiteness
    # check below classifies it, as _closed_form classifies D
    with np.errstate(over="ignore", invalid="ignore"):
        form = _closed_form(p, z_abs, profile)
        coh = coherent_vector(z, n_max)
        alphas, q = form.alphas, form.q
        dcoh = _derivative_tower(coh, p, n_max)
        columns = np.empty(coh.shape + (p + 1,), dtype=complex)
        # alphas.T[k] is alpha_k, a float or one per row.  conj(z)^p by
        # np.power: the array ** squares by a fast path that rounds otherwise
        lead = alphas.T[0] * np.power(np.conj(z), p)
        columns[..., 0] = _col(lead) * coh - _col(alphas.T[p] / p) * dcoh
        # column k is alpha_k z^(p-k) |z>; the scalar stays the first factor of
        # each product, as numpy's complex multiply is not bitwise commutative
        coefs = alphas[..., 1:] * np.power(_col(z), np.arange(p - 1, -1, -1))
        columns[..., 1:] = (coefs[..., :, None] * coh[..., None, :]).swapaxes(-1, -2)
        full = _col(q) * columns.reshape(full_shape)
    # checked here, before any LAPACK call reads the vector
    if not np.isfinite(full).all():
        if stacked:  # name the first row that left the range
            z_abs = z_abs[np.isfinite(full).all(axis=-1).argmin()]
        raise FloatRangeError(
            f"the state vector of order p={p} at |z|={z_abs:.4g} leaves the float range"
        )
    for vector in (full, coh, dcoh):
        vector.setflags(write=False)
    return PsusyCoherentState(int(p), z, profile, form, int(n_max), full, coh, dcoh)


def qubit_amplitudes(
    p: int, z: complex, profile: AlphaProfile
) -> tuple[complex, complex, complex, complex]:
    """Two-qubit amplitudes (a00, a01, a10, a11); see :meth:`ClosedForm.amplitudes`."""
    z = complex(z)
    return _resolve(p, _checked_abs(z), profile).amplitudes(z)


@dataclass(frozen=True)
class QubitBases:
    """Orthonormal logical-qubit bases: b0/b1 bosonic, f0/f1 parafermionic."""

    b0: np.ndarray
    b1: np.ndarray
    f0: np.ndarray
    f1: np.ndarray


def qubit_bases(state: PsusyCoherentState) -> QubitBases:
    """Build the orthonormal two-dimensional bases occupied by the state.

    b1 is the normalized coherent vector, b0 the normalized component of
    conj(z)^p |z> - |z^(p)> (orthogonal to b1 by the inner-product
    identities), f0 the parafermion vacuum and f1 the normalized
    sum_{k>=1} alpha_k z^(p-k) |k>_f.  Needs some alpha_{k>=1} nonzero at
    this z, otherwise the state is a product with |0>_f and f1 is undefined.
    They are made from the state's closed form and boson vectors.  Over a
    stack each basis vector has one row per state.
    """
    p, z, form = state.p, state.z, state.closed_form
    coh, dcoh = state.coherent, state.derivative
    # |f1_raw|^2 = sum_{k>=1} alpha_k^2 |z|^(2(p-k)) is the branch weight A^2
    f1_raw = np.zeros(np.shape(z) + (p + 1,), dtype=complex)
    f1_raw[..., 1:] = form.alphas[..., 1:] * np.power(_col(z), p - np.arange(1, p + 1))
    if np.any(form.a_sq <= 0.0):
        raise DegenerateProfileError(
            "all of alpha_1..alpha_p vanish at this z: the state is a product "
            "with the parafermion vacuum and the f1 basis vector is undefined"
        )

    gauss = _col(_each(lambda r: math.exp(-0.5 * r**2), form.z_abs))
    b1 = gauss * coh
    b0 = gauss * (_col(np.power(np.conj(z), p)) * coh - dcoh) / _col(np.sqrt(form.weight_sum))
    f0 = np.zeros(f1_raw.shape, dtype=complex)
    f0[..., 0] = 1.0
    f1 = f1_raw / _col(np.sqrt(form.a_sq))
    for arr in (b0, b1, f0, f1):
        arr.setflags(write=False)
    return QubitBases(b0, b1, f0, f1)
