"""Exact rational closed form of one state: an oracle for the float one.

Stdlib only.  From the order p, a float |z| and the resolved float
coefficients alpha_0..alpha_p, :func:`closed_form` returns the branch
weights as :class:`fractions.Fraction`s, exact for those floats:

    A^2    = sum_{n<p} alpha_{p-n}^2 |z|^(2n)
    W      = sum_{n<p} (p!)^2 / ((n!)^2 (p-n)!) |z|^(2n)
    B^2    = (alpha_p/p)^2 W
    defect = (alpha_0 - alpha_p/p)^2 |z|^(2p)
    D      = A^2 + B^2 + defect

:func:`optimal_concurrence` gives the optimal-constant family's C and
1 - C at a float |z| as :class:`decimal.Decimal`s, from its exact weights.
:func:`entanglement_of_formation` and :func:`predicted_residual` give the
EoF of a float concurrence and the default cutoff's residual bound at a
level n, both in decimal arithmetic.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple


class ExactClosedForm(NamedTuple):
    a_sq: Fraction
    weight_sum: Fraction
    b_sq: Fraction
    defect: Fraction
    denom: Fraction


def closed_form(p: int, z_abs: float, alphas) -> ExactClosedForm:
    """The exact A^2, W, B^2, defect and D of ``alphas`` at the float ``z_abs``."""
    z_sq = Fraction(z_abs) ** 2
    a = [Fraction(x) for x in alphas]
    a_sq = _series([a[p - n] ** 2 for n in range(p)], z_sq)
    # the weight coefficient (p!)^2 / ((n!)^2 (p-n)!) is the integer C(p, n)^2 (p-n)!
    weights = [math.comb(p, n) ** 2 * math.factorial(p - n) for n in range(p)]
    weight_sum = _series(weights, z_sq)
    b = a[p] / p
    b_sq = b * b * weight_sum
    defect = (a[0] - b) ** 2 * z_sq**p
    return ExactClosedForm(a_sq, weight_sum, b_sq, defect, a_sq + b_sq + defect)


def optimal_concurrence(p: int, z_abs: float) -> tuple[Decimal, Decimal]:
    """C and 1 - C of the optimal-constant family at the float ``z_abs``, to 50 digits.

    With alpha_p scaled out, A^2 = 1 + S, B^2 = g + S and D = A^2 + B^2,
    where g = p!/p^2 and S = (W - p!)/p^2, exact as Fractions.  Then
    C^2 = 4 A^2 B^2 / D^2 and 1 - C^2 = (1 - g)^2 / D^2 are exact, and
    C = sqrt(C^2) and 1 - C = (1 - C^2)/(1 + C) are rounded to 50 digits.
    """
    weights = [math.comb(p, n) ** 2 * math.factorial(p - n) for n in range(p)]
    g = Fraction(math.factorial(p), p * p)
    s = (_series(weights, Fraction(z_abs) ** 2) - math.factorial(p)) / (p * p)
    a_sq, b_sq = 1 + s, g + s
    denom_sq = (a_sq + b_sq) ** 2
    with localcontext() as ctx:
        ctx.prec = 50
        c = _decimal(4 * a_sq * b_sq / denom_sq).sqrt()
        return c, _decimal((1 - g) ** 2 / denom_sq) / (1 + c)


def entanglement_of_formation(c: float) -> Decimal:
    """H(x) = -x ln x - y ln y of the float concurrence ``c``, to 50 digits.

    x = (1 + sqrt(1 - c^2))/2 and y = 1 - x = c^2 / (4x), in 70-digit
    arithmetic, so that no digit the result keeps cancels.
    """
    with localcontext() as ctx:
        ctx.prec = 70
        c = Decimal(c)
        x = (1 + (1 - c * c).sqrt()) / 2
        y = c * c / (4 * x)
        h = -x * x.ln() - (y * y.ln() if y else 0)
        ctx.prec = 50
        return +h


def predicted_residual(p: int, z_abs: float, n: int) -> float:
    """sqrt(n (2 |b0_n|^2 + 3 |b1_n|^2)) at the float ``z_abs``, in 40-digit arithmetic.

    |b1_n|^2 = e^-lam lam^n / n! and |b0_n|^2 =
    e^-lam lam^(n-p) (lam^p / sqrt(n!) - sqrt(n!) / (n-p)!)^2 / W, lam = |z|^2,
    from integer factorials and the exact weight coefficients.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        lam = Decimal(z_abs) ** 2
        weights = [math.comb(p, k) ** 2 * math.factorial(p - k) for k in range(p)]
        w = sum(Decimal(c) * lam**k for k, c in enumerate(weights))
        root_n = Decimal(math.factorial(n)).sqrt()
        b1_sq = (-lam).exp() * lam**n / Decimal(math.factorial(n))
        b0 = lam**p / root_n - root_n / Decimal(math.factorial(n - p))
        b0_sq = (-lam).exp() * lam ** (n - p) * b0 * b0 / w
        return float((n * (2 * b0_sq + 3 * b1_sq)).sqrt())


def _decimal(x: Fraction) -> Decimal:
    """``x`` rounded to the current decimal context."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def _series(coefficients, z_sq: Fraction) -> Fraction:
    """sum_n coefficients[n] z_sq^n, summed in integers over one common denominator."""
    den = math.lcm(*(c.denominator for c in coefficients))
    top, num_z, den_z = len(coefficients) - 1, z_sq.numerator, z_sq.denominator
    total = sum(
        c.numerator * (den // c.denominator) * num_z**n * den_z ** (top - n)
        for n, c in enumerate(coefficients)
    )
    return Fraction(total, den * den_z**top)


def ulps(value: float, exact: Fraction) -> float:
    """|value - exact| in units of the last place of ``exact`` rounded to a float.

    0 where both are 0, inf where only ``exact`` is 0.
    """
    error = float(abs(Fraction(value) - exact))
    if not exact:
        return math.inf if error else 0.0
    return error / math.ulp(float(exact))
