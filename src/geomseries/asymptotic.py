"""Limiting behaviour of the squared-plus-one chain family.

The sizes y(0) = 1, y(n) = y(n-1)^2 + 1 square at every level while
their chains merely double in multiplications (2^n - 2), so the cost per
bit of series length keeps falling.  The whole family is governed by one
constant k with y(n) = floor(k^(2^n)):

    ln k = sum over n >= 0 of ln(1 + y(n)^-2) / 2^(n+1)

and the per-bit cost of level-n plans, 2^n / log2(y(n)), decreases to the
limit 1 / log2(k).

Everything here is computed with the ``decimal`` module under directed
rounding (ln, exp, add, multiply and divide are correctly rounded), so
the enclosures [k_low, k_high] are rigorous: a floor claim is asserted
only when the whole interval lies between the same two integers, and an
"undecided" verdict is reported rather than an uncertified match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_HALF_EVEN

from .chains import MAX_RECURRENCE_LEVEL, RECURRENCE_SIZES

MAX_PRECISION = 50
_FLOOR_PRECISION = 40  # decimal places of k behind verify_floor_identity


@dataclass(frozen=True)
class AsymptoticResult:
    """The growth constant and limiting cost coefficient, with an enclosure.

    ``k`` and ``coefficient`` are midpoints rounded to the requested
    number of decimal places; coefficient = ln(2)/ln(k) = 1/log2(k).
    ``k_low <= k <= k_high`` is a certified interval and ``error_bound``
    at least its full width.
    """

    k: Decimal
    coefficient: Decimal
    terms_used: int
    error_bound: Decimal
    k_low: Decimal
    k_high: Decimal


@dataclass(frozen=True)
class FloorCheck:
    """One row of the floor-identity verification.

    ``floor_value`` is None (and ``match`` None) when the interval for
    k^(2^n) straddles an integer at the working precision: undecided,
    never a false match.
    """

    n: int
    y: int
    floor_value: int | None
    match: bool | None


def _contexts(digits: int) -> tuple[Context, Context]:
    lo = Context(prec=digits, rounding="ROUND_FLOOR")
    hi = Context(prec=digits, rounding="ROUND_CEILING")
    return lo, hi


def compute_k(precision: int) -> AsymptoticResult:
    """Evaluate the growth constant to ``precision`` decimal places.

    Terms are added until the geometric tail bound (the next term is at
    most 2^-(n+1) / y(n+1)^2) drops below the target; the tail is folded
    into the upper endpoint so the enclosure stays rigorous.
    """
    if not (1 <= precision <= MAX_PRECISION):
        raise ValueError(f"precision must be in [1, {MAX_PRECISION}]")
    work = precision + 12
    lo_ctx, hi_ctx = _contexts(work)
    threshold = Decimal(1).scaleb(-(precision + 6))

    sum_lo = Decimal(0)
    sum_hi = Decimal(0)
    pow_lo = Decimal("0.5")  # 2^-(n+1), maintained by halving
    pow_hi = Decimal("0.5")
    y = 1
    terms = 0
    tail = Decimal(1)
    while True:
        y_sq = Decimal(y * y)
        arg_lo = lo_ctx.add(Decimal(1), lo_ctx.divide(Decimal(1), y_sq))
        arg_hi = hi_ctx.add(Decimal(1), hi_ctx.divide(Decimal(1), y_sq))
        sum_lo = lo_ctx.add(sum_lo, lo_ctx.multiply(pow_lo, lo_ctx.ln(arg_lo)))
        sum_hi = hi_ctx.add(sum_hi, hi_ctx.multiply(pow_hi, hi_ctx.ln(arg_hi)))
        terms += 1
        y_next = y * y + 1
        tail = hi_ctx.multiply(pow_hi, hi_ctx.divide(Decimal(1), Decimal(y_next * y_next)))
        if tail < threshold or terms >= 40:
            break
        y = y_next
        pow_lo = lo_ctx.divide(pow_lo, Decimal(2))
        pow_hi = hi_ctx.divide(pow_hi, Decimal(2))
    sum_hi = hi_ctx.add(sum_hi, tail)

    k_lo = lo_ctx.exp(sum_lo)
    k_hi = hi_ctx.exp(sum_hi)
    ln2_lo = lo_ctx.ln(Decimal(2))
    ln2_hi = hi_ctx.ln(Decimal(2))
    coef_lo = lo_ctx.divide(ln2_lo, sum_hi)
    coef_hi = hi_ctx.divide(ln2_hi, sum_lo)

    quantum = Decimal(1).scaleb(-precision)
    round_ctx = Context(prec=work, rounding=ROUND_HALF_EVEN)
    k_mid = round_ctx.divide(round_ctx.add(k_lo, k_hi), Decimal(2))
    coef_mid = round_ctx.divide(round_ctx.add(coef_lo, coef_hi), Decimal(2))
    error = hi_ctx.add(hi_ctx.subtract(k_hi, k_lo), quantum)
    return AsymptoticResult(
        k=round_ctx.quantize(k_mid, quantum),
        coefficient=round_ctx.quantize(coef_mid, quantum),
        terms_used=terms,
        error_bound=error,
        k_low=k_lo,
        k_high=k_hi,
    )


def verify_floor_identity(n_max: int) -> list[FloorCheck]:
    """Certify floor(k^(2^n)) == y(n) for n = 0..n_max (n_max <= 6).

    k is enclosed to 40 decimal places, and its power is tracked as an
    interval under outward rounding; a row is decided only when both
    endpoints share their integer part.
    """
    if not (0 <= n_max <= MAX_RECURRENCE_LEVEL):
        raise ValueError(f"n_max must be in [0, {MAX_RECURRENCE_LEVEL}]")
    result = compute_k(_FLOOR_PRECISION)
    lo_ctx, hi_ctx = _contexts(_FLOOR_PRECISION + 12)
    lo, hi = result.k_low, result.k_high
    rows: list[FloorCheck] = []
    for n in range(n_max + 1):
        f_lo = int(lo)
        f_hi = int(hi)
        if f_lo == f_hi:
            rows.append(FloorCheck(n, RECURRENCE_SIZES[n], f_lo, f_lo == RECURRENCE_SIZES[n]))
        else:
            rows.append(FloorCheck(n, RECURRENCE_SIZES[n], None, None))
        lo = lo_ctx.multiply(lo, lo)
        hi = hi_ctx.multiply(hi, hi)
    return rows


def coefficient_for_recurrence_level(n: int) -> float:
    """Multiplications per bit for plans over powers of y(n): 2^n / log2(y(n)).

    Strictly decreasing in n and bounded below by the limiting
    coefficient from compute_k.
    """
    if not (1 <= n <= MAX_RECURRENCE_LEVEL):
        raise ValueError(f"level must be in [1, {MAX_RECURRENCE_LEVEL}]")
    return float(1 << n) / math.log2(RECURRENCE_SIZES[n])


__all__ = [
    "MAX_PRECISION",
    "AsymptoticResult",
    "FloorCheck",
    "compute_k",
    "verify_floor_identity",
    "coefficient_for_recurrence_level",
]
