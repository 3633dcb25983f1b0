"""Chain emitters for small series lengths.

Each emitter writes one chain onto a shared ProgramBuilder and returns
the register holding the series, plus the powers it computed on the way.
Three chain families are provided:

* hand-tuned chains for lengths {2, 3, 5, 7, 11} (the length-11 entry is
  a corrected variant: a superficially similar published form fails the
  symbolic oracle and is kept here only as a negative fixture);
* a generic parity-rule builder that halves the length each step
  ((1 + x) * f(n/2, x^2) when even, 1 + (x + x^2) * f((n-1)/2, x^2) when
  odd), usable for any length >= 2;
* the quadratic-recurrence family over sizes 1, 2, 5, 26, 677, ... where
  each size is the previous one squared plus one and the multiplication
  count merely doubles (2^n - 2 at level n).

Finished programs come from ``planner.plan``; the test suite oracle-checks
every chain through it, so each expands symbolically to the all-ones
coefficient vector of its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .slp import ProgramBuilder, SlpProgram

MAX_RECURRENCE_LEVEL = 6
# y(0) = 1, y(n) = y(n-1)^2 + 1
RECURRENCE_SIZES = (1, 2, 5, 26, 677, 458330, 210066388901)


@dataclass
class ChainPieces:
    """What a chain emitter leaves behind on a shared builder.

    ``powers`` maps exponent e -> register holding (local input)^e for
    the powers the chain computed along the way; planners reuse them.
    """

    value: int
    powers: dict[int, int] = field(default_factory=dict)


def _emit_f1(b: ProgramBuilder, x: int) -> ChainPieces:
    return ChainPieces(b.one())


def _emit_f2(b: ProgramBuilder, x: int) -> ChainPieces:
    return ChainPieces(b.add(b.one(), x))


def _emit_f3(b: ProgramBuilder, x: int) -> ChainPieces:
    y = b.mul(x, x)
    return ChainPieces(b.add(b.add(b.one(), x), y), {2: y})


def _emit_f5(b: ProgramBuilder, x: int) -> ChainPieces:
    # 1 + (1 + y)(x + y) with y = x^2
    y = b.mul(x, x)
    t = b.mul(b.add(b.one(), y), b.add(x, y))
    return ChainPieces(b.add(b.one(), t), {2: y})


def _emit_f7(b: ProgramBuilder, x: int) -> ChainPieces:
    # 1 + (x + y)(1 + y + w) with y = x^2, w = y^2
    y = b.mul(x, x)
    w = b.mul(y, y)
    t = b.mul(b.add(x, y), b.add(b.add(b.one(), y), w))
    return ChainPieces(b.add(b.one(), t), {2: y, 4: w})


def _emit_f11(b: ProgramBuilder, x: int) -> ChainPieces:
    # 1 + (x + y)(1 + (1 + w)(y + w)) with y = x^2, w = y^2; the inner
    # factor is the length-5 series in y.
    y = b.mul(x, x)
    w = b.mul(y, y)
    inner = b.mul(b.add(b.one(), w), b.add(y, w))
    t = b.mul(b.add(x, y), b.add(b.one(), inner))
    return ChainPieces(b.add(b.one(), t), {2: y, 4: w})


_SMALL_EMITTERS = {
    1: _emit_f1,
    2: _emit_f2,
    3: _emit_f3,
    5: _emit_f5,
    7: _emit_f7,
    11: _emit_f11,
}

# Lengths with a hand-tuned chain; length 1 is the constant, not a chain.
SMALL_SIZES = tuple(size for size in _SMALL_EMITTERS if size > 1)


def emit_binary_rule(b: ProgramBuilder, x: int, n: int) -> ChainPieces:
    """Parity-rule chain for any length n >= 1, halving the length on x^2.

    Squares down to length 1, 2 or 3, whichever the halving path reaches,
    emits that chain, then combines on the way back up: f(n, x) is
    (1 + x) f(n/2, x^2) for even n and 1 + (x + x^2) f((n-1)/2, x^2) for
    odd n.  Costs 2 multiplications per halving step (the square and the
    combine).
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    steps = []
    while n > 3:
        y = b.mul(x, x)
        steps.append((x, y, n % 2))
        x, n = y, n // 2
    pieces = _SMALL_EMITTERS[n](b, x)
    value = pieces.value
    for x, y, odd in reversed(steps):
        if odd:
            value = b.add(b.one(), b.mul(b.add(x, y), value))
        else:
            # the factor must be 1 + x, not 1 + x^2, or every interior
            # even coefficient is counted twice
            value = b.mul(b.add(b.one(), x), value)
    # step i squared x^(2^i) into x^(2^(i+1)); the last chain ran on
    # x^(2^len(steps))
    powers = {2 << i: y for i, (_, y, _) in enumerate(steps)}
    powers.update({e << len(steps): r for e, r in pieces.powers.items()})
    return ChainPieces(value, powers)


def emit_series_chain(b: ProgramBuilder, x: int, size: int) -> ChainPieces:
    """Best built-in chain for a length: hand-tuned if available, else parity rule."""
    emitter = _SMALL_EMITTERS.get(size)
    if emitter is not None:
        return emitter(b, x)
    return emit_binary_rule(b, x, size)


def emit_recurrence(b: ProgramBuilder, x: int, level: int) -> ChainPieces:
    """Chain for size y(level) of the squared-plus-one sequence.

    One level up from u = f(y(k), x): the register z1 = x * u makes
    x^y(k) = z1 - u + 1 free, the inner series is rebuilt on that power,
    and the results join as 1 + z1 * w.  Two extra multiplications per
    level, so 2^n - 2 in total.  The pieces carry no powers: planners
    reduce by a recurrence size only with residue 0, which reads none.
    """
    if level < 1:
        raise ValueError("recurrence level must be >= 1 here")
    if level == 1:
        return _emit_f2(b, x)
    u = emit_recurrence(b, x, level - 1)
    z1 = b.mul(x, u.value)
    z = b.add(b.one(), z1)
    v = b.sub(z, u.value)  # x^y(level - 1), no multiplication spent
    w = emit_recurrence(b, v, level - 1)
    t = b.mul(z1, w.value)
    return ChainPieces(b.add(b.one(), t))


def flawed_length11_chain() -> SlpProgram:
    """A plausible-looking 4-multiplication plan for length 11 that is wrong.

    Expands to a vector with stray 2s instead of all ones; kept as a
    negative fixture so the oracle is exercised against a realistic miss.
    """
    b = ProgramBuilder()
    x = b.input()
    y = b.mul(x, x)
    w = b.mul(y, y)
    inner = b.mul(b.add(x, y), b.add(b.one(), w))
    t = b.mul(b.add(x, y), b.add(b.one(), inner))
    return b.finish(b.add(b.one(), t), 11)


def flawed_length26_chain() -> SlpProgram:
    """A 6-multiplication plan for length 26 whose final join is wrong.

    Multiplies the full length-6 prefix into the product instead of the
    shifted one, so the expansion double-counts (it sums to 30 at x = 1).
    The corrected construction is ``plan(26, "recurrence")``.
    """
    b = ProgramBuilder()
    x = b.input()
    u = _emit_f5(b, x).value
    z = b.add(b.one(), b.mul(x, u))
    v = b.sub(z, u)
    w = _emit_f5(b, v).value
    t = b.mul(z, w)
    return b.finish(t, 26)


__all__ = [
    "SMALL_SIZES",
    "MAX_RECURRENCE_LEVEL",
    "RECURRENCE_SIZES",
    "ChainPieces",
    "emit_series_chain",
    "emit_binary_rule",
    "emit_recurrence",
    "flawed_length11_chain",
    "flawed_length26_chain",
]
