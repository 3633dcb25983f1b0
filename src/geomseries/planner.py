"""Plan construction for arbitrary series lengths.

A length N is reduced one level at a time: pick a base P and the residue
r = N mod P, rewrite

    f(N, x) = f(r, x) + x^r * f(P, x) * f((N - r) / P, x^P)

and recurse on the quotient with x replaced by x^P.  The r = 0 case is a
plain product split; for r >= 1 the register t = x * f(P, x) doubles as a
free source of x^P (t - f(P, x) + 1), so odd residues cost no extra power
step.  Terminal lengths with a built-in chain are emitted directly, which
is where the constant -2 in all the closed-form counts comes from: the
last level needs neither a next power nor a join.

Every plan is composed in one way: the chain emitters of ``chains`` and
the reduction levels here write onto one shared ProgramBuilder, and every
factor split f(k * m, x) = f(k, x) * f(m, x^k) goes through ``_emit_split``.
The multiplication counts the planners compare are read off scratch
emissions of those same emitters, so no count is kept by hand.

Strategies:

* direct    - nested baseline, N - 2 multiplications;
* binary    - reduction with base 2 only;
* ternary   - base 3 only;
* prime:P   - N must be a power of P; exact count (muls(P) + 2) * e - 2;
* mixed:... - per-step base chosen by normalized cost (muls per halving);
* recurrence- N must be a power of a squared-plus-one size y(k);
* auto      - cheapest of prime-power, recurrence, mixed and a memoized
              dynamic program over factor splits (never worse than the
              length's built-in chain, one of the DP leaves, which is the
              parity rule wherever no hand-tuned chain exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

from .chains import (
    MAX_RECURRENCE_LEVEL,
    RECURRENCE_SIZES,
    SMALL_SIZES,
    emit_recurrence,
    emit_series_chain,
)
from .slp import MUL, ProgramBuilder, SlpProgram, horner_program

DEFAULT_MIXED_BASES = (11, 7, 5, 3, 2)

# Lengths emitted as a single built-in chain instead of reducing further.
TERMINAL_SIZES = frozenset({1, *SMALL_SIZES})

_STRATEGY_KINDS = ("direct", "binary", "ternary", "prime_power", "mixed", "recurrence", "auto")


@dataclass(frozen=True)
class Strategy:
    """A plan-construction policy; ``base`` and ``bases`` qualify some kinds."""

    kind: str
    base: int | None = None
    bases: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "prime_power":
            if self.base is None or self.base < 2:
                raise ValueError("prime_power strategy needs a base >= 2")
        if self.kind == "mixed":
            if not self.bases:
                raise ValueError("mixed strategy needs at least one base")
            if len(set(self.bases)) != len(self.bases) or min(self.bases) < 2:
                raise ValueError("mixed bases must be pairwise distinct and >= 2")

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Parse CLI spellings: auto, binary, ternary, direct, recurrence,
        prime:P, mixed:11,7,5,3,2."""
        text = text.strip().lower()
        if text in ("auto", "binary", "ternary", "direct", "recurrence"):
            return cls(text)
        if text == "mixed":
            return cls("mixed", bases=DEFAULT_MIXED_BASES)
        kind, _, numbers = text.partition(":")
        try:
            values = tuple(int(p) for p in numbers.split(",") if p)
        except ValueError:
            values = ()
        if kind == "prime" and len(values) == 1:
            return cls("prime_power", base=values[0])
        if kind == "mixed" and values:
            return cls("mixed", bases=values)
        raise ValueError(f"cannot parse strategy {text!r}")

    def label(self) -> str:
        if self.kind == "prime_power":
            return f"prime:{self.base}"
        if self.kind == "mixed":
            return "mixed:" + ",".join(str(p) for p in self.bases)
        return self.kind


@dataclass(frozen=True)
class PlanReport:
    """A finished plan plus how it was obtained."""

    n: int
    strategy: Strategy
    program: SlpProgram
    muls: int
    predicted: float | None
    reduction_trace: tuple[tuple[int, int, int], ...]
    method: str


def _emitted_muls(emit: Callable[[ProgramBuilder, int], object]) -> int:
    """Multiplications ``emit(b, x)`` spends, counted off a scratch builder."""
    b = ProgramBuilder()
    emit(b, b.input())
    return sum(1 for ins in b.instrs if ins.op == MUL)


def _materialize_power(b: ProgramBuilder, powers: dict[int, int], e: int) -> int:
    """Register holding x^e, built greedily from the powers already present."""
    if e in powers:
        return powers[e]
    largest = max(k for k in powers if k < e)
    rest = _materialize_power(b, powers, e - largest)
    reg = b.mul(powers[largest], rest)
    powers[e] = reg
    return reg


def _emit_split(
    b: ProgramBuilder,
    x: int,
    emit_left: Callable[[ProgramBuilder, int], int],
    emit_right: Callable[[ProgramBuilder, int], int],
) -> int:
    """f(k * m, x) = f(k, x) * f(m, x^k), the one factor split.

    Emits left = f(k, x), the power x^k = left * (x - 1) + 1, right =
    f(m, x^k) at that power, and returns the register of left * right.
    """
    left = emit_left(b, x)
    power = b.add(b.mul(left, b.sub(x, b.one())), b.one())
    return b.mul(left, emit_right(b, power))


def _chain(size: int) -> Callable[[ProgramBuilder, int], int]:
    return lambda b, x: emit_series_chain(b, x, size).value


def _emit_level(
    b: ProgramBuilder,
    x: int,
    base: int,
    residue: int,
    emit_inner: Callable[[ProgramBuilder, int], int] | None,
) -> int:
    """One reduction level f(q * base + r, x) at register x.

    ``emit_inner(b, power)`` emits f(q, power) at power = x^base; without
    it q is 1 and no power is made.  Residue 0 is a factor split.  For
    r >= 1 the register t = x * f(base, x) makes x^base = t - f(base, x) + 1
    free, and the level adds the length-r prefix to x^r * f(base, x) * inner.
    """
    if residue == 0 and emit_inner is not None:
        return _emit_split(b, x, _chain(base), emit_inner)
    pieces = emit_series_chain(b, x, base)
    fp = pieces.value
    if residue == 0:
        return fp
    t = b.mul(x, fp)
    power = b.add(b.sub(t, fp), b.one()) if emit_inner is not None else None
    prefix, multiplier = [b.one()], t
    if residue >= 2:
        powers = {1: x}
        powers.update(pieces.powers)
        prefix.append(x)
        for e in range(2, residue):
            prefix.append(_materialize_power(b, powers, e))
        multiplier = b.mul(t, _materialize_power(b, powers, residue - 1))
    if emit_inner is not None:
        multiplier = b.mul(multiplier, emit_inner(b, power))
    return b.add_many(prefix + [multiplier])


# Entries one _Memo keeps, about 11 MiB of factor splits.  The memos live
# on the process-wide default model, so they must not grow with every
# length ever planned.  An ascending sweep from 1 keeps the lengths up to
# 2**16, which holds every proper divisor of a length up to 2**17, so
# such a sweep plans each length once.
MEMO_CAP = 2**16


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` on first lookup.

    Once it holds MEMO_CAP entries it stops storing and computes every
    further miss afresh, so the keys it keeps are the first ones filled:
    in an ascending sweep, the small divisors every later length reuses.
    Threads that race past the cap may each store one more entry.  Every
    value is a pure function of its key, so threads that fill the same key
    agree.
    """

    def __init__(self, fill: Callable[[int], object]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key: int):
        got = self.fill(key)
        if len(self) < MEMO_CAP:
            self[key] = got
        return got


class CostModel:
    """Multiplications charged per reduction level, derived mechanically.

    cost(P, r) is counted off a scratch emission of one level whose
    inner series is its next power itself, so the power and the join
    multiplication are counted with it.  The test suite
    pins the base-2 and base-3 values: cost(2, *) = 2, cost(3, 0) =
    cost(3, 1) = 3, cost(3, 2) = 4.  ``terminal_credit`` is the pair of
    multiplications (power + join) the last level never spends.  The
    model also keeps one lazily filled ``mixed_table`` per bases set and
    the factor-split memo ``splits``: ``splits[n]`` is the (muls,
    decision) of the cheapest plan for length n that the dynamic program
    over factor splits finds.
    """

    terminal_credit = 2

    def __init__(self) -> None:
        self._cache: dict[tuple[int, int], int] = {}
        self._tables: dict[tuple[int, ...], MixedTable] = {}
        self.splits = _Memo(self._best_split)

    def cost(self, base: int, residue: int) -> int:
        if base < 2:
            raise ValueError("base must be >= 2")
        if not (0 <= residue < base):
            raise ValueError(f"residue {residue} out of range for base {base}")
        key = (base, residue)
        got = self._cache.get(key)
        if got is None:
            got = _emitted_muls(
                lambda b, x: _emit_level(b, x, base, residue, lambda _, power: power)
            )
            self._cache[key] = got
        return got

    def table(self, bases: tuple[int, ...]) -> dict[tuple[int, int], int]:
        return {(p, r): self.cost(p, r) for p in sorted(bases) for r in range(p)}

    def mixed_table(self, bases: tuple[int, ...]) -> "MixedTable":
        """The mixed policy's level table for ``bases`` under this model."""
        key = tuple(bases)
        got = self._tables.get(key)
        if got is None:
            got = self._tables[key] = MixedTable(key, self)
        return got

    def _best_split(self, n: int) -> tuple[int, tuple]:
        """Cheapest of the length's leaves and its splits k * (n / k).

        The leaves are the built-in chain (the parity rule wherever no
        hand-tuned chain exists, so the result is never worse than it)
        and the recurrence chain of that size; each is counted off a
        scratch emission.  A split spends both halves, a power and a join.
        """
        chain = _emitted_muls(lambda b, x: emit_series_chain(b, x, n))
        candidates: list[tuple[int, int, tuple]] = [(chain, 0, ("chain",))]
        for level in range(1, MAX_RECURRENCE_LEVEL + 1):
            if RECURRENCE_SIZES[level] == n:
                muls = _emitted_muls(lambda b, x: emit_recurrence(b, x, level))
                candidates.append((muls, 1, ("recurrence", level)))
        for k in range(2, math.isqrt(n) + 1):
            if n % k == 0:
                left, _ = self.splits[k]
                right, _ = self.splits[n // k]
                candidates.append((left + right + 2, 2, ("split", k)))
        muls, _, decision = min(candidates, key=lambda c: (c[0], c[1], c[2]))
        return muls, decision


@lru_cache(maxsize=1)
def default_cost_model() -> CostModel:
    return CostModel()


def choose_base(value: int, bases: tuple[int, ...], model: CostModel) -> tuple[int, int, int]:
    """Base with the least cost per bit reduced; ties go to the larger base.

    The comparison cost/log2(P) < cost'/log2(P') is done exactly as
    P'**cost < P**cost'.  ``value`` may be a full length or a residue
    class representative; only value mod P is used.
    """
    best: tuple[int, int, int] | None = None
    for p in sorted(bases, reverse=True):
        r = value % p
        c = model.cost(p, r)
        if best is None or best[0] ** c < p ** best[2]:
            best = (p, r, c)
    assert best is not None
    return best


def _mixed_step(n: int, bases: tuple[int, ...], model: CostModel) -> tuple[int, int, int] | None:
    feasible = tuple(p for p in bases if p <= n)
    if not feasible:
        return None
    return choose_base(n, feasible, model)


def _emit_mixed(
    b: ProgramBuilder,
    x: int,
    n: int,
    bases: tuple[int, ...],
    model: CostModel,
    trace: list[tuple[int, int, int]],
) -> int:
    step = None if n in TERMINAL_SIZES else _mixed_step(n, bases, model)
    if step is None:
        return emit_series_chain(b, x, n).value
    base, residue, _ = step
    quotient = (n - residue) // base
    trace.append((n, base, residue))
    emit_inner = None
    if quotient > 1:
        emit_inner = lambda bb, power: _emit_mixed(bb, power, quotient, bases, model, trace)
    return _emit_level(b, x, base, residue, emit_inner)


def plan_mixed(
    n: int,
    bases: tuple[int, ...] = DEFAULT_MIXED_BASES,
    model: CostModel | None = None,
    *,
    _strategy: Strategy | None = None,
) -> PlanReport:
    """Greedy mixed-base plan; terminal lengths use built-in chains.

    ``_strategy`` labels the report when ``plan`` builds a binary or
    ternary plan this way; those carry their closed-form prediction, while
    the mixed one needs a stationary solve and is left to predicted_cost.
    """
    if n < 1:
        raise ValueError("series length must be >= 1")
    strategy = _strategy or Strategy("mixed", bases=tuple(bases))
    model = model or default_cost_model()
    b = ProgramBuilder()
    trace: list[tuple[int, int, int]] = []
    value = _emit_mixed(b, b.input(), n, tuple(bases), model, trace)
    program = b.finish(value, n)
    return PlanReport(
        n=n,
        strategy=strategy,
        program=program,
        muls=program.declared_muls,
        predicted=None if strategy.kind == "mixed" else predicted_cost(strategy, n),
        reduction_trace=tuple(trace),
        method=strategy.label(),
    )


class MixedTable:
    """The mixed policy's levels for one bases set, filled one entry at a time.

    With L = lcm(bases) and T = max(2 * max(bases), max(TERMINAL_SIZES) + 1),
    a length n >= T has every base feasible, a quotient of at least 2 and no
    built-in chain, so its level depends on n mod L alone: ``policy[n % L]``
    is the (base, cost) that choose_base picks, and the quotient is
    n // base.  A length below T counts as ``tails[n] = plan_mixed(n).muls``,
    read off the emitted plan.  2 * max(bases) alone is too low a threshold:
    for bases (2,) or (3,) the terminals 5, 7 and 11 lie above it.
    """

    def __init__(self, bases: tuple[int, ...], model: CostModel) -> None:
        if not bases or min(bases) < 2:
            raise ValueError("mixed bases must be integers >= 2")
        self.bases, self.model = bases, model
        self.modulus = math.lcm(*bases)
        self.threshold = max(2 * max(bases), max(TERMINAL_SIZES) + 1)

        def level(residue: int) -> tuple[int, int]:
            base, _, cost = choose_base(residue, bases, model)
            return base, cost

        self.policy = _Memo(level)
        self.tails = _Memo(lambda n: plan_mixed(n, bases, model).muls)

    def count(self, n: int) -> int:
        """Multiplications of plan_mixed(n, bases) for n >= 1."""
        policy, modulus, threshold = self.policy, self.modulus, self.threshold
        total = 0
        while n >= threshold:
            base, cost = policy[n % modulus]
            total += cost
            n //= base
        return total + self.tails[n]

    @cached_property
    def coefficient(self) -> float:
        """Multiplications per bit of this policy, from its residue chain."""
        from . import markov

        return markov.stationary(markov.build_chain(self.bases, self.model)).coefficient


def mixed_mul_count(
    n: int, bases: tuple[int, ...] = DEFAULT_MIXED_BASES, model: CostModel | None = None
) -> int:
    """Multiplication count of plan_mixed(n, bases) without building it.

    Levels above the threshold of ``model.mixed_table(bases)`` add their
    CostModel cost; the rest is the count of the emitted plan.
    """
    if n < 1:
        raise ValueError("series length must be >= 1")
    return (model or default_cost_model()).mixed_table(tuple(bases)).count(n)


def plan_direct(n: int) -> PlanReport:
    program = horner_program(n)
    return PlanReport(
        n=n,
        strategy=Strategy("direct"),
        program=program,
        muls=program.declared_muls,
        predicted=float(max(n - 2, 0)),
        reduction_trace=(),
        method="direct",
    )


def _emit_power_cascade(
    b: ProgramBuilder,
    x: int,
    base: int,
    exponent: int,
    emit_chain: Callable[[ProgramBuilder, int], int],
    trace: list[tuple[int, int, int]],
) -> int:
    if exponent == 1:
        return emit_chain(b, x)
    trace.append((base**exponent, base, 0))
    return _emit_split(
        b,
        x,
        emit_chain,
        lambda bb, power: _emit_power_cascade(bb, power, base, exponent - 1, emit_chain, trace),
    )


def plan_prime_power(base: int, exponent: int, model: CostModel | None = None) -> PlanReport:
    """Plan for N = base**exponent with exactly (muls(base) + 2) * e - 2 MULs.

    The base needs a built-in chain or falls back to the parity rule.
    exponent 0 yields the identity plan for N = 1.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    strategy = Strategy("prime_power", base=base)
    n = base**exponent
    b = ProgramBuilder()
    trace: list[tuple[int, int, int]] = []
    if exponent == 0:
        value = emit_series_chain(b, b.input(), 1).value
    else:
        value = _emit_power_cascade(b, b.input(), base, exponent, _chain(base), trace)
    program = b.finish(value, n)
    return PlanReport(
        n=n,
        strategy=strategy,
        program=program,
        muls=program.declared_muls,
        predicted=predicted_cost(strategy, n) if n > 1 else 0.0,
        reduction_trace=tuple(trace),
        method=strategy.label(),
    )


def _recurrence_power_options(n: int) -> list[tuple[int, int, int]]:
    """(muls, level, exponent) choices with y(level)**exponent == n."""
    options = []
    for level in range(1, MAX_RECURRENCE_LEVEL + 1):
        y = RECURRENCE_SIZES[level]
        if y > n:
            break
        e = _exact_log(n, y)
        if e is not None:
            options.append(((1 << level) * e - 2, level, e))
    return options


def plan_recurrence(n: int) -> PlanReport:
    """Plan for N a power of a squared-plus-one size; count 2^k * e - 2."""
    if n < 2:
        raise ValueError("series length must be >= 2 for a recurrence plan")
    options = _recurrence_power_options(n)
    if not options:
        raise ValueError(f"{n} is not a power of any squared-plus-one size")
    _, level, exponent = min(options)
    y = RECURRENCE_SIZES[level]
    b = ProgramBuilder()
    trace: list[tuple[int, int, int]] = []
    value = _emit_power_cascade(
        b, b.input(), y, exponent, lambda bb, xx: emit_recurrence(bb, xx, level).value, trace
    )
    program = b.finish(value, n)
    strategy = Strategy("recurrence")
    return PlanReport(
        n=n,
        strategy=strategy,
        program=program,
        muls=program.declared_muls,
        predicted=predicted_cost(strategy, n),
        reduction_trace=tuple(trace),
        method=f"recurrence:{level}" + (f"^{exponent}" if exponent > 1 else ""),
    )


def _exact_log(n: int, base: int) -> int | None:
    """e with base**e == n, else None."""
    if n < base:
        return None
    e = 0
    while n % base == 0:
        n //= base
        e += 1
    return e if n == 1 else None


def _prime_power_form(n: int) -> tuple[int, int] | None:
    for p in SMALL_SIZES:
        e = _exact_log(n, p)
        if e is not None:
            return p, e
    return None


class AutoPlanner:
    """Cheapest-of-all-strategies planner over one cost model.

    It holds no state but ``model``.  The factor-split memo it reads
    lives on the model, so every planner over the same model shares it;
    the memo is filled with values that depend only on the length and
    the model, so concurrent use returns identical results.
    """

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model or default_cost_model()

    def _dp_build(self, b: ProgramBuilder, x: int, n: int) -> int:
        _, decision = self.model.splits[n]
        if decision[0] == "chain":
            return emit_series_chain(b, x, n).value
        if decision[0] == "recurrence":
            return emit_recurrence(b, x, decision[1]).value
        k = decision[1]
        return _emit_split(
            b,
            x,
            lambda bb, xx: self._dp_build(bb, xx, k),
            lambda bb, power: self._dp_build(bb, power, n // k),
        )

    def plan(self, n: int) -> PlanReport:
        if n < 1:
            raise ValueError("series length must be >= 1")
        if n == 1:
            rep = plan_prime_power(2, 0)
            return PlanReport(
                n=1,
                strategy=Strategy("auto"),
                program=rep.program,
                muls=0,
                predicted=None,
                reduction_trace=(),
                method="chain:1",
            )
        candidates: list[tuple[int, int, str]] = []
        pp = _prime_power_form(n)
        if pp is not None:
            p, e = pp
            candidates.append((self.model.cost(p, 0) * e - 2, 0, "prime_power"))
        rec_options = _recurrence_power_options(n)
        if rec_options:
            candidates.append((min(rec_options)[0], 1, "recurrence"))
        candidates.append((mixed_mul_count(n, DEFAULT_MIXED_BASES, self.model), 2, "mixed"))
        candidates.append((self.model.splits[n][0], 3, "factor"))
        muls, _, winner = min(candidates, key=lambda c: (c[0], c[1]))

        if winner == "prime_power":
            base_rep = plan_prime_power(pp[0], pp[1], self.model)
        elif winner == "recurrence":
            base_rep = plan_recurrence(n)
        elif winner == "mixed":
            base_rep = plan_mixed(n, DEFAULT_MIXED_BASES, self.model)
        else:
            b = ProgramBuilder()
            value = self._dp_build(b, b.input(), n)
            program = b.finish(value, n)
            base_rep = PlanReport(
                n=n,
                strategy=Strategy("auto"),
                program=program,
                muls=program.declared_muls,
                predicted=None,
                reduction_trace=(),
                method="factor",
            )
        if base_rep.muls != muls:
            raise AssertionError(
                f"planner count mismatch for n={n}: expected {muls}, built {base_rep.muls}"
            )
        return PlanReport(
            n=n,
            strategy=Strategy("auto"),
            program=base_rep.program,
            muls=base_rep.muls,
            predicted=None,
            reduction_trace=base_rep.reduction_trace,
            method=base_rep.method if winner != "prime_power" else base_rep.strategy.label(),
        )


def plan(n: int, strategy: Strategy | str = "auto", model: CostModel | None = None) -> PlanReport:
    """Build a plan for length n under the given strategy.

    The entry point for every strategy; the ``plan_*`` functions are its
    per-strategy steps.
    """
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    if strategy.kind == "auto":
        return AutoPlanner(model).plan(n)
    if strategy.kind == "direct":
        return plan_direct(n)
    if strategy.kind in ("binary", "ternary", "mixed"):
        bases = {"binary": (2,), "ternary": (3,)}.get(strategy.kind, strategy.bases)
        return plan_mixed(n, bases, model, _strategy=strategy)
    if strategy.kind == "recurrence":
        return plan_recurrence(n)
    if strategy.kind == "prime_power":
        e = _exact_log(n, strategy.base) if n > 1 else 0
        if e is None:
            raise ValueError(f"{n} is not a power of {strategy.base}")
        return plan_prime_power(strategy.base, e, model)
    raise ValueError(f"unhandled strategy {strategy.kind!r}")


def predicted_cost(strategy: Strategy | str, n: int) -> float:
    """Closed-form multiplication estimate for a strategy at length n.

    Exact for prime powers and recurrence powers; asymptotic (stationary
    coefficient times log2 n, minus the terminal credit) for mixed.
    Raises ValueError where no formula exists (auto).
    """
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    if n < 1:
        raise ValueError("series length must be >= 1")
    if strategy.kind == "direct":
        return float(max(n - 2, 0))
    if n == 1:
        return 0.0
    ln = math.log2(n)
    if strategy.kind == "binary":
        return 2.0 * ln - 2.0
    if strategy.kind == "ternary":
        return 3.0 * ln / math.log2(3) - 2.0
    if strategy.kind == "prime_power":
        per_level = default_cost_model().cost(strategy.base, 0)
        return per_level * ln / math.log2(strategy.base) - 2.0
    if strategy.kind == "recurrence":
        options = _recurrence_power_options(n)
        if not options:
            raise ValueError(f"{n} is not a power of any squared-plus-one size")
        _, level, _ = min(options)
        return (1 << level) * ln / math.log2(RECURRENCE_SIZES[level]) - 2.0
    if strategy.kind == "mixed":
        return default_cost_model().mixed_table(strategy.bases).coefficient * ln - 2.0
    raise ValueError(f"no closed-form cost for strategy {strategy.kind!r}")


__all__ = [
    "Strategy",
    "PlanReport",
    "CostModel",
    "default_cost_model",
    "choose_base",
    "plan",
    "plan_direct",
    "plan_mixed",
    "plan_prime_power",
    "plan_recurrence",
    "mixed_mul_count",
    "predicted_cost",
    "AutoPlanner",
    "DEFAULT_MIXED_BASES",
    "TERMINAL_SIZES",
]
