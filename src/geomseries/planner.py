"""Plan construction for arbitrary series lengths.

A length N is reduced one level at a time: pick a base P and the residue
r = N mod P, rewrite

    f(N, x) = f(r, x) + x^r * f(P, x) * f((N - r) / P, x^P)

and reduce the quotient in turn with x replaced by x^P.  The r = 0 case is a
plain product split; for r >= 1 the register t = x * f(P, x) doubles as a
free source of x^P (t - f(P, x) + 1), so odd residues cost no extra power
step.  Terminal lengths with a built-in chain are emitted directly, which
is where the constant -2 in all the closed-form counts comes from: the
last level needs neither a next power nor a join.

Every plan is composed in one way: each strategy is a decision rule,
which names at each length a built-in chain, a recurrence chain, a factor
split, a reduction level or a nested (Horner) step, and one walker,
``_emit_decided``, follows that rule onto one ProgramBuilder through the
chain emitters of ``chains``.  ``plan`` alone finishes the program and
builds its PlanReport.  The walker is a loop down the quotients: a
factor split f(k * m, x) = f(k, x) * f(m, x^k) makes its power through
``_split_power``, a level emits its part through ``_emit_level``, and
each one's ``_join`` around the inner series is emitted in reverse once
the leaf is built, so no length is limited by the Python stack.  Every
trace lists the decisions in emission order, (n, k, 0) for a split and
(n, P, r) for a level.  The multiplication counts the planners compare
are read off emissions of those same emitters, directly or through the
binary policy's table, so no count is kept by hand.

Three caps keep every answer bounded: ``direct`` plans up to length
2**16, ``auto`` plans up to 2**48 (its dynamic program visits every
divisor and quotient of the length), and mixed bases up to 2**10.  The
other strategies have no length limit.

Strategies:

* direct    - nested baseline, N - 2 multiplications;
* binary    - reduction with base 2 only;
* ternary   - base 3 only;
* prime:P   - N must be a power of P; splits at P down to P's chain;
              exact count (muls(P) + 2) * e - 2;
* mixed:... - per-step base chosen by normalized cost (muls per halving);
* recurrence- N must be a power of a squared-plus-one size y(k); splits
              at y(k) down to the recurrence chain, 2^k * e - 2;
* auto      - one memoized dynamic program over factor splits and the
              mixed policy's reduction level (never worse than the
              length's built-in chain, the prime-power and recurrence
              plans or the mixed:11,7,5,3,2 plan); method ``factor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Hashable

from .chains import (
    MAX_RECURRENCE_LEVEL,
    RECURRENCE_SIZES,
    SMALL_SIZES,
    emit_recurrence,
    emit_series_chain,
)
from .slp import MUL, ProgramBuilder, SlpProgram

DEFAULT_MIXED_BASES = (11, 7, 5, 3, 2)

# Lengths emitted as a single built-in chain instead of reducing further.
TERMINAL_SIZES = frozenset({1, *SMALL_SIZES})

_STRATEGY_KINDS = ("direct", "binary", "ternary", "prime_power", "mixed", "recurrence", "auto")


# A level of residue r multiplies out the powers of its length-r prefix,
# so a base P can spend about P multiplications per level: mixed:100000
# spends 100014 at length 199999, half of direct's count.
_MAX_MIXED_BASE = 2**10


def _check_mixed_bases(bases: tuple[int, ...] | None) -> None:
    """The one check of a mixed bases set: distinct bases, each at least 2
    and at most _MAX_MIXED_BASE."""
    if not bases:
        raise ValueError("mixed strategy needs at least one base")
    if len(set(bases)) != len(bases) or min(bases) < 2:
        raise ValueError("mixed bases must be pairwise distinct and >= 2")
    if max(bases) > _MAX_MIXED_BASE:
        raise ValueError(f"mixed bases are capped at {_MAX_MIXED_BASE}, got {max(bases)}")


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
            _check_mixed_bases(self.bases)

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
    predicted: float | None
    reduction_trace: tuple[tuple[int, int, int], ...]
    method: str

    @property
    def muls(self) -> int:
        return self.program.declared_muls


def _emitted_muls(emit: Callable[[ProgramBuilder, int], object]) -> int:
    """Multiplications ``emit(b, x)`` spends, counted off a scratch builder."""
    b = ProgramBuilder()
    emit(b, b.input())
    return sum(1 for ins in b.instrs if ins.op == MUL)


def _split_power(b: ProgramBuilder, x: int, left: int) -> int:
    """x^k = left * (x - 1) + 1 from left = f(k, x), the power a factor
    split f(k * m, x) = f(k, x) * f(m, x^k) continues at."""
    return b.add(b.mul(left, b.sub(x, b.one())), b.one())


def _emit_level(
    b: ProgramBuilder, x: int, base: int, residue: int, inner: bool
) -> tuple[int, list[int], int | None]:
    """The part of one reduction level f(q * base + r, x) before its inner series.

    Returns (factor, prefix, power): the level is sum(prefix) + factor *
    f(q, power) at power = x^base, which ``_join`` builds once f(q, power)
    is emitted.  Without ``inner`` q is 1, no power is made (power is
    None) and the level is sum(prefix) + factor.  Residue 0 is a factor
    split.  For r >= 1 the register t = x * f(base, x) makes x^base =
    t - f(base, x) + 1 free, prefix holds the terms 1, x, ..., x^(r-1) of
    f(r, x), and factor is x^r * f(base, x).
    """
    pieces = emit_series_chain(b, x, base)
    fp = pieces.value
    if residue == 0:
        return fp, [], _split_power(b, x, fp) if inner else None
    t = b.mul(x, fp)
    power = b.add(b.sub(t, fp), b.one()) if inner else None
    prefix, factor = [b.one()], t
    if residue >= 2:
        prefix.append(x)
        for e in range(2, residue):
            prefix.append(pieces.powers[e] if e in pieces.powers else b.mul(prefix[-1], x))
        factor = b.mul(t, prefix[-1])
    return factor, prefix, power


def _join(b: ProgramBuilder, factor: int, prefix: list[int], inner: int) -> int:
    """sum(prefix) + factor * inner: a level or split around its inner series."""
    return b.add_many(prefix + [b.mul(factor, inner)])


# Entries one _Memo keeps, about 11 MiB of factor splits.  The memos live
# on the process-wide default model, so they must not grow with every
# length ever planned.  A full memo starts over, so an ascending sweep past
# 2**16 computes again the small divisors it still reads.
MEMO_CAP = 2**16


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)`` on first lookup.

    The keys are lengths or residues (factor splits, mixed levels and
    tails), (base, residue) pairs (level costs) or bases tuples (mixed
    tables), and every memo holds at most MEMO_CAP of them: a miss on a
    full memo empties it before storing, so a call that visits fewer than
    MEMO_CAP states computes each of them once, however full the memo was
    when it began.  A single call that visits more states than the cap
    still computes some of them again (``auto`` at 2**36 visits 4,218
    states; the most found below its length cap is 47,926).  Threads that
    race past the cap may each store one more entry.  Every value is a
    pure function of its key, so threads that fill the same key agree.
    """

    def __init__(self, fill: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key: Hashable):
        got = self.fill(key)
        if len(self) >= MEMO_CAP:
            self.clear()
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
    model keeps its state in three memos: the level costs, one lazily
    filled ``mixed_table`` per bases set, and the memo ``splits`` of
    ``auto``'s dynamic program: ``splits[n]`` is the (muls, decision) of
    the cheapest plan for length n that it finds over leaves, factor
    splits and the mixed policy's level.
    """

    terminal_credit = 2

    def __init__(self) -> None:
        self._costs = _Memo(
            lambda key: _emitted_muls(lambda b, x: _join(b, *_emit_level(b, x, *key, True)))
        )
        self._tables = _Memo(lambda bases: MixedTable(bases, self))
        self.splits = _Memo(self._best_split)

    def cost(self, base: int, residue: int) -> int:
        if base < 2:
            raise ValueError("base must be >= 2")
        if not (0 <= residue < base):
            raise ValueError(f"residue {residue} out of range for base {base}")
        return self._costs[base, residue]

    def mixed_table(self, bases: tuple[int, ...]) -> "MixedTable":
        """The mixed policy's level table for ``bases`` under this model."""
        return self._tables[tuple(bases)]

    def _best_split(self, n: int) -> tuple[int, tuple]:
        """Cheapest of the length's leaves, its splits and its mixed level.

        The leaves are the built-in chain (the parity rule wherever no
        hand-tuned chain exists) and the recurrence chain of that size.  A
        split k * (n / k) spends both halves, a power and a join.  The level
        is the (base, r != 0) that ``mixed:11,7,5,3,2`` picks at n; it spends
        cost(base, r) and the quotient's plan.  Ties keep that order.

        The chain is counted as the binary plan, ``mixed_table((2,))``:
        the parity rule spends 2 per halving as cost(2, 0) = cost(2, 1) = 2
        does, down to the same terminals, and ``plan`` checks the promised
        count against the built program.  The recurrence chain and a level
        of quotient 1 are counted off scratch emissions.

        By induction D(n) = splits[n][0] is never worse than the mixed plan
        G: D(n) <= cost(base, r) + D(q) <= cost(base, r) + G(q) = G(n), where
        r = 0 is the split at base.  Nor than the prime power p**e (split at p,
        D(p) <= chain(p)), the recurrence power y**e (split at y, recurrence
        leaf) or a plan of splits and leaves alone.
        """
        chain = self.mixed_table((2,)).count(n)
        candidates: list[tuple[int, int, tuple]] = [(chain, 0, ("chain",))]
        if n in RECURRENCE_SIZES[1:]:
            level = RECURRENCE_SIZES.index(n)
            muls = _emitted_muls(lambda b, x: emit_recurrence(b, x, level))
            candidates.append((muls, 1, ("recurrence", level)))
        for k in range(2, math.isqrt(n) + 1):
            if n % k == 0:
                left, _ = self.splits[k]
                right, _ = self.splits[n // k]
                candidates.append((left + right + 2, 2, ("split", k)))
        level = _mixed_level(n, DEFAULT_MIXED_BASES, self)
        if level[0] == "level" and level[2]:
            _, base, residue = level
            q = n // base
            alone = lambda b, x: _emit_level(b, x, base, residue, False)
            muls = self.cost(base, residue) + self.splits[q][0] if q > 1 else _emitted_muls(alone)
            candidates.append((muls, 3, level))
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


def _mixed_level(n: int, bases: tuple[int, ...], model: CostModel) -> tuple:
    """The mixed policy's decision at length n: ("level", base, r), or
    ("chain",) at a terminal length or where no base fits."""
    feasible = () if n in TERMINAL_SIZES else tuple(p for p in bases if p <= n)
    if not feasible:
        return ("chain",)
    base, residue, _ = choose_base(n, feasible, model)
    return ("level", base, residue)


class MixedTable:
    """The mixed policy's levels for one bases set, filled one entry at a time.

    With L = lcm(bases) and T = max(2 * max(bases), max(TERMINAL_SIZES) + 1),
    a length n >= T has every base feasible, a quotient of at least 2 and no
    built-in chain, so its level depends on n mod L alone: ``policy[n % L]``
    is the (base, cost) that choose_base picks, and the quotient is
    n // base.  A length below T counts as ``tails[n]``, read off a scratch
    emission of its plan.  2 * max(bases) alone is too low a threshold: for
    bases (2,) or (3,) the terminals 5, 7 and 11 lie above it.
    """

    def __init__(self, bases: tuple[int, ...], model: CostModel) -> None:
        _check_mixed_bases(bases)
        self.bases, self.model = bases, model
        self.modulus = math.lcm(*bases)
        self.threshold = max(2 * max(bases), max(TERMINAL_SIZES) + 1)

        def level(residue: int) -> tuple[int, int]:
            base, _, cost = choose_base(residue, bases, model)
            return base, cost

        self.policy = _Memo(level)
        decide = lambda n: _mixed_level(n, bases, model)
        self.tails = _Memo(lambda n: _emitted_muls(lambda b, x: _emit_decided(b, x, n, decide, [])))

    def count(self, n: int) -> int:
        """Multiplications of the mixed plan for length n >= 1."""
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


# The nested baseline spends 2n instructions, 22 MiB at n = 10**5, so
# longer direct plans are refused rather than built.
_MAX_DIRECT_LENGTH = 2**16
# auto's dynamic program visits every divisor and level quotient of the
# length: cold, 2**48 takes 12-17 s over 38,992 states, but a highly
# composite length below it takes longer (260858031033600: 47,926 states,
# 60-77 s on 2 cores), and the states keep growing past it, so longer auto
# plans are refused as well.
_MAX_AUTO_LENGTH = 2**48


def _recurrence_power(n: int) -> tuple[int, int]:
    """(level, exponent) with y(level)**exponent == n and the least count
    2^level * exponent - 2."""
    if n < 2:
        raise ValueError("series length must be >= 2 for a recurrence plan")
    options = [
        ((1 << level) * e - 2, level, e)
        for level in range(1, MAX_RECURRENCE_LEVEL + 1)
        if (e := _exact_log(n, RECURRENCE_SIZES[level])) is not None
    ]
    if not options:
        raise ValueError(f"{n} is not a power of any squared-plus-one size")
    _, level, exponent = min(options)
    return level, exponent


def _exact_log(n: int, base: int) -> int | None:
    """e with base**e == n, else None."""
    e = 0
    while n % base == 0:
        n //= base
        e += 1
    return e if n == 1 else None


def _emit_decided(
    b: ProgramBuilder,
    x: int,
    n: int,
    decide: Callable[[int], tuple],
    trace: list[tuple[int, int, int]],
) -> int:
    """f(n, x) built from the decisions ``decide(m)`` names at each length m.

    A decision is ("chain",), ("recurrence", k), ("split", k), traced as
    (m, k, 0), the nested step ("horner",), f(m, x) = 1 + x * f(m - 1, x),
    not traced, or the reduction level ("level", base, r), traced as
    (m, base, r); the trace lists them in emission order.  One loop walks
    down the lengths, each split, step or level emitting its part before
    the inner series, and the joins are emitted in reverse once the leaf
    is built; only a split's left factor f(k, x), k <= sqrt(m), is walked
    by a nested call.
    """
    joins: list[tuple[int, list[int]]] = []
    value = None
    while value is None:
        decision = decide(n)
        if decision[0] == "chain":
            value = emit_series_chain(b, x, n).value
        elif decision[0] == "recurrence":
            value = emit_recurrence(b, x, decision[1]).value
        elif decision[0] == "split":
            k = decision[1]
            trace.append((n, k, 0))
            left = _emit_decided(b, x, k, decide, trace)
            joins.append((left, []))
            x, n = _split_power(b, x, left), n // k
        elif decision[0] == "horner":
            joins.append((x, [b.one()]))
            n -= 1
        else:
            _, base, residue = decision
            trace.append((n, base, residue))
            n //= base
            factor, prefix, x = _emit_level(b, x, base, residue, n > 1)
            if x is None:
                value = b.add_many(prefix + [factor])
            else:
                joins.append((factor, prefix))
    for factor, prefix in reversed(joins):
        value = _join(b, factor, prefix, value)
    return value


class AutoPlanner:
    """``plan(n, "auto", model)`` over one cost model, its only state.

    Every planner over the same model shares the model's factor-split
    memo, whose values depend only on the length and the model, so
    concurrent use returns identical results.
    """

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model or default_cost_model()

    def plan(self, n: int) -> PlanReport:
        return plan(n, "auto", self.model)


def plan(n: int, strategy: Strategy | str = "auto", model: CostModel | None = None) -> PlanReport:
    """Build a plan for length n under the given strategy.

    The one function that finishes a program and builds a PlanReport:
    every strategy is a decision rule that ``_emit_decided`` follows onto
    one ProgramBuilder, and ``auto``'s program is checked against the
    count its dynamic program promised.  ``direct`` above
    _MAX_DIRECT_LENGTH and ``auto`` above _MAX_AUTO_LENGTH raise
    ValueError; the other strategies take any length they apply to.
    """
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    if n < 1:
        raise ValueError("series length must be >= 1")
    model = model or default_cost_model()
    kind = strategy.kind
    b = ProgramBuilder()
    x = b.input()
    trace: list[tuple[int, int, int]] = []
    method = strategy.label()
    if kind == "direct":
        if n > _MAX_DIRECT_LENGTH:
            raise ValueError(f"direct plans are capped at length {_MAX_DIRECT_LENGTH}, got {n}")
        decide = lambda m: ("chain",) if m <= 2 else ("horner",)
    elif kind in ("binary", "ternary", "mixed"):
        bases = {"binary": (2,), "ternary": (3,)}.get(kind, strategy.bases)
        decide = lambda m: _mixed_level(m, bases, model)
    elif kind == "prime_power":
        base = strategy.base
        if _exact_log(n, base) is None:
            raise ValueError(f"{n} is not a power of {base}")
        decide = lambda m: ("chain",) if m <= base else ("split", base)
    elif kind == "recurrence":
        level, exponent = _recurrence_power(n)
        y = RECURRENCE_SIZES[level]
        decide = lambda m: ("recurrence", level) if m <= y else ("split", y)
        method = f"recurrence:{level}" + (f"^{exponent}" if exponent > 1 else "")
    else:
        if n > _MAX_AUTO_LENGTH:
            raise ValueError(
                f"auto plans are capped at length {_MAX_AUTO_LENGTH}, got {n}; "
                "use mixed:11,7,5,3,2 or binary"
            )
        decide, method = (lambda m: model.splits[m][1]), "factor"
    program = b.finish(_emit_decided(b, x, n, decide, trace), n)
    if kind == "auto" and program.declared_muls != model.splits[n][0]:
        raise AssertionError(
            f"planner count mismatch for n={n}: expected {model.splits[n][0]}, "
            f"built {program.declared_muls}"
        )
    return PlanReport(
        n=n,
        strategy=strategy,
        program=program,
        predicted=None if kind in ("auto", "mixed") else predicted_cost(strategy, n),
        reduction_trace=tuple(trace),
        method=method,
    )


def predicted_cost(strategy: Strategy | str, n: int) -> float:
    """Closed-form multiplication estimate for a strategy at length n.

    Exact for prime powers and recurrence powers; asymptotic (stationary
    coefficient times log2 n, minus the terminal credit) for mixed.
    Raises ValueError where no formula exists (auto) and, for prime:P and
    recurrence, where n is not a power the strategy plans.
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
    model = default_cost_model()
    if strategy.kind in ("binary", "ternary", "prime_power"):
        base = {"binary": 2, "ternary": 3}.get(strategy.kind, strategy.base)
        if strategy.kind == "prime_power" and _exact_log(n, base) is None:
            raise ValueError(f"{n} is not a power of {base}")
        return model.cost(base, 0) * ln / math.log2(base) - model.terminal_credit
    if strategy.kind == "recurrence":
        level, _ = _recurrence_power(n)
        return (1 << level) * ln / math.log2(RECURRENCE_SIZES[level]) - model.terminal_credit
    if strategy.kind == "mixed":
        return model.mixed_table(strategy.bases).coefficient * ln - model.terminal_credit
    raise ValueError(f"no closed-form cost for strategy {strategy.kind!r}")


__all__ = [
    "Strategy",
    "PlanReport",
    "CostModel",
    "default_cost_model",
    "choose_base",
    "plan",
    "predicted_cost",
    "AutoPlanner",
    "DEFAULT_MIXED_BASES",
    "TERMINAL_SIZES",
]
