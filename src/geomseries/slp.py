"""Straight-line programs over a single ring input.

A plan for evaluating the length-N geometric series 1 + x + ... + x^(N-1)
is stored as a branch-free instruction list over registers.  The only
instruction kinds are the constant 1, the input x, addition, subtraction
and multiplication; multiplications are the only costed operation.

The same program can be run over any commutative ring value: machine
floats, exact integers, integers mod p, dense matrices, or polynomials.
Running it over the polynomial ring with x = the indeterminate is the
correctness oracle: a valid plan must produce the all-ones coefficient
vector of its declared length.

The oracle is exact.  It evaluates the program over the integers at
x = 2^w (Kronecker substitution): each register holds one signed int
P(2^w), so ring operations map to native int arithmetic, and packing is
a ring homomorphism at any width.  What needs care is reading P back.
Beside each value the oracle carries a rigorous bound on the register's
largest coefficient and its nonzero count, combined by simple rules per
instruction; only when a bound would reach 2^(w-2) does it scan that
value's digits for the exact statistics, and if those still reach the
limit it restarts at a wider digit (8, 16, 32, then 64 bits, then a
width taken from the bound rules alone).  Every output coefficient is
then below 2^(w-2) in magnitude, so its balanced digits are the
coefficients, and comparing P(2^w) with the packed all-ones vector is a
proof of equality.

Every evaluator here, the oracle's walk, :func:`evaluate` and the matrix
engine in ``linalg``, drops a register's value right after its last read,
taking the last reads from one helper, so it holds only live values: the
oracle's peak at 2^20 digits is about four packed outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Number
from typing import NamedTuple

import numpy as np

ONE = "ONE"
INPUT = "INPUT"
ADD = "ADD"
SUB = "SUB"
MUL = "MUL"

_BINARY_OPS = frozenset({ADD, SUB, MUL})
_ALL_OPS = frozenset({ONE, INPUT}) | _BINARY_OPS


class ProgramError(ValueError):
    """A structurally invalid straight-line program."""


class Instr(NamedTuple):
    """One instruction: a leaf (ONE/INPUT) or a binary op on earlier registers."""

    op: str
    a: int | None = None
    b: int | None = None


@dataclass(frozen=True)
class SlpProgram:
    """An immutable evaluation plan for a length-N geometric series.

    ``instrs[i]`` writes register ``i``; operands always point at earlier
    registers, so evaluation is a single forward pass.  The multiplication
    count is not stored: ``declared_muls`` counts the MUL instructions on
    first read and keeps the result.
    """

    instrs: tuple[Instr, ...]
    output: int
    series_length: int

    def __post_init__(self) -> None:
        validate(self)

    @cached_property
    def declared_muls(self) -> int:
        return mul_count(self)


def mul_count(program: SlpProgram) -> int:
    """Number of MUL instructions; additions and subtractions are free."""
    return sum(1 for ins in program.instrs if ins.op == MUL)


def add_count(program: SlpProgram) -> int:
    """Number of ADD/SUB instructions (reported only, never optimized)."""
    return sum(1 for ins in program.instrs if ins.op in (ADD, SUB))


def validate(program: SlpProgram) -> None:
    """Raise ProgramError unless the program is well-formed."""
    instrs = program.instrs
    if not instrs:
        raise ProgramError("empty program")
    inputs = 0
    for i, ins in enumerate(instrs):
        if ins.op not in _ALL_OPS:
            raise ProgramError(f"instr {i}: unknown op {ins.op!r}")
        if ins.op in _BINARY_OPS:
            if ins.a is None or ins.b is None:
                raise ProgramError(f"instr {i}: {ins.op} needs two operands")
            if not (0 <= ins.a < i and 0 <= ins.b < i):
                raise ProgramError(
                    f"instr {i}: operands ({ins.a}, {ins.b}) must point at "
                    "earlier registers"
                )
        else:
            if ins.a is not None or ins.b is not None:
                raise ProgramError(f"instr {i}: {ins.op} takes no operands")
            if ins.op == INPUT:
                inputs += 1
    if inputs != 1:
        raise ProgramError(f"program must have exactly one INPUT, found {inputs}")
    if not (0 <= program.output < len(instrs)):
        raise ProgramError(f"output register {program.output} out of range")
    if program.series_length < 1:
        raise ProgramError("series_length must be positive")


class ProgramBuilder:
    """Accumulates instructions; emitters share one builder and combine freely.

    The INPUT register is created eagerly so every finished program has
    exactly one, even when the series value does not depend on x (N = 1).
    The ONE register is created on first use and shared.
    """

    def __init__(self) -> None:
        self.instrs: list[Instr] = []
        self._input = len(self.instrs)
        self.instrs.append(Instr(INPUT))
        self._one: int | None = None

    def input(self) -> int:
        return self._input

    def one(self) -> int:
        if self._one is None:
            self._one = len(self.instrs)
            self.instrs.append(Instr(ONE))
        return self._one

    def _emit(self, op: str, a: int, b: int) -> int:
        n = len(self.instrs)
        if not (0 <= a < n and 0 <= b < n):
            raise ProgramError(f"operand out of range for {op}: ({a}, {b})")
        self.instrs.append(Instr(op, a, b))
        return n

    def add(self, a: int, b: int) -> int:
        return self._emit(ADD, a, b)

    def sub(self, a: int, b: int) -> int:
        return self._emit(SUB, a, b)

    def mul(self, a: int, b: int) -> int:
        return self._emit(MUL, a, b)

    def add_many(self, regs: list[int]) -> int:
        """Left fold of ADD; at least one register required."""
        if not regs:
            raise ProgramError("add_many needs at least one register")
        acc = regs[0]
        for r in regs[1:]:
            acc = self.add(acc, r)
        return acc

    def finish(self, output: int, series_length: int) -> SlpProgram:
        return SlpProgram(tuple(self.instrs), output, series_length)


def _ring_one(x):
    if isinstance(x, Number):
        return type(x)(1)
    ring_one = getattr(x, "ring_one", None)
    if ring_one is not None:
        return ring_one()
    raise TypeError(
        f"cannot infer the multiplicative identity for {type(x).__name__}; "
        "pass one= explicitly"
    )


def evaluate(program: SlpProgram, x, one=None):
    """Run the program over any commutative ring.

    Returns the output register's value.  Exactly ``declared_muls`` ring
    multiplications are performed; the identity is never multiplied in
    implicitly.  Each register's value is dropped right after its last
    read, so only the live registers' values are held.  Pure function of
    (program, x): safe to call concurrently.
    """
    if one is None:
        one = _ring_one(x)
    _, last = _lengths_and_last_reads(program)
    regs: list = [None] * len(program.instrs)
    for i, (op, a, b) in enumerate(program.instrs):
        if op == ADD:
            regs[i] = regs[a] + regs[b]
        elif op == MUL:
            regs[i] = regs[a] * regs[b]
        elif op == SUB:
            regs[i] = regs[a] - regs[b]
        else:
            regs[i] = x if op == INPUT else one
            continue
        if last[a] == i:
            regs[a] = None
        if last[b] == i:
            regs[b] = None
    return regs[program.output]


def evaluate_mod(program: SlpProgram, x: int, modulus: int) -> int:
    """Run the program over the integers mod ``modulus``.

    Cheap spot-check for plans whose length makes the symbolic oracle
    impractical: a correct plan satisfies f(N, x) = (x^N - 1)/(x - 1).
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    regs = [0] * len(program.instrs)
    for i, ins in enumerate(program.instrs):
        if ins.op == ADD:
            regs[i] = (regs[ins.a] + regs[ins.b]) % modulus
        elif ins.op == MUL:
            regs[i] = (regs[ins.a] * regs[ins.b]) % modulus
        elif ins.op == SUB:
            regs[i] = (regs[ins.a] - regs[ins.b]) % modulus
        elif ins.op == INPUT:
            regs[i] = x % modulus
        else:
            regs[i] = 1 % modulus
    return regs[program.output]


_FAST_DIGIT_DTYPES = {8: "u1", 16: "<u2", 32: "<u4", 64: "<u8"}
_UNIT_DIGITS = b"\x7f\x80\x81"  # offset 8-bit digits of -1, 0 and 1
_MAX_ORACLE_LENGTH = 1 << 24
_MAX_FALLBACK_BITS = 1 << 16
_TOO_LARGE = "coefficient bound too large for exact verification of this program"


class _DigitOverflow(Exception):
    """Raised with the walk's digit-scan count when a width is too narrow."""


class OracleFacts(NamedTuple):
    """How the exact oracle checked one program.

    ``bits`` is the digit width of the walk that succeeded; ``decodes``
    counts the exact digit scans over every width tried, and ``retries``
    the narrower widths the walk abandoned before ``bits``.
    """

    passes: bool
    bits: int
    decodes: int
    retries: int


def _lengths_and_last_reads(program: SlpProgram) -> tuple[list[int], list[int]]:
    """Per register, a structural degree-plus-one bound and its last read.

    The bound is always >= the truth.  The last read is the index of the
    last instruction that reads the register, the register's own index
    when none does, and ``len(instrs)`` for the output, so an evaluator
    may drop a value at its last read and never drops the output.
    """
    instrs = program.instrs
    out: list[int] = []
    last = list(range(len(instrs)))
    for i, (op, a, b) in enumerate(instrs):
        if op == MUL:
            out.append(out[a] + out[b] - 1)
            last[a] = last[b] = i
        elif op == ADD or op == SUB:
            out.append(out[a] if out[a] > out[b] else out[b])
            last[a] = last[b] = i
        else:
            out.append(2 if op == INPUT else 1)
    last[program.output] = len(instrs)
    return out, last


def _repeated(digit: int, length: int, bits: int) -> int:
    """The packed value whose ``length`` digits all equal ``digit``."""
    return int.from_bytes(digit.to_bytes(bits // 8, "little") * length, "little")


def _offset_bytes(v: int, length: int, bits: int) -> bytes:
    """Digits of v + half + half * 2^bits + ...: each is coefficient + half."""
    half = 1 << (bits - 1)
    return (v + _repeated(half, length, bits)).to_bytes(length * (bits // 8), "little")


def _stats(v: int, length: int, bits: int) -> tuple[int, int]:
    """Exact (max |coefficient|, nonzero count) of a value with clean digits.

    At 8 bits a value whose coefficients all lie in {-1, 0, 1}, as every
    shipped plan's do, is read with byte operations alone.
    """
    raw = _offset_bytes(v, length, bits)
    if bits == 8 and not raw.translate(None, _UNIT_DIGITS):
        return (1 if v else 0), length - raw.count(128)
    d = np.frombuffer(raw, dtype=_FAST_DIGIT_DTYPES[bits])
    half = 1 << (bits - 1)
    top = max(int(d.max()) - half, half - int(d.min()))
    return top, int(np.count_nonzero(d != d.dtype.type(half)))


def _coefficients(v: int, length: int, bits: int) -> list[int]:
    """Balanced digits of a value whose coefficients are below 2^(bits-1)."""
    raw = _offset_bytes(v, length, bits)
    half = 1 << (bits - 1)
    nb = bits // 8
    return [
        int.from_bytes(raw[i * nb : (i + 1) * nb], "little") - half
        for i in range(length)
    ]


def _walk(
    program: SlpProgram,
    lengths: list[int],
    last: list[int],
    bits: int | None,
    limit: float,
) -> tuple[int, int, int]:
    """Evaluate at x = 2^bits, one signed integer P(2^bits) per register.

    Each register also carries a rigorous bound m >= max |coefficient|
    and z >= nonzero count.  ADD and SUB add the bounds; MUL takes
    min(za, zb) * ma * mb and za * zb; z never exceeds the register's
    length bound.  At the fast widths (8, 16, 32, then 64 bits) ``limit``
    is 2^(bits-2), and a bound that would reach it is replaced by the
    exact statistics from one digit scan: a MUL scans its operands, an
    ADD or SUB its result (whose coefficients are below 2 * limit, so its
    digits are clean).  If the exact bound still reaches ``limit`` the
    walk raises _DigitOverflow and the caller retries at a wider digit.

    ``bits=None`` runs the bound rules alone and raises ProgramError
    when a bound reaches ``limit``.  With no digits to scan, it also
    carries an L1 bound l >= sum |coefficient| (ADD and SUB add it, MUL
    multiplies it) and takes min(m, l) as the register's m: the nnz rule
    squares its own slack along a chain of squarings, the L1 rule does
    not.  ``lengths`` and ``last`` come from _lengths_and_last_reads: an
    ADD, SUB or MUL sets each operand it reads for the last time to 0,
    after any scan of it, so the walk holds only live values and its
    results, scans and retries are those of a walk that keeps them all.
    Returns (output value, output bound, digit scans).
    """
    instrs = program.instrs
    vals = [0] * len(instrs) if bits else None
    ls = [1] * len(instrs) if vals is None else None
    ms = [1] * len(instrs)
    zs = [1] * len(instrs)
    scanned = [False] * len(instrs)
    decodes = 0
    for i, (op, a, b) in enumerate(instrs):
        if op == MUL:
            za, zb = zs[a], zs[b]
            m = (za if za < zb else zb) * ms[a] * ms[b]
            if vals is None:
                ls[i] = ls[a] * ls[b]
                m = m if m < ls[i] else ls[i]
            if m >= limit:
                if vals is None:
                    raise ProgramError(_TOO_LARGE)
                for r in (a,) if a == b else (a, b):
                    if not scanned[r]:
                        ms[r], zs[r] = _stats(vals[r], lengths[r], bits)
                        scanned[r] = True
                        decodes += 1
                za, zb = zs[a], zs[b]
                m = (za if za < zb else zb) * ms[a] * ms[b]
                if m >= limit:
                    raise _DigitOverflow(decodes)
            z = za * zb
            if vals is not None:
                vals[i] = vals[a] * vals[b]
        elif op == ADD or op == SUB:
            m = ms[a] + ms[b]
            z = zs[a] + zs[b]
            if vals is not None:
                vals[i] = vals[a] + vals[b] if op == ADD else vals[a] - vals[b]
            else:
                ls[i] = ls[a] + ls[b]
                m = m if m < ls[i] else ls[i]
            if m >= limit:
                if vals is None:
                    raise ProgramError(_TOO_LARGE)
                m, z = _stats(vals[i], lengths[i], bits)
                scanned[i] = True
                decodes += 1
                if m >= limit:
                    raise _DigitOverflow(decodes)
        else:
            if vals is not None:
                vals[i] = 1 << bits if op == INPUT else 1
            continue
        if vals is not None:
            if last[a] == i:
                vals[a] = 0
            if last[b] == i:
                vals[b] = 0
        ms[i] = m
        zs[i] = z if z < lengths[i] else lengths[i]
    out = program.output
    return (0 if vals is None else vals[out]), ms[out], decodes


def _oracle(program: SlpProgram) -> tuple[int, int, int, int, int]:
    """(P(2^bits), bits, output length bound, digit scans, retries).

    Every output coefficient is below 2^(bits-2) in magnitude, so the
    value determines the polynomial.  The fast widths, 8, 16, 32 and 64
    bits, are tried in turn; each one abandoned counts as a retry.
    Past them the width comes from the output's structural bound (the
    walk's rules run without values); no register the output depends on
    can exceed that bound, so the walk at that width needs no scans and
    only its output is read.
    """
    lengths, last = _lengths_and_last_reads(program)
    out_length = lengths[program.output]
    if out_length > _MAX_ORACLE_LENGTH:
        raise ProgramError(
            f"output length bound {out_length} exceeds the exact-oracle limit "
            f"{_MAX_ORACLE_LENGTH}; use evaluate_mod spot checks instead"
        )
    decodes = retries = 0
    for bits in _FAST_DIGIT_DTYPES:
        try:
            value, _, scans = _walk(program, lengths, last, bits, 1 << (bits - 2))
            return value, bits, out_length, decodes + scans, retries
        except _DigitOverflow as exc:
            decodes += exc.args[0]
            retries += 1
    _, bound, _ = _walk(program, lengths, last, None, 1 << (_MAX_FALLBACK_BITS - 2))
    bits = (bound.bit_length() + 2 + 7) // 8 * 8
    value, _, _ = _walk(program, lengths, last, bits, math.inf)
    return value, bits, out_length, decodes, retries


def eval_poly_oracle(program: SlpProgram) -> tuple[int, ...]:
    """Exact symbolic result of the program with x = the indeterminate.

    Returns the coefficients as a tuple indexed by degree, trailing zeros
    trimmed, so the zero polynomial is ``()``.  For a correct plan this is
    ``(1,) * series_length``.  Running the program over a schoolbook
    polynomial ring gives the same coefficients; the oracle packs them into
    big integers so large plans stay cheap.
    """
    value, bits, length, _, _ = _oracle(program)
    coeffs = _coefficients(value, length, bits)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def oracle_facts(program: SlpProgram) -> OracleFacts:
    """The oracle's verdict with the digit width, scans and retries it took.

    Compares the packed output with the packed all-ones vector without
    decoding.  Their difference has coefficients below 2^(bits-1) in
    magnitude, and such a polynomial vanishes at 2^bits only if it is
    zero, so the comparison is equivalent to
    ``eval_poly_oracle(program) == (1,) * series_length``.
    """
    value, bits, _, decodes, retries = _oracle(program)
    ones = _repeated(1, program.series_length, bits)
    return OracleFacts(value == ones, bits, decodes, retries)


def passes_oracle(program: SlpProgram) -> bool:
    """True iff the symbolic result is exactly all-ones of the declared length."""
    return oracle_facts(program).passes


PROGRAM_FORMAT_VERSION = 1


def to_json(program: SlpProgram) -> str:
    """Canonical JSON form; round-trips bit-exactly through from_json."""
    instrs = []
    for ins in program.instrs:
        if ins.op in _BINARY_OPS:
            instrs.append({"op": ins.op, "a": ins.a, "b": ins.b})
        else:
            instrs.append({"op": ins.op})
    doc = {
        "version": PROGRAM_FORMAT_VERSION,
        "series_length": program.series_length,
        "output": program.output,
        "instrs": instrs,
    }
    return json.dumps(doc, separators=(",", ":"))


def _require_int(what: str, value) -> None:
    # bool is an int subclass and a float may hold an integral value; both
    # would only fail later, as bare TypeErrors inside an evaluator
    if type(value) is not int:
        raise ProgramError(f"malformed program document: {what} {value!r} is not an integer")


def from_json(text: str) -> SlpProgram:
    try:
        doc = json.loads(text)
        if doc.get("version") != PROGRAM_FORMAT_VERSION:
            raise ProgramError(
                f"unsupported program format version {doc.get('version')!r}"
            )
        instrs = []
        for i, entry in enumerate(doc["instrs"]):
            op = entry["op"]
            if op in _BINARY_OPS:
                # a missing operand (null) is left for validate to name
                for v in (entry["a"], entry["b"]):
                    if v is not None:
                        _require_int(f"instr {i}: operand", v)
                instrs.append(Instr(op, entry["a"], entry["b"]))
            else:
                instrs.append(Instr(op))
        for field in ("output", "series_length"):
            _require_int(field, doc[field])
        return SlpProgram(tuple(instrs), doc["output"], doc["series_length"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ProgramError):
            raise
        raise ProgramError(f"malformed program document: {exc}") from exc


__all__ = [
    "ONE",
    "INPUT",
    "ADD",
    "SUB",
    "MUL",
    "Instr",
    "SlpProgram",
    "ProgramBuilder",
    "ProgramError",
    "evaluate",
    "evaluate_mod",
    "eval_poly_oracle",
    "passes_oracle",
    "oracle_facts",
    "OracleFacts",
    "mul_count",
    "add_count",
    "validate",
    "to_json",
    "from_json",
    "PROGRAM_FORMAT_VERSION",
]
