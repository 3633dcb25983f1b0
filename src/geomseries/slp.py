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

The oracle is exact.  Internally it packs integer coefficient vectors
into pairs of big integers (positive and negative coefficient parts
become base-2^b digits), so ring operations map to native int
arithmetic.  Packing is a ring homomorphism at any width; what needs
care is reading digits back.  The evaluator keeps each register's
digits "clean" (equal to the true coefficients) by checking, before
every operation, an exact bound computed from the operands' actual
maximum digit and nonzero count, and restarting at a wider digit when
an operation could carry across digit boundaries.  A register's true
statistics are rescanned after each operation, so bounds never
compound; plans whose coefficients overflow even the widest fast digit
fall back to widths derived from conservative structural bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from numbers import Number

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


@dataclass(frozen=True)
class Instr:
    """One instruction: a leaf (ONE/INPUT) or a binary op on earlier registers."""

    op: str
    a: int | None = None
    b: int | None = None


@dataclass(frozen=True)
class SlpProgram:
    """An immutable evaluation plan for a length-N geometric series.

    ``instrs[i]`` writes register ``i``; operands always point at earlier
    registers, so evaluation is a single forward pass.  ``declared_muls``
    is redundant (recomputable) and cross-checked by :func:`validate`.
    """

    instrs: tuple[Instr, ...]
    output: int
    series_length: int
    declared_muls: int

    def __post_init__(self) -> None:
        validate(self)


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
    muls = mul_count(program)
    if program.declared_muls != muls:
        raise ProgramError(
            f"declared_muls={program.declared_muls} but program has {muls} MULs"
        )


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
        instrs = tuple(self.instrs)
        muls = sum(1 for ins in instrs if ins.op == MUL)
        return SlpProgram(instrs, output, series_length, muls)


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
    implicitly.  Pure function of (program, x): safe to call concurrently.
    """
    if one is None:
        one = _ring_one(x)
    regs: list = [None] * len(program.instrs)
    for i, ins in enumerate(program.instrs):
        if ins.op == ADD:
            regs[i] = regs[ins.a] + regs[ins.b]
        elif ins.op == MUL:
            regs[i] = regs[ins.a] * regs[ins.b]
        elif ins.op == SUB:
            regs[i] = regs[ins.a] - regs[ins.b]
        elif ins.op == INPUT:
            regs[i] = x
        else:
            regs[i] = one
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


class DensePoly:
    """Exact integer-coefficient polynomial; index = degree, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "DensePoly":
        return cls(())

    @classmethod
    def one(cls) -> "DensePoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "DensePoly":
        return cls((0, 1))

    @classmethod
    def all_ones(cls, n: int) -> "DensePoly":
        return cls((1,) * n)

    def ring_one(self) -> "DensePoly":
        return DensePoly.one()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        out = list(self.coeffs)
        out.extend([0] * (len(other.coeffs) - len(out)))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return DensePoly(out)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return DensePoly.zero()
        # Iterate over the sparser factor; big-N series factors are sparse.
        nza = [(i, c) for i, c in enumerate(a) if c]
        nzb = [(j, c) for j, c in enumerate(b) if c]
        if len(nzb) < len(nza):
            nza, nzb = nzb, nza
        out = [0] * (len(a) + len(b) - 1)
        for i, c in nza:
            for j, d in nzb:
                out[i + j] += c * d
        return DensePoly(out)

    def __call__(self, x0: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __repr__(self) -> str:
        return f"DensePoly({list(self.coeffs)})"


_FAST_DIGIT_DTYPES = {16: "<u2", 32: "<u4", 64: "<u8"}
_MAX_ORACLE_LENGTH = 1 << 24
_MAX_FALLBACK_BITS = 1 << 16


class _DigitOverflow(Exception):
    pass


def _length_bounds(program: SlpProgram) -> list[int]:
    """Structural degree-plus-one bound per register (always >= the truth)."""
    out: list[int] = []
    for ins in program.instrs:
        if ins.op == ONE:
            out.append(1)
        elif ins.op == INPUT:
            out.append(2)
        elif ins.op == MUL:
            out.append(out[ins.a] + out[ins.b] - 1)
        else:
            out.append(max(out[ins.a], out[ins.b]))
    return out


def _digit_stats(v: int, length: int, bits: int) -> tuple[int, int]:
    """Exact (max digit, nonzero digits) of a clean packed integer."""
    if v == 0:
        return 0, 0
    raw = v.to_bytes(length * (bits // 8), "little")
    arr = np.frombuffer(raw, dtype=_FAST_DIGIT_DTYPES[bits])
    return int(arr.max()), int(np.count_nonzero(arr))


def _cancelled(
    pos: int, neg: int, length: int, bits: int
) -> tuple[int, int, int, int, int, int]:
    """Canonical (pos, neg, stats...) with no digit present in both parts.

    Subtractions leave mass in both parts even when the true value is a
    plain monomial (the next-power rewrite is the extreme case); without
    cancelling, part magnitudes compound under multiplication while the
    true coefficients stay tiny.
    """
    if pos == 0 or neg == 0:
        mp, zp = _digit_stats(pos, length, bits)
        mn, zn = _digit_stats(neg, length, bits)
        return pos, neg, mp, zp, mn, zn
    dtype = _FAST_DIGIT_DTYPES[bits]
    total = length * (bits // 8)
    p = np.frombuffer(pos.to_bytes(total, "little"), dtype=dtype).astype(np.int64)
    n = np.frombuffer(neg.to_bytes(total, "little"), dtype=dtype).astype(np.int64)
    c = p - n
    cp = np.maximum(c, 0)
    cn = np.maximum(-c, 0)
    pos = int.from_bytes(cp.astype(dtype).tobytes(), "little")
    neg = int.from_bytes(cn.astype(dtype).tobytes(), "little")
    return (
        pos,
        neg,
        int(cp.max()),
        int(np.count_nonzero(cp)),
        int(cn.max()),
        int(np.count_nonzero(cn)),
    )


def _fast_parts(program: SlpProgram, lengths: list[int], bits: int) -> tuple[int, int]:
    """Packed evaluation keeping every register's digits clean at this width.

    Each register carries canonical parts (no digit in both) plus their
    exact maximum digit and nonzero count, so overflow checks use true
    coefficient statistics rather than compounding bounds.  An operation
    that might carry across digit boundaries raises _DigitOverflow and
    the caller retries with a wider digit.
    """
    limit = 1 << (bits - 2)  # headroom so int64 views of digits stay safe
    x_enc = 1 << bits
    # register entry: pos, neg, max_pos, nnz_pos, max_neg, nnz_neg
    regs: list[tuple[int, int, int, int, int, int]] = [(0, 0, 0, 0, 0, 0)] * len(
        program.instrs
    )
    for i, ins in enumerate(program.instrs):
        if ins.op == ONE:
            regs[i] = (1, 0, 1, 1, 0, 0)
            continue
        if ins.op == INPUT:
            regs[i] = (x_enc, 0, 1, 1, 0, 0)
            continue
        pa, na, mpa, zpa, mna, zna = regs[ins.a]
        pb, nb, mpb, zpb, mnb, znb = regs[ins.b]
        if ins.op == ADD:
            if mpa + mpb >= limit or mna + mnb >= limit:
                raise _DigitOverflow
            pos, neg = pa + pb, na + nb
        elif ins.op == SUB:
            if mpa + mnb >= limit or mna + mpb >= limit:
                raise _DigitOverflow
            pos, neg = pa + nb, na + pb
        else:
            bound_pos = min(zpa, zpb) * mpa * mpb + min(zna, znb) * mna * mnb
            bound_neg = min(zpa, znb) * mpa * mnb + min(zna, zpb) * mna * mpb
            if bound_pos >= limit or bound_neg >= limit:
                raise _DigitOverflow
            pos = neg = 0
            if pa and pb:
                pos = pa * pb
            if na and nb:
                pos += na * nb
            if pa and nb:
                neg = pa * nb
            if na and pb:
                neg += na * pb
        regs[i] = _cancelled(pos, neg, lengths[i], bits)
    entry = regs[program.output]
    return entry[0], entry[1]


def _wide_parts(program: SlpProgram, lengths: list[int]) -> tuple[int, int, int]:
    """Fallback with the digit width taken from compositional norm bounds.

    The bounds (L1 and Linf per sign part) never underestimate but can
    be loose, so this path is reserved for programs whose true
    coefficients genuinely overflow the fast widths.
    """
    profiles: list[tuple[int, int, int, int]] = []
    for ins in program.instrs:
        if ins.op in (ONE, INPUT):
            profiles.append((1, 1, 0, 0))
        else:
            s1a, ma, t1a, na = profiles[ins.a]
            s1b, mb, t1b, nb = profiles[ins.b]
            if ins.op == ADD:
                profiles.append((s1a + s1b, ma + mb, t1a + t1b, na + nb))
            elif ins.op == SUB:
                profiles.append((s1a + t1b, ma + nb, t1a + s1b, na + mb))
            else:
                profiles.append(
                    (
                        s1a * s1b + t1a * t1b,
                        min(s1a * mb, ma * s1b) + min(t1a * nb, na * t1b),
                        s1a * t1b + t1a * s1b,
                        min(s1a * nb, ma * t1b) + min(t1a * mb, na * s1b),
                    )
                )
    _, pos_inf, _, neg_inf = profiles[program.output]
    bits = ((max(pos_inf, neg_inf).bit_length() + 2 + 7) // 8) * 8
    if bits > _MAX_FALLBACK_BITS:
        raise ProgramError(
            "coefficient bound too large for exact verification of this program"
        )
    x_enc = 1 << bits
    regs: list[tuple[int, int]] = [(0, 0)] * len(program.instrs)
    for i, ins in enumerate(program.instrs):
        if ins.op == ONE:
            regs[i] = (1, 0)
        elif ins.op == INPUT:
            regs[i] = (x_enc, 0)
        else:
            pa, na = regs[ins.a]
            pb, nb = regs[ins.b]
            if ins.op == ADD:
                regs[i] = (pa + pb, na + nb)
            elif ins.op == SUB:
                regs[i] = (pa + nb, na + pb)
            else:
                pos = neg = 0
                if pa and pb:
                    pos = pa * pb
                if na and nb:
                    pos += na * nb
                if pa and nb:
                    neg = pa * nb
                if na and pb:
                    neg += na * pb
                regs[i] = (pos, neg)
    pos, neg = regs[program.output]
    return pos, neg, bits


def _packed_parts(program: SlpProgram) -> tuple[int, int, int, int]:
    """(pos, neg, digit_bits, output_length_bound) with clean output digits.

    The output polynomial is pos - neg; digits of both parts equal the
    true part coefficients, so decoding and encoded comparisons are
    sound.
    """
    lengths = _length_bounds(program)
    out_length = lengths[program.output]
    if out_length > _MAX_ORACLE_LENGTH:
        raise ProgramError(
            f"output length bound {out_length} exceeds the exact-oracle limit "
            f"{_MAX_ORACLE_LENGTH}; use evaluate_mod spot checks instead"
        )
    for bits in _FAST_DIGIT_DTYPES:
        try:
            pos, neg = _fast_parts(program, lengths, bits)
            return pos, neg, bits, out_length
        except _DigitOverflow:
            continue
    pos, neg, bits = _wide_parts(program, lengths)
    return pos, neg, bits, out_length


def _decode_packed(pos: int, neg: int, bits: int, length: int) -> DensePoly:
    nb = bits // 8
    total = length * nb
    pbuf = pos.to_bytes(total, "little")
    nbuf = neg.to_bytes(total, "little")
    coeffs = [
        int.from_bytes(pbuf[i * nb : (i + 1) * nb], "little")
        - int.from_bytes(nbuf[i * nb : (i + 1) * nb], "little")
        for i in range(length)
    ]
    return DensePoly(coeffs)


def eval_poly_oracle(program: SlpProgram) -> DensePoly:
    """Exact symbolic result of the program with x = the indeterminate.

    For a correct plan this is the all-ones vector of length
    ``series_length``.  Equivalent to ``evaluate(program, DensePoly.x())``
    but packs coefficients into big integers so large plans stay cheap.
    """
    pos, neg, bits, length = _packed_parts(program)
    return _decode_packed(pos, neg, bits, length)


def polynomial_of_register(program: SlpProgram, register: int) -> DensePoly:
    """Exact polynomial held by an arbitrary register (for inspecting plans)."""
    return eval_poly_oracle(replace(program, output=register))


def passes_oracle(program: SlpProgram) -> bool:
    """True iff the symbolic result is exactly all-ones of the declared length.

    Compares packed encodings without decoding; clean digits make the
    comparison equivalent to
    ``eval_poly_oracle(program) == DensePoly.all_ones(series_length)``.
    """
    pos, neg, bits, _ = _packed_parts(program)
    n = program.series_length
    ones = ((1 << (bits * n)) - 1) // ((1 << bits) - 1)
    return pos - neg == ones


def horner_reference(n: int, x, one=None):
    """Baseline nested evaluation of the length-n series.

    Uses exactly n - 2 multiplications for n >= 2 (the innermost 1 + x is
    free) and none for n in {1, 2}.
    """
    if n < 1:
        raise ValueError("series length must be >= 1")
    if one is None:
        one = _ring_one(x)
    if n == 1:
        return one
    acc = one + x
    for _ in range(n - 2):
        acc = one + x * acc
    return acc


def horner_program(n: int) -> SlpProgram:
    """The baseline plan as a program: n - 2 multiplications for n >= 2."""
    if n < 1:
        raise ValueError("series length must be >= 1")
    b = ProgramBuilder()
    x = b.input()
    if n == 1:
        return b.finish(b.one(), 1)
    acc = b.add(b.one(), x)
    for _ in range(n - 2):
        acc = b.add(b.one(), b.mul(x, acc))
    return b.finish(acc, n)


def eliminate_dead_code(program: SlpProgram) -> SlpProgram:
    """Drop registers unreachable from the output.

    The INPUT register is always kept (a program declares its input even
    when the value is constant).  Emitters are expected to be tight: this
    pass never changes the multiplication count of shipped plans.
    """
    live = set()
    stack = [program.output]
    while stack:
        i = stack.pop()
        if i in live:
            continue
        live.add(i)
        ins = program.instrs[i]
        if ins.op in _BINARY_OPS:
            stack.append(ins.a)
            stack.append(ins.b)
    for i, ins in enumerate(program.instrs):
        if ins.op == INPUT:
            live.add(i)
    keep = sorted(live)
    remap = {old: new for new, old in enumerate(keep)}
    instrs = []
    for old in keep:
        ins = program.instrs[old]
        if ins.op in _BINARY_OPS:
            instrs.append(Instr(ins.op, remap[ins.a], remap[ins.b]))
        else:
            instrs.append(ins)
    out = tuple(instrs)
    return SlpProgram(
        out,
        remap[program.output],
        program.series_length,
        sum(1 for ins in out if ins.op == MUL),
    )


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


def from_json(text: str) -> SlpProgram:
    try:
        doc = json.loads(text)
        if doc.get("version") != PROGRAM_FORMAT_VERSION:
            raise ProgramError(
                f"unsupported program format version {doc.get('version')!r}"
            )
        instrs = []
        for entry in doc["instrs"]:
            op = entry["op"]
            if op in _BINARY_OPS:
                instrs.append(Instr(op, entry["a"], entry["b"]))
            else:
                instrs.append(Instr(op))
        out = tuple(instrs)
        return SlpProgram(
            out,
            doc["output"],
            doc["series_length"],
            sum(1 for ins in out if ins.op == MUL),
        )
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
    "DensePoly",
    "evaluate",
    "evaluate_mod",
    "eval_poly_oracle",
    "polynomial_of_register",
    "passes_oracle",
    "mul_count",
    "add_count",
    "validate",
    "horner_reference",
    "horner_program",
    "eliminate_dead_code",
    "to_json",
    "from_json",
    "PROGRAM_FORMAT_VERSION",
]
