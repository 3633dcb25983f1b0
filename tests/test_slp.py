import hashlib
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    NaivePoly,
    brute_series,
    poly_add,
    poly_mul,
    polynomial_of_register,
    small_chain,
)
from geomseries import chains, slp
from geomseries.chains import emit_binary_rule
from geomseries.planner import plan
from geomseries.slp import (
    ADD,
    INPUT,
    MUL,
    ONE,
    Instr,
    ProgramBuilder,
    ProgramError,
    SlpProgram,
    eval_poly_oracle,
    evaluate,
    evaluate_mod,
    from_json,
    mul_count,
    oracle_facts,
    passes_oracle,
    to_json,
)


class CountingInt:
    """Scalar ring wrapper counting multiplications (test-side)."""

    def __init__(self, v, counter):
        self.v = v
        self.counter = counter

    def __add__(self, o):
        return CountingInt(self.v + o.v, self.counter)

    def __sub__(self, o):
        return CountingInt(self.v - o.v, self.counter)

    def __mul__(self, o):
        self.counter[0] += 1
        return CountingInt(self.v * o.v, self.counter)

    def ring_one(self):
        return CountingInt(1, self.counter)


# -- evaluation ---------------------------------------------------------------


def test_eval_length2_chain_on_floats():
    prog = small_chain(2)
    assert evaluate(prog, 3.0) == 4.0


def test_eval_length5_chain_matches_brute_force():
    prog = small_chain(5)
    assert evaluate(prog, 2) == brute_series(5, 2) == 31


def test_eval_length26_at_one_distinguishes_corrected_from_flawed():
    corrected = plan(26, "recurrence").program
    assert evaluate(corrected, 1) == 26
    assert evaluate(chains.flawed_length26_chain(), 1) == 30


def test_eval_counts_exactly_declared_muls():
    for prog in (
        small_chain(11),
        plan(26, "recurrence").program,
        plan(60, "auto").program,
    ):
        counter = [0]
        evaluate(prog, CountingInt(2, counter))
        assert counter[0] == prog.declared_muls


def test_eval_works_over_fractions():
    prog = small_chain(5)
    x = Fraction(1, 2)
    assert evaluate(prog, x) == brute_series(5, x)


def test_eval_rejects_types_without_identity():
    prog = small_chain(2)
    with pytest.raises(TypeError):
        evaluate(prog, object())


def test_evaluate_mod_matches_closed_form():
    prog = plan(677, "recurrence").program  # length 677
    for p in (10**9 + 7, 2**31 - 1):
        assert evaluate_mod(prog, 2, p) == (pow(2, 677, p) - 1) % p
        inv2 = pow(2, p - 2, p)
        assert evaluate_mod(prog, 3, p) == (pow(3, 677, p) - 1) * inv2 % p
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        evaluate_mod(prog, 2, 1)


# -- symbolic oracle ----------------------------------------------------------


def test_oracle_small_chains_are_all_ones():
    for p in chains.SMALL_SIZES:
        poly = eval_poly_oracle(small_chain(p))
        assert poly == NaivePoly.all_ones(p)


def test_oracle_matches_testside_expansion_of_flawed_chain():
    # expand 1 + (x+y)(1 + (x+y)(1+w)) with y = x^2, w = x^4 by hand
    x_plus_y = [0, 1, 1]
    one_plus_w = [1, 0, 0, 0, 1]
    inner = poly_add([1], poly_mul(x_plus_y, one_plus_w))
    expect = poly_add([1], poly_mul(x_plus_y, inner))
    got = eval_poly_oracle(chains.flawed_length11_chain())
    assert list(got) == expect[: len(got)]
    assert 2 in got
    assert got != NaivePoly.all_ones(11)


def test_oracle_agrees_with_naive_polynomial_ring():
    programs = [
        small_chain(7),
        plan(26, "recurrence").program,
        chains.flawed_length26_chain(),
        plan(97, "auto").program,
        plan(96, "mixed:11,7,5,3,2").program,
        plan(128, "ternary").program,
    ]
    for prog in programs:
        naive = evaluate(prog, NaivePoly.x(), one=NaivePoly.one())
        assert eval_poly_oracle(prog) == naive
        assert passes_oracle(prog) == (naive == NaivePoly.all_ones(prog.series_length))


def test_homomorphism_substitution_equals_direct_eval():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 300)
        prog = plan(n, rng.choice(["auto", "binary", "ternary"])).program
        poly = eval_poly_oracle(prog)
        for x0 in (-2, -1, 0, 1, 2, 3):
            assert sum(c * x0**i for i, c in enumerate(poly)) == evaluate(prog, x0)


def test_oracle_handles_large_and_negative_coefficients():
    # 1 - f(50, x)^2 has coefficients down to -50; exercises digit
    # cancellation and the wide-magnitude paths of the packed oracle
    from geomseries.chains import emit_binary_rule

    b = ProgramBuilder()
    x = b.input()
    series = emit_binary_rule(b, x, 50).value
    square = b.mul(series, series)
    prog = b.finish(b.sub(b.one(), square), 1)
    naive = evaluate(prog, NaivePoly.x(), one=NaivePoly.one())
    assert eval_poly_oracle(prog) == naive
    assert min(naive) == -50
    assert not passes_oracle(prog)
    square_poly = polynomial_of_register(prog, square)
    assert max(square_poly) == 50
    assert square_poly == evaluate(
        plan(50, "binary").program, NaivePoly.x(), one=NaivePoly.one()
    ) * evaluate(plan(50, "binary").program, NaivePoly.x(), one=NaivePoly.one())


def _squared(times: int):
    """Builder holding (1 + x)^(2^times), made by repeated squaring."""
    b = ProgramBuilder()
    s = b.add(b.one(), b.input())
    for _ in range(times):
        s = b.mul(s, s)
    return b, s


def test_oracle_decodes_coefficients_beyond_64_bits():
    b, s = _squared(7)
    prog = from_json(to_json(b.finish(s, 129)))
    naive = evaluate(prog, NaivePoly.x(), one=NaivePoly.one())
    assert eval_poly_oracle(prog) == naive
    assert naive[64] == math.comb(128, 64) == max(naive)
    assert max(naive).bit_length() == 125
    assert not passes_oracle(prog)


def test_oracle_passes_series_whose_intermediates_exceed_64_bits():
    # f(50) + s - s with s = (1 + x)^128: the output is the series, but
    # the registers on the way hold 125-bit coefficients
    b, s = _squared(7)
    series = emit_binary_rule(b, b.input(), 50).value
    prog = b.finish(b.sub(b.add(series, s), s), 50)
    assert passes_oracle(prog)
    assert eval_poly_oracle(prog) == NaivePoly.all_ones(50)


def test_oracle_refuses_unbounded_coefficients_quickly():
    b, s = _squared(20)
    prog = b.finish(s, 2)
    start = time.perf_counter()
    with pytest.raises(ProgramError):
        passes_oracle(prog)
    with pytest.raises(ProgramError):
        eval_poly_oracle(prog)
    assert time.perf_counter() - start < 1.0


def _random_program(rng: random.Random) -> SlpProgram:
    # each instruction reads the one before it, so products compound;
    # the output is any computed register, which leaves the rest dead
    b = ProgramBuilder()
    regs = [b.input(), b.one()]
    for _ in range(rng.randint(1, 14)):
        op = rng.choice((b.add, b.sub, b.sub, b.mul, b.mul))
        regs.append(op(regs[-1], rng.choice(regs[-3:])))
    return b.finish(rng.choice(regs[2:]), rng.randint(1, 6))


def test_oracle_agrees_with_naive_ring_on_random_programs():
    rng = random.Random(6)
    passing = 0
    for _ in range(3000):
        prog = _random_program(rng)
        naive = evaluate(prog, NaivePoly.x(), one=NaivePoly.one())
        assert eval_poly_oracle(prog) == naive, to_json(prog)
        ok = naive == NaivePoly.all_ones(prog.series_length)
        assert passes_oracle(prog) == ok, to_json(prog)
        passing += ok
    assert passing > 0


def test_random_programs_reach_every_walk_path():
    rng = random.Random(6)
    widths = set()
    scanned = 0
    for _ in range(3000):
        prog = _random_program(rng)
        facts = oracle_facts(prog)
        assert facts.passes is passes_oracle(prog)
        widths.add(facts.bits)
        scanned += facts.decodes > 0
    assert {8, 16, 32, 64} < widths
    assert max(widths) > 64
    assert scanned > 100


def test_oracle_facts_report_width_past_64_bits():
    b, s = _squared(7)
    facts = oracle_facts(b.finish(s, 129))
    assert not facts.passes and facts.bits > 64
    facts = oracle_facts(plan(4096, "auto").program)
    assert facts.passes and facts.bits == 8


def test_oracle_facts_count_abandoned_widths():
    # (1 + x)^128 overflows 8, 16, 32 and 64 bits before its bound width
    b, s = _squared(7)
    assert oracle_facts(b.finish(s, 129)).retries == 4
    rng = random.Random(6)
    retried = 0
    for _ in range(3000):
        facts = oracle_facts(_random_program(rng))
        # each retry abandons the next fast width; after all four the
        # width comes from the bound rules and may be any byte multiple
        assert facts.retries == 4 or facts.bits == (8, 16, 32, 64)[facts.retries]
        retried += facts.retries > 0
    assert retried > 0


# sha256 over one "name passes bits decodes retries" line per program,
# computed before the walk dropped dead registers: dropping values must not
# move a single digit scan, width or retry.  PINNED_ORACLE_FACTS covers
# auto, binary, ternary and mixed:11,7,5,3,2 over 1..1024 and the two flawed
# fixtures; PINNED_RANDOM_ORACLE_FACTS the 3000 random programs of seed 6,
# which reach every width and retry.
PINNED_ORACLE_FACTS = "26eb70d7f9cd436f79e7ec669ae3ce770aefac5f269b5d2cc7be033fec54ea81"
PINNED_RANDOM_ORACLE_FACTS = "0d9004eb86be8de47cc9d41d32d88572b158ebeac60ecb5a7848d3f2bfb31d33"


def _facts_digest(named_programs) -> str:
    digest = hashlib.sha256()
    for name, prog in named_programs:
        f = oracle_facts(prog)
        digest.update(f"{name} {f.passes} {f.bits} {f.decodes} {f.retries}\n".encode())
    return digest.hexdigest()


def test_oracle_facts_are_pinned():
    programs = [
        (f"{label} {n}", plan(n, label).program)
        for label in ("auto", "binary", "ternary", "mixed:11,7,5,3,2")
        for n in range(1, 1025)
    ]
    programs.append(("flawed 11", chains.flawed_length11_chain()))
    programs.append(("flawed 26", chains.flawed_length26_chain()))
    assert _facts_digest(programs) == PINNED_ORACLE_FACTS
    rng = random.Random(6)
    randoms = ((str(i), _random_program(rng)) for i in range(3000))
    assert _facts_digest(randoms) == PINNED_RANDOM_ORACLE_FACTS


def test_oracle_memory_stays_within_a_few_packed_outputs():
    # the walk drops each value after its last read; keeping every
    # register's value peaked at 15.6 times the packed output here
    prog = plan(2**20, "auto").program
    tracemalloc.start()
    try:
        assert oracle_facts(prog).passes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20  # the packed output has 2^20 8-bit digits


def _packed(coeffs: list[int]) -> int:
    return sum(c << (8 * i) for i, c in enumerate(coeffs))


def test_byte_scan_matches_decoded_coefficients():
    rng = random.Random(10)
    for _ in range(600):
        length = rng.randint(1, 300)
        kind = rng.randrange(3)
        if kind == 0:
            coeffs = [0] * length
        else:
            coeffs = [rng.choice((-1, 0, 0, 1)) for _ in range(length)]
        if kind == 2:
            # one digit outside {-1, 0, 1} sends the scan to numpy
            coeffs[rng.randrange(length)] = rng.choice((-1, 1)) * rng.randint(2, 63)
        v = _packed(coeffs)
        assert slp._coefficients(v, length, 8) == coeffs
        want = (max(map(abs, coeffs)), sum(1 for c in coeffs if c))
        assert slp._stats(v, length, 8) == want


def test_width_past_64_bits_follows_the_l1_bound():
    # (1 + x)^1024 has L1 norm 2^1024: its width is 1025 + 2 bits rounded
    # up to a byte, where the nnz rule alone gives 2760
    b, s = _squared(10)
    facts = oracle_facts(b.finish(s, 1025))
    assert not facts.passes and facts.bits == 1032


def test_next_power_rewrites_stay_at_8_bit_digits():
    # x^P = f(P)(x - 1) + 1 and f(3P) = f(P)(1 + x^P + x^2P): the
    # bound rules compound past 2^6 while every true coefficient is 0 or 1
    b = ProgramBuilder()
    one = b.one()
    x_minus_1 = b.sub(b.input(), one)
    f, power = one, b.input()
    for _ in range(7):
        g = b.add(b.add(one, power), b.mul(power, power))
        f = b.mul(f, g)
        power = b.add(b.mul(f, x_minus_1), one)
    prog = b.finish(f, 3**7)
    facts = oracle_facts(prog)
    assert facts.passes and facts.bits == 8 and facts.decodes > 0
    assert polynomial_of_register(prog, power) == NaivePoly((0,) * 3**7 + (1,))


def test_mul_count_examples():
    assert mul_count(small_chain(5)) == 2
    assert mul_count(small_chain(2)) == 0
    assert mul_count(plan(26, "recurrence").program) == 6


# -- baseline -----------------------------------------------------------------


def test_horner_values_match_brute_force():
    for n in range(1, 80):
        prog = plan(n, "direct").program
        for x in (-2, -1, 0, 1, 2, 3, Fraction(1, 3)):
            assert evaluate(prog, x) == brute_series(n, x)


def test_horner_mul_counts():
    for n, want in ((1, 0), (2, 0), (3, 1), (9, 7), (50, 48)):
        counter = [0]
        evaluate(plan(n, "direct").program, CountingInt(2, counter))
        assert counter[0] == want


def test_horner_example_n3():
    counter = [0]
    out = evaluate(plan(3, "direct").program, CountingInt(2, counter))
    assert out.v == 7 and counter[0] == 1


def test_horner_baseline_matches_oracle_polynomial_up_to_512():
    rng = random.Random(11)
    for n in [1, 2, 3, 5, 17, 64, 129, 255, 311, 512]:
        x = rng.randint(-3, 3)
        prog = plan(n, "auto").program
        poly = eval_poly_oracle(prog)
        assert evaluate(plan(n, "direct").program, x) == sum(c * x**i for i, c in enumerate(poly))


# -- structure ----------------------------------------------------------------


def test_validation_rejects_forward_reference():
    instrs = (Instr(INPUT), Instr(ADD, 0, 2), Instr(ONE))
    with pytest.raises(ProgramError):
        SlpProgram(instrs, 1, 2)


def test_validation_rejects_two_inputs():
    instrs = (Instr(INPUT), Instr(INPUT), Instr(ADD, 0, 1))
    with pytest.raises(ProgramError):
        SlpProgram(instrs, 2, 2)


def test_validation_rejects_bad_output():
    instrs = (Instr(INPUT), Instr(ONE), Instr(MUL, 0, 0))
    with pytest.raises(ProgramError):
        SlpProgram(instrs, 5, 2)


def test_builder_rejects_out_of_range_operand():
    b = ProgramBuilder()
    with pytest.raises(ProgramError):
        b.add(0, 7)
    with pytest.raises(ProgramError, match="add_many needs at least one register"):
        b.add_many([])


def test_validation_rejects_leaf_with_operand():
    # from_json never reads operands of a leaf, so only a direct build can
    instrs = (Instr(INPUT), Instr(ONE, 0, None))
    with pytest.raises(ProgramError, match="instr 1: ONE takes no operands"):
        SlpProgram(instrs, 1, 1)


@pytest.mark.parametrize(
    "instrs, length, said",
    [
        ([], 1, "empty program"),
        ([{"op": "INPUT"}, {"op": "POW"}], 1, "instr 1: unknown op 'POW'"),
        ([{"op": "INPUT"}, {"op": "ADD", "a": 0, "b": None}], 1, "instr 1: ADD needs two operands"),
        ([{"op": "INPUT"}], 0, "series_length must be positive"),
    ],
    ids=["empty", "unknown-op", "missing-operand", "length-0"],
)
def test_json_documents_are_validated(instrs, length, said):
    doc = {"version": 1, "series_length": length, "output": 0, "instrs": instrs}
    with pytest.raises(ProgramError, match=said):
        from_json(json.dumps(doc))


# -- serialization ------------------------------------------------------------


def test_json_round_trip_is_bit_exact():
    for prog in (
        small_chain(11),
        plan(60, "mixed:5,3,2").program,
        plan(7, "direct").program,
    ):
        text = to_json(prog)
        again = from_json(text)
        assert again == prog and again.declared_muls == mul_count(prog)
        assert to_json(again) == text


def test_json_rejects_unknown_version():
    doc = json.loads(to_json(plan(3, "direct").program))
    doc["version"] = 99
    with pytest.raises(ProgramError):
        from_json(json.dumps(doc))


def test_json_rejects_malformed_documents():
    body = '"instrs":[{"op":"INPUT"},{"op":"ONE"},{"op":"ADD","a":%s,"b":1}]'
    for text in (
        '{"version":1}',
        '{"version":1,"series_length":2,"output":0,"instrs":[{"op":"ADD"}]}',
        '{"version":1,"series_length":2,"output":0,"instrs":[{"noop":1}]}',
        "[]",
        # integral floats and booleans are not integers
        '{"version":1,"series_length":2,"output":2,%s}' % (body % "0.0"),
        '{"version":1,"series_length":2,"output":2.0,%s}' % (body % "0"),
        '{"version":1,"series_length":2.0,"output":2,%s}' % (body % "0"),
        '{"version":1,"series_length":true,"output":2,%s}' % (body % "0"),
    ):
        with pytest.raises(ProgramError, match="malformed program document"):
            from_json(text)
