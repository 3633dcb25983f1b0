from conftest import brute_series, polynomial_of_register, small_chain
from geomseries import chains
from geomseries.chains import (
    RECURRENCE_SIZES,
    SMALL_SIZES,
    emit_binary_rule,
    flawed_length11_chain,
    flawed_length26_chain,
)
from geomseries.planner import plan
from geomseries.slp import (
    DensePoly,
    ProgramBuilder,
    eval_poly_oracle,
    evaluate,
    evaluate_mod,
    mul_count,
    passes_oracle,
)


def binary_rule_program(n: int):
    b = ProgramBuilder()
    return b.finish(emit_binary_rule(b, b.input(), n).value, n)


def recurrence_program(level: int):
    return plan(RECURRENCE_SIZES[level], "recurrence").program


def reference_binary_cost(n: int) -> int:
    # independent recursion: two muls per halving, bottoming at 2 or 3
    if n <= 2:
        return 0
    if n == 3:
        return 1
    return 2 + reference_binary_cost(n // 2)


# -- small chains ---------------------------------------------------------------


def test_small_chain_mul_counts_are_pinned():
    for p, want in ((2, 0), (3, 1), (5, 2), (7, 3), (11, 4)):
        assert small_chain(p).declared_muls == want


def test_small_chains_expand_to_all_ones():
    assert SMALL_SIZES == (2, 3, 5, 7, 11)
    for p in SMALL_SIZES:
        assert eval_poly_oracle(small_chain(p)) == DensePoly.all_ones(p)


def test_small_chain_power_registers_hold_powers():
    # the mixed planner reads the parity rule's powers for bases without a
    # built-in chain, such as 13 or 9
    cases = [(chains.emit_series_chain, p) for p in (3, 5, 7, 11)]
    cases += [(chains.emit_binary_rule, n) for n in range(4, 201)]
    for emit, size in cases:
        b = ProgramBuilder()
        pieces = emit(b, b.input(), size)
        program = b.finish(pieces.value, size)
        assert pieces.powers, size
        for e, reg in pieces.powers.items():
            got = polynomial_of_register(program, reg)
            assert got == DensePoly([0] * e + [1]), (size, e)


# -- binary rule ----------------------------------------------------------------


def test_binary_chain_examples():
    assert binary_rule_program(5).declared_muls == 2
    assert binary_rule_program(2).declared_muls == 0
    assert binary_rule_program(7).declared_muls == 3


def test_binary_chain_sweep_oracle_and_counts():
    for n in list(range(2, 200)) + [277, 512, 600, 1021]:
        program = binary_rule_program(n)
        assert passes_oracle(program), n
        assert program.declared_muls == reference_binary_cost(n)
        assert program.declared_muls <= max(n - 2, 0)


# -- recurrence family ------------------------------------------------------------


def test_recurrence_sizes_prefix():
    assert RECURRENCE_SIZES == (1, 2, 5, 26, 677, 458330, 210066388901)
    assert all(
        RECURRENCE_SIZES[i + 1] == RECURRENCE_SIZES[i] ** 2 + 1
        for i in range(len(RECURRENCE_SIZES) - 1)
    )


def test_recurrence_chain_counts_are_two_to_n_minus_two():
    for n in range(1, 7):
        program = recurrence_program(n)
        assert program.declared_muls == 2**n - 2
        assert program.series_length == RECURRENCE_SIZES[n]


def test_recurrence_chain_oracle_through_level_four():
    for n in (1, 2, 3, 4):
        assert passes_oracle(recurrence_program(n))


def test_recurrence_chain_level_five_spot_checks():
    prog = recurrence_program(5)
    n = RECURRENCE_SIZES[5]
    assert evaluate(prog, 1) == n
    for p in (10**9 + 7, 998244353):
        assert evaluate_mod(prog, 2, p) == (pow(2, n, p) - 1) % p


def test_recurrence_chain_level_six_spot_checks():
    prog = recurrence_program(6)
    n = RECURRENCE_SIZES[6]
    assert prog.declared_muls == 62
    assert evaluate(prog, 1) == n
    p = 2**61 - 1
    assert evaluate_mod(prog, 3, p) == (pow(3, n, p) - 1) * pow(2, p - 2, p) % p


def test_recurrence_chain_level_zero_is_constant_one():
    # level 0 is the size-1 series, the constant 1
    program = plan(RECURRENCE_SIZES[0]).program
    assert program.series_length == 1 and program.declared_muls == 0
    assert eval_poly_oracle(program) == DensePoly.one()


def test_all_chains_evaluate_to_length_at_one():
    programs = [small_chain(p) for p in SMALL_SIZES]
    programs += [binary_rule_program(n) for n in (6, 45, 100)]
    programs += [recurrence_program(n) for n in range(1, 7)]
    for program in programs:
        assert evaluate(program, 1) == program.series_length


def test_recurrence_matches_brute_force_at_small_values():
    prog = recurrence_program(3)  # length 26
    for x in (-1, 2, 3):
        assert evaluate(prog, x) == brute_series(26, x)


# -- flawed fixtures ---------------------------------------------------------------


def test_flawed_fixtures_fail_oracle_with_right_counts():
    f11 = flawed_length11_chain()
    assert mul_count(f11) == 4
    assert not passes_oracle(f11)
    f26 = flawed_length26_chain()
    assert mul_count(f26) == 6
    assert not passes_oracle(f26)
    assert evaluate(f26, 1) == 30


def test_corrected_counterparts_pass_with_same_counts():
    assert small_chain(11).declared_muls == 4
    assert passes_oracle(small_chain(11))
    assert recurrence_program(3).declared_muls == 6
    assert passes_oracle(recurrence_program(3))
