import hashlib
import inspect
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import NaivePoly
from geomseries import chains
from geomseries.linalg import plan_digest
from geomseries.planner import (
    DEFAULT_MIXED_BASES,
    AutoPlanner,
    CostModel,
    Strategy,
    choose_base,
    default_cost_model,
    plan,
    predicted_cost,
)
from geomseries.slp import (
    ProgramBuilder,
    eval_poly_oracle,
    evaluate_mod,
    mul_count,
    passes_oracle,
)


def chain_muls(size: int) -> int:
    """Multiplications of the built-in chain for ``size``, emitted alone."""
    b = ProgramBuilder()
    return b.finish(chains.emit_series_chain(b, b.input(), size).value, size).declared_muls


# -- cost model ---------------------------------------------------------------


def test_cost_model_pins_base_two_and_three():
    m = default_cost_model()
    assert m.cost(2, 0) == m.cost(2, 1) == 2
    assert m.cost(3, 0) == m.cost(3, 1) == 3
    assert m.cost(3, 2) == 4


def test_cost_model_zero_residue_is_cheapest():
    m = default_cost_model()
    for p in (2, 3, 5, 7, 11, 13):
        base_cost = m.cost(p, 0)
        for r in range(p):
            assert m.cost(p, r) >= base_cost


def test_cost_model_validates_inputs():
    m = CostModel()
    with pytest.raises(ValueError):
        m.cost(1, 0)
    with pytest.raises(ValueError):
        m.cost(3, 3)


def test_choose_base_prefers_larger_on_exact_tie():
    # cost(4, 0) = 4 against cost(2, 0) = 2: identical per-bit cost
    m = default_cost_model()
    assert m.cost(4, 0) == 4
    base, residue, _ = choose_base(16, (4, 2), m)
    assert base == 4 and residue == 0


def test_choose_base_follows_three_or_two_rule():
    m = default_cost_model()
    for n in range(20, 80):
        base, _, _ = choose_base(n, (3, 2), m)
        assert base == (3 if n % 3 in (0, 1) else 2)


# -- strategies ---------------------------------------------------------------


def test_strategy_parsing():
    assert Strategy.parse("auto").kind == "auto"
    assert Strategy.parse("prime:5") == Strategy("prime_power", base=5)
    assert Strategy.parse("mixed:11,7,5,3,2").bases == (11, 7, 5, 3, 2)
    assert Strategy.parse("mixed").bases == (11, 7, 5, 3, 2)
    with pytest.raises(ValueError):
        Strategy.parse("nonsense")
    with pytest.raises(ValueError):
        Strategy("mixed", bases=(3, 3))
    with pytest.raises(ValueError):
        Strategy("prime_power", base=1)
    with pytest.raises(ValueError, match="unknown strategy kind 'bogus'"):
        Strategy("bogus")
    with pytest.raises(ValueError, match="at least one base"):
        Strategy("mixed", bases=())


# -- prime powers ----------------------------------------------------------------


def test_prime_power_examples():
    assert plan(125, "prime:5").muls == 10
    assert plan(1024, "prime:2").muls == 18
    assert plan(9, "prime:3").muls == 4


def test_prime_power_closed_form_is_exact():
    for p in (2, 3, 5, 7, 11):
        per_level = chain_muls(p) + 2
        assert default_cost_model().cost(p, 0) == per_level
        e = 1
        while p**e <= 4096:
            rep = plan(p**e, f"prime:{p}")
            assert rep.muls == per_level * e - 2
            assert rep.n == p**e
            assert passes_oracle(rep.program)
            e += 1


def test_prime_power_zero_exponent_is_identity_plan():
    rep = plan(1, "prime:5")
    assert rep.n == 1 and rep.muls == 0
    assert eval_poly_oracle(rep.program) == NaivePoly.one()


def test_prime_power_fallback_base_without_builtin_chain():
    rep = plan(169, "prime:13")
    assert rep.n == 169
    assert rep.muls == (chain_muls(13) + 2) * 2 - 2
    assert passes_oracle(rep.program)


def test_prime_power_trace_shape():
    rep = plan(125, "prime:5")
    assert rep.reduction_trace == ((125, 5, 0), (25, 5, 0))


# -- mixed -----------------------------------------------------------------------


def test_mixed_base_two_step_chosen_for_two_mod_three():
    rep = plan(8, "mixed:3,2")
    assert rep.reduction_trace[0] == (8, 2, 0)
    assert passes_oracle(rep.program)


def test_mixed_length_one_is_empty_plan():
    rep = plan(1, "mixed:3,2")
    assert rep.muls == 0
    assert eval_poly_oracle(rep.program) == NaivePoly.one()


def test_mixed_six_uses_base_three_then_terminal_two():
    rep = plan(6, "mixed:3,2")
    assert rep.reduction_trace == ((6, 3, 0),)
    assert rep.muls == 3
    assert eval_poly_oracle(rep.program) == NaivePoly.all_ones(6)


def test_mixed_count_walker_matches_built_plans():
    model = default_cost_model()
    table = model.mixed_table(DEFAULT_MIXED_BASES)
    for n in range(1, 1200):
        assert table.count(n) == plan(n, "mixed", model).muls
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(10**4, 10**6)
        assert table.count(n) == plan(n, "mixed", model).muls
    for bases in ((3, 2), (5, 2), (7,), (5,)):
        strategy = Strategy("mixed", bases=bases)
        for n in range(1, 300):
            assert model.mixed_table(bases).count(n) == plan(n, strategy, model).muls


@pytest.mark.parametrize("bases", [(2,), (3,), (9, 2), (6, 5, 2), (4, 3)])
def test_table_walker_matches_built_plans(bases):
    # for (2,) and (3,) the terminals 5, 7 and 11 lie above 2 * max(bases),
    # so the table's threshold must clear them
    model = CostModel()
    table = model.mixed_table(bases)
    assert table.threshold == max(2 * max(bases), 12)
    strategy = Strategy("mixed", bases=bases)
    for n in range(1, 3000):
        assert table.count(n) == plan(n, strategy, model).muls, n
    rng = random.Random(sum(bases))
    for bits in (40, 100, 200):
        for _ in range(8):
            n = rng.randint(1, 2**bits)
            assert table.count(n) == plan(n, strategy, model).muls, n


def test_mixed_trace_monotone_and_consistent():
    for n in (97, 500, 2310, 4096):
        rep = plan(n, "mixed")
        lengths = [step[0] for step in rep.reduction_trace]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        for (nk, base, residue), nxt in zip(rep.reduction_trace, lengths[1:]):
            assert nxt == (nk - residue) // base
        assert rep.muls == mul_count(rep.program)


def test_mixed_handles_base_larger_than_length():
    rep = plan(4, "mixed:7")
    assert rep.muls == 2  # falls back to the parity-rule chain for 4
    assert passes_oracle(rep.program)


def test_mixed_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan(0, "mixed")
    with pytest.raises(ValueError):
        plan(10, Strategy("mixed", bases=(2, 2)))
    for n in (2047, 4095):  # residue 1023, the longest prefix a level builds
        assert passes_oracle(plan(n, "mixed:1024").program)
    for spelling in ("mixed:1025", "mixed:100000,3"):
        with pytest.raises(ValueError, match="mixed bases are capped at 1024"):
            plan(10, spelling)
    with pytest.raises(ValueError, match="mixed bases are capped at 1024"):
        CostModel().mixed_table((1025, 2))


def test_mixed_fuzz_over_unusual_base_sets():
    # sets without base 2 force the expensive-residue templates
    from geomseries.slp import evaluate

    rng = random.Random(2024)
    pool = [(7, 5), (11, 3), (13, 7), (5, 3), (11,), (9, 2), (13, 11, 7), (6, 5, 2)]
    for _ in range(120):
        bases = rng.choice(pool)
        n = rng.randint(1, 2500)
        rep = plan(n, Strategy("mixed", bases=bases))
        assert passes_oracle(rep.program), (n, bases)
        assert rep.muls == default_cost_model().mixed_table(bases).count(n), (n, bases)
        assert evaluate(rep.program, 1) == n


# -- recurrence -------------------------------------------------------------------


def test_recurrence_plan_examples():
    assert plan(26, "recurrence").muls == 6
    assert plan(677, "recurrence").muls == 14
    assert plan(676, "recurrence").muls == 14  # 26^2 via one cascade level
    assert passes_oracle(plan(676, "recurrence").program)


def test_recurrence_plan_rejects_non_powers():
    with pytest.raises(ValueError):
        plan(27, "recurrence")


# -- auto ---------------------------------------------------------------------------


def test_auto_reproduces_headline_counts(auto_planner):
    for n, want in ((5, 2), (7, 3), (11, 4), (25, 6), (26, 6), (677, 14)):
        rep = auto_planner.plan(n)
        assert rep.muls == want, (n, rep.muls)
        assert passes_oracle(rep.program)


def test_auto_never_loses_to_binary(auto_planner):
    # nor to any plan auto's one dynamic program subsumes: the mixed policy,
    # the prime-power cascade and the recurrence power
    mixed = default_cost_model().mixed_table(DEFAULT_MIXED_BASES)
    for n in range(2, 4097):
        muls = auto_planner.plan(n).muls
        assert muls <= plan(n, "binary").muls, n
        assert muls <= mixed.count(n), n
    powers = [(p, f"prime:{p}") for p in chains.SMALL_SIZES]
    powers += [(y, "recurrence") for y in chains.RECURRENCE_SIZES[1:5]]
    for base, label in powers:
        n = base
        while n <= 4096:
            assert auto_planner.plan(n).muls <= plan(n, label).muls, (n, label)
            n *= base


def test_auto_puts_reduction_levels_inside_splits():
    # each count needs a level under a split or a split under a level,
    # which no mixed, prime-power, recurrence or splits-only plan can use
    model = CostModel()
    for n, want in ((72, 9), (2032, 17), (4096, 19), (2**24, 40), (3**20, 53)):
        rep = plan(n, "auto", model)
        assert rep.muls == want, (n, rep.muls)
        assert rep.method == "factor"
        if n <= 4096:
            assert passes_oracle(rep.program), n
    assert plan(72, "auto", model).reduction_trace == ((72, 2, 0), (36, 5, 1))


def test_auto_trace_lists_the_program_decisions(auto_planner):
    for n in range(1, 513):
        rep = auto_planner.plan(n)
        assert rep.method == "factor"
        decision = default_cost_model().splits[n][1]
        if decision[0] in ("chain", "recurrence"):
            assert rep.reduction_trace == ()
        else:
            assert rep.reduction_trace[0][0] == n
        if decision[0] == "level":
            # auto's level is the one mixed:11,7,5,3,2 takes at n
            assert plan(n, "mixed").reduction_trace[0] == (n, *decision[1:]), n
        for length, k, residue in rep.reduction_trace:
            if residue == 0:
                assert 1 < k < length and length % k == 0, (n, length, k)
            else:
                assert k in DEFAULT_MIXED_BASES and residue == length % k, (n, length, k)


def test_auto_oracle_sweep_medium(auto_planner):
    for n in range(1, 513):
        for label in ("auto", "binary", "ternary", "mixed:11,7,5,3,2"):
            rep = auto_planner.plan(n) if label == "auto" else plan(n, label)
            assert passes_oracle(rep.program), (n, label)
            assert rep.muls == mul_count(rep.program)


def test_auto_identical_results_across_threads():
    # a fresh model, so the threads fill its factor-split memo concurrently
    planner = AutoPlanner(CostModel())
    lengths = [n for n in range(590, 611) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda n: plan_digest(planner.plan(n).program), lengths))
    finally:
        sys.setswitchinterval(interval)
    assert got == [plan_digest(plan(n, "auto").program) for n in lengths]


def test_factor_memo_stays_within_its_cap(monkeypatch):
    lengths = range(1, 301)
    expected = [plan_digest(plan(n, "auto").program) for n in lengths]
    monkeypatch.setattr("geomseries.planner.MEMO_CAP", 16)
    model = CostModel()
    got = []
    for n in lengths:
        got.append(plan_digest(plan(n, "auto", model).program))
        assert len(model.splits) <= 16
    assert got == expected


def test_a_full_memo_computes_each_state_of_a_call_once(monkeypatch):
    # the memo is full before the call, and the call's 4,218 states fit
    # under the cap, so each of them is filled once
    monkeypatch.setattr("geomseries.planner.MEMO_CAP", 5000)
    model = CostModel()
    for n in range(1, 5001):
        model.splits[n]
    assert len(model.splits) == 5000
    fill, calls = model.splits.fill, []

    def counted(n):
        calls.append(n)
        assert len(calls) <= 4218, "a state of plan(2**36) was computed twice"
        return fill(n)

    model.splits.fill = counted
    assert plan(2**36, "auto", model).muls == 61
    assert len(model.splits) <= 5000


def test_auto_checks_the_count_its_choice_promised():
    # 51 = 5 * 10 + 1 is one level over the plan for 10.  With every shorter
    # length planned under the true costs, level costs that read one low
    # make the promise for 51 alone one multiplication short.
    assert CostModel().splits[51] == (8, ("level", 5, 1))
    model = CostModel()
    for n in range(1, 51):
        model.splits[n]
    true_cost = model.cost
    model.cost = lambda base, residue: true_cost(base, residue) - 1
    with pytest.raises(AssertionError, match="count mismatch for n=51: expected 7, built 8"):
        plan(51, "auto", model)


def test_plan_dispatch_and_labels():
    assert plan(9, "ternary").muls == 4
    assert plan(9, "direct").muls == 7
    assert plan(1024, "prime:2").muls == 18
    assert plan(26, "recurrence").muls == 6
    with pytest.raises(ValueError):
        plan(10, "prime:3")


@pytest.mark.parametrize("n", [0, -1])
def test_every_strategy_rejects_non_positive_lengths(n):
    for spelling in ("auto", "direct", "binary", "ternary", "mixed", "prime:2", "recurrence"):
        with pytest.raises(ValueError, match="series length must be >= 1"):
            plan(n, spelling)


def test_dynamic_program_counts_the_parity_chain_as_the_binary_plan():
    table = CostModel().mixed_table((2,))
    for n in [*range(1, 20000), 2**40 + 12345, 2**47 - 1, 3**30]:
        assert table.count(n) == chain_muls(n), n


def test_direct_plan_is_baseline():
    for n in (1, 2, 5, 9, 40):
        rep = plan(n, "direct")
        assert rep.muls == max(n - 2, 0)
        assert passes_oracle(rep.program)
        assert rep.predicted == float(max(n - 2, 0))
    assert plan(2**16, "direct").muls == 2**16 - 2
    with pytest.raises(ValueError, match="direct plans are capped at length 65536"):
        plan(2**16 + 1, "direct")


def test_long_lengths_plan_whatever_the_level_count():
    # the walker and the parity chain are loops, so no length outruns the stack
    assert plan(2**200, "binary").muls == 398
    assert plan(2**251, "binary").muls == 500
    assert plan(2**300, "prime:2").muls == 598
    assert plan(2**1000, "binary").muls == 1998
    assert plan(2**401, "prime:2").muls == 800
    big = 2**1500 + 1  # its own chain is 1500 parity-rule halvings
    assert plan(big, f"prime:{big}").muls == 2998


def _at_depth(depth: int, call):
    return call() if depth == 0 else _at_depth(depth - 1, call)


def test_planning_deep_in_the_stack():
    # an emitter that recursed once per reduction level would raise
    # RecursionError here: plan runs with 60 frames left below the limit
    depth = sys.getrecursionlimit() - len(inspect.stack()) - 60
    p, x = 2**61 - 1, 3
    for n, spelling, muls in ((2**1000, "binary", 1998), (2**401, "prime:2", 800)):
        rep = _at_depth(depth, lambda: plan(n, spelling, CostModel()))
        assert rep.muls == muls
        assert evaluate_mod(rep.program, x, p) == (pow(x, n, p) - 1) * pow(x - 1, -1, p) % p


def test_auto_length_cap():
    for n in (2**48 + 1, 2**100):
        with pytest.raises(ValueError, match="auto plans are capped at length 281474976710656"):
            plan(n, "auto")
    with pytest.raises(ValueError, match="use mixed:11,7,5,3,2 or binary"):
        AutoPlanner().plan(2**64)


# -- predictions ----------------------------------------------------------------


def test_predicted_cost_prime_power_five():
    for e in (2, 3, 5):
        n = 5**e
        got = predicted_cost(Strategy("prime_power", base=5), n)
        assert got == pytest.approx(4 * math.log2(n) / math.log2(5) - 2, abs=1e-9)
        assert got == pytest.approx(plan(n, "prime:5").muls, abs=1e-9)


def test_predicted_cost_prime_power_eleven_coefficient():
    got = predicted_cost(Strategy("prime_power", base=11), 11**3)
    coefficient = (got + 2) / math.log2(11**3)
    assert coefficient == pytest.approx(6 / math.log2(11), abs=1e-12)
    assert 1.73 < coefficient < 1.74


def test_predicted_cost_recurrence_677_is_exactly_14():
    assert predicted_cost(Strategy("recurrence"), 677) == pytest.approx(14.0)


def test_predicted_cost_binary_and_ternary():
    assert predicted_cost("binary", 1024) == pytest.approx(18.0)
    assert predicted_cost("ternary", 729) == pytest.approx(3 * 6 - 2)


def test_predicted_cost_mixed_small_bases():
    got = predicted_cost(Strategy("mixed", bases=(3, 2)), 2**20)
    assert got == pytest.approx(1.924532421278124 * 20 - 2, abs=1e-6)


def test_predicted_cost_errors():
    with pytest.raises(ValueError):
        predicted_cost("auto", 100)
    with pytest.raises(ValueError):
        predicted_cost("binary", 0)
    with pytest.raises(ValueError):
        predicted_cost(Strategy("recurrence"), 27)
    with pytest.raises(ValueError, match="not a power of 3"):
        predicted_cost("prime:3", 10)
    assert predicted_cost("prime:3", 1) == 0.0


# -- pinned plans -----------------------------------------------------------------

# sha256 over one "n label muls method predicted plan_sha256" line per plan.
# PINNED_PLANS covers every strategy but auto and was first computed before
# the program-level composer and the hand-kept multiplication counts were
# removed: those plans must stay byte-identical.  PINNED_AUTO_PLANS covers
# auto for n <= 1024; a change that moves it must list every moved count.
# PINNED_TRACES is sha256 over one "n label method reduction_trace" line for
# the plans of PINNED_PLANS, the prime:4 and prime:13 powers up to 4096 and
# mixed:13,5,2 at 13 and 169, where a base without a chain meets quotient 1.
# PINNED_DIRECT is sha256 over one "n muls method predicted plan_sha256
# reduction_trace" line per direct plan for n <= 512, 4095, 4096 and 2**16,
# computed while direct had an emitter of its own (1..4096 in full was also
# byte-identical; it takes about a minute, so the test samples it).
# PINNED_SPLITS is sha256 of repr([splits[n] for n in 1..2**14]) on a new
# CostModel, computed while the dynamic program re-emitted the parity chain
# at every length to count it.
PINNED_PLANS = "77347a235d64e7ef47f57fdf8944442c2819f3f23ca07ee0323997ea4425a05e"
PINNED_AUTO_PLANS = "6167d945842802513c52dd9002a4db15bdf0260b7e6da3f29d36c7bd284630a1"
PINNED_TRACES = "c619a67fcb4175cc3e7005299f9cffcffcd22daf1e48854c41ce2195a65f5322"
PINNED_DIRECT = "2ad6288060d3e86b2f923f5711ac7a3d8693029a19b036b5827c3fc7cb455281"
PINNED_SPLITS = "ee9c0bf86c230d737af440595291c01766d6c742c439b793a93e5570cf2d121d"


def _pinned_plan_reports():
    for n in range(1, 1025):
        for label in ("binary", "ternary", "mixed", "mixed:5,3,2", "mixed:13,5,2"):
            yield n, label, plan(n, label)
    for p in (2, 3, 5, 7, 11, 13):
        e = 0
        while p**e <= 4096:
            yield p**e, f"prime:{p}", plan(p**e, f"prime:{p}")
            e += 1
    for y in chains.RECURRENCE_SIZES[1:5]:
        n = y
        while n <= 4096:
            yield n, "recurrence", plan(n, "recurrence")
            n *= y


def _digest(reports) -> str:
    digest = hashlib.sha256()
    for n, label, rep in reports:
        line = f"{n} {label} {rep.muls} {rep.method} {rep.predicted!r} {plan_digest(rep.program)}\n"
        digest.update(line.encode())
    return digest.hexdigest()


def test_plans_are_pinned():
    assert _digest(_pinned_plan_reports()) == PINNED_PLANS


def test_auto_plans_are_pinned():
    auto = AutoPlanner()
    assert _digest((n, "auto", auto.plan(n)) for n in range(1, 1025)) == PINNED_AUTO_PLANS


def test_traces_are_pinned():
    extra = [(4**e, "prime:4") for e in range(7)] + [(13**e, "prime:13") for e in range(4)]
    extra += [(13, "mixed:13,5,2"), (169, "mixed:13,5,2")]
    reports = [*_pinned_plan_reports(), *((n, label, plan(n, label)) for n, label in extra)]
    digest = hashlib.sha256()
    for n, label, rep in reports:
        digest.update(f"{n} {label} {rep.method} {rep.reduction_trace}\n".encode())
    assert digest.hexdigest() == PINNED_TRACES


def test_direct_plans_are_pinned():
    digest = hashlib.sha256()
    for n in [*range(1, 513), 4095, 4096, 2**16]:
        rep = plan(n, "direct")
        line = f"{n} {rep.muls} {rep.method} {rep.predicted!r} {plan_digest(rep.program)}"
        digest.update(f"{line} {rep.reduction_trace}\n".encode())
    assert digest.hexdigest() == PINNED_DIRECT


def test_dynamic_program_splits_are_pinned():
    model = CostModel()
    splits = repr([model.splits[n] for n in range(1, 2**14 + 1)])
    assert hashlib.sha256(splits.encode()).hexdigest() == PINNED_SPLITS
