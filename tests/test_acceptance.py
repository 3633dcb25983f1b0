"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
the measured margins.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from geomseries import chains, linalg, markov
from geomseries.asymptotic import compute_k, verify_floor_identity
from geomseries.chains import RECURRENCE_SIZES
from geomseries.planner import AutoPlanner, default_cost_model, plan
from geomseries.slp import oracle_facts, passes_oracle

VERIFY_MAX = 4096


def _verdict(name: str, detail: str) -> None:
    print(f"[PASS] {name}: {detail}")


def _passes_at_8_bits(program) -> bool:
    # every shipped plan verifies at the narrowest digit, with no retry
    facts = oracle_facts(program)
    return facts.passes and facts.bits == 8 and facts.retries == 0


def test_acceptance_oracle_soundness(auto_planner):
    start = time.perf_counter()
    checked = 0
    for n in range(1, VERIFY_MAX + 1):
        for label in ("auto", "binary", "ternary", "mixed:11,7,5,3,2"):
            rep = auto_planner.plan(n) if label == "auto" else plan(n, label)
            assert _passes_at_8_bits(rep.program), (n, label)
            checked += 1
    for p in (2, 3, 5, 7, 11):
        e = 1
        while p**e <= VERIFY_MAX:
            assert _passes_at_8_bits(plan(p**e, f"prime:{p}").program), (p, e)
            checked += 1
            e += 1
    for level in range(1, 5):
        y = RECURRENCE_SIZES[level]
        m = 1
        while y**m <= VERIFY_MAX:
            assert _passes_at_8_bits(plan(y**m, "recurrence").program), (y, m)
            checked += 1
            m += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _verdict(
        "oracle soundness",
        f"{checked} plans over [1, {VERIFY_MAX}] expand to all-ones ({elapsed:.1f}s)",
    )


def test_acceptance_exact_count_reproduction(auto_planner):
    for n, want in ((5, 2), (7, 3), (11, 4), (25, 6), (26, 6), (677, 14)):
        got = auto_planner.plan(n).muls
        assert got == want, f"length {n}: {got} muls, required {want}"
    per_level = {2: 2, 3: 3, 5: 4, 7: 5, 11: 6}
    for p, per in per_level.items():
        e = 1
        while p**e <= VERIFY_MAX:
            assert plan(p**e, f"prime:{p}").muls == per * e - 2
            e += 1
    for level in range(1, 7):
        assert plan(RECURRENCE_SIZES[level], "recurrence").muls == 2**level - 2
    _verdict(
        "exact count reproduction",
        "5->2 7->3 11->4 25->6 26->6 677->14; P^e and y(n) families exact",
    )


def test_acceptance_markov_three_two():
    res = markov.stationary(markov.build_chain((3, 2)))
    want = (
        Fraction(1, 10),
        Fraction(2, 10),
        Fraction(2, 10),
        Fraction(1, 10),
        Fraction(2, 10),
        Fraction(2, 10),
    )
    assert res.dist == want
    assert abs(res.coefficient - 1.9245) <= 1e-4
    _verdict(
        "markov {3,2}",
        f"stationary exactly (1,2,2,1,2,2)/10, coefficient {res.coefficient:.6f}",
    )


REFERENCE_COEFFICIENTS = {
    (7, 2): 1.9057,
    (7, 3, 2): 1.8749,
    (5, 2): 1.8554,
    (5, 3, 2): 1.8299,
    (7, 5, 3, 2): 1.8106,
    (11, 5, 3, 2): 1.8036,
    (11, 7, 5, 3, 2): 1.7932,
}


def test_acceptance_mixed_basis_coefficients():
    model = default_cost_model()
    lines = []
    for bases, published in REFERENCE_COEFFICIENTS.items():
        res = markov.stationary(markov.build_chain(bases, model))
        gap = res.coefficient - published
        assert abs(gap) <= 0.02, (
            f"bases {bases}: analytic {res.coefficient:.4f} vs published {published} "
            f"(gap {gap:+.4f}); derived cost table: "
            f"{ {(p, r): model.cost(p, r) for p in sorted(bases) for r in range(p)} }"
        )
        slope, stderr = markov.empirical_slope_stats(bases, 3000, (10.0, 40.0), seed=11)
        assert abs(slope - res.coefficient) <= 3 * stderr, (
            f"bases {bases}: Monte-Carlo slope {slope:.4f} +- {stderr:.4f} vs "
            f"analytic {res.coefficient:.4f}"
        )
        lines.append(
            f"{','.join(map(str, bases))}: analytic {res.coefficient:.4f} "
            f"(published {published}, gap {gap:+.4f}; MC slope {slope:.4f}+-{stderr:.4f})"
        )
    _verdict("mixed-basis coefficients", "; ".join(lines))


def test_acceptance_asymptotic_constants():
    res = compute_k(14)
    assert str(res.k) == "1.50283680104976"
    assert str(res.coefficient) == "1.70158214004473"
    rows = verify_floor_identity(5)
    for row in rows:
        assert row.match is True, f"floor undecided or wrong at level {row.n}"
    _verdict(
        "asymptotic constants",
        f"k={res.k}, coefficient={res.coefficient}, floors certified to level 5",
    )


def test_acceptance_matrix_path_equivalence():
    worst = 0.0
    for n in (50, 100):
        a = linalg.random_test_matrix(n, seed=n)
        rho = linalg.spectral_radius_estimate(np.eye(n) - a)
        assert rho.value <= 0.9 + 1e-8
        for terms in range(5, 10):
            fast, rep_fast = linalg.neumann_invert(a, terms, strategy="auto")
            direct, rep_direct = linalg.neumann_invert(a, terms, strategy="direct")
            rel = np.linalg.norm(fast - direct, "fro") / np.linalg.norm(direct, "fro")
            worst = max(worst, rel)
            assert rel <= 1e-8
            assert rep_direct.matrix_muls == terms - 2
            assert rep_fast.matrix_muls == plan(terms, "auto").muls
    _verdict(
        "matrix path equivalence",
        f"direct vs fast agree on n in {{50,100}}, terms 5..9 "
        f"(worst relative difference {worst:.2e}); executed counts match plans",
    )


def test_acceptance_benchmark_ratios_and_speedup(auto_planner):
    want_ratios = {5: (3, 2), 6: (4, 3), 7: (5, 3), 8: (6, 4), 9: (7, 4)}
    for terms, (direct_muls, fast_muls) in want_ratios.items():
        assert plan(terms, "direct").muls == direct_muls
        assert auto_planner.plan(terms).muls == fast_muls
    # executed-count ratios straight off the harness rows
    for cell in linalg.bench([50], list(range(5, 10)), replicates=2, seed=0):
        assert (cell.direct_muls, cell.fast_muls) == want_ratios[cell.terms]
    start = time.perf_counter()
    cells = linalg.bench([250], [7, 9], replicates=100, seed=0)
    elapsed = time.perf_counter() - start
    details = []
    for cell in cells:
        assert cell.path_diff_rel <= 1e-8
        # median of the replicate times: robust against scheduler noise spikes
        assert cell.speedup_median >= 1.2, (
            f"size {cell.size} terms {cell.terms}: median speedup "
            f"{cell.speedup_median:.2f} < 1.2 (mean {cell.speedup:.2f})"
        )
        details.append(
            f"N={cell.terms}: median {cell.speedup_median:.2f}x, mean {cell.speedup:.2f}x"
        )
    assert elapsed < 300.0
    _verdict(
        "benchmark",
        f"count ratios 3:2 4:3 5:3 6:4 7:4 exact; size-250 speedups {', '.join(details)} "
        f"with 100 replicates ({elapsed:.1f}s)",
    )


def test_acceptance_errata_regression():
    flawed11 = chains.flawed_length11_chain()
    flawed26 = chains.flawed_length26_chain()
    assert not passes_oracle(flawed11)
    assert not passes_oracle(flawed26)
    good11 = plan(11, "prime:11")
    good26 = plan(26, "recurrence")
    assert passes_oracle(good11.program) and good11.muls == 4
    assert passes_oracle(good26.program) and good26.muls == 6
    assert flawed11.declared_muls == 4 and flawed26.declared_muls == 6
    _verdict(
        "errata regression",
        "flawed length-11/-26 chains fail the oracle; corrected chains pass at 4 and 6 muls",
    )
