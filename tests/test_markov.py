import functools
import hashlib
import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from geomseries import markov
from geomseries.markov import (
    ReducibleChainError,
    ResidueChain,
    build_chain,
    empirical_coefficient_stats,
    empirical_slope_stats,
    stationary,
)
from geomseries.planner import CostModel, default_cost_model

F = Fraction


def dense(chain):
    """The chain's transition matrix as Fractions, rows indexed by source."""
    out = [[F(0)] * chain.modulus for _ in range(chain.modulus)]
    for i, row in enumerate(chain.rows):
        for t, p in row:
            out[i][t] += p
    return out


def manual_flow(chain, dist):
    """Independent fixed-point check: mass flowing into each state."""
    flow = [F(0)] * chain.modulus
    for i, row in enumerate(chain.rows):
        for t, p in row:
            flow[t] += dist[i] * p
    return flow


def test_three_two_transition_matrix_matches_known_structure():
    chain = build_chain((3, 2))
    third, half, zero = F(1, 3), F(1, 2), F(0)
    # rows indexed by current residue mod 6; columns by next residue
    expected = [
        [third, zero, third, zero, third, zero],
        [third, zero, third, zero, third, zero],
        [zero, half, zero, zero, half, zero],
        [zero, third, zero, third, zero, third],
        [zero, third, zero, third, zero, third],
        [zero, zero, half, zero, zero, half],
    ]
    assert dense(chain) == expected


def test_three_two_policy():
    chain = build_chain((3, 2))
    bases = [chain.policy[j][0] for j in range(6)]
    assert bases == [3, 3, 2, 3, 3, 2]
    costs = [chain.policy[j][1] for j in range(6)]
    assert costs == [3, 3, 2, 3, 3, 2]


def test_three_two_stationary_is_exact():
    res = stationary(build_chain((3, 2)))
    assert res.dist == (F(1, 10), F(2, 10), F(2, 10), F(1, 10), F(2, 10), F(2, 10))
    assert res.base_probs[3] == F(6, 10)
    assert res.base_probs[2] == F(4, 10)
    assert res.mean_cost == F(26, 10)
    assert abs(res.coefficient - 1.9245) <= 1e-4
    assert res.avg_base == pytest.approx(2.0 ** (0.4 + 0.6 * math.log2(3)))


def test_rows_are_exactly_stochastic():
    for bases in ((3, 2), (5, 2), (7, 3, 2), (11, 7, 5, 3, 2)):
        chain = build_chain(bases)
        for row in chain.rows:
            assert sum(p for _, p in row) == 1


def test_stationary_is_exact_fixed_point():
    for bases in ((3, 2), (5, 2), (7, 3, 2)):
        chain = build_chain(bases)
        res = stationary(chain)
        assert sum(res.dist) == 1
        assert manual_flow(chain, list(res.dist)) == list(res.dist)


def test_five_two_stationary_matches_hand_derivation():
    # solved by hand from the balance equations: pi(0) = 3/94
    res = stationary(build_chain((5, 2)))
    assert res.dist[0] == F(3, 94)
    assert res.dist[4] == F(7, 47)
    assert res.base_probs[5] == F(15, 47)
    assert abs(res.coefficient - 1.8554) <= 2e-3


def test_single_base_two_degenerates():
    res = stationary(build_chain((2,)))
    assert res.dist == (F(1, 2), F(1, 2))
    assert res.coefficient == pytest.approx(2.0, abs=1e-12)
    assert res.avg_base == pytest.approx(2.0)


def test_dixon_path_certifies_midsize_chain():
    # modulus 210 takes several refinement steps; re-verify independently
    chain = build_chain((7, 5, 3, 2))
    res = stationary(chain)
    assert sum(res.dist) == 1
    assert manual_flow(chain, list(res.dist)) == list(res.dist)
    assert abs(res.coefficient - 1.8106) <= 0.02


def test_reducible_chain_reports_classes():
    one = F(1)
    chain = ResidueChain(
        bases=(2,),
        modulus=2,
        rows=(((0, one),), ((1, one),)),
        policy=((2, 2), (2, 2)),
    )
    with pytest.raises(ReducibleChainError) as err:
        stationary(chain)
    assert sorted(err.value.classes) == [(0,), (1,)]


def test_transient_states_get_zero_probability():
    one = F(1)
    half = F(1, 2)
    # state 0 leaks into the closed pair {1, 2}
    chain = ResidueChain(
        bases=(2,),
        modulus=3,
        rows=(((1, one),), ((1, half), (2, half)), ((1, half), (2, half))),
        policy=((2, 2), (2, 2), (2, 2)),
    )
    res = stationary(chain)
    assert res.dist == (F(0), F(1, 2), F(1, 2))


def test_modulus_override_keeps_coefficient():
    base = stationary(build_chain((3, 2)))
    bigger = stationary(build_chain((3, 2), modulus=12))
    assert bigger.coefficient == pytest.approx(base.coefficient, abs=1e-12)
    assert bigger.base_probs[3] == base.base_probs[3]


def test_dixon_agrees_with_fraction_elimination():
    # same policy analyzed at modulus 10 and at modulus 70: the stationary
    # quantities must not depend on the modulus the chain is built on
    small = stationary(build_chain((5, 2)))
    lifted = stationary(build_chain((5, 2), modulus=70))
    assert lifted.base_probs[5] == small.base_probs[5]
    assert lifted.mean_cost == small.mean_cost
    assert lifted.coefficient == pytest.approx(small.coefficient, abs=1e-14)


# sha256 of str(stationary(chain).dist), first computed by dense Fraction
# elimination (small chains) and by lifting mod 31-bit primes (large ones):
# the distributions must stay identical as Fractions.
PINNED_DISTRIBUTIONS = {
    ((5, 3, 2), None): "d79ed7d7928c84ec8be90c1d8e67a721b11f8dc7992f4b5accc3b130dcc6bf07",
    ((7, 5, 3, 2), None): "dbcd5e834931cccdd0659103e6c9c7ca90de56d651a9152b7dd65b29f8eed97e",
    ((11, 7, 5, 2), None): "cd51ffe06cdc1c283c31659a724f20eadd469fbd7abf81475a610b9a45d31d01",
    ((11, 7, 5, 3, 2), None): "29d53da02a0a2c021f53cea51616e4c9afd2d7f81a422c74c8e9b89f47692519",
    ((5, 2), 70): "cad570b67d2233976352114e32b2302a9b22a3e93c46ca5c5852a9599a5343cb",
}


@pytest.mark.parametrize("bases,modulus", list(PINNED_DISTRIBUTIONS))
def test_stationary_distribution_is_pinned(bases, modulus):
    res = stationary(build_chain(bases, modulus=modulus))
    digest = hashlib.sha256(str(res.dist).encode()).hexdigest()
    assert digest == PINNED_DISTRIBUTIONS[(bases, modulus)]


# sha256 of the lines str(base_probs), str(mean_cost), repr(coefficient) and
# repr(avg_base), first computed by summing the distribution's Fractions.
PINNED_SUMMARIES = {
    (3, 2): "ed55186cbe067be8320133b95bc32871a594a9319f06a6c08963ce9eddec4f1c",
    (5, 3, 2): "27ed680bb244f2baecce8a2f95a3642d07fd5e91ac8dd0c6aee8d548546d74a3",
    (7, 5, 3, 2): "60d2d4836fff9eb8e302bc4ad18bf78ef454e3113559651622e70c80f2da860a",
    (11, 7, 5, 2): "8a36ae52ca40a9c8e9a343d478703057caa8f813c78ede111b23dfe05bee8d5d",
    (11, 7, 5, 3, 2): "c42dc1e70c7702f9c9b15ce7605579f8424c69df8d4899a23ace9acdb5415251",
}


@pytest.mark.parametrize("bases", list(PINNED_SUMMARIES))
def test_stationary_summary_is_pinned(bases):
    res = stationary(build_chain(bases))
    text = "\n".join(
        (str(res.base_probs), str(res.mean_cost), repr(res.coefficient), repr(res.avg_base))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SUMMARIES[bases]


def test_single_state_closed_class():
    one = F(1)
    # 0 -> 1 and 2 -> 0 are transient; 1 is absorbing
    chain = ResidueChain(
        bases=(2,),
        modulus=3,
        rows=(((1, one),), ((1, one),), ((0, one),)),
        policy=((2, 2), (2, 2), (2, 2)),
    )
    res = stationary(chain)
    assert res.dist == (F(0), F(1), F(0))
    assert res.solver.states == 1
    alone = stationary(ResidueChain((2,), 1, (((0, one),),), ((2, 2),)))
    assert alone.dist == (F(1),)
    assert alone.coefficient == pytest.approx(2.0)


def test_row_probabilities_need_not_be_uniform():
    # pi_0 = pi_0 / 3 + pi_1 / 2 gives (3/7, 4/7), whatever the policy's base
    chain = ResidueChain(
        bases=(2,),
        modulus=2,
        rows=(((0, F(1, 3)), (1, F(2, 3))), ((0, F(1, 2)), (1, F(1, 2)))),
        policy=((2, 2), (2, 2)),
    )
    assert stationary(chain).dist == (F(3, 7), F(4, 7))


@pytest.mark.parametrize("scale", [F(5, 6), F(7, 6), F(0)])
def test_non_stochastic_row_is_rejected_up_front(scale):
    chain = build_chain((7, 5, 3, 2))
    rows = list(chain.rows)
    rows[0] = tuple((t, q * scale) for t, q in rows[0])
    bad = ResidueChain(chain.bases, chain.modulus, tuple(rows), chain.policy)
    with pytest.raises(ValueError, match="row 0 ") as err:
        stationary(bad)
    assert not isinstance(err.value, ReducibleChainError)


def test_transient_states_feed_the_three_two_chain():
    inner = build_chain((3, 2))
    # residues 0..5 each leak into their copy 6..11 of the {3,2} chain
    chain = ResidueChain(
        bases=(3, 2),
        modulus=12,
        rows=tuple(((j + 6, F(1)),) for j in range(6))
        + tuple(tuple((t + 6, q) for t, q in row) for row in inner.rows),
        policy=inner.policy * 2,
    )
    res = stationary(chain)
    assert res.dist == (F(0),) * 6 + stationary(inner).dist
    assert res.solver.states == 6


def fraction_gauss_jordan(chain):
    """Reference stationary distribution: pi (P - I) = 0 with the last
    balance equation replaced by sum(pi) = 1, eliminated in Fractions."""
    n = chain.modulus
    matrix = dense(chain)
    aug = [[matrix[j][t] - (j == t) for j in range(n)] + [F(0)] for t in range(n - 1)]
    aug.append([F(1)] * (n + 1))
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w if w else v for v, w in zip(aug[i], aug[col])]
    return tuple(row[n] for row in aug)


def random_chain(rng):
    """1-40 states; one closed class, strongly connected through a random
    cycle, and transient states that each reach it.  Each row normalizes
    weights whose denominators are mixed from 2 to 12."""
    n = rng.randint(1, 40)
    states = list(range(n))
    rng.shuffle(states)
    closed = states[: rng.randint(1, n)]
    succ = {}
    for i, j in enumerate(closed):
        extra = rng.sample(closed, rng.randint(0, min(3, len(closed))))
        succ[j] = {closed[(i + 1) % len(closed)], *extra}
    for j in states[len(closed) :]:
        succ[j] = {rng.choice(closed), *rng.sample(states, rng.randint(0, 2))}
    rows = []
    for j in range(n):
        targets = sorted(succ[j])
        raw = [F(rng.randint(1, 3), rng.randint(2, 12)) for _ in targets]
        total = sum(raw)
        rows.append(tuple((t, w / total) for t, w in zip(targets, raw)))
    return ResidueChain((2,), n, tuple(rows), ((2, 2),) * n)


def test_random_chains_match_fraction_elimination():
    rng = random.Random(20261018)
    with_transients = 0
    for _ in range(60):
        chain = random_chain(rng)
        res = stationary(chain)
        assert res.dist == fraction_gauss_jordan(chain)
        assert res.solver.steps >= 1 and res.solver.bits >= res.solver.steps
        with_transients += res.solver.states < chain.modulus
    assert with_transients >= 20


def wide_row_chain(rng, n, bits):
    """n states in one cycle with extra edges; every row splits one common
    denominator of ``bits`` bits into 2-5 positive numerators."""
    rows = []
    for j in range(n):
        targets = sorted({(j + 1) % n, (j + 2) % n, *rng.sample(range(n), rng.randint(0, 3))})
        q = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        cuts = sorted(rng.sample(range(1, 1 << 32), len(targets) - 1))
        cuts = [c * (q >> 32) for c in cuts]
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, q])]
        rows.append(tuple((t, F(w, q)) for t, w in zip(targets, weights)))
    return ResidueChain((2,), n, tuple(rows), ((2, 2),) * n)


def test_rows_of_52_bits_match_fraction_elimination():
    chain = wide_row_chain(random.Random(52), 12, 52)
    assert stationary(chain).dist == fraction_gauss_jordan(chain)


def test_row_past_the_int64_limit_is_a_value_error():
    chain = ResidueChain(
        bases=(2,),
        modulus=2,
        rows=(((0, F(1, 2**64)), (1, 1 - F(1, 2**64))), ((0, F(1, 2)), (1, F(1, 2)))),
        policy=((2, 2), (2, 2)),
    )
    with pytest.raises(ValueError, match=r"row 0 .*int64 limit 2\^63"):
        stationary(chain)


@pytest.mark.parametrize("bases", [(2,), (3, 2), (7, 5, 3, 2), (11, 7, 5, 2)])
def test_poor_float_inverse_raises_instead_of_returning(monkeypatch, bases):
    # 770 states run the poisoned LAPACK leaves through the block recursion
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) / 2)
    with pytest.raises(markov.CertificationError, match="refinement step 1 gains no bit"):
        stationary(build_chain(bases))


def stationary_system(bases):
    """The float64 system that _refine_solve inverts for the chain of ``bases``,
    a fresh copy of one build per chain."""
    return _stationary_system(bases).copy()


@functools.cache
def _stationary_system(bases):
    chain = build_chain(bases)
    states = list(markov._closed_classes(chain)[0])
    rows, cols, vals, _ = markov._integer_system(chain, states, markov._row_scales(chain))
    m = len(states)
    return np.bincount(rows * m + cols, vals, m * m).reshape(m, m)


def seeded_system(m, seed):
    """A system shaped like the chains': non-negative off-diagonal entries,
    each diagonal entry minus its column's off-diagonal sum, a cycle through
    every state and a last row of positive weights."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 12, (m, m)) * (rng.random((m, m)) < 0.05)
    a[(np.arange(m) + 1) % m, np.arange(m)] += 1
    np.fill_diagonal(a, 0)
    a -= np.diag(a.sum(axis=0))
    a[-1] = rng.integers(1, 12, m)
    return a.astype(np.float64)


@pytest.mark.parametrize(
    "system",
    [
        lambda: stationary_system((7, 5, 3, 2)),
        lambda: stationary_system((11, 7, 5, 2)),
        lambda: stationary_system((11, 7, 5, 3, 2)),
        lambda: seeded_system(markov._LEAF_ROWS + 1, 129),  # one block level
    ],
    ids=["m210", "m770", "m2310", "seeded-m129"],
)
def test_block_inverse_matches_lapack_in_place(system):
    a = system()
    expected = np.linalg.inv(a)
    got = markov._inverse_in_place(a)
    assert got is a
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_refine_solve_holds_one_system_matrix_and_its_temporaries():
    # the system matrix plus under one matrix of block temporaries; an
    # inverse beside the system matrix, as LAPACK's is, reads 2.06
    chain = build_chain((11, 7, 5, 2))
    states = list(markov._closed_classes(chain)[0])
    scales = markov._row_scales(chain)
    tracemalloc.start()
    try:
        markov._refine_solve(chain, states, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(states) == 770
    assert peak < 1.9 * 8 * 770**2


def test_refine_solve_holds_the_system_and_a_quarter_matrix_of_scratch():
    # 1.33 matrices: the system, the inverse's ceil(m/2)^2 scratch and the
    # refinement's vectors; a fresh array per block product reads 1.58
    chain = build_chain((11, 7, 5, 2))
    states = list(markov._closed_classes(chain)[0])
    scales = markov._row_scales(chain)
    tracemalloc.start()
    try:
        markov._refine_solve(chain, states, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(states) == 770
    assert peak < 1.4 * 8 * 770**2


def reference_block_inverse(a):
    """The six-product block recursion with a fresh array for T and for
    each product: _inverse_in_place must match it bit for bit."""
    m = a.shape[0]
    if m <= markov._LEAF_ROWS:
        a[...] = np.linalg.inv(a)
        return a
    k = m // 2
    a11, a12, a21, a22 = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]
    reference_block_inverse(a11)
    t = a11 @ a12
    a22 -= a21 @ t
    reference_block_inverse(a22)
    np.matmul(a22, a21 @ a11, out=a21)
    np.negative(a21, out=a21)
    a11 -= t @ a21
    np.matmul(t, a22, out=a12)
    np.negative(a12, out=a12)
    return a


# odd seeded sizes split into unequal halves, 771 three levels deep
BLOCK_SYSTEMS = {
    "m210": lambda: stationary_system((7, 5, 3, 2)),
    "m770": lambda: stationary_system((11, 7, 5, 2)),
    "m2310": lambda: stationary_system((11, 7, 5, 3, 2)),
    **{f"seeded-m{m}": lambda m=m: seeded_system(m, m) for m in (129, 257, 771)},
}


@functools.cache
def traced_block_inverse(name):
    """_inverse_in_place of the named system and its tracemalloc peak above it."""
    a = BLOCK_SYSTEMS[name]()
    tracemalloc.start()
    try:
        markov._inverse_in_place(a)
        return a, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", list(BLOCK_SYSTEMS))
def test_block_inverse_is_bit_identical_to_the_six_product_reference(name):
    got, _ = traced_block_inverse(name)
    assert np.array_equal(got, reference_block_inverse(BLOCK_SYSTEMS[name]()))


@pytest.mark.parametrize("name", ["m210", "m770", "m2310"])
def test_factored_solve_matches_the_explicit_inverse(name):
    a = BLOCK_SYSTEMS[name]()
    inv = reference_block_inverse(a.copy())
    solve = markov._factored_solver(a)
    rng = np.random.default_rng(len(a))
    for bits in (1, 30, 61):
        r = rng.integers(-(2**bits), 2**bits, len(a), dtype=np.int64)
        expected = inv @ r
        assert np.linalg.norm(solve(r) - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", ["seeded-m771", "m2310"])
def test_block_inverse_needs_one_scratch_of_half_the_rows(name):
    # the shared scratch, one LAPACK leaf's inverse and its workspace; a
    # fresh array per product reads about twice the scratch
    got, peak = traced_block_inverse(name)
    m = got.shape[0]
    assert peak <= 8 * ((m - m // 2) ** 2 + 2 * markov._LEAF_ROWS**2) + 64 * 1024


def test_step_above_its_promised_residual_raises(monkeypatch):
    # claiming 8 bits more than the float residual vouches for leaves an
    # exact residual far above the bound the step promised
    monkeypatch.setattr(markov, "_SAFETY_BITS", -8)
    with pytest.raises(markov.CertificationError, match="refinement step 1: exact residual .* exceeds"):
        stationary(build_chain((3, 2)))


def test_the_mixed_table_is_the_one_memo_of_a_solve(monkeypatch):
    solves = []
    refine = markov._refine_solve

    def counted(*args):
        solves.append(args[0].modulus)
        return refine(*args)

    monkeypatch.setattr(markov, "_refine_solve", counted)
    table = CostModel().mixed_table((3, 2))
    assert table.coefficient == table.coefficient
    assert solves == [6]
    chain = build_chain((3, 2))
    first, second = stationary(chain), stationary(chain)
    assert first == second and first is not second
    assert solves == [6, 6, 6]


def test_integer_certificate_accepts_only_exact_fixed_points():
    chain = build_chain((3, 2))
    scales = markov._row_scales(chain)
    assert markov._verify_fixed_point(chain, scales, [1, 2, 2, 1, 2, 2], 10)
    assert markov._verify_fixed_point(chain, scales, [2, 4, 4, 2, 4, 4], 20)
    # sums to 1, but not a fixed point
    assert not markov._verify_fixed_point(chain, scales, [2, 1, 2, 1, 2, 2], 10)
    # a negative entry in a candidate that sums to 1
    assert not markov._verify_fixed_point(chain, scales, [-1, 3, 2, 2, 2, 2], 10)
    # the wrong length, with every other condition met
    assert not markov._verify_fixed_point(chain, scales, [1, 2, 2, 1, 2, 2, 0], 10)
    assert not markov._verify_fixed_point(chain, scales, [0] * 6, 0)


def test_integer_certificate_at_770_states():
    chain = build_chain((11, 7, 5, 2))
    scales = markov._row_scales(chain)
    nums, den, _ = markov._refine_solve(chain, list(markov._closed_classes(chain)[0]), scales)
    assert len(nums) == 770
    assert markov._verify_fixed_point(chain, scales, nums, den)
    assert markov._verify_fixed_point(chain, scales, [2 * v for v in nums], 2 * den)
    i, k = [j for j, v in enumerate(nums) if v][:2]
    # one unit moved between two states: sums to 1, but not a fixed point
    moved = list(nums)
    moved[i] -= 1
    moved[k] += 1
    assert not markov._verify_fixed_point(chain, scales, moved, den)
    negative = list(nums)
    negative[i], negative[k] = -1, nums[k] + nums[i] + 1
    assert sum(negative) == den
    assert not markov._verify_fixed_point(chain, scales, negative, den)
    assert not markov._verify_fixed_point(chain, scales, [*nums, 0], den)


def test_chain_policy_is_the_walker_table():
    # a level above the table's threshold costs exactly the chain's policy
    # entry for its residue class, so chain and count cannot disagree
    model = CostModel()
    for bases in ((3, 2), (7, 5, 3, 2), (9, 2), (2,)):
        chain = build_chain(bases, model)
        table = model.mixed_table(bases)
        assert chain.policy == tuple(table.policy[j] for j in range(table.modulus))
        for n in range(table.threshold, table.threshold + 2 * chain.modulus):
            base, cost = chain.policy[n % chain.modulus]
            assert table.count(n) == cost + table.count((n - n % base) // base)


def sorted_chain_rows(bases, modulus=None):
    """Rows built one Fraction per row, with targets reduced mod m and sorted."""
    table = default_cost_model().mixed_table(bases)
    m = modulus or table.modulus
    rows = []
    for j in range(m):
        base, _ = table.policy[j % table.modulus]
        targets = sorted((s * (m // base) + j // base) % m for s in range(base))
        rows.append(tuple((t, Fraction(1, base)) for t in targets))
    return tuple(rows)


@pytest.mark.parametrize(
    "bases,modulus",
    [((3, 2), 6), ((3, 2), 12), ((11, 7, 5, 2), None), ((11, 7, 5, 3, 2), 2310), ((11, 7, 5, 3, 2), 4620)],
)
def test_chain_rows_need_no_sort(bases, modulus):
    chain = build_chain(bases, modulus=modulus)
    assert chain.rows == sorted_chain_rows(bases, modulus)


def test_chains_of_equal_bases_are_equal():
    assert build_chain((5, 3, 2)) == build_chain((5, 3, 2), CostModel())


def test_chains_hash_alike_and_stay_frozen():
    chain = build_chain((5, 3, 2))
    assert hash(chain) == hash(build_chain((5, 3, 2), CostModel()))
    given = ResidueChain(chain.bases, chain.modulus, chain.rows, chain.policy)
    assert given == chain and len({chain, given}) == 1
    assert chain != build_chain((5, 3, 2), modulus=60)
    with pytest.raises(FrozenInstanceError):
        chain.modulus = 60


def reference_integer_system(chain, states):
    """The COO triples built from the Fraction rows, one lcm per row and one
    tuple per edge: _integer_system must match them bit for bit."""
    m = len(states)
    pos = {s: i for i, s in enumerate(states)}
    scale = [math.lcm(*(p.denominator for _, p in chain.rows[s])) for s in states]
    edges = [
        (pos[t], j, q.numerator * (scale[j] // q.denominator))
        for j, s in enumerate(states)
        for t, q in chain.rows[s]
    ]
    edges = np.array([e for e in edges if e[0] < m - 1], dtype=np.int64).reshape(-1, 3)
    scale, diag = np.array(scale, dtype=np.int64), np.arange(m)
    rows = np.concatenate([edges[:, 0], diag[:-1], np.full(m, m - 1)])
    cols = np.concatenate([edges[:, 1], diag[:-1], diag])
    vals = np.concatenate([edges[:, 2], -scale[:-1], scale])
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], vals[order], scale


@pytest.mark.parametrize(
    "bases,modulus", [((3, 2), 6), ((3, 2), 12), ((11, 7, 5, 2), None), ((11, 7, 5, 3, 2), 2310)]
)
def test_integer_system_is_the_fraction_rows_bit_for_bit(bases, modulus):
    chain = build_chain(bases, modulus=modulus)
    states = list(markov._closed_classes(chain)[0])
    reference = ResidueChain(chain.bases, chain.modulus, sorted_chain_rows(bases, modulus), chain.policy)
    expected = reference_integer_system(reference, states)
    given = ResidueChain(chain.bases, chain.modulus, chain.rows, chain.policy)
    for c in (chain, reference, given):
        got = markov._integer_system(c, states, markov._row_scales(c))
        assert [a.dtype for a in got] == [a.dtype for a in expected]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert markov._closed_classes(given) == markov._closed_classes(chain)
    assert stationary(given) == stationary(chain)


def test_build_chain_allocates_its_arrays_and_little_more():
    build_chain((11, 7, 5, 3, 2), modulus=4620)  # fills the level table
    tracemalloc.start()
    try:
        chain = build_chain((11, 7, 5, 3, 2), modulus=4620)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    edges = len(chain._csr[1])
    # the CSR arrays, the policy tuple and two edge arrays of temporaries;
    # a (target, Fraction) pair per edge alone would add 64 bytes an edge
    assert peak <= sum(a.nbytes for a in chain._csr) + 8 * 4620 + 2 * 8 * edges + 16 * 1024


def two_state_chain(rows, policy=((2, 2), (2, 2))):
    return ResidueChain((2,), 2, rows, policy)


HALVES = ((0, F(1, 2)), (1, F(1, 2)))
MALFORMED_CHAINS = {
    "negative-target": ((((0, F(1, 2)), (-1, F(1, 2))), ((0, F(1)),)), r"row 0 .*target -1"),
    "target-at-modulus": ((((0, F(1, 2)), (2, F(1, 2))), ((0, F(1)),)), r"row 0 .*target 2"),
    "float-probability": ((HALVES, ((0, 0.25), (1, F(3, 4)))), r"row 1 .*probability 0.25"),
    "short-policy": ((HALVES, HALVES), r"row 1 .*1 policy entries", ((2, 2),)),
    "short-rows": ((HALVES,), r"row 1 .*1 rows"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CHAINS))
def test_malformed_chain_is_rejected_naming_its_row(case):
    rows, message, *policy = MALFORMED_CHAINS[case]
    chain = two_state_chain(rows, *policy)
    assert chain == two_state_chain(rows, *policy)
    with pytest.raises(ValueError, match=message) as err:
        stationary(chain)
    assert not isinstance(err.value, ReducibleChainError)


def test_build_chain_validation():
    with pytest.raises(ValueError):
        build_chain((2, 2))
    with pytest.raises(ValueError):
        build_chain((1,))
    with pytest.raises(ValueError):
        build_chain((3, 2), modulus=7)


def test_build_chain_refuses_more_states_than_its_cap():
    assert build_chain((3, 2), modulus=4620).modulus == 4620
    for bases, modulus in (((13, 11, 7, 5, 3, 2), None), ((3, 2), 4626)):
        with pytest.raises(ValueError, match="residue chains are capped at 4620 states"):
            build_chain(bases, modulus=modulus)
    with pytest.raises(ValueError, match="capped at 4620 states, got 30030"):
        CostModel().mixed_table((13, 11, 7, 5, 3, 2)).coefficient


def test_mixed_bases_are_checked_in_one_place():
    # the strategy, the count walker and the chain share one check
    for call in (
        lambda: default_cost_model().mixed_table((2, 2)).count(10),
        lambda: CostModel().mixed_table((3, 3)).count(10**6),
        lambda: build_chain((2, 2)),
    ):
        with pytest.raises(ValueError, match="pairwise distinct"):
            call()


def test_empirical_coefficient_three_two():
    got = empirical_coefficient_stats((3, 2), 800, (10**3, 10**6), seed=7)[0]
    assert abs(got - 1.9245) <= 0.03


def test_empirical_coefficient_single_base_two():
    got = empirical_coefficient_stats((2,), 500, (10**3, 10**6), seed=7)[0]
    assert abs(got - 2.0) <= 0.08  # exact up to the 2/log2(N)-scale correction


def test_empirical_five_three_two_near_analytic():
    got, stderr = empirical_coefficient_stats((5, 3, 2), 2000, (10**3, 10**6), seed=9)
    assert abs(got - 1.8299) <= 0.02
    assert stderr < 0.01


def test_slope_estimator_agrees_within_three_stderr():
    for bases in ((3, 2), (5, 3, 2)):
        analytic = stationary(build_chain(bases)).coefficient
        slope, stderr = empirical_slope_stats(bases, 3000, (10.0, 40.0), seed=11)
        assert abs(slope - analytic) <= 3 * stderr


def test_empirical_validation():
    with pytest.raises(ValueError):
        empirical_coefficient_stats((3, 2), 1, (10, 100), 0)
    with pytest.raises(ValueError):
        empirical_coefficient_stats((3, 2), 10, (1, 100), 0)
    with pytest.raises(ValueError):
        empirical_slope_stats((3, 2), 2, (10.0, 20.0), 0)
    for empty in ((20.0, 20.0), (20.0, 10.0), (0.5, 10.0)):
        with pytest.raises(ValueError, match="need 1 <= lo < hi exponents"):
            empirical_slope_stats((3, 2), 10, empty, 0)
    # 2**hi must stay a finite float
    for unbounded in ((1.0, float("inf")), (10.0, 1024.0), (10.0, 2000.0)):
        with pytest.raises(ValueError, match="need hi < 1024"):
            empirical_slope_stats((3, 2), 10, unbounded, 0)
    assert empirical_slope_stats((3, 2), 10, (1000.0, 1023.5), 0)[0] > 0


def test_slope_over_a_single_length_names_the_exponent_range():
    # every sample of 2**u for u in [1, 1.5) is N = 2, so no slope exists
    with pytest.raises(ValueError, match=r"exponent range \(1.0, 1.5\)"):
        empirical_slope_stats((3, 2), 10, (1.0, 1.5))


COUNT_RANGES = {
    "below-threshold": lambda t: (1, t - 1),
    "int64": lambda t: (2, 2**62),
    "int64-edge": lambda t: (2**63 - 50, 2**63 + 50),
    "uint64": lambda t: (2**63, 2**64 - 1),
    "beyond-64-bits": lambda t: (2**64, 2**80),
}


@pytest.mark.parametrize("span", list(COUNT_RANGES))
@pytest.mark.parametrize("bases", [(11, 7, 5, 3, 2), (3, 2), (2,), (7,)], ids=str)
def test_batched_count_is_the_table_count(bases, span):
    table = default_cost_model().mixed_table(bases)
    rng = random.Random(f"{bases}{span}")
    lo, hi = COUNT_RANGES[span](table.threshold)
    lengths = [rng.randint(lo, hi) for _ in range(300)]
    assert markov._count_all(table, lengths) == [table.count(n) for n in lengths]


def test_batched_count_mixes_int64_and_wider_lengths():
    table = default_cost_model().mixed_table((5, 3, 2))
    lengths = [2**63, 5, 2**64 + 3, 2**63 - 1, 1]
    assert markov._count_all(table, lengths) == [table.count(n) for n in lengths]


# exact floats of the per-sample count loop, which the batched count must keep
PINNED_ESTIMATES = [
    (empirical_slope_stats, ((3, 2), 400, (10.0, 40.0), 1), (1.927609591007011, 0.0023290529368430327)),
    (empirical_slope_stats, ((11, 7, 5, 3, 2), 400, (20.0, 70.0), 2), (1.7889054183311317, 0.0031637514713863174)),
    (empirical_slope_stats, ((2,), 300, (1.0, 64.5), 5), (1.9986540008270461, 0.0009581243283715353)),
    (empirical_coefficient_stats, ((5, 3, 2), 400, (10**3, 10**12), 3), (1.8293049768391827, 0.0012943944896789184)),
    (empirical_coefficient_stats, ((11, 7, 5, 2), 300, (2**60, 2**70), 4), (1.8021403590727016, 0.0010635456295255631)),
]


@pytest.mark.parametrize("call", PINNED_ESTIMATES, ids=lambda c: f"{c[0].__name__}-{c[1][0]}")
def test_estimates_are_pinned(call):
    estimator, args, expected = call
    assert estimator(*args) == expected
