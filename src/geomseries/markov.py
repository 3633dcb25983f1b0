"""Residue-chain analysis of mixed-base reduction policies.

Reducing a length N one level at a time maps N to (N - N mod P) / P for
the policy's chosen base P, so the residue of N modulo a fixed modulus M
(divisible by every base) walks a Markov chain: conditioned on the
current residue, the quotient's residue is uniform over the P classes
consistent with the division.  The stationary distribution of that chain
gives the long-run probability of each base, hence the expected
multiplications per level and, after normalizing by the expected bits
removed per level, the asymptotic coefficient in front of log2(N).

All chain data is exact rational.  The stationary solve returns exact
rationals too: every closed class, whatever its size, is solved by p-adic
lifting modulo a prime below 2^20 whose LU runs as exact float64 BLAS
products, and the candidate is then *verified* as an exact fixed point,
in integers over its common denominator, so a returned distribution is
certified regardless of how it was found.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .planner import CostModel, default_cost_model


class ReducibleChainError(ValueError):
    """The chain has several closed classes; no unique stationary distribution."""

    def __init__(self, classes: list[tuple[int, ...]]) -> None:
        self.classes = classes
        super().__init__(
            f"chain has {len(classes)} closed recurrent classes: "
            + "; ".join(str(list(c)) for c in classes)
        )


@dataclass(frozen=True)
class ResidueChain:
    """Row-stochastic transition structure over residues mod ``modulus``.

    ``rows[j]`` lists (target, probability) pairs; ``policy[j]`` is the
    (base, per-level multiplications) the planner's rule picks in
    residue class j.  The hash leaves out the rows, whose Fractions are
    costly to hash; equal chains still hash equal.
    """

    bases: tuple[int, ...]
    modulus: int
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]
    policy: tuple[tuple[int, int], ...]

    def __hash__(self) -> int:
        return hash((self.bases, self.modulus, self.policy))

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.modulus for _ in range(self.modulus)]
        for i, row in enumerate(self.rows):
            for t, p in row:
                out[i][t] += p
        return out


@dataclass(frozen=True)
class SolverFacts:
    """How an exact stationary solve went: the closed-class size, the prime
    that certified, and the p-adic digits lifted and reconstructions tried,
    both counted over every prime tried."""

    states: int
    prime: int
    digits: int
    reconstructions: int


@dataclass(frozen=True)
class StationaryResult:
    """Exact stationary distribution and the derived cost coefficient.

    ``coefficient`` is mean multiplications per level divided by mean
    bits removed per level: the factor in front of log2(N) for large N.
    ``solver`` records how the exact solve went.
    """

    dist: tuple[Fraction, ...]
    base_probs: dict[int, Fraction]
    mean_cost: Fraction
    avg_base: float
    coefficient: float
    solver: SolverFacts


def build_chain(
    bases: tuple[int, ...],
    model: CostModel | None = None,
    modulus: int | None = None,
) -> ResidueChain:
    """Chain for the given bases on residues mod lcm(bases) by default.

    A larger modulus (any common multiple) may be passed for sensitivity
    checks; the stationary coefficient must not depend on it.
    """
    bases = tuple(bases)
    if not bases or min(bases) < 2 or len(set(bases)) != len(bases):
        raise ValueError("bases must be distinct integers >= 2")
    table = (model or default_cost_model()).mixed_table(bases)
    m = table.modulus
    if modulus is not None:
        if modulus % m != 0:
            raise ValueError(f"modulus must be a multiple of {m}")
        m = modulus
    rows = []
    policy = []
    for j in range(m):
        base, cost = table.policy[j % table.modulus]
        policy.append((base, cost))
        step = m // base
        d = j // base
        prob = Fraction(1, base)
        rows.append(tuple(sorted((s * step + d) % m for s in range(base))))
        rows[-1] = tuple((t, prob) for t in rows[-1])
    return ResidueChain(bases, m, tuple(rows), tuple(policy))


# -- stationary distribution -------------------------------------------------


def _closed_classes(chain: ResidueChain) -> list[tuple[int, ...]]:
    """Strongly connected classes that no edge leaves, by iterative Tarjan."""
    succ = [[t for t, _ in row] for row in chain.rows]
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    done: set[int] = set()
    closed = []
    for root in range(len(succ)):
        work = [] if root in index else [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            if v not in index:
                index[v] = low[v] = len(index)
                stack.append(v)
            for w in targets:
                if w not in index:
                    work.append((w, iter(succ[w])))
                    break
                if w not in done:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while stack and index[stack[-1]] >= index[v]:
                        comp.add(stack.pop())
                    done |= comp
                    if all(t in comp for u in comp for t in succ[u]):
                        closed.append(tuple(sorted(comp)))
    return closed


def _verify_fixed_point(chain: ResidueChain, scales: list[int], nums: list[int], den: int) -> bool:
    """Whether nums / den is an exact stationary distribution of ``chain``.

    Checked in integers: the numerators are >= 0 and sum to den > 0, and with
    Lq = lcm(scales), the row denominators from _row_scales, the flow into
    every t, sum_j nums_j * (p_jt * Lq), equals nums_t * Lq.
    """
    if len(nums) != chain.modulus or den <= 0 or any(v < 0 for v in nums) or sum(nums) != den:
        return False
    lq = math.lcm(*scales)
    flow = [0] * chain.modulus
    for v, row in zip(nums, chain.rows):
        if v:
            for t, p in row:
                flow[t] += v * (p.numerator * (lq // p.denominator))
    return flow == [v * lq for v in nums]


# The system is solved mod a prime p < 2^20 in float64.  A product of two
# residues is below 2^40, so a BLAS product of inner dimension at most
# _EXACT_INNER sums integers below (p - 1)^2 * 8192 < 2^53 - 2^34: it is
# exact in any summation order and at any BLAS thread count.
_SOLVE_PRIMES = (1048573, 1048571, 1048559)
_EXACT_INNER = 8192
_BLOCK = 64
_MAX_PADIC_DIGITS = 1024
_CHECKPOINT_GROWTH = 1.25  # reconstruct each time p^k grows by this factor in bits
_STATIONARY_CACHE_SIZE = 8


def _row_scales(chain: ResidueChain) -> list[int]:
    """Common denominator Q_j of each row's probabilities, after checking in
    integers that the row is stochastic: every numerator over Q_j positive,
    and the numerators summing to exactly Q_j."""
    scales = []
    for j, row in enumerate(chain.rows):
        q = math.lcm(*(p.denominator for _, p in row))
        nums = [p.numerator * (q // p.denominator) for _, p in row]
        if min(nums, default=0) <= 0 or sum(nums) != q:
            raise ValueError(
                f"row {j} of the chain is not stochastic: its probabilities "
                f"must be positive and sum to 1, got {[str(p) for _, p in row]}"
            )
        scales.append(q)
    return scales


def _integer_system(
    chain: ResidueChain, states: list[int], scales: list[int]
) -> tuple[np.ndarray, ...]:
    """Integer form of the stationary system after column scaling.

    With Q_j = scales[j], the common denominator of row j's probabilities
    (the base P_j of a residue chain), and y_j = pi_j / Q_j, balance row t
    gets Q_j q for each edge j -> t of probability q and -Q_t on the
    diagonal; the last row is the normalization sum(Q_j y_j) = 1.
    Returns COO triples and the Q_j of ``states``.
    """
    m = len(states)
    pos = {s: i for i, s in enumerate(states)}
    scale = [scales[s] for s in states]
    edges = [
        (pos[t], j, q.numerator * (scale[j] // q.denominator))
        for j, s in enumerate(states)
        for t, q in chain.rows[s]
    ]
    edges = np.array([e for e in edges if e[0] < m - 1], dtype=np.int64).reshape(-1, 3)
    scale, diag = np.array(scale, dtype=np.int64), np.arange(m)
    rows = np.concatenate([edges[:, 0], diag[:-1], np.full(m, m - 1)])
    cols = np.concatenate([edges[:, 1], diag[:-1], diag])
    vals = np.concatenate([edges[:, 2], -scale[:-1], scale]).astype(np.float64)
    return rows, cols, vals, scale


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p into [0, p), in place, for integer-valued |x| <= 2^53 - p.  floor(x * (1/p))
    is off by at most one, which the masked corrections absorb; np.fmod is far slower."""
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _matvec(a: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """A vector congruent to a @ x mod p with entries below (p - 1)^2 * 8192."""
    if a.shape[1] <= _EXACT_INNER:
        return a @ x
    out = np.zeros(a.shape[0])
    for s in range(0, a.shape[1], _EXACT_INNER):
        out += _reduce(a[:, s : s + _EXACT_INNER] @ x[s : s + _EXACT_INNER], p)
    return out


def _unit_triangular_inverse(n: np.ndarray, p: int) -> np.ndarray:
    """(I - n)^-1 mod p for a stack of strictly triangular, hence nilpotent, blocks
    n: the finite geometric series I + n + n^2 + ... as (I + n)(I + n^2)(I + n^4)..."""
    eye = np.eye(n.shape[-1])
    inv, span = eye + n, 2
    while span < n.shape[-1]:
        n = _reduce(n @ n, p)
        inv, span = _reduce(inv @ (eye + n), p), 2 * span
    return inv


def _factor_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Blocked LU mod p of the reduced, column-major a in place: a[perm] = L U.

    Returns perm and the stacked inverses of the diagonal blocks of L and U,
    or None if a is singular mod p.  A panel step reduces only the pivot
    column and row.  The block row is one product with the L block inverse;
    the trailing update is one BLAS product, reduced only when a panel or
    block row reads it or its inner dimension could pass _EXACT_INNER.
    """
    m = a.shape[0]
    perm = np.arange(m)
    diag = np.tile(np.eye(_BLOCK), (-(-m // _BLOCK), 1, 1))
    linv = np.empty_like(diag)
    pending = 0
    for i, k in enumerate(range(0, m, _BLOCK)):
        e = min(k + _BLOCK, m)
        for j in range(k, e):
            nonzero = np.flatnonzero(_reduce(a[j:, j], p))
            if nonzero.size == 0:
                return None
            piv = j + int(nonzero[0])
            if piv != j:
                a[[j, piv]] = a[[piv, j]]
                perm[[j, piv]] = perm[[piv, j]]
            a[j + 1 :, j] = _reduce(a[j + 1 :, j] * pow(int(a[j, j]), -1, p), p)
            a[j + 1 :, j + 1 : e] -= np.outer(a[j + 1 :, j], _reduce(a[j, j + 1 : e], p))
        diag[i, : e - k, : e - k] = a[k:e, k:e]
        linv[i] = _unit_triangular_inverse(_reduce(-np.tril(diag[i], -1), p), p)
        if e == m:
            break
        a[k:e, e:] = _reduce(linv[i, : e - k, : e - k] @ _reduce(a[k:e, e:], p), p)
        if pending + 2 * _BLOCK > _EXACT_INNER:
            _reduce(a[e:, e:], p)
            pending = 0
        # the transposed product comes out in a's column-major layout
        a[e:, e:] -= (a[k:e, e:].T @ a[e:, k:e].T).T
        pending += _BLOCK
    # U = D (I - n) with n = -D^-1 (U - D), so U^-1 = (I - n)^-1 D^-1
    dinv = np.vectorize(lambda d: float(pow(int(d), -1, p)))(diag.diagonal(0, 1, 2))
    n = _reduce(-dinv[:, :, None] * np.triu(diag, 1), p)
    return perm, linv, _reduce(_unit_triangular_inverse(n, p) * dinv[:, None, :], p)


def _solve_mod(lu: np.ndarray, factored: tuple, b: np.ndarray, p: int) -> np.ndarray:
    """x with L U x = b[perm] mod p, by blocked forward and back substitution."""
    perm, linv, uinv = factored
    m = lu.shape[0]
    x = _reduce(b[perm], p)
    blocks = [(i, s, min(s + _BLOCK, m)) for i, s in enumerate(range(0, m, _BLOCK))]
    for i, s, e in blocks:
        t = _reduce(x[s:e] - _matvec(lu[s:e, :s], x[:s], p), p)
        x[s:e] = _reduce(linv[i, : e - s, : e - s] @ t, p)
    for i, s, e in reversed(blocks):
        t = _reduce(x[s:e] - _matvec(lu[s:e, e:], x[e:], p), p)
        x[s:e] = _reduce(uinv[i, : e - s, : e - s] @ t, p)
    return x


def _rational_reconstruct(c: int, modulus: int) -> Fraction | None:
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, c % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    num, den = r1, s1
    if den < 0:
        num, den = -num, -den
    if den == 0 or den > bound or math.gcd(den, modulus) != 1:
        return None
    return Fraction(num, den)


def _reconstruct(values, modulus: int, scale, states, size: int) -> tuple[list[int], int] | None:
    """Length-size numerators over one denominator D, pi = nums / D with
    pi[states[j]] = Q_j y_j and y_j = values_j mod modulus; or None.

    D is grown as it goes: a value times the denominator so far needs a
    rational reconstruction, whose denominator joins the common one, only
    if its symmetric residue exceeds the bound.
    """
    bound = math.isqrt(modulus // 2)
    den, parts = 1, []
    for v, q in zip(values, scale):
        r = v * den % modulus
        if r > modulus // 2:
            r -= modulus
        if abs(r) > bound:
            rec = _rational_reconstruct(r, modulus)
            if rec is None or den * rec.denominator > bound:
                return None
            den *= rec.denominator
            r = rec.numerator
        parts.append((int(q) * r, den))
    nums = [0] * size
    for s, (num, d) in zip(states, parts):
        nums[s] = num * (den // d)
    return nums, den


def _dixon_solve(
    chain: ResidueChain, states: list[int], scales: list[int]
) -> tuple[list[int], int, SolverFacts]:
    """Exact stationary distribution, zero off ``states``, by p-adic lifting.

    Returns the numerators over their common denominator, (nums, den).

    Denominators run to hundreds of bits already at modulus 210, so the
    solution is lifted digit by digit modulo one prime p < 2^20, factored
    once (_factor_mod).  A digit costs one blocked substitution, made of
    products with the diagonal block inverses, and one sparse residual.
    A common denominator is reconstructed each time p^k has grown by
    _CHECKPOINT_GROWTH in bits; only an exact fixed point is returned.  A
    prime that divides the determinant, or does not certify within
    _MAX_PADIC_DIGITS digits, gives way to the next one.
    """
    m = len(states)
    rows, cols, vals, scale = _integer_system(chain, states, scales)
    digits = attempts = 0
    for p in _SOLVE_PRIMES:
        lu = np.zeros((m, m), order="F")
        np.add.at(lu, (rows, cols), vals)
        factored = _factor_mod(_reduce(lu, p), p)
        if factored is None:
            continue
        b = np.zeros(m)
        b[-1] = 1
        value = np.zeros(m, dtype=object)
        power, next_bits = 1, 0.0
        for k in range(1, _MAX_PADIC_DIGITS + 1):
            x = _solve_mod(lu, factored, b, p)
            value += x.astype(np.int64).astype(object) * power
            power *= p
            digits += 1
            r = b - np.bincount(rows, weights=vals * x[cols], minlength=m)
            if np.fmod(r, p).any():
                raise AssertionError("p-adic residual not divisible by the prime")
            b = r / p
            if power.bit_length() < next_bits and k < _MAX_PADIC_DIGITS:
                continue
            next_bits = _CHECKPOINT_GROWTH * power.bit_length()
            attempts += 1
            candidate = _reconstruct(value, power, scale, states, chain.modulus)
            if candidate is not None and _verify_fixed_point(chain, scales, *candidate):
                return (*candidate, SolverFacts(m, p, digits, attempts))
    raise ArithmeticError(f"stationary solve not certified with primes {list(_SOLVE_PRIMES)}")


_stationary_cache: dict[ResidueChain, StationaryResult] = {}


def stationary(chain: ResidueChain) -> StationaryResult:
    """Exact stationary distribution and the asymptotic cost coefficient.

    Transient residues get probability zero.  Raises ValueError naming
    the first row whose probabilities are not positive or do not sum to
    exactly 1, and ReducibleChainError when more than one closed class
    exists.  The result is always checked to be an exact fixed point
    before being returned, and the last few results are cached per chain
    since large solves are expensive.
    """
    cached = _stationary_cache.get(chain)
    if cached is not None:
        return cached
    scales = _row_scales(chain)
    closed = _closed_classes(chain)
    if len(closed) != 1:
        raise ReducibleChainError(closed)
    nums, den, facts = _dixon_solve(chain, list(closed[0]), scales)
    # sums over the common denominator stay in integers; v / den rounds
    # correctly, as float(Fraction(v, den)) does
    base_nums = dict.fromkeys(chain.bases, 0)
    cost_num = 0
    mean_bits = 0.0
    for v, (base, cost) in zip(nums, chain.policy):
        if v:
            base_nums[base] += v
            cost_num += v * cost
            mean_bits += v / den * math.log2(base)
    mean_cost = Fraction(cost_num, den)
    avg_base = 2.0 ** mean_bits
    coefficient = float(mean_cost) / mean_bits
    result = StationaryResult(
        dist=tuple(Fraction(v, den) for v in nums),
        base_probs={p: Fraction(v, den) for p, v in base_nums.items()},
        mean_cost=mean_cost,
        avg_base=avg_base,
        coefficient=coefficient,
        solver=facts,
    )
    _stationary_cache[chain] = result
    while len(_stationary_cache) > _STATIONARY_CACHE_SIZE:
        del _stationary_cache[next(iter(_stationary_cache))]
    return result


# -- Monte-Carlo cross-check ---------------------------------------------------


def empirical_coefficient_stats(
    bases: tuple[int, ...],
    sample_count: int,
    n_range: tuple[int, int],
    seed: int,
    model: CostModel | None = None,
) -> tuple[float, float]:
    """(mean, standard error) of (muls + 2) / log2(N) over uniform N.

    Sequential and fully determined by the seed, so results do not depend
    on the host's thread count.
    """
    lo, hi = n_range
    if not (2 <= lo <= hi):
        raise ValueError("need 2 <= lo <= hi")
    if sample_count < 2:
        raise ValueError("need at least two samples")
    model = model or default_cost_model()
    credit = model.terminal_credit
    count_muls = model.mixed_table(bases).count
    rng = random.Random(seed)
    vals = []
    for _ in range(sample_count):
        n = rng.randint(lo, hi)
        vals.append((count_muls(n) + credit) / math.log2(n))
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var / len(vals))


def empirical_coefficient(
    bases: tuple[int, ...],
    sample_count: int,
    n_range: tuple[int, int],
    seed: int,
    model: CostModel | None = None,
) -> float:
    """Monte-Carlo estimate of the mixed-policy coefficient; checks stationary().

    Carries a deterministic O(1/log N) finite-size offset (the terminal
    chain is cheaper than the asymptotic rate), so expect agreement with
    the analytic coefficient at the few-percent-of-a-unit level, not at
    the sampling-noise level; empirical_slope_stats removes the offset.
    """
    return empirical_coefficient_stats(bases, sample_count, n_range, seed, model)[0]


def empirical_slope_stats(
    bases: tuple[int, ...],
    sample_count: int,
    exponent_range: tuple[float, float] = (10.0, 40.0),
    seed: int = 0,
    model: CostModel | None = None,
) -> tuple[float, float]:
    """(slope, standard error) of muls against log2(N) over log-uniform N.

    Fitting an intercept absorbs the constant finite-size offset of the
    ratio estimator, so the slope is directly comparable to the
    stationary coefficient at sampling precision.
    """
    lo, hi = exponent_range
    if not (1.0 <= lo < hi):
        raise ValueError("need 1 <= lo < hi exponents")
    if sample_count < 3:
        raise ValueError("need at least three samples")
    model = model or default_cost_model()
    credit = model.terminal_credit
    count_muls = model.mixed_table(bases).count
    rng = random.Random(seed)
    xs = []
    ys = []
    for _ in range(sample_count):
        n = max(2, int(2 ** rng.uniform(lo, hi)))
        xs.append(math.log2(n))
        ys.append(count_muls(n) + credit)
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    ss_resid = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(ss_resid / (count - 2) / sxx)
    return slope, stderr


__all__ = [
    "ResidueChain",
    "StationaryResult",
    "SolverFacts",
    "ReducibleChainError",
    "build_chain",
    "stationary",
    "empirical_coefficient",
    "empirical_coefficient_stats",
    "empirical_slope_stats",
]
