"""Residue-chain analysis of mixed-base reduction policies.

Reducing a length N one level at a time maps N to (N - N mod P) / P for
the policy's chosen base P, so the residue of N modulo a fixed modulus M
(divisible by every base) walks a Markov chain: conditioned on the
current residue, the quotient's residue is uniform over the P classes
consistent with the division.  The stationary distribution of that chain
gives the long-run probability of each base, hence the expected
multiplications per level and, after normalizing by the expected bits
removed per level, the asymptotic coefficient in front of log2(N).

A chain holds its transitions as int64 arrays: each row's targets and
their numerators over the row's common denominator.  The stationary solve
returns exact rationals: every closed class, whatever its size, is solved
by numeric refinement, one float64 factorization whose corrections are checked
against residuals kept exactly in int64, and a common denominator is
reconstructed from the dyadic approximation.  The candidate is then
*verified* as an exact fixed point, in integers over its common
denominator, so a returned distribution is certified regardless of how
it was found.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import numpy as np

from .planner import CostModel, MixedTable, default_cost_model


class CertificationError(ArithmeticError):
    """The stationary refinement could not certify an exact fixed point."""


class ReducibleChainError(ValueError):
    """The chain has several closed classes; no unique stationary distribution."""

    def __init__(self, classes: list[tuple[int, ...]]) -> None:
        self.classes = classes
        super().__init__(
            f"chain has {len(classes)} closed recurrent classes: "
            + "; ".join(str(list(c)) for c in classes)
        )


class ResidueChain:
    """Row-stochastic transition structure over residues mod ``modulus``.

    ``policy[j]`` is the (base, per-level multiplications) the planner's
    rule picks in residue class j.  The transitions are int64 arrays in CSR
    layout (ptr, targets, nums, den): edge e of row j, ptr[j] <= e <
    ptr[j + 1], goes to targets[e] with probability nums[e] / den[j], over
    the row's common denominator Q_j = den[j].  ``rows[j]``, the (target,
    Fraction) pairs, is derived on first read.  A chain given by its rows is
    checked and converted once, on first use by stationary, so constructing
    one never raises.  Chains are immutable, equal by their fields.
    """

    def __init__(
        self,
        bases: tuple[int, ...],
        modulus: int,
        rows: tuple[tuple[tuple[int, Fraction], ...], ...],
        policy: tuple[tuple[int, int], ...],
    ) -> None:
        vars(self).update(bases=bases, modulus=modulus, rows=rows, policy=policy)

    @functools.cached_property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        ptr, targets, nums, den = (a.tolist() for a in self._csr)
        frac = functools.cache(Fraction)
        return tuple(
            tuple((t, frac(n, q)) for t, n in zip(targets[a:b], nums[a:b]))
            for a, b, q in zip(ptr, ptr[1:], den)
        )

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, ...]:
        return _rows_to_csr(self.modulus, self.rows, self.policy)

    def _key(self) -> tuple:
        return self.bases, self.modulus, self.rows, self.policy

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, ResidueChain) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _rows_to_csr(modulus: int, rows, policy) -> tuple[np.ndarray, ...]:
    """The CSR arrays of (target, probability) rows, checked row by row: a
    ValueError names the first row that is missing or extra for the modulus,
    has a target not an int in [0, modulus) or a probability neither a
    Fraction nor an int, or is not stochastic in integers over its common
    denominator Q_j, or has a Q_j of 2^63 or more (the int64 limit)."""
    if len(rows) != modulus or len(policy) != modulus:
        raise ValueError(
            f"row {min(len(rows), len(policy), modulus)} of the chain is missing or extra: "
            f"{len(rows)} rows and {len(policy)} policy entries for modulus {modulus}"
        )
    targets, nums, den = [], [], []
    for j, row in enumerate(rows):
        for t, p in row:
            if not isinstance(t, int) or not 0 <= t < modulus:
                raise ValueError(f"row {j} of the chain has target {t!r}, not an int in [0, {modulus})")
            if not isinstance(p, (Fraction, int)):
                raise ValueError(f"row {j} of the chain has probability {p!r}, not a Fraction or an int")
        q = math.lcm(*(p.denominator for _, p in row))
        row_nums = [p.numerator * (q // p.denominator) for _, p in row]
        if min(row_nums, default=0) <= 0 or sum(row_nums) != q:
            raise ValueError(
                f"row {j} of the chain is not stochastic: its probabilities "
                f"must be positive and sum to 1, got {[str(p) for _, p in row]}"
            )
        if q >= _INT64_LIMIT:
            raise ValueError(
                f"row {j} of the chain has common denominator {q}, at or above "
                "the solver's int64 limit 2^63"
            )
        targets += (t for t, _ in row)
        nums += row_nums
        den.append(q)
    ptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    return ptr, *(np.array(a, dtype=np.int64) for a in (targets, nums, den))


@dataclass(frozen=True)
class SolverFacts:
    """How an exact stationary solve went: the closed-class size, the
    refinement steps taken, the bits of the solution they lifted and the
    reconstructions tried.  Steps and bits depend on the float factors, so
    on the BLAS build and its thread count; the distribution never does."""

    states: int
    steps: int
    bits: int
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


# The stationary solve builds a dense m x m float64 system and factors it
# in place with one ceil(m/2)^2 scratch.  Cold, on 2 cores with OpenBLAS
# 0.3.31, build_chain and the solve of the 2310 states of (11, 7, 5, 3, 2)
# peak at 52.1 MiB under tracemalloc and take 0.44-0.55 s, median 0.50 s
# (0.55-0.72 s, median 0.64 s, with the explicit inverse), and at modulus
# 4620 peak at 205.5 MiB in 1.79-2.14 s, median 1.98 s (2.58-3.28 s).
# 30030 states, lcm(13, 11, 7, 5, 3, 2), would need 7.2 GB for the system
# alone.
_MAX_CHAIN_STATES = 4620


def build_chain(
    bases: tuple[int, ...],
    model: CostModel | None = None,
    modulus: int | None = None,
) -> ResidueChain:
    """Chain for the given bases on residues mod lcm(bases) by default.

    A larger modulus (any common multiple) may be passed for sensitivity
    checks; the stationary coefficient must not depend on it.  A modulus
    above _MAX_CHAIN_STATES is refused before any row is built.
    """
    table = (model or default_cost_model()).mixed_table(tuple(bases))
    m = table.modulus
    if modulus is not None:
        if modulus < 1 or modulus % m != 0:
            raise ValueError(f"modulus must be a positive multiple of {m}, got {modulus}")
        m = modulus
    if m > _MAX_CHAIN_STATES:
        raise ValueError(f"residue chains are capped at {_MAX_CHAIN_STATES} states, got {m}")
    policy = tuple(table.policy[r] for r in range(table.modulus)) * (m // table.modulus)
    base = np.array([b for b, _ in policy], dtype=np.int64)
    ptr = np.r_[0, np.cumsum(base)]
    # the s-th edge of row j goes to s * (m / P_j) + j // P_j with probability
    # 1 / P_j: the targets are below m and increasing in s, so need no sort
    row = np.repeat(np.arange(m), base)
    targets = (np.arange(ptr[-1]) - ptr[row]) * (m // base)[row] + (np.arange(m) // base)[row]
    chain = object.__new__(ResidueChain)  # holds no rows until they are read
    csr = ptr, targets, np.ones_like(targets), base
    vars(chain).update(bases=table.bases, modulus=m, policy=policy, _csr=csr)
    return chain


# -- stationary distribution -------------------------------------------------


def _closed_classes(chain: ResidueChain) -> list[tuple[int, ...]]:
    """Strongly connected classes that no edge leaves, by iterative Tarjan
    over int lists; ``comp[v]`` is the root of v's class once it is done."""
    ptr, targets = (a.tolist() for a in chain._csr[:2])
    succ = [targets[a:b] for a, b in zip(ptr, ptr[1:])]
    n = chain.modulus
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    stack, closed, count = [], [], 0
    for root in range(n):
        work = [] if index[root] >= 0 else [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            if index[v] < 0:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
            for w in edges:
                if index[w] < 0:
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    k = stack.index(v)
                    members, stack[k:] = stack[k:], []
                    for u in members:
                        comp[u] = v
                    if all(comp[t] == v for u in members for t in succ[u]):
                        closed.append(tuple(sorted(members)))
    return closed


def _verify_fixed_point(chain: ResidueChain, scales: np.ndarray, nums: list[int], den: int) -> bool:
    """Whether nums / den is an exact stationary distribution of ``chain``.

    Checked in integers: the numerators are >= 0 and sum to den > 0, and with
    Lq = lcm(scales), the row denominators from _row_scales, the flow into
    every t, sum_j nums_j * (p_jt * Lq), equals nums_t * Lq: Python ints in
    object arrays, summed over the edges sorted by target.
    """
    if len(nums) != chain.modulus or den <= 0 or any(v < 0 for v in nums) or sum(nums) != den:
        return False
    ptr, targets, weights, _ = chain._csr
    lq = math.lcm(*set(scales.tolist()))
    v = np.array(nums, dtype=object)
    by_target = np.argsort(targets)
    into = targets[by_target]
    starts = np.flatnonzero(np.r_[True, into[1:] != into[:-1]])
    row_flow = v * (lq // np.asarray(scales, dtype=object))
    edge_flow = np.repeat(row_flow, np.diff(ptr)) * weights.astype(object)
    flow = np.zeros(chain.modulus, dtype=object)
    flow[into[starts]] = np.add.reduceat(edge_flow[by_target], starts)
    return bool((flow == v * lq).all())


# A refinement step keeps _SAFETY_BITS of the float residual's precision
# in reserve, so its exact residual may come out up to 2^(_SAFETY_BITS - 1)
# times larger than the float one promises and still halve.
_SAFETY_BITS = 4
_INT64_ROOM = 62  # 2^s r and A c stay below 2^62, so 2^s r - A c fits int64
_INT64_LIMIT = 1 << 63
_MAX_STEPS = 1024
_CHECKPOINT_GROWTH = 1.25  # reconstruct each time the lifted bits grow by this factor


def _row_scales(chain: ResidueChain) -> np.ndarray:
    """Common denominator Q_j of each row's probabilities, int64; a chain
    given by rows is checked to be stochastic when its arrays are made."""
    return chain._csr[3]


def _integer_system(
    chain: ResidueChain, states: list[int], scales: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Integer form of the stationary system after column scaling.

    With Q_j = scales[j], the common denominator of row j's probabilities
    (the base P_j of a residue chain), and y_j = pi_j / Q_j, balance row t
    gets Q_j q, the stored numerator, for each edge j -> t of probability q
    and -Q_t on the diagonal; the last row is the normalization
    sum(Q_j y_j) = 1.  Returns int64 COO triples sorted by row, the edges
    in the order of ``states`` and of each row, and the Q_j of ``states``.
    """
    ptr, targets, nums, _ = chain._csr
    states = np.asarray(states, dtype=np.int64)
    m = len(states)
    pos = np.zeros(chain.modulus, dtype=np.int64)
    pos[states] = np.arange(m)
    count = ptr[states + 1] - ptr[states]
    cols = np.repeat(np.arange(m), count)
    edges = np.arange(len(cols)) + np.repeat(ptr[states] - (np.cumsum(count) - count), count)
    rows = pos[targets[edges]]
    keep = rows < m - 1
    scale, diag = np.asarray(scales, dtype=np.int64)[states], np.arange(m)
    rows = np.concatenate([rows[keep], diag[:-1], np.full(m, m - 1)])
    cols = np.concatenate([cols[keep], diag[:-1], diag])
    vals = np.concatenate([nums[edges][keep], -scale[:-1], scale])
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], vals[order], scale


def _half_gcd(c: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(q, r) with q c = r mod ``modulus``, 0 < q <= bound and |r| <= bound,
    from the extended Euclid on (modulus, c) stopped halfway; or None."""
    r0, r1 = modulus, c % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        s0, s1 = s1, s0 - quo * s1
    if s1 < 0:
        s1, r1 = -s1, -r1
    return (s1, r1) if 0 < s1 <= bound else None


def _reconstruct(values, bits: int, scale, states, size: int) -> tuple[list[int], int] | None:
    """Length-size numerators over one denominator D, pi = nums / D with
    pi[states[j]] = Q_j y_j and y_j ~ values_j / 2^bits; or None.

    D is grown as it goes.  With t = v D and rho the balanced residue of
    t mod 2^bits, a small rho makes (t - rho) / 2^bits the numerator over D.
    Otherwise a half-gcd step finds q t = rho' mod 2^bits, D becomes D q and
    the numerator is (q t - rho') / 2^bits.  The pair (rho', q) must stay
    unreduced: dividing both by their gcd breaks that division.
    """
    modulus = 1 << bits
    bound = math.isqrt(modulus // 2)
    den, parts = 1, []
    for v, q in zip(values, scale):
        t = v * den
        rho = t % modulus
        if rho > modulus // 2:
            rho -= modulus
        if abs(rho) > bound:
            step = _half_gcd(t, modulus, bound)
            if step is None or den * step[0] > bound:
                return None
            den *= step[0]
            t, rho = step[0] * t, step[1]
        parts.append((int(q) * ((t - rho) >> bits), den))
    nums = [0] * size
    for s, (num, d) in zip(states, parts):
        nums[s] = num * (den // d)
    return nums, den


_LEAF_ROWS = 128  # blocks this small are inverted by LAPACK, with pivoting


def _product(scratch: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y written into a prefix of ``scratch``, reshaped."""
    out = scratch[: x.shape[0] * y.shape[1]].reshape(x.shape[0], y.shape[1])
    return np.matmul(x, y, out=out)


def _schur_factor(a: np.ndarray, scratch: np.ndarray) -> int:
    """Overwrite the square float64 ``a``, of more than _LEAF_ROWS rows, with
    its top-level block factors and return the split k.

    With A11 the leading k x k block, k = m // 2, A11 becomes X = A11^-1,
    A12 becomes T = X A12 and A22 becomes S^-1 for the Schur complement
    S = A22 - A21 T; A21 is left as it was.  Both inverses are
    _inverse_in_place's, and both products go through ``scratch``.
    """
    k = a.shape[0] // 2
    a11, a12, a21, a22 = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]
    _inverse_in_place(a11, scratch)
    a12[...] = _product(scratch, a11, a12)
    a22 -= _product(scratch, a21, a12)
    _inverse_in_place(a22, scratch)
    return k


def _inverse_in_place(a: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Overwrite the square float64 ``a`` with its inverse and return it.

    Recursive 2 x 2 block elimination without pivoting: with X = A11^-1,
    T = X A12 and S = A22 - A21 T, the inverse is [[X - T W, -T S^-1],
    [W, S^-1]] for W = -S^-1 A21 X.  Each level is six matrix products,
    two in _schur_factor and four here;
    all but the one written into A21 go into a prefix of one scratch of
    ceil(m/2)^2 floats, which the top call allocates and both recursive
    calls reuse, and T overwrites A12, whose values are dead once it is
    formed.  LAPACK's inverse is bound by triangular solves and fills a
    second matrix.
    Blocks of at most _LEAF_ROWS rows go to np.linalg.inv.  On the
    stationary system this needs no pivoting: every balance column is
    weakly diagonally dominant, every leading block is a proper principal
    submatrix of an irreducible singular M-matrix, so nonsingular, and the
    normalization row stays in the trailing block, whose leaf pivots.
    """
    m = a.shape[0]
    if m <= _LEAF_ROWS:
        a[...] = np.linalg.inv(a)
        return a
    if scratch is None:
        scratch = np.empty((m - m // 2) ** 2)
    k = _schur_factor(a, scratch)
    a11, a12, a21, a22 = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]
    np.matmul(a22, _product(scratch, a21, a11), out=a21)
    np.negative(a21, out=a21)
    a11 -= _product(scratch, a12, a21)
    np.negative(_product(scratch, a12, a22), out=a12)
    return a


def _factored_solver(a: np.ndarray):
    """A function r -> A^-1 r for the square float64 ``a``, which it overwrites.

    Up to _LEAF_ROWS rows, A is inverted and the function multiplies by the
    inverse.  Above, A holds the top-level factors of _schur_factor, and
    z = A^-1 r is z1' = X r1, z2 = S^-1 (r2 - A21 z1'), z1 = z1' - T z2:
    four half-size matrix-vector products, without the four matrix products
    that only assemble the explicit inverse.
    """
    m = a.shape[0]
    if m <= _LEAF_ROWS:
        inv = _inverse_in_place(a)
        return lambda r: inv @ r
    k = _schur_factor(a, np.empty((m - m // 2) ** 2))
    x, t, a21, s_inv = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]

    def solve(r: np.ndarray) -> np.ndarray:
        r = r.astype(np.float64)
        z = np.empty(m)
        z1, z2 = z[:k], z[k:]
        np.matmul(x, r[:k], out=z1)
        np.matmul(s_inv, r[k:] - a21 @ z1, out=z2)
        z1 -= t @ z2
        return z

    return solve


def _refine_solve(
    chain: ResidueChain, states: list[int], scales: np.ndarray
) -> tuple[list[int], int, SolverFacts]:
    """Exact stationary distribution, zero off ``states``, by numeric
    refinement on exact integer residuals (Wan, J. Symb. Comput. 41(6), 2006).

    Returns the numerators over their common denominator, (nums, den).
    The float64 system is factored once, in place, by _factored_solver.
    A step solves for the exact int64 residual r with those factors,
    z = A^-1 r, keeps the s bits of z that its own float residual vouches
    for, and sets r <- 2^s r - A c with c = rint(z 2^s), exactly over the
    COO triples; value <- 2^s value + c keeps A value = 2^bits e_last - r.
    s is capped so that 2^s r and A c stay below 2^62: int64 wraps silently.
    A step that gains no bit or does not halve r, up to the rounding term
    max_t sum_j |A_tj| / 2, raises CertificationError.  Each time the bits grow
    by _CHECKPOINT_GROWTH a common denominator is reconstructed; only an
    exact fixed point is returned.
    """
    m = len(states)
    rows, cols, vals, scale = _integer_system(chain, states, scales)
    solve = _factored_solver(np.bincount(rows * m + cols, vals, m * m).reshape(m, m))
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    row_sum = int(np.add.reduceat(np.abs(vals), starts).max())
    r = np.zeros(m, dtype=np.int64)
    r[-1] = 1
    value = np.zeros(m, dtype=object)
    bits = attempts = 0
    next_bits = 0.0
    for step in range(1, _MAX_STEPS + 1):
        z = solve(r)
        r_max, z_max = int(np.abs(r).max()), float(np.abs(z).max())
        # the float residual resolves nothing below 2^-53 of its terms, which
        # also keeps s below 53 bits
        est = float(np.abs(r - np.add.reduceat(vals * z[cols], starts)).max())
        est += 2.0**-53 * (r_max + row_sum * z_max)
        s = min(
            math.floor(math.log2(r_max / est)) - _SAFETY_BITS if r_max else _INT64_ROOM,
            _INT64_ROOM - r_max.bit_length(),
            _INT64_ROOM - math.frexp(z_max)[1] - row_sum.bit_length(),
        )
        if s < 1:
            raise CertificationError(
                f"stationary refinement step {step} gains no bit: float residual "
                f"{est:.3g} of exact residual {r_max}, largest row sum {row_sum}"
            )
        c = np.rint(np.ldexp(z, s)).astype(np.int64)
        r = (r << s) - np.add.reduceat(vals * c[cols], starts)
        new_max = int(np.abs(r).max())
        if 2 * new_max > r_max + row_sum:
            raise CertificationError(
                f"stationary refinement step {step}: exact residual {new_max} "
                f"exceeds the bound {(r_max + row_sum) / 2} that {s} bits promise"
            )
        value = (value << s) + c.astype(object)
        bits += s
        if bits < next_bits and step < _MAX_STEPS:
            continue
        next_bits = _CHECKPOINT_GROWTH * bits
        attempts += 1
        candidate = _reconstruct(value, bits, scale, states, chain.modulus)
        if candidate is not None and _verify_fixed_point(chain, scales, *candidate):
            return (*candidate, SolverFacts(m, step, bits, attempts))
    raise CertificationError(f"stationary refinement not certified in {_MAX_STEPS} steps ({bits} bits)")


def stationary(chain: ResidueChain) -> StationaryResult:
    """Exact stationary distribution and the asymptotic cost coefficient.

    Transient residues get probability zero.  Raises ValueError naming
    the first row that is malformed (see _rows_to_csr), whose probabilities
    are not positive or do not sum to exactly 1, or whose common
    denominator is 2^63 or more (the int64 limit), ReducibleChainError when more than one closed class exists,
    and CertificationError naming the refinement step that failed when the
    float factors are too poor to refine.  In a seeded sweep of 20-state
    chains whose rows each have one common denominator of k bits,
    denominators below 2^56 solved; those from about 2^56 up to 2^63
    raise CertificationError, which names the step (or the step limit).  The
    result is always checked to be an exact fixed point before being
    returned.
    """
    scales = _row_scales(chain)
    closed = _closed_classes(chain)
    if len(closed) != 1:
        raise ReducibleChainError(closed)
    nums, den, facts = _refine_solve(chain, list(closed[0]), scales)
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
    return StationaryResult(
        dist=tuple(Fraction(v, den) for v in nums),
        base_probs={p: Fraction(v, den) for p, v in base_nums.items()},
        mean_cost=mean_cost,
        avg_base=avg_base,
        coefficient=coefficient,
        solver=facts,
    )


# -- Monte-Carlo cross-check ---------------------------------------------------


def _count_all(table: MixedTable, lengths: list[int]) -> list[int]:
    """``table.count(n)`` of every length n >= 1, one level at a time across
    all of them: the table is read once into arrays of each residue's base
    and cost and of the counts below its threshold.  The lengths are int64
    when all fit, else Python ints in an object array: numpy's own
    conversion makes [2**63, 5] float64, and lengths in [2**63, 2**64)
    uint64, which an int64 array cannot floor-divide."""
    modulus, threshold = table.modulus, table.threshold
    base, cost = np.array([table.policy[r] for r in range(modulus)], dtype=np.int64).T
    tails = np.array([0] + [table.tails[n] for n in range(1, threshold)], dtype=np.int64)
    if max(lengths) < _INT64_LIMIT:
        n = np.array(lengths, dtype=np.int64)
    else:
        n = np.empty(len(lengths), dtype=object)
        n[:] = lengths
    total = np.zeros(len(n), dtype=np.int64)
    live = np.flatnonzero(n >= threshold)
    while live.size:
        if n.dtype == object and n[live].max() < _INT64_LIMIT:
            n = n.astype(np.int64)
        level = n[live]
        r = (level % modulus).astype(np.int64)
        total[live] += cost[r]
        n[live] = level // base[r]
        live = live[n[live] >= threshold]
    return (total + tails[n.astype(np.int64)]).tolist()


def empirical_coefficient_stats(
    bases: tuple[int, ...],
    sample_count: int,
    n_range: tuple[int, int],
    seed: int,
) -> tuple[float, float]:
    """(mean, standard error) of (muls + 2) / log2(N) over uniform N.

    Sequential and fully determined by the seed, so results do not depend
    on the host's thread count.  The mean carries a deterministic
    O(1/log N) finite-size offset (the terminal chain is cheaper than the
    asymptotic rate), so it agrees with the stationary coefficient to a
    few percent of a unit; empirical_slope_stats removes the offset.
    """
    lo, hi = n_range
    if not (2 <= lo <= hi):
        raise ValueError("need 2 <= lo <= hi")
    if sample_count < 2:
        raise ValueError("need at least two samples")
    model = default_cost_model()
    credit = model.terminal_credit
    rng = random.Random(seed)
    lengths = [rng.randint(lo, hi) for _ in range(sample_count)]
    counts = _count_all(model.mixed_table(bases), lengths)
    vals = [(muls + credit) / math.log2(n) for n, muls in zip(lengths, counts)]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var / len(vals))


def empirical_slope_stats(
    bases: tuple[int, ...],
    sample_count: int,
    exponent_range: tuple[float, float] = (10.0, 40.0),
    seed: int = 0,
) -> tuple[float, float]:
    """(slope, standard error) of muls against log2(N) over log-uniform N.

    Fitting an intercept absorbs the constant finite-size offset of the
    ratio estimator, so the slope is directly comparable to the
    stationary coefficient at sampling precision.  The upper exponent must
    be below 1024, where 2**hi leaves the float range.
    """
    lo, hi = exponent_range
    if not (1.0 <= lo < hi):
        raise ValueError("need 1 <= lo < hi exponents")
    if not hi < 1024:
        raise ValueError(f"need hi < 1024 exponents, got {hi}: 2**hi must be a finite float")
    if sample_count < 3:
        raise ValueError("need at least three samples")
    model = default_cost_model()
    credit = model.terminal_credit
    rng = random.Random(seed)
    lengths = [max(2, int(2 ** rng.uniform(lo, hi))) for _ in range(sample_count)]
    xs = [math.log2(n) for n in lengths]
    ys = [muls + credit for muls in _count_all(model.mixed_table(bases), lengths)]
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError(f"exponent range ({lo}, {hi}) samples one length only; widen it")
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
    "empirical_coefficient_stats",
    "empirical_slope_stats",
]
