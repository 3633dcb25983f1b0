"""The three benchmark workloads: ``invert``, ``verify`` and ``markov``.

Each workload makes its inputs from the run's seed, runs one operation at
a time against the public API of ``geomseries`` and checks every output
against references computed here, never by the function under test.

* ``invert``: ``linalg.neumann_invert(A, 26)`` on 1000 x 1000 matrices,
  checked against a plain-numpy nested evaluation of the same series.
* ``verify``: one length N in [1, 4096] per operation, planned with the
  four default ``geomseries verify`` strategies and oracle-checked.
* ``markov``: for four bases sets, ``build_chain``, a cold ``stationary``
  solve and ``empirical_slope_stats``; the distribution is checked to be
  an exact fixed point of the chain.

``op`` is the timed call.  ``check`` returns a list of error strings.
``trace_extra`` runs only in the traced run, outside the timed call, and
records the counts that can be read off an operation's output.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

from geomseries import chains, linalg, markov, planner, slp


class Workload:
    name = ""
    peak_passes = 1  # untraced tracemalloc passes; their peaks must agree
    setup_probes = 5  # fresh processes timed for setup_s
    # reference calibration-kernel time, a unit constant: setup_s's first
    # operation is reported in seconds at this kernel speed (measured on 2
    # cores, OpenBLAS 0.3.31, Python 3.11)
    nominal_kernel_s: float
    count_ops = 1  # exact counts are taken over the first count_ops operations
    count_reduce = "mean"  # ... as their per-operation mean, or their "sum"
    exact_names: tuple[str, ...] = ()
    traced_peak = False  # whether the traced run needs a tracemalloc pass
    aliases: dict[str, tuple[str, float]] = {}  # per-workload names of wall-clock figures

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer

    def prepare(self) -> None:
        """Inputs and references; untimed and excluded from setup_s."""

    def probe_args(self, workdir: Path) -> list[str]:
        """Arguments that let a set-up probe rebuild the first input cheaply."""
        return []

    def load_probe(self, args: list[str]) -> None:
        self.prepare()

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> list[str]:
        raise NotImplementedError

    def peak_op(self):
        """The operation on the reference input: peak pass and set-up probe."""
        return self.op(0)

    def calibrate(self) -> None:
        """A fixed kernel of the same kind of work as ``op``, run between operations.

        The first call builds the kernel's input, so it is left untimed.

        It calls nothing in geomseries, so a change to the package leaves
        it alone.  The speed of a shared machine drifts by tens of percent
        within seconds and moves both alike, so an operation's time divided
        by the kernel's time next to it is steady where either alone is not.
        """
        raise NotImplementedError

    def trace_extra(self, k: int, out) -> list[str]:
        return []

    def drift_ref(self, k: int) -> int | None:
        """Earlier operation whose exact counts operation k must repeat."""
        return None

    def min_ops(self, traced: bool) -> int:
        # two, so that a percentile exists and repeated counts can be compared
        return max(2, self.count_ops)

    def exact_counts(self, ops: list[int]) -> dict[str, float]:
        window = ops[: self.count_ops]
        out = {}
        for name in self.exact_names:
            total = self.tracer.total_count(window, name)
            out[name] = total / len(window) if self.count_reduce == "mean" else total
        return out

    def layer_metrics(self, ops: list[int], peak_bytes: list[int]) -> dict[str, float]:
        raise NotImplementedError


# -- invert ------------------------------------------------------------------

N_DIM = 1000
TERMS = 26
POOL = 2
INVERT_REL_TOL = 1e-12


def nested_series(b: np.ndarray, terms: int) -> np.ndarray:
    """I + B + ... + B^(terms-1) by plain nesting: the reference result."""
    eye = np.eye(b.shape[0])
    x = eye + b
    for _ in range(terms - 2):
        x = eye + b @ x
    return x


def _rel_diff(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


class TimedMatrix:
    """Matrix ring element that times and counts each ring operation."""

    __slots__ = ("a", "tracer", "identity")

    def __init__(self, a: np.ndarray, tracer, identity: bool = False) -> None:
        self.a = a
        self.tracer = tracer
        self.identity = identity

    def _addsub(self, other: "TimedMatrix", sign: int) -> "TimedMatrix":
        start = perf_counter()
        r = self.a + other.a if sign > 0 else self.a - other.a
        t = self.tracer
        t.count("slp.eval_addsub_s", perf_counter() - start)
        t.count("slp.eval_addsubs")
        if self.identity or other.identity:
            t.count("slp.eval_identity_addsubs")
        return TimedMatrix(r, t)

    def __add__(self, other: "TimedMatrix") -> "TimedMatrix":
        return self._addsub(other, 1)

    def __sub__(self, other: "TimedMatrix") -> "TimedMatrix":
        return self._addsub(other, -1)

    def __mul__(self, other: "TimedMatrix") -> "TimedMatrix":
        start = perf_counter()
        r = self.a @ other.a
        self.tracer.count("slp.eval_matmul_s", perf_counter() - start)
        self.tracer.count("slp.eval_matmuls")
        return TimedMatrix(r, self.tracer)

    def ring_one(self) -> "TimedMatrix":
        return TimedMatrix(np.eye(self.a.shape[0]), self.tracer, identity=True)


def _instrument_linalg(t) -> None:
    """Wrap the functions ``neumann_invert`` looks up in ``linalg``'s namespace.

    The spans and counts then come from the calls the program makes
    itself, with the arguments it passes.  Only the traced run installs
    them; they stay for the rest of the process.
    """

    def wrap(name: str, span: str, after=None) -> None:
        inner = getattr(linalg, name)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with t.span(span):
                out = inner(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        setattr(linalg, name, traced)

    def plan_counts(rep) -> None:
        t.count("planner.plans")
        t.count("planner.muls_sum", rep.muls)
        t.count("planner.instrs_sum", len(rep.program.instrs))

    def precheck_counts(est) -> None:
        t.count("linalg.precheck_iters", est.iterations)
        t.count("linalg.precheck_converged", int(est.converged))
        t.count("linalg.precheck_attempts")

    wrap("build_plan", "planner.plan", plan_counts)
    wrap("spectral_radius_estimate", "linalg.precheck", precheck_counts)
    wrap("evaluate", "linalg.evaluate")
    wrap("residual", "linalg.residual")


class Invert(Workload):
    name = "invert"
    nominal_kernel_s = 0.024
    peak_passes = 2
    traced_peak = True
    aliases = {"invert_s_p50": ("op_s_p50", 1), "invert_s_p90": ("op_s_p90", 1)}
    count_ops = POOL
    exact_names = (
        "planner.plans",
        "planner.muls_sum",
        "planner.instrs_sum",
        "slp.eval_matmuls",
        "slp.eval_addsubs",
        "slp.eval_identity_addsubs",
        "linalg.precheck_iters",
        "linalg.matrix_muls",
    )

    def prepare(self) -> None:
        self.pool = [
            linalg.random_test_matrix(N_DIM, self.seed * POOL + i) for i in range(POOL)
        ]
        self.refs = [nested_series(np.eye(N_DIM) - a, TERMS) for a in self.pool]
        if self.tracer.enabled:
            _instrument_linalg(self.tracer)

    def probe_args(self, workdir: Path) -> list[str]:
        paths = [workdir / f"probe-{self.seed}-a.npy", workdir / f"probe-{self.seed}-ref.npy"]
        np.save(paths[0], self.pool[0])
        np.save(paths[1], self.refs[0])
        return [str(p) for p in paths]

    def load_probe(self, args: list[str]) -> None:
        self.pool = [np.load(args[0])]
        self.refs = [np.load(args[1])]

    @cached_property
    def declared_muls(self) -> int:
        # planned on first check, so a set-up probe's first operation runs cold
        return planner.plan(TERMS, "auto").program.declared_muls

    def op(self, k: int):
        a = self.pool[k % len(self.pool)]
        with self.tracer.span("linalg.neumann_invert"):
            return linalg.neumann_invert(a, TERMS)

    def check(self, k: int, out) -> list[str]:
        a_hat, rep = out
        errors = []
        rel = _rel_diff(a_hat, self.refs[k % len(self.refs)])
        if not rel <= INVERT_REL_TOL:
            errors.append(f"inverse differs from the nested reference by {rel:.3e}")
        if rep.matrix_muls != self.declared_muls:
            errors.append(f"matrix_muls={rep.matrix_muls}, plan declares {self.declared_muls}")
        if (rep.n, rep.terms) != (N_DIM, TERMS):
            errors.append(f"report is for n={rep.n}, terms={rep.terms}")
        return errors

    @cached_property
    def _cal(self) -> np.ndarray:
        return np.random.default_rng(0).standard_normal((N_DIM, N_DIM)) / N_DIM

    def calibrate(self) -> None:
        # one product and one addition at the operation's size
        np.add(self._cal, self._cal @ self._cal)

    def drift_ref(self, k: int) -> int | None:
        return k % POOL if k >= POOL else None

    def min_ops(self, traced: bool) -> int:
        # untraced: a p90 needs at least ten samples beyond it
        return POOL if traced else 100

    def trace_extra(self, k: int, out) -> list[str]:
        # The report's figures, then the two calls measured on their own:
        # the plan evaluated over a timing ring element, and one bare
        # product at the same size.
        t = self.tracer
        _, rep = out
        t.count("linalg.eval_s", rep.wall_time)
        t.count("linalg.matrix_muls", rep.matrix_muls)
        eye = np.eye(N_DIM)
        b = eye - self.pool[k % POOL]
        program = planner.plan(TERMS, "auto").program
        with t.span("slp.evaluate"):
            ev = slp.evaluate(program, TimedMatrix(b, t), one=TimedMatrix(eye, t, True))
        rel = _rel_diff(ev.a, self.refs[k % POOL])
        if not rel <= INVERT_REL_TOL:
            return [f"slp.evaluate differs from the nested reference by {rel:.3e}"]
        with t.span("numpy.matmul"):
            b @ b
        return []

    def layer_metrics(self, ops: list[int], peak_bytes: list[int]) -> dict[str, float]:
        t = self.tracer
        m = self.exact_counts(ops)
        m["planner.plan_s"] = t.median_span_time(ops, "planner.plan")
        m["slp.eval_matmul_s"] = t.median_count(ops, "slp.eval_matmul_s")
        m["slp.eval_addsub_s"] = t.median_count(ops, "slp.eval_addsub_s")
        m["linalg.precheck_s"] = t.median_span_time(ops, "linalg.precheck")
        m["linalg.precheck_converged_ratio"] = t.total_count(
            ops, "linalg.precheck_converged"
        ) / t.total_count(ops, "linalg.precheck_attempts")
        eval_s = t.median_count(ops, "linalg.eval_s")
        matmul_s = t.median_span_time(ops, "numpy.matmul")
        muls = m["linalg.matrix_muls"]
        m["linalg.eval_s"] = eval_s
        m["linalg.residual_s"] = t.median_span_time(ops, "linalg.residual")
        m["linalg.matmul_ref_s"] = matmul_s
        m["linalg.eval_over_products"] = eval_s / (muls * matmul_s)
        m["linalg.eval_gflops"] = 2.0 * N_DIM**3 * muls / eval_s / 1e9
        m["linalg.peak_matrices"] = max(peak_bytes) / (8.0 * N_DIM * N_DIM)
        return m


# -- verify ------------------------------------------------------------------

MAX_LEN = 4096
VERIFY_STRATEGIES = ("binary", "ternary", "mixed:11,7,5,3,2")
SPOT_PRIME = (1 << 61) - 1
_CAL_INTS = (random.Random(0).getrandbits(40000), random.Random(1).getrandbits(40000))
VERIFY_COUNT_OPS = 256


class Verify(Workload):
    name = "verify"
    nominal_kernel_s = 0.0014
    aliases = {"verify_plans_per_s": ("ops_per_s", 1 + len(VERIFY_STRATEGIES))}
    count_ops = VERIFY_COUNT_OPS
    count_reduce = "sum"
    exact_names = (
        "planner.plans",
        "planner.muls_sum",
        "planner.instrs_sum",
        "slp.oracle_calls",
        "slp.oracle_digits_sum",
    )

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self._length_rng = random.Random(seed)
        self._spot_rng = random.Random(seed + 1)
        self.lengths: list[int] = []

    def prepare(self) -> None:
        # one fresh AutoPlanner per run, as one `geomseries verify` sweep uses
        self.auto = planner.AutoPlanner()
        self.fixtures = (
            ("flawed length-11 chain", chains.flawed_length11_chain()),
            ("flawed length-26 chain", chains.flawed_length26_chain()),
        )

    def length(self, k: int) -> int:
        while len(self.lengths) <= k:
            self.lengths.append(self._length_rng.randint(1, MAX_LEN))
        return self.lengths[k]

    def _plan_and_oracle(self, n: int, auto: planner.AutoPlanner):
        t = self.tracer
        with t.span("planner.plan"):
            reps = [auto.plan(n)]
        for strategy in VERIFY_STRATEGIES:
            with t.span("planner.plan"):
                reps.append(planner.plan(n, strategy))
        oks = []
        for rep in reps:
            with t.span("slp.oracle"):
                oks.append(slp.passes_oracle(rep.program))
        return n, reps, oks

    def op(self, k: int):
        return self._plan_and_oracle(self.length(k), self.auto)

    def peak_op(self):
        # the top of the length range, with a planner of its own
        return self._plan_and_oracle(MAX_LEN, planner.AutoPlanner())

    def calibrate(self) -> None:
        # interpreter loop, dict churn and one big-integer product
        x = 0
        for i in range(3000):
            x = (x + i * i) % 1000003
        {i: str(i) for i in range(1000)}
        _CAL_INTS[0] * _CAL_INTS[1]

    def check(self, k: int, out) -> list[str]:
        n, reps, oks = out
        errors = []
        for label, rep, ok in zip(("auto",) + VERIFY_STRATEGIES, reps, oks):
            where = f"n={n} {label}"
            if not ok:
                errors.append(f"{where}: plan fails the oracle")
            if rep.n != n or rep.program.series_length != n:
                errors.append(f"{where}: plan is for length {rep.program.series_length}")
            if rep.muls != rep.program.declared_muls:
                errors.append(f"{where}: muls={rep.muls}, program has {rep.program.declared_muls}")
            x = self._spot_rng.randrange(2, SPOT_PRIME - 1)
            expect = (pow(x, n, SPOT_PRIME) - 1) * pow(x - 1, -1, SPOT_PRIME) % SPOT_PRIME
            if slp.evaluate_mod(rep.program, x, SPOT_PRIME) != expect:
                errors.append(f"{where}: evaluate_mod disagrees with (x^N - 1)/(x - 1)")
        for name, program in self.fixtures:
            if slp.passes_oracle(program):
                errors.append(f"{name} passes the oracle")
        return errors

    def trace_extra(self, k: int, out) -> list[str]:
        n, reps, _ = out
        t = self.tracer
        t.count("planner.plans", len(reps))
        t.count("planner.muls_sum", sum(rep.muls for rep in reps))
        t.count("planner.instrs_sum", sum(len(rep.program.instrs) for rep in reps))
        t.count("slp.oracle_calls", len(reps))
        t.count("slp.oracle_digits_sum", n * len(reps))
        return []

    def layer_metrics(self, ops: list[int], peak_bytes: list[int]) -> dict[str, float]:
        m = self.exact_counts(ops)
        m["planner.plan_s"] = self.tracer.median_span_time(ops, "planner.plan")
        m["slp.oracle_s"] = self.tracer.median_span_time(ops, "slp.oracle")
        return m


# -- markov ------------------------------------------------------------------

BASES_SETS = ((3, 2), (5, 3, 2), (7, 5, 3, 2), (11, 7, 5, 2))
EMPIRICAL_SAMPLES = 2000
SLOPE_SIGMAS = 10
MARKOV_MIN_OPS = 14
_CAL_PRIME = 2147483647


def _defeat_stationary_memo() -> None:
    """Empty ``markov.stationary``'s memo so the next solve runs cold.

    A memo this cannot reach shows up in ``check``: a solve that hands
    back an object it returned before fails the operation.
    """
    memo = getattr(markov, "_stationary_cache", None)
    if memo is not None:
        memo.clear()


def _chain_errors(bases: tuple[int, ...], chain) -> list[str]:
    """Residue j under base P moves uniformly to the P classes s*(M/P) + j//P."""
    m = math.lcm(*bases)
    if chain.modulus != m or tuple(chain.bases) != bases:
        return [f"{bases}: chain has modulus {chain.modulus}, bases {chain.bases}"]
    if len(chain.rows) != m or len(chain.policy) != m:
        return [f"{bases}: chain has {len(chain.rows)} rows for modulus {m}"]
    for j, ((base, _), row) in enumerate(zip(chain.policy, chain.rows)):
        targets = sorted((s * (m // base) + j // base) % m for s in range(base))
        if base not in bases or [t for t, _ in row] != targets or any(
            p != Fraction(1, base) for _, p in row
        ):
            return [f"{bases}: row {j} is not the base-{base} residue map"]
    return []


def _distribution_errors(bases: tuple[int, ...], chain, res) -> list[str]:
    dist = list(res.dist)
    m = chain.modulus
    if len(dist) != m or any(p < 0 for p in dist) or sum(dist) != 1:
        return [f"{bases}: distribution is not a probability vector of length {m}"]
    flow = [Fraction(0)] * m
    for i, row in enumerate(chain.rows):
        if dist[i]:
            for t, p in row:
                flow[t] += dist[i] * p
    if flow != dist:
        return [f"{bases}: distribution is not a fixed point of the chain"]
    errors = []
    mean_cost = sum(pi * cost for pi, (_, cost) in zip(dist, chain.policy))
    if res.mean_cost != mean_cost:
        errors.append(f"{bases}: mean_cost {res.mean_cost} != {mean_cost}")
    for base in bases:
        prob = sum(pi for pi, (b, _) in zip(dist, chain.policy) if b == base)
        if res.base_probs.get(base) != prob:
            errors.append(f"{bases}: base {base} probability differs")
    return errors


class Markov(Workload):
    name = "markov"
    nominal_kernel_s = 0.127
    setup_probes = 3  # each one solves all four chains
    aliases = {"markov_s_p50": ("op_s_p50", 1)}
    exact_names = ("markov.closed_states_sum", "markov.denominator_bits_max")

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        self._returned: list = []  # keeps ids unique while they are compared
        self._returned_ids: set[int] = set()

    def op(self, k: int):
        t = self.tracer
        sample_seed = self.seed * 1_000_003 + k
        _defeat_stationary_memo()
        out = []
        for bases in BASES_SETS:
            with t.span("markov.build_chain"):
                chain = markov.build_chain(bases)
            with t.span(f"markov.stationary.m{chain.modulus}"):
                res = markov.stationary(chain)
            with t.span("markov.empirical"):
                emp = markov.empirical_slope_stats(bases, EMPIRICAL_SAMPLES, seed=sample_seed)
            out.append((bases, chain, res, emp))
        return out

    @cached_property
    def _cal(self) -> np.ndarray:
        rng = np.random.default_rng(0)
        return rng.integers(0, _CAL_PRIME, size=(400, 400), dtype=np.int64)

    def calibrate(self) -> None:
        # rank-1 updates mod p, as in elimination, then Fractions and a loop
        a = self._cal.copy()
        for k in range(120):
            a[k + 1 :, k + 1 :] = (
                a[k + 1 :, k + 1 :] - a[k + 1 :, k][:, None] * a[k, k + 1 :][None, :]
            ) % _CAL_PRIME
        sum(Fraction(1, i) for i in range(1, 300))
        x = 0
        for i in range(100000):
            x = (x + i * i) % 1000003

    def check(self, k: int, out) -> list[str]:
        errors = []
        for bases, chain, res, (slope, stderr) in out:
            if id(res) in self._returned_ids:
                errors.append(f"{bases}: stationary returned a memoized result")
            self._returned.append(res)
            self._returned_ids.add(id(res))
            errors += _chain_errors(bases, chain) or _distribution_errors(bases, chain, res)
            if not abs(slope - res.coefficient) <= SLOPE_SIGMAS * stderr:
                errors.append(
                    f"{bases}: empirical slope {slope:.5f} +- {stderr:.5f} is far from "
                    f"the stationary coefficient {res.coefficient:.5f}"
                )
        return errors

    def drift_ref(self, k: int) -> int | None:
        return 0 if k else None

    def min_ops(self, traced: bool) -> int:
        # untraced: one operation varies by about 7% even in kernel units,
        # so the medians need more samples than 25 s of 2 s operations give
        return 2 if traced else MARKOV_MIN_OPS

    def trace_extra(self, k: int, out) -> list[str]:
        dists = [res.dist for _, _, res, _ in out]
        self.tracer.count("markov.closed_states_sum", sum(1 for d in dists for p in d if p))
        self.tracer.count(
            "markov.denominator_bits_max",
            max(p.denominator.bit_length() for d in dists for p in d),
        )
        return []

    def layer_metrics(self, ops: list[int], peak_bytes: list[int]) -> dict[str, float]:
        t = self.tracer
        m = self.exact_counts(ops)
        m["markov.build_chain_s"] = t.median_span_time(ops, "markov.build_chain")
        m["markov.stationary_s"] = t.median_span_time(ops, "markov.stationary")
        for bases in BASES_SETS:
            name = f"m{math.lcm(*bases)}"
            m[f"markov.stationary_s.{name}"] = t.median_span_time(ops, f"markov.stationary.{name}")
        m["markov.empirical_s"] = t.median_span_time(ops, "markov.empirical")
        return m


WORKLOADS = {w.name: w for w in (Invert, Verify, Markov)}
