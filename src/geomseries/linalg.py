"""Applying evaluation plans to dense matrices.

An approximate inverse of A comes from running a series plan over the
matrix ring at B = I - A: the length-N all-ones polynomial in B is the
N-term truncation of the inverse's expansion, valid when the spectral
radius of B is below one.  Any oracle-verified plan computes exactly the
same polynomial as the nested baseline, so both paths agree to rounding
while the fast path spends fewer matrix-matrix multiplications.

Plans run on one in-place engine, :func:`evaluate`, which holds at most
one n x n buffer per live register, keeps the identity as a scalar and
counts the products it runs.  An O(n^2) precheck rejects only a B that
provably diverges; the answer is certified by its own residual, which
also bounds its forward error.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from .planner import plan as build_plan
from .slp import ADD, INPUT, MUL, ONE, SUB, SlpProgram, _lengths_and_last_reads, to_json


def plan_digest(program: SlpProgram) -> str:
    """sha256 of the plan's canonical JSON; ties reports to exact programs."""
    return hashlib.sha256(to_json(program).encode()).hexdigest()

_MAGIC = b"GSMX"
_BINARY_VERSION = 1


class ConvergenceError(ValueError):
    """The series does not converge: the precheck proved that I - A has
    spectral radius >= 1, or the result is non-finite or no closer to the
    inverse than the zero matrix."""


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """``value`` <= rho(B); ``converged`` when a norm of B below one proves
    the series converges.  Nothing is iterated: ``iterations`` is 0."""

    value: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class NeumannReport:
    """Record of one inversion run.

    ``matrix_buffers`` is the most n x n matrices the engine held at once,
    B = I - A and the result included.  ``forward_error_bound`` bounds
    ||A^-1 - X||_F, and is None when the residual cannot certify X.
    """

    n: int
    terms: int
    strategy: str
    matrix_muls: int
    wall_time: float
    residual_fro: float
    radius_lower_bound: float
    norm_below_one: bool
    forward_error_bound: float | None
    plan_sha256: str
    matrix_buffers: int


@dataclass(frozen=True)
class BenchCell:
    """Direct-vs-fast comparison for one (matrix size, series length) cell.

    ``speedup`` compares means; ``speedup_median`` compares medians and is
    the robust figure on machines with noisy neighbors.
    """

    size: int
    terms: int
    direct_muls: int
    fast_muls: int
    fast_method: str
    direct_mean_s: float
    direct_std_s: float
    direct_median_s: float
    fast_mean_s: float
    fast_std_s: float
    fast_median_s: float
    speedup: float
    speedup_median: float
    residual_fro: float
    path_diff_rel: float
    replicates: int
    direct_plan_sha256: str
    fast_plan_sha256: str


def _as_square(a, finite: bool = True) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if finite and not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the error of k roundings."""
    return k / (2.0**53 - k)


def spectral_radius_estimate(b) -> SpectralRadiusEstimate:
    """Rigorous O(n^2) facts about the spectral radius of B; no iteration.

    ``value`` is max(|tr B| / n, sqrt(|tr B^2| / n)) less an allowance for
    the rounding of both sums (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.5), so ``value >= 1`` proves rho(B) >= 1;
    a bound beyond the float range is infinite.  ``converged`` is True only
    when ||B||_inf < 1 or ||B||_1 < 1 with the same kind of allowance.
    Neither proves anything otherwise: B = 0.85 I - 0.35 [[0, 1], [1, 0]]
    has radius 1.2 but gets a bound of 0.919 and no convergence.
    """
    m = _as_square(b, finite=False)
    n = m.shape[0]
    top = max(float(m.max()), -float(m.min()))
    if not top < math.inf:
        raise ValueError("matrix has non-finite entries")
    # ||B||_inf < 1 needs row 0's sum below one and ||B||_1 < 1 column 0's;
    # both need every entry below one, and then no sum overflows
    norm = math.inf
    if top < 1 and min(np.abs(m[0]).sum(), np.abs(m[:, 0]).sum()) < 1:
        mag = np.abs(m)
        norm = min(mag.sum(1).max(), mag.sum(0).max())
    # a power of two maps the entries into [-1, 1] exactly, so no sum
    # overflows; an entry it makes subnormal loses less than ``tiny``
    s = 2.0 ** -math.frexp(top)[1] if top > 1 else 1.0
    c = m * s if s != 1.0 else m
    d, tiny = c.diagonal(), np.finfo(float).tiny
    t1 = abs(d.sum()) - _gamma(n + 2) * np.abs(d).sum() - n * tiny
    t2 = abs(np.einsum("ij,ji->", c, c)) - _gamma(2 * n * n + 4) * np.vdot(c, c) - n * n * tiny
    low = max(0.0, t1 / n, math.sqrt(max(t2, 0.0) / n))
    # 1 - gamma_6 covers the five roundings after the allowances; / s is exact or inf
    value = float(low) * (1 - _gamma(6)) / s
    return SpectralRadiusEstimate(value, bool(norm < 1 - _gamma(n + 2)), 0)


def _residual(m: np.ndarray, h: np.ndarray) -> float:
    """||I - m h||_F with one n x n temporary; inf when it is not finite."""
    r = m @ h
    _shift_diagonal(r, -1.0)  # A A_hat - I has the same norm
    return min(math.inf, float(np.linalg.norm(r, "fro")))  # a NaN norm reads inf


def residual(a, a_hat) -> float:
    """Frobenius norm of I - A * A_hat, with one n x n temporary."""
    m, h = _as_square(a), _as_square(a_hat)
    if m.shape != h.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {h.shape}")
    return _residual(m, h)


def random_test_matrix(n: int, seed: int) -> np.ndarray:
    """Symmetric test matrix with eigenvalues drawn uniformly in [0.1, 1.9].

    Built as Q D Q^t with a seeded random orthogonal Q, so the spectral
    radius of I - A is at most 0.9 by construction and the same (n, seed)
    always reproduces the same matrix.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    d = rng.uniform(0.1, 1.9, size=n)
    a = (q * d) @ q.T
    return 0.5 * (a + a.T)


def _shift_diagonal(x: np.ndarray, c: float) -> None:
    """x += c * I in place, in O(n)."""
    x.flat[:: x.shape[0] + 1] += c


def _identity_minus(m: np.ndarray) -> np.ndarray:
    """I - m as -m plus 1 on the diagonal: one new matrix, no identity."""
    b = np.negative(m)
    _shift_diagonal(b, 1.0)
    return b


def evaluate(program: SlpProgram, b: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Run ``program`` over the n x n matrices at x = ``b``, in place.

    Returns the result, the number of matrix products run (one per MUL)
    and the most n x n buffers held at once, ``b`` and the result among
    them.  ``b`` is consumed: its buffer is reused once the INPUT register
    is dead and may be the result, so pass a copy to keep it (a ``b`` of
    another dtype runs on a float64 copy and is left alone).  A register
    holds a buffer or, for ONE and registers computed from ONE alone, a
    float c standing for c * I: adding, subtracting or multiplying by it
    updates a diagonal or scales, the same IEEE operations the generic
    evaluation with ``np.eye`` and ``@`` performs on every entry it does
    not merely add an exact zero to.  Each buffer returns to a free list
    after its register's last read; a product goes into a free buffer, and
    a sum or difference into an operand buffer that dies there.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    instrs = program.instrs
    _, last = _lengths_and_last_reads(program)  # a register nobody reads dies at once
    regs: list = [None] * len(instrs)
    free: list[np.ndarray] = []
    held, products = 1, 0  # b is the first buffer

    def take() -> np.ndarray:
        nonlocal held
        if free:
            return free.pop()
        held += 1
        return np.empty((n, n))

    for i, ins in enumerate(instrs):
        if ins.op == ONE:
            out = 1.0
        elif ins.op == INPUT:
            out = b
        else:
            x, y = regs[ins.a], regs[ins.b]
            xs, ys = isinstance(x, float), isinstance(y, float)
            if ins.op == MUL:
                products += 1
            if xs and ys:
                out = x * y if ins.op == MUL else x + y if ins.op == ADD else x - y
            elif ins.op == MUL and not (xs or ys):
                out = np.matmul(x, y, out=take())  # never aliases an operand
            else:
                # elementwise: an operand buffer read here for the last time takes the result
                out = next(
                    (v for r, v in ((ins.a, x), (ins.b, y))
                     if last[r] == i and isinstance(v, np.ndarray)),
                    None,
                )
                if out is None:
                    out = take()
                if not (xs or ys):
                    (np.add if ins.op == ADD else np.subtract)(x, y, out=out)
                elif ins.op == MUL:
                    np.multiply(x, y, out=out)
                elif ins.op == SUB and xs:  # c - Y = -Y + c
                    np.negative(y, out=out)
                    _shift_diagonal(out, x)
                else:  # X + c, c + Y, X - c
                    z, c = (y, x) if xs else (x, y)
                    if out is not z:
                        np.copyto(out, z)
                    _shift_diagonal(out, c if ins.op == ADD else -c)
        regs[i] = out
        for r in (ins.a, ins.b, i):  # leaves have no operands
            if r is not None and last[r] == i and regs[r] is not None:
                v, regs[r] = regs[r], None
                if isinstance(v, np.ndarray) and (r == i or v is not out):
                    free.append(v)
    out = regs[program.output]
    if isinstance(out, float):
        c, out = out, take()
        out.fill(0.0)
        _shift_diagonal(out, c)
    return out, products, held


def neumann_invert(
    a, terms: int, *, strategy: str = "auto", allow_divergent: bool = False
) -> tuple[np.ndarray, NeumannReport]:
    """Approximate inverse from the length-``terms`` series plan at B = I - A.

    The plan is ``plan(terms, strategy)``, and the report's ``strategy`` is
    that plan's method.  Executes exactly the plan's number of
    matrix-matrix multiplications (counted by the engine, and checked).
    Unless ``allow_divergent``, raises ConvergenceError before evaluating
    when the precheck proves that I - A has spectral radius >= 1, and after
    it when the result is non-finite or its residual ||I - A X||_F =
    ||B^terms||_F is at least sqrt(n) = ||I||_F, that is no better than
    X = 0.  A non-finite result that is let through reports an infinite
    residual.  The answer certifies itself: with r an upper bound on the
    true ||I - A X||_F, ||A^-1 - X||_F <= ||X||_F r / (1 - r) when r < 1.
    """
    m = _as_square(a)
    report = build_plan(terms, strategy)
    plan = report.program
    n = m.shape[0]
    b = _identity_minus(m)
    rho = spectral_radius_estimate(b)
    if rho.value >= 1.0 and not allow_divergent:
        raise ConvergenceError(
            f"spectral radius of I - A is at least {rho.value:.6g} >= 1; "
            "the series diverges (pass allow_divergent to override)"
        )
    # a divergent series may overflow; the residual gate below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        start = time.perf_counter()
        a_hat, products, buffers = evaluate(plan, b)  # b is not read again
        wall = time.perf_counter() - start
        res = _residual(m, a_hat)
        # the true ||R||_F: the computed one plus the product's rounding, gamma_n
        # ||A||_F ||X||_F (Higham 2002, section 3.5), g covering the norms' own
        x_norm, g = float(np.linalg.norm(a_hat)), _gamma(2 * n * n + 16)
        r = (res + _gamma(n + 2) * float(np.linalg.norm(m)) * x_norm) * (1 + g)
        forward = x_norm * r / (1 - r) * (1 + g) if r < 1 else None
    if products != plan.declared_muls:
        raise AssertionError(
            f"executed {products} matrix multiplications, plan declared "
            f"{plan.declared_muls}"
        )
    if not res < math.sqrt(n) and not allow_divergent:
        raise ConvergenceError(
            f"residual ||I - A X||_F = {res:.6g} is not below sqrt(n) = "
            f"{math.sqrt(n):.6g}: the series diverged (pass allow_divergent to override)"
        )
    rep = NeumannReport(
        n=n,
        terms=terms,
        strategy=report.method,
        matrix_muls=products,
        wall_time=wall,
        residual_fro=res,
        radius_lower_bound=rho.value,
        norm_below_one=rho.converged,
        forward_error_bound=forward,
        plan_sha256=plan_digest(plan),
        matrix_buffers=buffers,
    )
    return a_hat, rep


def bench(
    sizes,
    terms_list,
    replicates: int = 100,
    seed: int = 0,
) -> list[BenchCell]:
    """Direct (nested) vs fast (auto-planned) inversion timings.

    Both paths run on identical seeded matrices through the same engine;
    one warm-up run per path is excluded and the timed runs alternate
    paths.  Times use the monotonic high-resolution clock.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    cells = []
    for size in sizes:
        a = random_test_matrix(size, seed=seed * 100003 + size)
        b = _identity_minus(a)
        for terms in terms_list:
            direct = build_plan(terms, "direct")
            fast = build_plan(terms, "auto")
            # evaluate consumes its input, so each run gets a copy made off the clock
            d_out, d_muls, _ = evaluate(direct.program, b.copy())  # warm-up
            f_out, f_muls, _ = evaluate(fast.program, b.copy())
            times = np.empty((2, replicates))
            for i in range(replicates):
                for j, program in enumerate((direct.program, fast.program)):
                    x = b.copy()
                    start = time.perf_counter()
                    evaluate(program, x)
                    times[j, i] = time.perf_counter() - start
            d_times, f_times = times
            denom = float(np.linalg.norm(d_out, "fro")) or 1.0
            cells.append(
                BenchCell(
                    size=size,
                    terms=terms,
                    direct_muls=d_muls,
                    fast_muls=f_muls,
                    fast_method=fast.method,
                    direct_mean_s=float(d_times.mean()),
                    direct_std_s=float(d_times.std(ddof=1)) if replicates > 1 else 0.0,
                    direct_median_s=float(np.median(d_times)),
                    fast_mean_s=float(f_times.mean()),
                    fast_std_s=float(f_times.std(ddof=1)) if replicates > 1 else 0.0,
                    fast_median_s=float(np.median(f_times)),
                    speedup=float(d_times.mean() / f_times.mean()),
                    speedup_median=float(np.median(d_times) / np.median(f_times)),
                    residual_fro=residual(a, f_out),
                    path_diff_rel=float(np.linalg.norm(f_out - d_out, "fro")) / denom,
                    replicates=replicates,
                    direct_plan_sha256=plan_digest(direct.program),
                    fast_plan_sha256=plan_digest(fast.program),
                )
            )
    return cells


def save_matrix_csv(path: str, a) -> None:
    m = _as_square(a)
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_matrix_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.array(rows, dtype=float)


def save_matrix_binary(path: str, a) -> None:
    """Little-endian format: magic 'GSMX', u32 version, u64 rows, u64 cols,
    then row-major float64 entries."""
    m = np.ascontiguousarray(_as_square(a), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQQ", _MAGIC, _BINARY_VERSION, m.shape[0], m.shape[1]))
        fh.write(m.tobytes(order="C"))


def load_matrix_binary(path: str) -> np.ndarray:
    header = struct.calcsize("<4sIQQ")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header:
        raise ValueError(f"{path}: truncated header")
    magic, version, rows, cols = struct.unpack_from("<4sIQQ", raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _BINARY_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    expect = header + rows * cols * 8
    if len(raw) != expect:
        raise ValueError(f"{path}: expected {expect} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=header, count=rows * cols)
    return data.reshape(rows, cols).astype(float)


def load_matrix(path: str) -> np.ndarray:
    """CSV when the extension is .csv (case-insensitive), binary otherwise."""
    if path.lower().endswith(".csv"):
        return load_matrix_csv(path)
    return load_matrix_binary(path)


def save_matrix(path: str, a) -> None:
    if path.lower().endswith(".csv"):
        save_matrix_csv(path, a)
    else:
        save_matrix_binary(path, a)


__all__ = [
    "ConvergenceError",
    "SpectralRadiusEstimate",
    "NeumannReport",
    "BenchCell",
    "spectral_radius_estimate",
    "residual",
    "random_test_matrix",
    "evaluate",
    "neumann_invert",
    "bench",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_matrix_binary",
    "load_matrix_binary",
    "load_matrix",
    "save_matrix",
]
