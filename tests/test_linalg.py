import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_series
from geomseries import linalg, slp
from geomseries.linalg import (
    ConvergenceError,
    bench,
    evaluate,
    load_matrix,
    load_matrix_binary,
    load_matrix_csv,
    neumann_invert,
    random_test_matrix,
    residual,
    save_matrix,
    save_matrix_binary,
    save_matrix_csv,
    spectral_radius_estimate,
)
from geomseries.planner import plan


# -- spectral radius ------------------------------------------------------------


def test_spectral_radius_zero_matrix():
    est = spectral_radius_estimate(np.zeros((4, 4)))
    assert est.value == 0.0 and est.converged


def test_spectral_radius_diagonal():
    est = spectral_radius_estimate(np.diag([0.9, 0.1]))
    assert est.converged and est.iterations == 0
    # the lower bound is sqrt(tr B^2 / n) = sqrt(0.41), below the radius 0.9
    assert est.value == pytest.approx(math.sqrt(0.41), rel=1e-14)
    assert est.value <= 0.9


def test_spectral_radius_flags_non_convergence():
    # radius 1: no norm is below one, and the bound does not reach one
    est = spectral_radius_estimate(np.diag([1.0, 0.999]))
    assert not est.converged and est.value < 1.0


def test_precheck_proves_convergence_only_by_a_norm_below_one():
    # ||B||_inf = 1.5 but ||B||_1 = 0.9: either norm is a proof
    assert spectral_radius_estimate(np.array([[0.0, 0.9], [0.0, 0.6]])).converged
    # radius 0.5, but both norms are 1.1: nothing is proved
    est = spectral_radius_estimate(np.array([[0.5, 0.6], [0.0, 0.5]]))
    assert not est.converged and est.value <= 0.5


def test_precheck_proves_divergence_by_traces():
    assert spectral_radius_estimate(np.array([[-2.0]])).value == pytest.approx(2.0)
    # |tr B| / n is 0 and |tr B^2| / n is 4
    assert spectral_radius_estimate(np.array([[0.0, 2.0], [2.0, 0.0]])).value == pytest.approx(2.0)
    # a radius of exactly 1 is within the rounding allowance, so it is not proved
    assert 1.0 - 1e-14 < spectral_radius_estimate(np.eye(3)).value < 1.0
    # nilpotent: the traces are 0 whatever the entries, and nothing is proved
    est = spectral_radius_estimate(np.array([[0.0, 1e300], [0.0, 0.0]]))
    assert est.value == 0.0 and not est.converged


def test_precheck_bound_beyond_the_float_range_is_infinite():
    # radius 3e308, and sqrt(|tr B^2| / n) = 2.1e308 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_radius_estimate(np.full((2, 2), -1.5e308)).value == math.inf


def test_precheck_does_not_take_an_overflow_for_convergence():
    # radius 2e200: a bound that overflows must not read as convergence
    b = np.full((2, 2), 1e200)
    est = spectral_radius_estimate(b)
    assert not est.converged and est.value == pytest.approx(math.sqrt(2) * 1e200)

    def not_reached(*args):
        raise AssertionError("evaluated a series the precheck proves divergent")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "evaluate", not_reached)
        with pytest.raises(ConvergenceError, match=r"at least 1\.41421e\+200"):
            neumann_invert(np.eye(2) - b, 26)


def test_spectral_radius_of_generated_matrices_below_one():
    for seed in (0, 1, 2):
        a = random_test_matrix(40, seed)
        est = spectral_radius_estimate(np.eye(40) - a)
        assert est.value <= 0.9 + 1e-8


def test_precheck_of_overflowing_entries_warns_nothing():
    # B = I - A is about -1e308 everywhere, radius 2e308; the bound
    # sqrt(|tr B^2| / 2) is computed on B scaled by a power of two
    a = np.full((2, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_radius_estimate(np.eye(2) - a).value == pytest.approx(math.sqrt(2) * 1e308)
        with pytest.raises(ConvergenceError):
            neumann_invert(a, 26)
        _, rep = neumann_invert(a, 26, allow_divergent=True)
    assert rep.radius_lower_bound == pytest.approx(math.sqrt(2) * 1e308)
    assert rep.residual_fro == math.inf and rep.forward_error_bound is None


def test_neumann_invert_calls_the_precheck_once_through_the_module(monkeypatch):
    # The benchmark's traced invert run wraps linalg.spectral_radius_estimate
    # and reads ``converged`` and ``iterations`` from each result.  This test
    # goes with ROADMAP item 2's deletion of the precheck, after item 1a.
    calls = []
    precheck = linalg.spectral_radius_estimate

    def counted(b):
        calls.append(precheck(b))
        return calls[-1]

    monkeypatch.setattr(linalg, "spectral_radius_estimate", counted)
    neumann_invert(random_test_matrix(8, seed=1), 26)
    assert len(calls) == 1
    assert isinstance(calls[0].converged, bool) and calls[0].iterations == 0


def _exact_inverse(a):
    """A^-1 in Fractions by Gauss-Jordan elimination; None when A is singular."""
    n = len(a)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a.tolist())
    ]
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def _sweep_matrices(rng):
    """B = I - A for four kinds of small A, each kind at several sizes."""
    for n in range(1, 7):
        for radius in (0.3, 0.9, 0.999, 1.05, 2.0):  # scaled random, divergent last
            b = rng.standard_normal((n, n))
            yield "random", b * (radius / max(abs(np.linalg.eigvals(b))))
        for diag in (0.5, 0.95, 1.2):  # non-normal: large entries above the diagonal
            b = np.triu(30.0 * rng.standard_normal((n, n)), 1)
            yield "triangular", b + np.diag(rng.uniform(-diag, diag, n))
        for small in (1e-3, 1e-9, 0.0):  # near-singular A, and a singular one
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = np.linspace(1.0, 0.5, n)
            s[-1] = small
            yield "near-singular", np.eye(n) - (u * s) @ v.T


def test_precheck_and_forward_error_bound_hold_on_a_seeded_sweep():
    outcomes = {"raised": 0, "certified": 0, "uncertified": 0}
    for kind, b in _sweep_matrices(np.random.default_rng(2027)):
        rho = max(abs(np.linalg.eigvals(b)))
        est = spectral_radius_estimate(b)
        assert est.value <= rho, (kind, b)
        assert rho < 1 or not est.converged, (kind, b)
        a = np.eye(len(b)) - b
        inverse = _exact_inverse(a)
        for terms in (5, 26, 200):
            try:
                x, rep = neumann_invert(a, terms)
            except ConvergenceError:
                outcomes["raised"] += 1
                continue
            if rep.forward_error_bound is None:
                outcomes["uncertified"] += 1
                continue
            outcomes["certified"] += 1
            assert inverse is not None  # r < 1 proves A invertible
            error = sum(
                (want - Fraction(got)) ** 2
                for want_row, got_row in zip(inverse, x.tolist())
                for want, got in zip(want_row, got_row)
            )
            assert error <= Fraction(rep.forward_error_bound) ** 2, (kind, terms, b)
    assert min(outcomes.values()) >= 10, outcomes


# -- residual ---------------------------------------------------------------------


def test_residual_identity_is_zero():
    assert residual(np.eye(5), np.eye(5)) == 0.0


def test_residual_of_exact_inverse_is_machine_scale():
    a = random_test_matrix(30, seed=4)
    assert residual(a, np.linalg.inv(a)) < 1e-10


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        residual(np.eye(3), np.eye(4))


@pytest.mark.parametrize(
    "bad", [np.full((2, 2), np.nan), np.full((2, 2), np.inf), np.ones((2, 3)), np.zeros((0, 0))]
)
def test_public_checks_reject_bad_matrices(bad):
    with pytest.raises(ValueError):
        spectral_radius_estimate(bad)
    with pytest.raises(ValueError):
        residual(bad, np.eye(2))
    with pytest.raises(ValueError):
        residual(np.eye(2), bad)


def test_residual_decreases_with_more_terms():
    a = random_test_matrix(40, seed=8)
    values = []
    for terms in range(5, 10):
        _, rep = neumann_invert(a, terms, strategy="auto")
        values.append(rep.residual_fro)
    assert all(x > y for x, y in zip(values, values[1:]))


# -- generator ---------------------------------------------------------------------


def test_random_test_matrix_is_deterministic_and_symmetric():
    a = random_test_matrix(25, seed=12)
    b = random_test_matrix(25, seed=12)
    assert np.array_equal(a, b)
    assert np.allclose(a, a.T)
    assert not np.array_equal(a, random_test_matrix(25, seed=13))


def test_random_test_matrix_eigenvalues_in_band():
    a = random_test_matrix(60, seed=2)
    w = np.linalg.eigvalsh(a)
    assert w.min() > 0.1 - 1e-9
    assert w.max() < 1.9 + 1e-9


def test_random_test_matrix_scalar_case():
    a = random_test_matrix(1, seed=5)
    assert a.shape == (1, 1)
    assert 0.1 <= a[0, 0] <= 1.9


# -- inversion ---------------------------------------------------------------------


def test_invert_identity_gives_identity():
    a_hat, rep = neumann_invert(np.eye(6), 5, strategy="auto")
    assert np.array_equal(a_hat, np.eye(6))
    assert rep.residual_fro == 0.0
    assert rep.radius_lower_bound == 0.0 and rep.norm_below_one


def test_invert_scalar_matches_series_sum():
    a_hat, rep = neumann_invert(np.array([[0.5]]), 5, strategy="auto")
    assert a_hat[0, 0] == brute_series(5, 0.5) == 1.9375
    assert rep.matrix_muls == 2


def test_invert_scalar_embedding_equals_scalar_eval():
    from geomseries.slp import evaluate

    a_hat, _ = neumann_invert(np.array([[0.75]]), 7)
    assert a_hat[0, 0] == evaluate(plan(7, "auto").program, 1.0 - 0.75)


def test_invert_counts_match_plans_exactly():
    a = random_test_matrix(30, seed=9)
    for terms, direct_muls, fast_muls in (
        (5, 3, 2),
        (6, 4, 3),
        (7, 5, 3),
        (8, 6, 4),
        (9, 7, 4),
    ):
        _, rep_fast = neumann_invert(a, terms, strategy="auto")
        _, rep_direct = neumann_invert(a, terms, strategy="direct")
        assert rep_fast.matrix_muls == fast_muls
        assert rep_direct.matrix_muls == direct_muls


def test_invert_paths_agree():
    for n, seed in ((30, 1), (50, 2)):
        a = random_test_matrix(n, seed)
        for terms in range(5, 10):
            fast, _ = neumann_invert(a, terms, strategy="auto")
            direct, _ = neumann_invert(a, terms, strategy="direct")
            rel = np.linalg.norm(fast - direct, "fro") / np.linalg.norm(direct, "fro")
            assert rel <= 1e-8


def test_invert_rejects_divergent_unless_overridden():
    hot = np.array([[3.0]])
    with pytest.raises(ConvergenceError):
        neumann_invert(hot, 5)
    a_hat, rep = neumann_invert(hot, 5, allow_divergent=True)
    assert a_hat[0, 0] == brute_series(5, -2.0)
    assert rep.radius_lower_bound >= 1.0 and rep.forward_error_bound is None


# B = 0.85 I - 0.35 [[0, 1], [1, 0]] has spectral radius 1.2, but its traces
# bound it only by 0.919 and its norms are 1.2, so the precheck proves nothing
_FOOLED_B = 0.85 * np.eye(2) - 0.35 * np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("terms,overflows", [(200, False), (5000, True)])
def test_invert_rejects_a_result_no_better_than_zero(terms, overflows):
    a = np.eye(2) - _FOOLED_B
    est = spectral_radius_estimate(_FOOLED_B)
    assert est.value == pytest.approx(math.sqrt(0.845)) and not est.converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is the residual gate's to report
        with pytest.raises(ConvergenceError):
            neumann_invert(a, terms)
        a_hat, rep = neumann_invert(a, terms, allow_divergent=True)
    assert np.isfinite(a_hat).all() != overflows
    assert rep.residual_fro == math.inf if overflows else rep.residual_fro >= math.sqrt(2)


def test_invert_report_says_what_ran():
    report = plan(26, "auto")
    prog = report.program
    a = random_test_matrix(12, seed=3)
    a_hat, rep = neumann_invert(a, 26)
    assert rep.strategy == report.method
    assert rep.plan_sha256 == linalg.plan_digest(prog)
    assert rep.radius_lower_bound <= 0.9  # the generator's radius bound
    assert np.linalg.norm(np.linalg.inv(a) - a_hat, "fro") <= rep.forward_error_bound
    assert rep.matrix_buffers == evaluate(prog, np.eye(12))[2]


def test_invert_validates_inputs():
    with pytest.raises(ValueError):
        neumann_invert(np.ones((2, 3)), 5)
    with pytest.raises(ValueError):
        neumann_invert(np.eye(3) * np.nan, 5)
    with pytest.raises(ValueError, match="non-empty square matrix"):
        neumann_invert(np.zeros((0, 0)), 5)


def test_invert_checks_the_executed_product_count(monkeypatch):
    engine = linalg.evaluate

    def one_product_short(program, b):
        out, products, held = engine(program, b)
        return out, products - 1, held

    monkeypatch.setattr(linalg, "evaluate", one_product_short)
    with pytest.raises(AssertionError, match="executed 5 matrix multiplications, plan declared 6"):
        neumann_invert(random_test_matrix(8, seed=1), 26)


# -- matrix engine ----------------------------------------------------------------


class _MatmulRing:
    """Generic matrix ring element: the identity is np.eye, products are @."""

    def __init__(self, a):
        self.a = a

    def __add__(self, other):
        return _MatmulRing(self.a + other.a)

    def __sub__(self, other):
        return _MatmulRing(self.a - other.a)

    def __mul__(self, other):
        return _MatmulRing(self.a @ other.a)

    def ring_one(self):
        return _MatmulRing(np.eye(self.a.shape[0]))


_STRATEGIES = ("direct", "binary", "ternary", "prime:3", "mixed:11,7,5,3,2", "recurrence", "auto")


def test_engine_equals_generic_matmul_evaluation():
    programs = []
    for strategy in _STRATEGIES:
        for terms in range(1, 120):
            try:
                programs.append(plan(terms, strategy).program)
            except ValueError:
                continue  # strategy not applicable at this length
    for n in (1, 3, 17):
        a = random_test_matrix(n, seed=40 + n)
        b = np.eye(n) - a
        for prog in programs:
            got, products, _ = evaluate(prog, b.copy())
            assert np.array_equal(got, slp.evaluate(prog, _MatmulRing(b)).a)
            assert products == prog.declared_muls
            # the residual with one temporary is the textbook formula's
            assert residual(a, got) == np.linalg.norm(np.eye(n) - a @ got, "fro")


def test_engine_handles_every_use_of_the_identity():
    # 1 - X, X * 1, 1 * 1 and 1 + 1 appear in no emitted plan
    leaves = [slp.Instr("INPUT"), slp.Instr("ONE")]
    prog = slp.SlpProgram(
        tuple(leaves + [
            slp.Instr("SUB", 1, 0),  # 2: 1 - x
            slp.Instr("MUL", 2, 1),  # 3: (1 - x) * 1
            slp.Instr("MUL", 1, 1),  # 4: 1 * 1
            slp.Instr("ADD", 4, 1),  # 5: 2
            slp.Instr("SUB", 5, 4),  # 6: 1
            slp.Instr("MUL", 3, 0),  # 7: (1 - x) x
            slp.Instr("SUB", 7, 6),  # 8: (1 - x) x - 1
            slp.Instr("MUL", 5, 8),  # 9: 2 ((1 - x) x - 1)
            slp.Instr("SUB", 9, 0),  # 10
            slp.Instr("MUL", 10, 3),  # 11
        ]),
        output=11,
        series_length=1,
    )
    b = np.eye(5) - random_test_matrix(5, seed=2)
    got, products, _ = evaluate(prog, b.copy())
    assert np.array_equal(got, slp.evaluate(prog, _MatmulRing(b)).a)
    assert products == prog.declared_muls == 5


@pytest.mark.parametrize("terms", [1, 2, 3, 26])
def test_engine_leaves_its_inputs_alone(terms):
    a = random_test_matrix(6, seed=terms)
    a_copy = a.copy()
    a_hat, _ = neumann_invert(a, terms)
    assert np.array_equal(a, a_copy)
    assert not np.shares_memory(a_hat, a)
    # evaluate consumes b: the result may be b's own buffer, and is the caller's
    prog = plan(terms, "auto").program
    b = np.eye(6) - a
    want = slp.evaluate(prog, _MatmulRing(b)).a
    out, _, _ = evaluate(prog, b)
    assert np.array_equal(out, want)
    if terms == 1:
        assert out is b  # 1 * I is written into b's dead buffer
    assert out is b or not np.shares_memory(out, b)
    out[:] = 0.0  # the result is the caller's to write
    assert np.array_equal(evaluate(prog, np.eye(6) - a)[0], want)
    c = (np.eye(6) - a).astype(np.float32)  # another dtype runs on a float64 copy
    c_copy = c.copy()
    got = evaluate(prog, c)[0]
    assert np.array_equal(got, slp.evaluate(prog, _MatmulRing(c.astype(float))).a)
    assert np.array_equal(c, c_copy)


@pytest.mark.parametrize("terms", [26, 677, 458330])
def test_invert_memory_stays_within_the_engine_buffers(terms):
    n = 200
    a = random_test_matrix(n, seed=11)
    neumann_invert(a, terms)  # plan caches and first-call allocations
    tracemalloc.start()
    try:
        _, rep = neumann_invert(a, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.matrix_buffers == {26: 4, 677: 5, 458330: 6}[terms]  # B = I - A among them
    # slack: two n^2-byte bool masks, the temporaries of _as_square's finiteness
    # checks; at the engine's peak only small objects sit beside its buffers
    assert peak <= rep.matrix_buffers * 8 * n * n + 2 * n * n


class _LiveValue:
    """Ring element counting the values ring operations made that are alive."""

    live = most = 0

    def __init__(self, made: bool = False) -> None:
        self.made = made
        if made:
            _LiveValue.live += 1
            _LiveValue.most = max(_LiveValue.most, _LiveValue.live)

    def __del__(self) -> None:
        if self.made:
            _LiveValue.live -= 1

    def __add__(self, other):
        return _LiveValue(made=True)

    __sub__ = __mul__ = __add__

    def ring_one(self):
        return _LiveValue()


@pytest.mark.parametrize(
    "terms,strategy", [(26, "auto"), (4096, "binary"), (4096, "auto"), (677, "direct")]
)
def test_generic_evaluation_holds_no_more_values_than_the_engine(terms, strategy):
    # x and the identity are held throughout, as the engine holds B and a
    # scalar; the one value more is a result made while both operands live,
    # where the engine writes into the operand that dies
    prog = plan(terms, strategy).program
    _LiveValue.live = _LiveValue.most = 0
    out = slp.evaluate(prog, _LiveValue())
    assert _LiveValue.live == 1
    del out
    assert _LiveValue.live == 0
    assert 1 <= _LiveValue.most <= evaluate(prog, np.eye(2))[2] + 1


# -- bench -------------------------------------------------------------------------


def test_bench_counts_and_agreement():
    cells = bench([24], [5, 9], replicates=3, seed=1)
    by_terms = {c.terms: c for c in cells}
    assert by_terms[5].direct_muls == 3 and by_terms[5].fast_muls == 2
    assert by_terms[9].direct_muls == 7 and by_terms[9].fast_muls == 4
    for c in cells:
        assert c.path_diff_rel <= 1e-10
        assert c.direct_mean_s > 0 and c.fast_mean_s > 0
        assert c.replicates == 3


def test_bench_validates_replicates():
    with pytest.raises(ValueError):
        bench([10], [5], replicates=0)


# -- matrix io ------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    a = random_test_matrix(9, seed=3)
    path = str(tmp_path / "m.csv")
    save_matrix_csv(path, a)
    assert np.array_equal(load_matrix_csv(path), a)


def test_binary_round_trip_is_exact(tmp_path):
    a = random_test_matrix(9, seed=3)
    path = str(tmp_path / "m.bin")
    save_matrix_binary(path, a)
    assert np.array_equal(load_matrix_binary(path), a)


def test_load_matrix_dispatches_on_extension(tmp_path):
    a = random_test_matrix(4, seed=1)
    csv_path = str(tmp_path / "m.csv")
    bin_path = str(tmp_path / "m.mat")
    save_matrix(csv_path, a)
    save_matrix(bin_path, a)
    assert np.array_equal(load_matrix(csv_path), a)
    assert np.array_equal(load_matrix(bin_path), a)


def test_binary_loader_rejects_corruption(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 30)
    with pytest.raises(ValueError):
        load_matrix_binary(path)


def test_csv_loader_rejects_ragged_rows(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)
