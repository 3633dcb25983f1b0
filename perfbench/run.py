"""Layered benchmark for geomseries.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload invert --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process, one client, closed loop: the next operation starts when the
previous one has returned.  ``--trace 0`` reports the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` records spans around the calls
into each layer and reports the per-layer metrics instead.  ``--workload
all`` runs every workload untraced and traced and prints the tracing
overhead.  Every result is preceded by a machine note; the last line
of standard output is the JSON result.  Spans and the exact counts of
each run are written under ``.perfbench_out/`` in the checkout, and a run
whose exact counts differ from an earlier run of the same code with the
same seed fails.

The BLAS thread cap is set here, before numpy is imported, to the number
of cores this process may run on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("invert", "verify", "markov")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 60
HARD_STOP_S = 120  # the timed loop ends here even short of its minimum count
PEAK_DRIFT_MIB = 1.0
RAW_UNITS = {
    "setup_wall_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "cal_s_p50": "s",
}


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas_runtime(np) -> tuple[str, int | None]:
    """(OpenBLAS config string, threads in use), read from the library numpy bundles."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    return "unknown", None


def _cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"l{level}"] = size
    return out


def machine_note() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        build = "unknown"
    config, threads = _blas_runtime(np)
    return {
        "nproc": cores(),
        "blas_build": build,
        "blas_config": config,
        "blas_threads_in_use": threads,
        "blas_thread_cap": os.environ.get(BLAS_THREAD_VARS[0]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **_cache_sizes(),
    }


class Tally:
    """Operations attempted and failed, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors[:3])


def _checked(tally: Tally, k: int, run, check) -> object:
    """Run one operation, then its checks; exceptions count as failures."""
    try:
        out = run()
    except Exception:
        tally.record([f"op {k} raised:\n{traceback.format_exc()}"])
        return None
    try:
        errors = check(out)
    except Exception:
        errors = [f"check of op {k} raised:\n{traceback.format_exc()}"]
    tally.record(errors)
    return out


def run_probes(
    name: str, seed: int, args: list[str], count: int, tally: Tally
) -> list[tuple[float, float, float]]:
    """(import, first operation, kernel) seconds from each fresh process."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), *args]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
            )
        except subprocess.TimeoutExpired:
            tally.record([f"set-up probe exceeded {PROBE_TIMEOUT_S} s"])
            continue
        if proc.returncode != 0:
            tally.record([f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}"])
            continue
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.record(doc["errors"])
        times.append((doc["import_s"], doc["first_op_s"], doc["kernel_s"]))
    return times


def peak_passes(wl, passes: int, tally: Tally) -> list[int]:
    import tracemalloc

    peaks = []
    for _ in range(passes):
        tracemalloc.start()
        try:
            if _checked(tally, 0, wl.peak_op, lambda out: wl.check(0, out)) is not None:
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    if len(peaks) > 1:  # the repeat is one more checked operation
        drift = (max(peaks) - min(peaks)) / 2**20 >= PEAK_DRIFT_MIB
        tally.record([f"tracemalloc peaks differ between passes: {peaks}"] if drift else [])
    return peaks


def code_digest() -> str:
    """sha256 over the package's sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted(SRC.glob("geomseries/**/*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def compare_counts(path: Path, counts: dict, tally: Tally) -> None:
    """Exact counts must repeat for a seed; peak memory to under 1 MiB.

    ``path`` names the code digest, so only runs of the same code are
    compared: a change that moves a count starts a fresh baseline.
    Comparing with the run before counts as one more checked operation.
    """
    if path.exists():
        before = json.loads(path.read_text())
        errors = []
        for key in sorted(set(before) | set(counts)):
            old, new = before.get(key), counts.get(key)
            if key == "peak_mib" and old is not None and new is not None:
                same = abs(old - new) < PEAK_DRIFT_MIB
            else:
                same = old == new
            if not same:
                errors.append(f"{key} drifted from {old} to {new} for this seed")
        tally.record(errors)
    path.write_text(json.dumps(counts, sort_keys=True))


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import geomseries

    if not Path(geomseries.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"geomseries imported from {geomseries.__file__}, not {SRC}")
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(traced)
    wl = WORKLOADS[name](seed, tracer)
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    wl.prepare()

    setup = []
    if not traced:
        probe_args = wl.probe_args(OUT_DIR)
        try:
            setup = run_probes(name, seed, probe_args, wl.setup_probes, tally)
        finally:
            for arg in probe_args:
                Path(arg).unlink(missing_ok=True)
    passes = wl.peak_passes if not traced else int(wl.traced_peak)
    peaks = peak_passes(wl, passes, tally)

    def kernel_s() -> float:
        began = time.perf_counter()
        wl.calibrate()
        return time.perf_counter() - began

    # Each operation is divided by the mean of the kernel runs before and
    # after it, so the kernel brackets the stretch of time it stands for.
    wl.calibrate()
    durations: list[float] = []
    kernels = [kernel_s()]
    cals: list[float] = []
    ops: list[int] = []
    start = time.perf_counter()
    k = 0
    while True:
        tracer.op = k

        def timed(k=k):
            began = time.perf_counter()
            out = wl.op(k)
            took = time.perf_counter() - began
            kernels.append(kernel_s())
            durations.append(took)
            cals.append((kernels[-2] + kernels[-1]) / 2)
            return out

        def check(out, k=k):
            errors = wl.check(k, out)
            if traced:
                errors += wl.trace_extra(k, out)
                ref = wl.drift_ref(k)
                for key in wl.exact_names if ref is not None else ():
                    if tracer.counts[k].get(key) != tracer.counts[ref].get(key):
                        errors.append(f"op {k}: {key} differs from op {ref}")
            return errors

        if _checked(tally, k, timed, check) is not None:
            ops.append(k)
        k += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and k >= wl.min_ops(traced)) or elapsed >= HARD_STOP_S:
            break
    tracer.op = None

    out = {"note": machine_note(), "samples": len(durations), "messages": tally.messages}
    lacking = [
        what
        for what, wanted, got in (
            ("timed operation", True, durations),
            ("tracemalloc pass", passes, peaks),
            ("set-up probe", not traced, setup),
        )
        if wanted and not got
    ]
    if lacking:
        tally.messages.append(f"no successful {' or '.join(lacking)}; no metrics")
        result = {"correct": False, "attempted": tally.attempted, "failed": tally.failed}
        return out | {"raw": {}, "aliases": {}, "result": {**result, "metrics": {}}}

    raw = {"setup_wall_s": statistics.median(i + o for i, o, _ in setup)} if setup else {}
    raw |= {
        "op_s_p50": statistics.median(durations),
        "op_s_p90": statistics.quantiles(durations, n=10, method="inclusive")[-1],
        "ops_per_s": len(durations) / sum(durations),
        "cal_s_p50": statistics.median(kernels),
    }
    ratios = [d / c for d, c in zip(durations, cals)]
    if traced:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        values.update(wl.layer_metrics(ops, peaks))
        values["trace.op_s_p50"] = raw["op_s_p50"]
        values["trace.op_cal_p50"] = statistics.median(ratios)
        values["trace.cal_s"] = raw["cal_s_p50"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        counts = wl.exact_counts(ops)
    else:
        values = {
            # The first operation is the kind of work the kernel calibrates, so
            # it is converted to seconds at a fixed reference kernel speed,
            # using the kernel time of its own process; a machine running
            # faster or slower for a while then reads as no change.  The
            # import does not follow the kernel's speed and stays as measured.
            "setup_s": statistics.median(
                i + o * wl.nominal_kernel_s / k for i, o, k in setup
            ),
            "op_cal_p50": statistics.median(ratios),
            "op_cal_p90": statistics.quantiles(ratios, n=10, method="inclusive")[-1],
            "ops_per_cal": len(ratios) / sum(ratios),
            "peak_mib": max(peaks) / 2**20,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        counts = {"peak_mib": values["peak_mib"]}
    digest = code_digest()[:16]
    compare_counts(
        OUT_DIR / f"counts-{name}-seed{seed}-trace{int(traced)}-{digest}.json", counts, tally
    )

    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    if traced:
        tracer.dump(
            OUT_DIR / f"trace-{name}-seed{seed}.json",
            {
                "workload": name,
                "seed": seed,
                "machine": out["note"],
                "op_s": durations,
                "kernel_s": kernels,
            },
        )
    return out | {
        "raw": raw,
        "aliases": {
            alias: (raw[metric] * factor, metric) for alias, (metric, factor) in wl.aliases.items()
        },
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        },
    }


def report(name: str, seed: int, traced: bool, out: dict) -> None:
    res = out["result"]
    print(f"machine: {json.dumps(out['note'], sort_keys=True)}")
    print(
        f"workload={name} seed={seed} trace={int(traced)} samples={out['samples']} "
        f"attempted={res['attempted']} failed={res['failed']}"
    )
    for message in out["messages"][:10]:
        print(f"error: {message}", file=sys.stderr)
    for metric, m in res["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {res['failed'] / res['attempted']:.6g} ratio")
    if not out["raw"]:
        return
    print("  wall clock, not gated (a shared machine drifts too much):")
    for metric, value in out["raw"].items():
        print(f"    {metric} = {value:.6g} {RAW_UNITS[metric]}")
    for alias, (value, metric) in out["aliases"].items():
        print(f"    {alias} = {value:.6g} {RAW_UNITS[metric]}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, in fresh processes."""
    summary = {}
    for name in WORKLOAD_NAMES:
        summary[name] = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary[name][f"trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
        plain = summary[name]["trace0"]["metrics"]["op_cal_p50"]["value"]
        traced = summary[name]["trace1"]["metrics"]["trace.op_cal_p50"]["value"]
        summary[name]["tracing_overhead"] = traced / plain - 1
        print(
            f"{name}: tracing overhead = {traced - plain:+.4g} cal per operation, "
            f"{traced / plain - 1:+.2%} of the untraced median"
        )
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "geomseries" / "__init__.py").is_file():
        print(f"error: no geomseries sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cores())
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
