"""Benchmark of the krausloom CLI, driven in process through ``krausloom.cli.main``.

    python3 benchmark/run.py --workload channel-point --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One caller runs a closed loop over whole cycles of the workload's seeded op
list until ``--seconds`` have passed, checks every op's output against the
benchmark's own oracles, and prints one JSON line: the end-to-end metrics
with ``--trace 0``, or, with ``--trace 1``, the per-layer metrics of a
separate run with every layer call wrapped in a span.

The run keeps to one CPU. Op and set-up times are CPU time on it, scaled to
the speed of a reference machine by a calibration loop sampled all through
the run (``HostSpeed``).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter, process_time, thread_time

import numpy as np

import workloads as wl

OUT_DIR = ".bench_out"

# Host-speed calibration (see ``HostSpeed``).
CAL_NOMINAL_S = 6.0e-4  # about the loop's median CPU seconds on the reference machine
CAL_PERIOD_S = 0.02  # wall seconds between calibration samples
CAL_WINDOW_S = 1.0  # wall seconds either side of an op whose samples also scale it
_CAL_MATRIX = np.array([[0.6, 0.2j], [-0.2j, 0.4]])

# Fresh-interpreter set-up: import the package and run the first op.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from krausloom.cli import main
sys.exit(main(sys.argv[2:]))
"""


@dataclass(frozen=True)
class Workload:
    cycle: object  # (rng, sweep dir) -> list[Op]
    check: object  # (op, stdout, reference matrix) -> list of error strings
    setup_repeats: int
    warmup_ops: int


WORKLOADS = {
    "channel-sweep": Workload(lambda rng, d: wl.sweep_cycle(rng, d),
                              lambda op, out, ref: wl.check_sweep(op, out), 3, 0),
    "channel-point": Workload(lambda rng, d: wl.point_cycle(rng), wl.check_point, 5, 40),
    "tomography": Workload(lambda rng, d: wl.tomography_cycle(rng),
                           lambda op, out, ref: wl.check_tomography(op, out), 5, 8),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def cpu_clock() -> float:
    """CPU seconds of this process (all threads) and of its waited-for children.

    Op and set-up times are differences of this clock, less the calibration
    thread's CPU time. On a virtual machine whose CPUs are shared with other
    guests, hypervisor steal and run-queue waits pause a process at random,
    tens of milliseconds at a time; a kernel with paravirtual steal accounting
    leaves both out of CPU time. Children count, so that work moved into a
    worker process still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def calibration_loop() -> float:
    """A fixed mix of interpreter work and small numpy calls, like an op's, that
    calls no krausloom code."""
    acc = 0.0
    for k in range(8):
        big = np.kron(_CAL_MATRIX, _CAL_MATRIX)
        acc += float(np.real(np.trace(big @ big.conj().T)))
        acc += sum(j * j for j in range(60)) * 1e-9
        acc += len("%r" % {"k": k, "acc": acc})
    return acc


class HostSpeed(threading.Thread):
    """Samples of the calibration loop's CPU time, taken all through the run,
    to scale op times to the reference machine's speed.

    CPU time leaves out steal but not a slower host: the shared host ran the
    same code up to twice as fast at some times as at others, in stretches
    from a fraction of a second to many minutes. The calibration loop slows with it. So this thread
    runs the loop every ``CAL_PERIOD_S``, on the CPU the ops run on, and each
    op's CPU time is multiplied by ``CAL_NOMINAL_S`` over the median loop time
    sampled during the op or within ``CAL_WINDOW_S`` of it. A change to the
    program does not move the loop, which calls no program code, and the
    thread's own CPU time is taken out of every op's.
    """

    def __init__(self):
        super().__init__(name="host-speed", daemon=True)
        self.ends: list[float] = []  # wall clock at the end of each sample
        self.times: list[float] = []  # thread CPU seconds of each sample
        self._halt = threading.Event()
        self._clock = None

    def start(self) -> None:
        super().start()
        self._clock = time.pthread_getcpuclockid(self.ident)

    def run(self) -> None:
        while not self._halt.wait(CAL_PERIOD_S):
            self._sample()

    def _sample(self) -> None:
        t0 = thread_time()
        calibration_loop()
        dt = thread_time() - t0
        self.ends.append(perf_counter())
        self.times.append(dt)

    def stop(self) -> None:
        self._halt.set()
        self.join()
        if not self.times:  # a run shorter than one period
            self._sample()

    def cpu(self) -> float:
        """CPU seconds this thread has used."""
        return time.clock_gettime(self._clock)

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.ends, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + CAL_WINDOW_S)
        near = self.times[lo:hi] or self.times
        return CAL_NOMINAL_S / statistics.median(near)


def call(main, argv, clock):
    """Run one CLI command in process; return (exit code, CPU seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is exit code 1 for a real CLI
            rc = 1
            err.write(f"uncaught {exc!r}\n")
        dt = clock() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Runner:
    """Runs and checks ops, keeping the tallies of one benchmark run."""

    def __init__(self, workload: Workload, main, reference, sweep_dir: str):
        self.workload = workload
        self.main = main
        self.reference = reference
        self.sweep_dir = sweep_dir
        self.errors: list[str] = []
        self.wrong = 0  # ops, timed or not, that exited 0 with a wrong output
        self.speed = HostSpeed()

    def clock(self) -> float:
        """``cpu_clock`` less the calibration thread's CPU time."""
        return cpu_clock() - self.speed.cpu()

    def run(self, op) -> tuple[bool, bool, tuple[float, float, float]]:
        """Return (exited 0, output correct, (CPU seconds, wall start, wall end))."""
        shutil.rmtree(self.sweep_dir, ignore_errors=True)
        start = perf_counter()
        rc, dt, out, err = call(self.main, op.argv, self.clock)
        span = (dt, start, perf_counter())
        if rc != 0:
            self._note(f"exit {rc}: {' '.join(op.argv)}: {err.strip()[-200:]}")
            return False, True, span
        try:
            errors = self.workload.check(op, out, self.reference)
        except (KeyError, TypeError, ValueError) as exc:
            errors = [f"malformed output: {exc!r}"]
        self._wrong(errors, op)
        return True, not errors, span

    def scaled(self, span) -> float:
        """CPU seconds of a span, scaled to the reference machine's speed.
        Call it once the calibration thread has stopped."""
        dt, start, end = span
        return dt * self.speed.factor(start, end)

    def _wrong(self, errors, op) -> None:
        if errors:
            self.wrong += 1
            self._note(f"wrong output: {' '.join(op.argv)}: {errors[0]}")

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def fresh_setup(src: str, op, runner: Runner) -> tuple[float, float, float]:
    """(CPU seconds, wall start, wall end) of a new interpreter that imports
    krausloom and finishes ``op``."""
    shutil.rmtree(runner.sweep_dir, ignore_errors=True)
    start = perf_counter()
    t0 = runner.clock()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, src, *op.argv],
                          capture_output=True, text=True, timeout=150)
    span = (runner.clock() - t0, start, perf_counter())
    if proc.returncode != 0:
        runner._note(f"set-up op exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    else:
        runner._wrong(runner.workload.check(op, proc.stdout, runner.reference), op)
    return span


def measure(runner: Runner, cycle, seconds: float, on_op=None):
    """Run the whole number of cycles whose wall time comes closest to
    ``seconds``, and at least one. Returns per-op records (op, span) plus the
    attempted and failed tallies."""
    records, attempted, failed = [], 0, 0
    start = perf_counter()
    cycles = 0
    while True:
        for op in cycle:
            before = on_op(None, op) if on_op else None
            ok, correct, span = runner.run(op)
            if on_op:
                on_op(before, op)
            attempted += 1
            failed += not (ok and correct)
            records.append((op, span))
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= seconds:
            return records, attempted, failed


def end_to_end(records, setup_times) -> dict:
    times = [dt for _, dt in records]
    busy = sum(times)
    points = sum(op.points for op, _ in records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "points_per_s": (points / busy, "1/s"),
        "op_p50_ms": (percentile(times, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(times, 90) * 1e3, "ms"),
    }


def per_layer(totals, n_ops: int, ml_by_shots: dict, scale: float) -> dict:
    """Per-op layer metrics; times are multiplied by ``scale``, the run's
    host-speed factor."""
    def ms(key):
        return (totals[key] * 1e3 * scale / n_ops, "ms/op")

    def count(key):
        return (totals[key] / n_ops, "count/op")

    ml_iter = totals["ml_iterations"]
    out = {
        "gates.calls": count("calls:gates"),
        "gates.self_ms": ms("self:gates"),
        "circuit.build_lattice_ms": ms("incl:build_lattice"),
        "circuit.evolve_ms": ms("incl:circuit.evolve"),
        "circuit.self_ms": ms("self:circuit"),
        "circuit.placement_matrices": count("n:circuit.placement_matrix"),
        "circuit.unitary_compositions": (
            (totals["n:circuit.circuit_unitary"] + totals["n:circuit.stage_unitary"]) / n_ops,
            "count/op"),
        "channels.kraus_build_ms": ms("incl:kraus_build"),
        "channels.kraus_apply_ms": ms("incl:channels.kraus_apply"),
        "channels.self_ms": ms("self:channels"),
        "qmath.density_checks": count("n:qmath.DensityMatrix"),
        "qmath.partial_trace_ms": ms("incl:qmath.partial_trace"),
        "qmath.fidelity_ms": ms("incl:qmath.fidelity"),
        "qmath.self_ms": ms("self:qmath"),
        "cli.parser_ms": ms("incl:parser"),
        "cli.self_ms": ms("self:cli"),
        "cli.files_written": count("files_written"),
        "cli.bytes_written": (totals["bytes_written"] / n_ops, "B/op"),
        "tomography.ml_ms": ms("incl:tomography.ml_reconstruct"),
    }
    for shots, label in ((1000, "1e3"), (10000, "1e4"), (100000, "1e5")):
        cpu, ops = ml_by_shots.get(shots, (0.0, 0))
        out[f"tomography.ml_ms_{label}"] = (cpu * 1e3 * scale / ops if ops else 0.0, "ms/op")
    out.update({
        "tomography.ml_iterations": count("ml_iterations"),
        "tomography.ml_capped": count("ml_capped"),
        "tomography.ml_stalled": count("ml_stalled"),
        "tomography.ml_iter_us": (
            totals["incl:tomography.ml_reconstruct"] * 1e6 * scale / ml_iter if ml_iter else 0.0,
            "us"),
        "tomography.simulate_counts_ms": ms("incl:tomography.simulate_counts"),
        "tomography.linear_ms": ms("incl:tomography.linear_reconstruct"),
        "tomography.fidelity_ms": ms("incl:tomography.fidelity_to_truth"),
        "tomography.self_ms": ms("self:tomography"),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "krausloom", "cli.py")):
        sys.stderr.write(f"no krausloom sources under {src}; run from the repository root\n")
        return 2
    # One CPU for the whole run, set-up children included: the calibration loop
    # then samples the CPU the ops run on, and the sweep's pool threads do not
    # hand the GIL back and forth between CPUs, which cost a varying share of
    # its CPU time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    import krausloom.cli as cli_mod
    from krausloom import channels, circuit, gates, qmath, tomography

    if not os.path.samefile(os.path.dirname(cli_mod.__file__), os.path.join(src, "krausloom")):
        sys.stderr.write(f"imported krausloom from {cli_mod.__file__}, not from {src}\n")
        return 2

    out_root = os.path.join(root, OUT_DIR)
    sweep_dir = os.path.join(out_root, "sweep")
    os.makedirs(out_root, exist_ok=True)
    workload = WORKLOADS[args.workload]
    cycle = workload.cycle(random.Random(args.seed), sweep_dir)
    runner = Runner(workload, cli_mod.main, circuit.REFERENCE_GAD_MATRIX, sweep_dir)

    tracer = ml_by_shots = on_op = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        ml_by_shots = {}

        def on_op(before, op):
            now = tracer.totals()["incl:tomography.ml_reconstruct"]
            if before is None:
                return now
            cpu, ops = ml_by_shots.get(op.shots, (0.0, 0))
            ml_by_shots[op.shots] = (cpu + now - before, ops + 1)
            return None

    setup_spans = []
    runner.speed.start()
    try:
        if not args.trace:
            setup_spans = [fresh_setup(src, cycle[0], runner) for _ in range(workload.setup_repeats)]
        for op in cycle[:workload.warmup_ops]:
            runner.run(op)
        if tracer:
            tracer.install({"gates": gates, "circuit": circuit, "channels": channels, "qmath": qmath,
                            "tomography": tomography, "cli": cli_mod})
            runner.main = tracer.root(cli_mod.main)
            try:
                spans, attempted, failed = measure(runner, cycle, args.seconds, on_op)
            finally:
                tracer.uninstall()
        else:
            spans, attempted, failed = measure(runner, cycle, args.seconds)
    finally:
        runner.speed.stop()
    records = [(op, runner.scaled(span)) for op, span in spans]
    cal_median = statistics.median(runner.speed.times)

    if tracer:
        metrics = per_layer(tracer.totals(), attempted, ml_by_shots, CAL_NOMINAL_S / cal_median)
        trace_dir = os.path.join(out_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")
        rows = tracer.write(trace_path)
        busy = sum(dt for _, dt in records)
        points = sum(op.points for op, _ in records)
        sys.stderr.write(f"traced: {points / busy:.4g} points/s; wrote {rows} spans to {trace_path}\n")
    else:
        metrics = end_to_end(records, [runner.scaled(span) for span in setup_spans])
    shutil.rmtree(sweep_dir, ignore_errors=True)
    sys.stderr.write(f"host speed: calibration loop median {cal_median * 1e3:.4f} ms over "
                     f"{len(runner.speed.times)} samples, nominal {CAL_NOMINAL_S * 1e3:.4f} ms\n")

    for message in runner.errors:
        sys.stderr.write(message + "\n")
    result = {
        "correct": runner.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
