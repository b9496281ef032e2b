"""Benchmark of the shallowtd command line, driven in-process.

Each op is one ``shallowtd.cli.run(argv)`` call on an input file that the
benchmark generated from ``--seed`` during set-up, in one process and one
thread.  The ops of a workload run in a fixed order, in whole cycles, until
``--seconds`` have passed and at least four cycles have run.  Every op's
report is checked after the timed region by ``checks.py``, which shares no
code with the program.

    python3 benchmark/run.py --workload decompose --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all    # each workload in a fresh process

``--trace 0`` reports the end-to-end metrics: setup_s (the median of nine
set-ups, each an import of the program in a fresh interpreter plus the
generation of every input file), ops_per_s, op_p50_ms, op_tail_ms (the
highest percentile with ten samples beyond it) and peak_rss_mb.  Its
times are scaled to a fixed machine speed (see ``Speed``); the unscaled
figures are printed above the JSON line.
``--trace 1`` runs a warm-up cycle, then alternates traced and untraced
cycles, and reports per-layer calls, total and self seconds and counters,
all per cycle, plus the tracing overhead; spans go to ``benchmark/out/``.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PLAN = json.loads((HERE / "plan.json").read_text())
WORKLOAD_NAMES = list(PLAN["workloads"])
SETUP_REPEATS = 9
MIN_CYCLES = 4
TAIL_BEYOND = 10       # op_tail_ms: highest percentile with this many samples beyond


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=PLAN["default_seed"])
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> str:
    import numpy
    try:
        import numba  # noqa: F401
        jit = "numba present"
    except ImportError:
        jit = "numba absent, pure-Python kernels only"
    return (f"machine: nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"({jit})")


# ---------------------------------------------------------------------------
# Machine speed.

REFERENCE_S = 0.005     # the loop's typical time on a 2-vCPU Intel Xeon VM


class Speed:
    """The speed of a shared machine drifts by a third within minutes and
    in bursts of seconds as other tenants load its cores, and every wall
    time moves with it.  A fixed pure-Python loop is timed before the first
    timed interval and after each one; each interval is reported at the
    reference speed, scaled by REFERENCE_S over the mean of the two loops
    around it.  The program never runs during a loop.  On this benchmark's
    workloads this tracked the drift better than one scale per run, and an
    arithmetic loop better than a dict-heavy graph walk, whose own times
    spread more than the program's."""

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for k in range(60000):
            total += k * k % 7
        self.samples.append(time.perf_counter() - start)

    def scaled(self, times: list[float]) -> list[float]:
        """Each time, taken between samples k and k + 1, at REFERENCE_S."""
        s = self.samples
        assert len(s) == len(times) + 1, "one sample after every interval"
        return [t * 2 * REFERENCE_S / (s[k] + s[k + 1])
                for k, t in enumerate(times)]


# ---------------------------------------------------------------------------
# Set-up: import the program, generate the op list and write its input files.

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import shallowtd.cli; "
                "print(time.perf_counter() - start)")


def import_seconds() -> float:
    """Seconds to import the program's CLI in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True,
                           timeout=120)
    return float(probe.stdout)


def setup(workload: str, seed: int, workdir: Path):
    import inputs
    ops = inputs.WORKLOADS[workload](random.Random(seed))
    for i, op in enumerate(ops):
        files = {"input": workdir / f"op{i}.txt", "out": workdir / f"op{i}.td"}
        files["input"].write_text(op.host.text())
        if op.pattern is not None:
            files["pattern"] = workdir / f"op{i}.pattern.txt"
            files["pattern"].write_text(op.pattern.text())
        op.files = {k: str(v) for k, v in files.items()}
        op.argv = [a.format(**op.files) for a in op.argv]
    return ops


# ---------------------------------------------------------------------------
# Running ops.


def call(cli, argv):
    """Time one cli.run; any exception the program lets out is a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:  # the op failed; the benchmark goes on
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def _fingerprint(stdout: str, td_path: str | None) -> str:
    """Digest of an op's output with the wall_time field removed, so repeats
    of a checked op can be compared instead of checked again."""
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        report.pop("wall_time", None)
        text = json.dumps(report, sort_keys=True)
    except (IndexError, ValueError, AttributeError):
        text = stdout
    digest = hashlib.sha256(text.encode())
    if td_path is not None and os.path.exists(td_path):
        digest.update(Path(td_path).read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs ops, times them, and keeps what the checks need."""

    def __init__(self, cli, ops, workdir: Path):
        self.cli, self.ops, self.workdir = cli, ops, workdir
        self.times: list[float] = []
        self.status: list[tuple[int, object, str]] = []   # (op, rc, digest)
        self.kept: dict[str, tuple[int, str, str | None]] = {}
        self.errors: list[str] = []

    def run(self, i: int) -> float:
        op = self.ops[i]
        elapsed, rc, stdout, stderr = call(self.cli, op.argv)
        td_path = op.files["out"] if op.command == "decompose" else None
        digest = _fingerprint(stdout, td_path)
        if rc == 0 and digest not in self.kept:
            kept_td = None
            if td_path is not None and os.path.exists(td_path):
                kept_td = str(self.workdir / f"kept{len(self.kept)}.td")
                shutil.copyfile(td_path, kept_td)
            self.kept[digest] = (i, stdout, kept_td)
        if rc != 0:
            self.errors.append(f"{op.label}: exit {rc}: {stderr.strip()[:300]}")
        self.times.append(elapsed)
        self.status.append((i, rc, digest))
        return elapsed

    def verify(self, pins: dict):
        """Check every distinct output; returns (failed ops, quality per op
        index)."""
        import checks
        verdict: dict[str, str | None] = {}
        quality: dict[int, float] = {}
        for digest, (i, stdout, kept_td) in self.kept.items():
            op = self.ops[i]
            td_text = Path(kept_td).read_text() if kept_td else None
            try:
                problem, q = checks.check(op, stdout, td_text, pins)
            except (KeyError, ValueError, TypeError) as exc:
                problem, q = f"check could not read the output: {exc!r}", None
            verdict[digest] = problem
            if problem:
                self.errors.append(f"{op.label}: {problem}")
            elif q is not None:
                quality[i] = q
        failed = sum(1 for _i, rc, digest in self.status
                     if rc != 0 or verdict.get(digest) is not None)
        return failed, quality


def tail(times: list[float]):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum if there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


# ---------------------------------------------------------------------------
# One workload in this process.


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import shallowtd
    from shallowtd import cli
    if not Path(shallowtd.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: imported shallowtd from {shallowtd.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_speed = Speed()
        setups = []
        for _ in range(SETUP_REPEATS):
            import_s = import_seconds()
            t0 = time.perf_counter()
            ops = setup(args.workload, args.seed, workdir)
            setups.append(import_s + time.perf_counter() - t0)
            setup_speed.sample()
        setup_s = statistics.median(setups)
        runner = Runner(cli, ops, workdir)
        if args.trace:
            metrics, notes = traced_pass(runner, args)
        else:
            metrics, notes = timed_pass(runner, args)
            scaled_s = statistics.median(setup_speed.scaled(setups))
            metrics = {"setup_s": (scaled_s, "s"), **metrics}
            notes.append(f"unscaled setup_s = {setup_s:.6g} s")
        failed, quality = runner.verify(pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.times)
    # Width over its proven bound per decompose op and |value - OPT| / OPT
    # per ptas op, averaged over the distinct ops.  They are exact functions
    # of the inputs, so they go with the per-layer counts, not the bounds.
    widths = [q for i, q in quality.items() if ops[i].command == "decompose"]
    gaps = [q for i, q in quality.items() if ops[i].command == "ptas"]
    quality_metrics = {"quality.width_ratio": (_mean(widths), "ratio"),
                       "quality.approx_gap": (_mean(gaps), "ratio")}
    if args.trace:
        metrics.update(quality_metrics)
    else:
        notes += [f"  {k} = {v:.6g} {u} (reported with --trace 1)"
                  for k, (v, u) in quality_metrics.items()]
    print(machine_facts())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} fail_rate={failed / attempted:.6g}")
    for line in notes + runner.errors[:20]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def timed_pass(runner: Runner, args):
    """Whole cycles over the op list until --seconds have passed and at least
    MIN_CYCLES have run, so that every run times the same mix of ops and the
    tail lands among the heaviest ops.  The statistics pool all ops: the
    speed of a shared machine changes in bursts of seconds, and a pooled
    figure moves with the share of slow time where a median of per-cycle
    figures jumps between the fast and the slow state."""
    speed = Speed()
    cycles = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(cycles) < MIN_CYCLES:
        spent = 0.0
        for i in range(len(runner.ops)):
            spent += runner.run(i)
            speed.sample()
        cycles.append(spent)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = _time_metrics(speed.scaled(runner.times))
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    _, pct, beyond = tail(runner.times)
    notes = [f"op_tail_ms is p{pct:.2f} of {len(runner.times)} ops "
             f"({beyond} samples beyond it)",
             f"{len(cycles)} cycles of {len(runner.ops)} ops, seconds each: "
             + " ".join(f"{c:.2f}" for c in cycles),
             f"reference loop: median "
             f"{1000 * statistics.median(speed.samples):.4g} ms; unscaled "
             + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit)
                         in _time_metrics(runner.times).items())]
    return metrics, notes


def _time_metrics(times: list[float]) -> dict:
    return {"ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_ms": (1000 * statistics.median(times), "ms"),
            "op_tail_ms": (1000 * tail(times)[0], "ms")}


def traced_pass(runner: Runner, args):
    """A warm-up cycle, then traced and untraced cycles over the op list,
    alternating, until --seconds have passed and there is at least one of
    each.  Every figure is per cycle, so counts repeat exactly whatever the
    number of cycles.  The warm-up cycle pays the process's first-use costs
    (allocator growth, page faults) and is left out of the overhead."""
    from tracer import COUNTERS, LAYERS, MODULES, Tracer
    tracer = Tracer()
    cycle_s = {False: [], True: []}
    op_time: dict[int, float] = {}
    start = time.perf_counter()
    for i in range(len(runner.ops)):
        runner.run(i)
    traced = True
    while True:
        if traced:
            tracer.install()
        spent = 0.0
        try:
            for i in range(len(runner.ops)):
                tracer.op = len(runner.times)
                elapsed = runner.run(i)
                spent += elapsed
                if traced:
                    op_time[tracer.op] = elapsed
        finally:
            tracer.uninstall()
        cycle_s[traced].append(spent)
        traced = not traced
        if cycle_s[False] and time.perf_counter() - start >= args.seconds:
            break

    cycles = len(cycle_s[True])
    layers, hooks_s, self_sums = tracer.summarize()
    metrics = {}
    for name, (calls, total, own) in zip(LAYERS, layers):
        metrics[f"{name}.calls"] = (calls // cycles, "count")
        metrics[f"{name}.total_s"] = (total / cycles, "s")
        metrics[f"{name}.self_s"] = (own / cycles, "s")
    counts = tracer.counts
    for name in COUNTERS:
        per_cycle = counts[name] if name == "decomp.max_bag" else counts[name] // cycles
        metrics[name] = (per_cycle, "count")
    windows = counts["dp.subiso_windows_tried"]
    metrics["dp.subiso_hit_ratio"] = (
        counts["dp.subiso_hits"] / windows if windows else 0.0, "ratio")
    for module in MODULES:
        metrics[f"{module}.errors"] = (tracer.errors[module] // cycles, "count")
    untraced = statistics.median(cycle_s[False])
    traced_s = statistics.median(cycle_s[True])
    metrics["trace.cycle_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    metrics["trace.unaccounted_s"] = (
        (sum(op_time.values()) - sum(self_sums.values())) / cycles, "s")
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    worst = max((op_time[o] - self_sums.get(o, 0.0)) / op_time[o] for o in op_time)
    top = sorted(((own / cycles, name) for name, (_c, _t, own)
                  in zip(LAYERS, layers)), reverse=True)[:5]
    loaded = {name for name, (calls, _t, _s) in zip(LAYERS, layers) if calls}
    listed = set(PLAN["workloads"][args.workload]["loads"])
    notes = [] if loaded == listed else [
        "plan.json loads differ from the traced layers: "
        f"traced only {sorted(loaded - listed)}, listed only "
        f"{sorted(listed - loaded)}"]
    notes += [f"cycles: 1 warm-up, {len(cycle_s[False])} untraced, "
              f"{cycles} traced; "
              f"counter hooks {hooks_s / cycles:.4g} s per cycle; "
              f"worst op share not covered by layer self times {worst:.4f}",
              "top layers by self_s per cycle: " + ", ".join(
                  f"{name} {own:.3f} s" for own, name in top)]
    return metrics, notes


# ---------------------------------------------------------------------------
# All workloads, each in a fresh process.


def run_all(args) -> int:
    rc = 0
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            rc = 1
            continue
        results[name] = json.loads(lines[-1])
        rc = rc or (0 if results[name]["correct"] else 1)
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "shallowtd" / "__init__.py").is_file():
        print(f"benchmark: the program's source is missing: no "
              f"{SRC / 'shallowtd'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
