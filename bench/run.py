"""raggio-kit benchmark runner.

Run from the root of a source checkout:

    python3 bench/run.py --workload {chsh_scan,decompose,raggio_check} \\
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is installed.
Workloads are described in ``bench/workloads.py``.  The runner is a closed
loop: one caller, serial calls, no thread pool.  It runs rounds of jobs,
each round with fresh inputs drawn from the seed, until ``S`` seconds of
rounds have passed, then checks every output.  Each round makes three
passes over its jobs; a call's latency is its best of the three, which
filters bursts of interference from other processes on a shared machine.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median over five fresh processes of the time from process
  start to the first timed call (interpreter, ``import raggio_kit`` with
  numpy and scipy, and the first round's inputs);
* ``items_per_s``: work items per second of best call latency (one CHSH
  evaluation in ``chsh_scan``, one verdict in ``decompose``, one examined
  state in ``raggio_check``);
* ``call_p50_ms`` and ``call_p90_ms``: percentiles of the best latency of
  one public call; the details line gives the sample count;
* ``settled_frac``: settled answers over answers (an ``Undetermined``
  verdict is not settled; a CHSH scan always settles);
* ``peak_rss_mb``: peak resident memory of the runner process.

A call that raises or whose output fails its check counts in ``failed``.

With ``--trace 1`` it runs round 0 untraced, replays it traced and compares
the two outputs bit for bit, then traces further rounds, and reports the
per-layer metrics: for every wrapped public function its call count on one
pass of round 0 and its self time as a percentage of the traced wall time,
plus counters and the tracing overhead.

The last line of standard output is the result object; the line before it
holds the details (environment, sample counts, digests, absolute self
times).  Both are also written to ``.bench_out/`` in the checkout, with the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("chsh_scan", "decompose", "raggio_check")
SETUP_PROBES = 5
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SEPARABILITY_CLASSES = ("product", "multiblock", "npt", "pure", "commutative", "tiles")
SEPARABILITY_SHAPES = ("2x2", "2x3", "3x3")
COUNTERS = (
    "bell.seesaw.rounds",
    "bell.chsh_optimize.iterations",
    "entanglement.verdicts.Separable",
    "entanglement.verdicts.EntangledPure",
    "entanglement.verdicts.EntangledPPT",
    "entanglement.verdicts.Undetermined",
    "entanglement.decomposition_terms",
)


def _import_package():
    """Import raggio_kit from this checkout's src/ and the workloads beside it."""
    if not (SRC / "raggio_kit" / "__init__.py").is_file():
        raise SystemExit(f"error: no raggio_kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import raggio_kit

    if Path(raggio_kit.__file__).resolve().parent != SRC / "raggio_kit":
        raise SystemExit(f"error: raggio_kit imported from {raggio_kit.__file__}, not {SRC}")
    import workloads

    return workloads


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _environment(workload: str, seed: int, inherited_threads: str | None) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "raggio_kit_threads": os.environ.get("RAGGIO_KIT_THREADS"),
        "raggio_kit_threads_inherited": inherited_threads,
        "commit": _git_commit(),
    }


def _setup_probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import, build round 0, report ready."""
    wl = _import_package().Workload(workload, seed)
    wl.round(0)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def _measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh runner process to its first timed call."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def _run_round(jobs, tracer=None, first_call_id: int = 0, meter=None):
    """Make every call of a round once, in order.

    Returns the round's wall seconds, the result of each call (its exception
    if it raised), the latencies, and the kernel timings next to each call
    when a speed meter is given.
    """
    clock = time.perf_counter
    results, latencies, local = [], [], []
    t_round = clock()
    for n, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_call(first_call_id + n, job.label)
        if meter is not None:
            meter.before_call()
        t0 = clock()
        try:
            result = job.run()
        except Exception as exc:  # a raising call is a failed call, not a crash
            result = exc
        latency = clock() - t0
        if meter is not None:
            if latency < meter.short_call_s and not isinstance(result, Exception):
                latency = _warm_latency(job, latency, meter.short_call_s)
            local.append(meter.after_call(latency))
        results.append(result)
        latencies.append(latency)
    return clock() - t_round, results, latencies, local


def _warm_latency(job, first: float, span: float) -> float:
    """Mean latency of back-to-back repeats of a short call, over about ``span``.

    One call of a few microseconds reads mostly the cache misses left by
    whatever ran before it; repeating it, as timeit does, reads its own cost.
    """
    count = min(int(span / max(first, 1e-6)) + 1, 200)
    t0 = time.perf_counter()
    for _ in range(count):
        job.run()
    return (time.perf_counter() - t0) / count


def _check_call(workloads, job, result):
    if isinstance(result, Exception):
        return workloads.failure(f"raised {result!r}")
    try:
        return job.check(result)
    except Exception as exc:  # a check that crashes fails the call
        return workloads.failure(f"check crashed: {exc!r}")


class RunLog:
    """Per-call and per-round records of the timed section."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.round_seconds: list[float] = []
        self.latencies: list[float] = []
        self.local_kernel: list[float] = []
        self.items: list[int] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.settled = 0
        self.problems: list[str] = []
        self.digests: list[str] = []

    def add(self, jobs, seconds, results, latencies, local) -> list:
        """Record one round; returns the checked outcome of every call."""
        self.digests.append(self.workloads.inputs_digest(jobs))
        self.round_seconds.append(seconds)
        self.latencies.extend(latencies)
        self.local_kernel.extend(local)
        self.labels.extend(job.label for job in jobs)
        outcomes = [_check_call(self.workloads, j, r) for j, r in zip(jobs, results)]
        for job, outcome in zip(jobs, outcomes):
            self.attempted += 1
            self.items.append(outcome.items if outcome.ok else 0)
            if not outcome.ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{job.label}: {outcome.problem}")
                continue
            self.verdicts += outcome.verdicts
            self.settled += outcome.settled
        return outcomes


def _percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(args, wl, workloads, details) -> dict:
    import reference

    setup = _measure_setup(args.workload, args.seed)
    meter = reference.SpeedMeter()
    log = RunLog(workloads)
    index = 0
    while sum(log.round_seconds) < args.seconds:
        jobs = wl.round(index)
        log.add(jobs, *_run_round(jobs, meter=meter))
        index += 1
    nominal = [meter.nominal(t, k) for t, k in zip(log.latencies, log.local_kernel)]
    by_label: dict[str, list[float]] = {}
    for label, t in zip(log.labels, nominal):
        by_label.setdefault(label, []).append(t * 1e3)
    lat_ms = sorted(x * 1e3 for x in nominal)
    raw_ms = sorted(x * 1e3 for x in log.latencies)
    p90 = _percentile(lat_ms, 90)
    details.update(
        setup_samples_s=setup,
        rounds=len(log.round_seconds),
        round_seconds=log.round_seconds,
        calls=len(lat_ms),
        calls_above_p90=sum(1 for x in lat_ms if x > p90),
        items=sum(log.items),
        verdicts=log.verdicts,
        settled=log.settled,
        median_ms_by_label={k: [len(v), statistics.median(v)] for k, v in sorted(by_label.items())},
        kernel_samples=len(meter.samples),
        kernel_mean_s=meter.mean(),
        kernel_nominal_s=reference.NOMINAL_S,
        measured_items_per_s=sum(log.items) / sum(log.latencies),
        measured_call_p50_ms=statistics.median(raw_ms),
        measured_call_p90_ms=_percentile(raw_ms, 90),
        round_digests=log.digests,
        problems=log.problems,
    )
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "items_per_s": _metric(sum(log.items) / sum(nominal), "1/s"),
        "call_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "call_p90_ms": _metric(p90, "ms"),
        "settled_frac": _metric(log.settled / max(log.verdicts, 1), "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"correct": log.failed == 0, "attempted": log.attempted, "failed": log.failed,
            "metrics": metrics}


def _per_layer(args, wl, workloads, details) -> dict:
    from tracing import NAMES, Tracer

    jobs0 = wl.round(0)
    untraced = RunLog(workloads)
    outcomes0 = untraced.add(jobs0, *_run_round(jobs0))

    log = RunLog(workloads)
    tracer = Tracer()
    tracer.install()
    stray = tracer.stray_bindings()
    index = 0
    try:
        while sum(log.round_seconds) < args.seconds:
            jobs = jobs0 if index == 0 else wl.round(index)
            tracer.recording = True
            run = _run_round(jobs, tracer, first_call_id=index * len(jobs0))
            tracer.recording = False
            outcomes = log.add(jobs, *run)
            if index == 0:
                counts0 = dict(tracer.counts)
                mismatches = [j.label for j, a, b in zip(jobs, outcomes0, outcomes)
                              if a.key != b.key]
            index += 1
    finally:
        tracer.uninstall()

    traced_wall = sum(log.round_seconds)
    whole = tracer.summary()
    first = tracer.summary(selection=tracer.span_arrays()["call"] < len(jobs0))
    runner_s = traced_wall - whole["root_s"]
    accounting_gap = sum(whole["self_s"].values()) + runner_s - traced_wall
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{args.workload}.spans.npz")

    def pct(seconds):
        return _metric(100.0 * seconds / traced_wall, "%")

    by_label = whole["separability_self_s_by_label"]
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = _metric(first["calls"][name], "count")
        metrics[f"{name}.self_pct"] = pct(whole["self_s"][name])
    for cls in SEPARABILITY_CLASSES:
        metrics[f"entanglement.separability_test.self_pct.{cls}"] = pct(
            sum(v for k, v in by_label.items() if k.split("/")[0] == cls))
    for shape in SEPARABILITY_SHAPES:
        metrics[f"entanglement.separability_test.self_pct.{shape}"] = pct(
            sum(v for k, v in by_label.items()
                if k.split("/")[0] in SEPARABILITY_CLASSES and k.endswith("/" + shape)))
    for counter in COUNTERS:
        metrics[counter] = _metric(counts0.get(counter, 0), "count")
    sep_calls = first["calls"]["entanglement.separability_test"]
    undetermined = counts0.get("entanglement.verdicts.Undetermined", 0)
    metrics["entanglement.settled_ratio"] = _metric(
        (sep_calls - undetermined) / sep_calls if sep_calls else 0.0, "ratio")
    metrics["serialize.output_bytes"] = _metric(sum(o.output_bytes for o in outcomes0), "bytes")
    n0 = len(jobs0)
    untraced_rate = sum(untraced.items) / sum(untraced.latencies)
    traced_rate = sum(log.items[:n0]) / sum(log.latencies[:n0])
    metrics["trace.runner_pct"] = pct(runner_s)
    metrics["trace.untraced_items_per_s"] = _metric(untraced_rate, "1/s")
    metrics["trace.traced_items_per_s"] = _metric(traced_rate, "1/s")
    metrics["trace.overhead_pct"] = _metric(100.0 * (untraced_rate / traced_rate - 1.0), "%")

    consistent = (
        not mismatches
        and not stray
        and abs(accounting_gap) <= 1e-9 * traced_wall
        and whole["min_self_s"] >= 0.0
    )
    details.update(
        rounds=len(log.round_seconds),
        round_seconds=log.round_seconds,
        traced_wall_s=traced_wall,
        round_digests=log.digests,
        spans=whole["spans"],
        self_s=whole["self_s"],
        separability_self_s_by_label=by_label,
        runner_s=runner_s,
        accounting_gap_s=accounting_gap,
        min_span_self_s=whole["min_self_s"],
        stray_bindings=stray,
        traced_vs_untraced_mismatches=mismatches,
        problems=untraced.problems + log.problems,
    )
    ok = untraced.failed == 0 and log.failed == 0 and consistent
    return {"correct": ok, "attempted": untraced.attempted + log.attempted,
            "failed": untraced.failed + log.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # RAGGIO_KIT_THREADS would put verify_equivalence on a thread pool; the
    # benchmark measures the default serial path
    inherited_threads = os.environ.pop("RAGGIO_KIT_THREADS", None)
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)

    workloads = _import_package()
    wl = workloads.Workload(args.workload, args.seed)
    details = {"environment": _environment(args.workload, args.seed, inherited_threads),
               "trace": args.trace,
               "seconds": args.seconds}
    if args.workload == "raggio_check":
        wl.report_checker()  # load the schema validator before anything is timed
    run = _per_layer if args.trace else _end_to_end
    result = run(args, wl, workloads, details)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"details": details, "result": result}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
