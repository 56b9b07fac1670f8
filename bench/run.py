"""Run one workload of the posetcodes benchmark and print its metrics.

    python3 bench/run.py --workload orbit --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a report with the environment, the seed, the op counts, the tail
percentile and every failure message.

With ``--trace 0`` the metrics are the end-to-end ones.  The run sets up
several times and reports the median set-up, then makes whole passes over
the workload's ops while the next pass is expected to end within
``--seconds``.  Each pass runs every op once; an op's latency is the
median of its repetitions, each scaled by the host probes timed next to
it (see PROBE_NOMINAL_NS), and the set-up is scaled the same way.  With
``--trace 1`` it makes one untraced pass and one traced pass and prints the
per-layer metrics; the spans go to ``bench/out/spans-<workload>.json.gz``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from types import SimpleNamespace

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# The host probe: a fixed pure-Python kernel, independent of posetcodes,
# timed between ops.  PROBE_NOMINAL_NS is its median time on the machine
# the benchmark was written on (2-CPU Intel Xeon VM, Python 3.11.7);
# every reported time is scaled by PROBE_NOMINAL_NS / (the probe's time
# next to it), which puts runs made while the shared host ran slow or fast
# on one scale.
PROBE_NOMINAL_NS = 180_000
PROBE_REPS = 3
PROBE_EVERY_NS = 10_000_000
PROBE_WINDOW = 4
PROBE_ROWS = [[(i * 7 + j * 5 + i * j * j) % 3 for j in range(12)] for i in range(6)]

# Percentiles tried for op_tail_ms, highest first.  The ladder stops at
# p99: above it, a 40-microsecond decode measures the host's interrupts.
TAIL_LADDER = (99, 95, 90, 80, 75, 70, 60, 50)
TAIL_BEYOND = 10


def load_library():
    """Import posetcodes afresh from ``src/``, dropping any earlier import,
    so that each set-up repetition pays the whole import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "posetcodes"]:
        del sys.modules[name]
    package = importlib.import_module("posetcodes")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "posetcodes"):
        raise ImportError(f"posetcodes imported from {package.__file__}, not from {SRC}")
    importlib.import_module("posetcodes.cli")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "posetcodes"]
    lib = SimpleNamespace(package=package, modules=modules)
    for module in modules:
        if module is not package:
            setattr(lib, module.__name__.split(".")[1], module)
    return lib


def probe_kernel():
    """Row-reduce four cyclic shifts of a fixed 6x12 matrix over GF(3) and
    count the distinct results: list, tuple and dict work of the kind the
    library does, with none of its code."""
    seen = {}
    for shift in range(4):
        rows = [row[shift:] + row[:shift] for row in PROBE_ROWS]
        lead = 0
        for col in range(12):
            pivot = next((r for r in range(lead, 6) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[lead], rows[pivot] = rows[pivot], rows[lead]
            inv = rows[lead][col]  # 1 and 2 are their own inverses mod 3
            rows[lead] = [v * inv % 3 for v in rows[lead]]
            for r in range(6):
                factor = rows[r][col]
                if r != lead and factor:
                    rows[r] = [(a - factor * b) % 3 for a, b in zip(rows[r], rows[lead])]
            lead += 1
        key = tuple(map(tuple, rows))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def host_probe_ns():
    """Median time of PROBE_REPS runs of the probe kernel, with the garbage
    collector off so that the library's heap does not leak into it."""
    clock = time.perf_counter_ns
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_REPS):
            start = clock()
            probe_kernel()
            times.append(clock() - start)
    finally:
        gc.enable()
    return statistics.median(times)


class ScaledClock:
    """Wall time split into laps, each scaled by PROBE_NOMINAL_NS over the
    mean of the host probes timed just before and just after it.  The
    probes themselves fall outside the laps."""

    def __init__(self):
        self.raw_ns = self.scaled_ns = 0.0
        self.probe = host_probe_ns()
        self.start = time.perf_counter_ns()

    def lap(self):
        elapsed = time.perf_counter_ns() - self.start
        probe = host_probe_ns()
        self.raw_ns += elapsed
        self.scaled_ns += elapsed * PROBE_NOMINAL_NS / ((self.probe + probe) / 2)
        self.probe = probe
        self.start = time.perf_counter_ns()


def set_up(workload_cls, seed, tiny, workdir):
    """Import, generate the first pass's inputs and, for decode, prepare the
    tables, with a lap after each step and after each table.  Returns (lib,
    workload, first ops, set-up clock, scaled table-preparation seconds)."""
    clock = ScaledClock()
    lib = load_library()
    clock.lap()
    workload = workload_cls(lib, workloads.load_reference(), seed, tiny, workdir)
    clock.lap()
    ops = workload.ops(0)
    clock.lap()
    before_prepare = clock.scaled_ns
    if hasattr(workload, "prepare"):
        workload.prepare(clock.lap)
    return lib, workload, ops, clock, (clock.scaled_ns - before_prepare) / 1e9


def run_pass(workload, ops, irreducible, tracer=None):
    """One pass over ``ops``, a list of (key, op); returns (keys, latencies
    in ns scaled by the host probe, unscaled latencies in ns, failure
    messages, host probe times in ns).

    Only the op itself is timed (and traced); its check runs after it.  The
    host probe runs at the start and end of the pass and after any op that
    ends PROBE_EVERY_NS or more after the last probe.  An op is scaled by
    PROBE_NOMINAL_NS over the median of the PROBE_WINDOW probes nearest to
    it, half before it and half after it.
    """
    irreducible.cache_clear()
    clock = time.perf_counter_ns
    run, check = workload.run, workload.check
    keys, latencies, next_probe, failures = array("q"), array("q"), array("q"), []
    probes = array("q", [host_probe_ns()])
    last_probe = clock()
    for key, op in ops:
        error = None
        start = clock()
        try:
            out = run(op) if tracer is None else tracer.run_root(tracing.OP, run, op)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        end = clock()
        latencies.append(end - start)
        keys.append(key)
        next_probe.append(len(probes))
        if error is None:
            try:
                error = check(op, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
        if end - last_probe >= PROBE_EVERY_NS:
            probes.append(host_probe_ns())
            last_probe = clock()
    probes.append(host_probe_ns())
    half = PROBE_WINDOW // 2
    scaled = [
        ns * PROBE_NOMINAL_NS / statistics.median(probes[max(0, j - half) : j + half])
        for ns, j in zip(latencies, next_probe)
    ]
    return keys, scaled, latencies, failures, probes


def op_latencies(passes, scaled=True):
    """Each op's latency in ns: the median of its repetitions, one per pass,
    scaled by the host probe or not."""
    samples = {}
    for keys, scaled_lat, raw_lat, _, _ in passes:
        for key, ns in zip(keys, scaled_lat if scaled else raw_lat):
            samples.setdefault(key, []).append(ns)
    return sorted(statistics.median(reps) for reps in samples.values())


def tail_percentile(ops_per_pass):
    """The highest ladder percentile that leaves at least TAIL_BEYOND of one
    pass's samples above it, or 100 when a pass is too short.  It depends
    only on the pass size, so it is the same whether a run makes one pass
    or several."""
    for percentile in TAIL_LADDER:
        if ops_per_pass - math.ceil(percentile / 100 * ops_per_pass) >= TAIL_BEYOND:
            return percentile
    return 100.0


def percentile_value(ordered, percentile):
    """Nearest-rank percentile of a sorted list; returns (value, samples
    above it)."""
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def environment():
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("orbit", "sweep", "decode"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few small ops and one pass (smoke check)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "posetcodes", "__init__.py")):
        print(f"error: no posetcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload_cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        reps = []
        for _ in range(1 if args.tiny else workload_cls.setup_reps):
            gc.collect()  # each repetition starts without the last one's garbage
            reps.append(set_up(workload_cls, args.seed, args.tiny, workdir))
        lib, workload, first_ops = reps[-1][:3]
        setup_s = statistics.median(rep[3].scaled_ns for rep in reps) / 1e9
        raw_setup_s = statistics.median(rep[3].raw_ns for rep in reps) / 1e9
        prepare_s = statistics.median(rep[4] for rep in reps)
        setup_errors = getattr(workload, "setup_errors", list)()
        irreducible = lib.search.is_p_irreducible
        stage = getattr(workload, "stage", lambda ops: None)
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            ops = workload.ops(len(passes)) if passes else first_ops
            stage(ops)
            passes.append(run_pass(workload, ops, irreducible))
            if len(passes) == 1:
                # Later passes add only latency samples; reading the peak
                # here keeps it independent of how many ops fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter()
            if args.trace or args.tiny or now - start + (now - pass_start) > args.seconds:
                break
        timed_passes = passes[:]
        if args.trace:
            tracer = tracing.Tracer(lib)
            tracer.install()
            if hasattr(workload, "prepare"):
                tracer.run_root(tracing.PREPARE, workload.prepare)
            passes.append(run_pass(workload, first_ops, irreducible, tracer))
            cache = irreducible.cache_info()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = op_latencies(timed_passes)
    raw_latencies = op_latencies(timed_passes, scaled=False)
    ops_per_s = len(latencies) / (sum(latencies) / 1e9)
    tail_pct = tail_percentile(len(latencies))
    tail_ns, tail_beyond = percentile_value(latencies, tail_pct)
    timed_ops = sum(len(p[2]) for p in timed_passes)
    timed_ns = sum(sum(p[2]) for p in timed_passes)
    failures = [msg for p in passes for msg in p[3]]
    attempted = sum(len(p[2]) for p in passes)
    pass_probes_us = sorted(statistics.median(p[4]) / 1e3 for p in timed_passes)
    report = {
        "environment": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "setup_reps": len(reps),
        "ops_per_pass": len(latencies),
        "passes": len(passes),
        "timed_ops": timed_ops,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "op_fail_frac": len(failures) / attempted,
        "table_prepare_s": prepare_s,
        "host_probe_nominal_us": PROBE_NOMINAL_NS / 1e3,
        "host_probe_pass_us": [pass_probes_us[0], pass_probes_us[-1]],
        "unscaled": {
            "setup_s": raw_setup_s,
            "ops_per_s": len(raw_latencies) / (sum(raw_latencies) / 1e9),
            "op_p50_ms": statistics.median(raw_latencies) / 1e6,
            "op_tail_ms": percentile_value(raw_latencies, tail_pct)[0] / 1e6,
            "mean_ops_per_s": timed_ops / (timed_ns / 1e9),
        },
        "setup_errors": setup_errors,
        "failures": failures[:20],
    }
    if args.trace:
        traced = op_latencies(passes[-1:])
        traced_ops_per_s = len(traced) / (sum(traced) / 1e9)
        metrics = dict(tracer.summary())
        metrics["search.is_p_irreducible.cache_hits"] = (cache.hits, "count")
        metrics["search.is_p_irreducible.cache_misses"] = (cache.misses, "count")
        metrics["decoder.table_prepare_s"] = (prepare_s, "s")
        metrics["trace.ops_per_s_untraced"] = (ops_per_s, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_ops_per_s, "1/s")
        metrics["trace.overhead_ops_per_s"] = (ops_per_s - traced_ops_per_s, "1/s")
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.json.gz")
        tracer.write(spans_path)
        report["spans"] = os.path.relpath(spans_path, ROOT)
        report["spans_recorded"] = len(tracer.names)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
            "op_tail_ms": (tail_ns / 1e6, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for message in setup_errors + failures[:20]:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not failures and not setup_errors,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
