#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 wscbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds the benchmark package
(wscbench/CMakeLists.txt) into .bench_build/wscbench; later calls reuse it.

--trace 0 measures the end-to-end metrics. A shim workload runs fresh
load-generator processes with libwscmalloc.so preloaded, one after another,
until S seconds have passed (at least three), and reports each metric over
those processes: the median for setup_s, the 10%-trimmed mean otherwise.
Then the same generator runs once more without the preload, on glibc, as a
reference (printed, not a metric). sim_fleet
runs fresh simulator processes the same way.

--trace 1 measures the per-layer metrics: the traced driver replays the same
op stream through RealThreadsAllocator and the Shim* entry points with every
call timed (sim_fleet: every Driver::Step), repeated until S seconds have
passed, reporting medians. Layers the workload never reaches are timed by a
fixed probe (see probe_layers). It writes .bench_build/wscbench-out/
<workload>.layers.json (every ratio with its numerator and base, and which
metrics were probed) and <workload>.trace.json (Chrome trace of the sampled
spans).

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
The process exits non-zero when any correctness check failed or the build
or a run broke.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wscbench")
OUT = os.path.join(ROOT, ".bench_build", "wscbench-out")
REFERENCE = os.path.join(HERE, "reference", "sim_fleet_digests.json")

SHIM_WORKLOADS = ("local_churn", "cross_thread", "phase_lifecycle")
WORKLOADS = SHIM_WORKLOADS + ("sim_fleet",)
MIN_ROUNDS = 3
RUN_TIMEOUT_S = 120
# Confirms a claim after tuning; never used while the benchmark was tuned.
HELD_OUT_SEED = 4242

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "calls/s"),
    ("cpu_ns_per_op", "ns"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("rss_peak_mb", "MiB"),
    ("rss_end_mb", "MiB"),
)

# (name, unit, better). Counts and ratios of layers a workload does not run
# report 0; their times come from probe_layers.
PER_LAYER = (
    ("shim.malloc_ns_p50", "ns", "lower"),
    ("shim.malloc_ns_p99", "ns", "lower"),
    ("shim.free_ns_p50", "ns", "lower"),
    ("shim.free_ns_p99", "ns", "lower"),
    ("shim.self_ns_per_op", "ns", "lower"),
    ("shim.bootstrap_bytes", "bytes", "lower"),
    ("thread_cache.alloc_hit_ratio", "ratio", "higher"),
    ("thread_cache.allocations", "count", "lower"),
    ("thread_cache.free_hit_ratio", "ratio", "higher"),
    ("thread_cache.frees", "count", "lower"),
    ("thread_cache.hit_ns_p50", "ns", "lower"),
    ("thread_cache.cached_mb_end", "MiB", "lower"),
    ("thread_cache.registered_threads", "count", "lower"),
    ("thread_cache.threads_created", "count", "lower"),
    ("transfer_shard.remove_hit_ratio", "ratio", "higher"),
    ("transfer_shard.removes", "count", "lower"),
    ("transfer_shard.insert_overflow_ratio", "ratio", "lower"),
    ("transfer_shard.inserts", "count", "lower"),
    ("transfer_shard.lock_contended_ratio", "ratio", "lower"),
    ("transfer_shard.lock_acquisitions", "count", "lower"),
    ("transfer_shard.cached_objects_end", "count", "lower"),
    ("slow_alloc.ns_p50", "ns", "lower"),
    ("slow_alloc.ns_p99", "ns", "lower"),
    ("slow_alloc.calls", "count", "lower"),
    ("slow_free.ns_p50", "ns", "lower"),
    ("slow_free.ns_p99", "ns", "lower"),
    ("slow_free.calls", "count", "lower"),
    ("cfl_shard.refills", "count", "lower"),
    ("cfl_shard.refill_stall_ratio", "ratio", "lower"),
    ("cfl_shard.steal_success_ratio", "ratio", "higher"),
    ("cfl_shard.steal_probes", "count", "lower"),
    ("cfl_shard.lock_contended_ratio", "ratio", "lower"),
    ("cfl_shard.lock_acquisitions", "count", "lower"),
    ("cfl_shard.carves", "count", "lower"),
    ("cfl_shard.free_objects_end", "count", "lower"),
    ("large.alloc_ns_p50", "ns", "lower"),
    ("large.alloc_ns_p99", "ns", "lower"),
    ("large.free_ns_p50", "ns", "lower"),
    ("large.free_ns_p99", "ns", "lower"),
    ("large.allocs", "count", "lower"),
    ("large.pending_mb_end", "MiB", "lower"),
    ("backing.release_call_ms", "ms", "lower"),
    ("backing.release_calls", "count", "lower"),
    ("backing.released_mb", "MiB", "higher"),
    ("backing.recommitted_mb", "MiB", "lower"),
    ("backing.footprint_over_live", "ratio", "lower"),
    ("backing.peaks", "count", "lower"),
    ("backing.footprint_mb_end", "MiB", "lower"),
    ("sim.step_ns_p50", "ns", "lower"),
    ("sim.step_ns_p99", "ns", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.cpu_cache_hit_ratio", "ratio", "higher"),
    ("sim.allocations", "count", "lower"),
    ("sim.transfer_cache_miss_ratio", "ratio", "lower"),
    ("sim.transfer_cache_lookups", "count", "lower"),
    ("sim.cfl_fetched_spans", "count", "lower"),
    ("sim.page_heap_spans_created", "count", "lower"),
    ("sim.filler_hugepages", "count", "lower"),
    ("sim.hugepage_coverage", "ratio", "higher"),
    ("trace.ops_per_s_traced", "calls/s", "higher"),
    ("trace.ops_per_s_untraced", "calls/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the package; returns binary paths."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    bins = {
        "shim": os.path.join(BUILD, "libwscmalloc.so"),
        "loadgen": os.path.join(BUILD, "wb_loadgen"),
        "traced": os.path.join(BUILD, "wb_traced"),
        "sim": os.path.join(BUILD, "wb_sim"),
    }
    for path in bins.values():
        if not os.path.exists(path):
            raise BenchError("missing build output " + path)
    return bins


def run_json(cmd, env=None):
    """Runs a driver binary; returns (its JSON line, monotonic spawn time)."""
    spawned = time.monotonic()
    p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError("%s exited %d: %s" % (os.path.basename(cmd[0]),
                                               p.returncode, p.stderr.strip()))
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % os.path.basename(cmd[0]))
    return json.loads(lines[-1]), spawned


def loadgen_env(bins, preload):
    env = dict(os.environ)
    env.pop("LD_PRELOAD", None)
    if preload:
        env["LD_PRELOAD"] = bins["shim"]
    return env


def loadgen_round(bins, workload, seed, preload, extra=()):
    cmd = [bins["loadgen"], "--workload=" + workload, "--seed=%d" % seed]
    r, spawned = run_json(cmd + list(extra), loadgen_env(bins, preload))
    r["setup_s"] = r["t_first_call"] - spawned
    return r


def shim_metrics(r):
    """End-to-end metrics of one load-generator process."""
    return {
        "setup_s": r["setup_s"],
        "ops_per_s": r["attempted"] / r["timed_s"],
        "cpu_ns_per_op": r["cpu_s"] * 1e9 / r["attempted"],
        "op_p50_ns": r["lat_p50_ns"],
        "op_p99_ns": r["lat_p99_ns"],
        "rss_peak_mb": r["rss_peak_kb"] / 1024.0,
        "rss_end_mb": r["rss_end_kb"] / 1024.0,
    }


def sim_round(bins, seed, reference=REFERENCE):
    cmd = [bins["sim"], "--seed=%d" % seed, "--reference=" + reference]
    r, spawned = run_json(cmd)
    r["setup_s"] = r["t_first_call"] - spawned
    return r


def sim_metrics(rounds):
    """sim_fleet's end-to-end metrics over its rounds. A simulated call has
    no host latency of its own, so op_p50_ns/op_p99_ns are the median and
    the 99th percentile (nearest rank) of the rounds' host ns per
    simulated call."""
    per_call = sorted(r["timed_s"] * 1e9 / r["sim_calls"] for r in rounds)
    metrics = summarize([{
        "setup_s": r["setup_s"],
        "ops_per_s": r["sim_calls"] / r["timed_s"],
        "cpu_ns_per_op": r["cpu_s"] * 1e9 / r["sim_calls"],
        "rss_peak_mb": r["rss_peak_kb"] / 1024.0,
        "rss_end_mb": r["rss_end_kb"] / 1024.0,
    } for r in rounds])
    metrics["op_p50_ns"] = statistics.median(per_call)
    metrics["op_p99_ns"] = per_call[min(len(per_call) - 1,
                                        int(0.99 * len(per_call)))]
    return metrics


def trimmed_mean(values, trim=0.1):
    """Mean of the middle 80% of values. Per-process figures on a shared
    host are often bimodal (a process lands on a busy core or not); a
    median flips between the modes as their shares cross one half, while
    the trimmed mean moves smoothly with the shares and still drops
    outliers."""
    v = sorted(values)
    k = int(len(v) * trim)
    return statistics.fmean(v[k:len(v) - k])


def summarize(per_round):
    """One value per metric over a run's rounds: the median for setup_s
    (as the benchmark contract asks), the trimmed mean for the rest."""
    return {k: (statistics.median if k == "setup_s" else trimmed_mean)(
        [m[k] for m in per_round]) for k in per_round[0]}


def until(seconds, min_rounds, fn):
    """Calls fn() until `seconds` have passed and at least min_rounds ran."""
    out = []
    start = time.monotonic()
    while len(out) < min_rounds or time.monotonic() - start < seconds:
        out.append(fn())
    return out


def failed_ops(failed, attempted):
    return failed / attempted if attempted else 1.0


def print_mix(r):
    mix = r["mix"]
    print("  op mix: " + ", ".join("%s=%d" % kv for kv in mix["calls"].items()))
    print("  sizes:  " + ", ".join("%s=%d" % kv
                                   for kv in mix["size_bands"].items()))


def end_to_end(bins, workload, seed, seconds):
    """Returns (metrics, attempted, failed)."""
    if workload == "sim_fleet":
        rounds = until(seconds, MIN_ROUNDS, lambda: sim_round(bins, seed))
        metrics = sim_metrics(rounds)
        r = rounds[0]
        print("sim_fleet: %d rounds, fleet seed %d, %d processes, "
              "%d simulated calls per round, digest %s (reference %s)"
              % (len(rounds), r["fleet_seed"], r["processes"],
                 r["sim_calls"], r["digest"], r["reference"] or "missing"))
    else:
        rounds = until(seconds, MIN_ROUNDS,
                       lambda: loadgen_round(bins, workload, seed, True))
        metrics = summarize([shim_metrics(r) for r in rounds])
        ref = loadgen_round(bins, workload, seed, False)
        glibc = shim_metrics(ref)
        r = rounds[0]
        print("%s: %d wscmalloc rounds, %d calls and %d latency samples "
              "per round, %d threads" % (workload, len(rounds), r["attempted"],
                                        r["lat_samples"], r["threads_created"]))
        print_mix(r)
        print("  blocks not 16-byte aligned (glibc guarantees 16): "
              "%d per round" % r["align16_misses"])
        print("  glibc reference, same generator, malloc_trim(0) for release:")
        for name, unit in END_TO_END:
            ratio = metrics[name] / glibc[name] if glibc[name] else 0.0
            print("    %-14s wscmalloc %14.4f  glibc %14.4f %-8s "
                  "wscmalloc/glibc %.3f" % (name, metrics[name], glibc[name],
                                            unit, ratio))
        rounds = rounds + [ref]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return metrics, attempted, failed


def probe_layers(bins, workload, seed, values):
    """Times the layers `workload` never reaches, so no per-layer time reads
    a constant zero: sim.* from sim_fleet's fixed simulated process, and
    any allocator-layer time still at 0 from the fixed probe call mix. The
    probed values are a flat reference for that workload. Returns (probed
    names, attempted, failed)."""
    probed = []
    if workload != "sim_fleet":
        r, _ = run_json([bins["sim"], "--seed=%d" % seed, "--trace"])
        for name, value in r["metrics"].items():
            if name.startswith("sim."):
                values[name] = value
                probed.append(name)
    units = {name: unit for name, unit, _ in PER_LAYER}
    missing = [n for n, u in units.items()
               if u in ("ns", "ms") and values[n] == 0]
    if not missing:
        return probed, 0, 0
    r, _ = run_json([bins["traced"], "--workload=probe", "--seed=%d" % seed])
    for name in missing:
        values[name] = r["metrics"][name]
    return probed + missing, r["attempted"], r["failed"]


def traced(bins, workload, seed, seconds):
    """Returns (per-layer metrics, attempted, failed)."""
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, workload + ".trace.json")
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    if workload == "sim_fleet":
        cmd = [bins["sim"], "--seed=%d" % seed, "--trace",
               "--trace-out=" + trace_out]
        rounds = until(seconds, 1, lambda: run_json(cmd)[0])
        attempted, failed = len(rounds), 0
        ratios = {}
    else:
        cmd = [bins["traced"], "--workload=" + workload, "--seed=%d" % seed,
               "--trace-out=" + trace_out]
        rounds = until(seconds, 1, lambda: run_json(cmd)[0])
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        ratios = rounds[-1]["ratios"]
        untraced = loadgen_round(bins, workload, seed, True)
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        values["shim.bootstrap_bytes"] = untraced["shim_bootstrap_bytes"]
        values["trace.ops_per_s_untraced"] = (untraced["attempted"] /
                                              untraced["timed_s"])
    for name in rounds[0]["metrics"]:
        values[name] = statistics.median(r["metrics"][name] for r in rounds)
    probed, p_attempted, p_failed = probe_layers(bins, workload, seed, values)
    attempted += p_attempted
    failed += p_failed
    if values["trace.ops_per_s_traced"] > 0:
        values["trace.overhead_ratio"] = (values["trace.ops_per_s_untraced"] /
                                          values["trace.ops_per_s_traced"])
    units = {name: unit for name, unit, _ in PER_LAYER}
    layers = {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
        "ratios": ratios,
        "probed": probed,
    }
    with open(os.path.join(OUT, workload + ".layers.json"), "w") as f:
        json.dump(layers, f, indent=1, sort_keys=True)
    print("%s traced: %d rounds; per-layer JSON and Chrome trace in %s"
          % (workload, len(rounds), os.path.relpath(OUT, ROOT)))
    for name, ratio in sorted(ratios.items()):
        print("  %-40s %.6f = %d / %d %s" % (name, values[name], ratio["num"],
                                            ratio["base"], ratio["base_name"]))
    return values, attempted, failed


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        bins = build()
        if args.trace:
            values, attempted, failed = traced(bins, args.workload, args.seed,
                                               args.seconds)
            catalog = [(n, u) for n, u, _ in PER_LAYER]
        else:
            values, attempted, failed = end_to_end(bins, args.workload,
                                                   args.seed, args.seconds)
            catalog = END_TO_END
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        log("wscbench: %s" % e)
        return 2
    print("failed_ops %.6g (%d failed of %d attempted)"
          % (failed_ops(failed, attempted), failed, attempted))
    for name, unit in catalog:
        print("%-40s %18.4f %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in catalog},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
