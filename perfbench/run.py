#!/usr/bin/env python3
"""OrderLight simulator benchmark: one command that builds the driver
from the source tree, runs one workload, checks every output and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload sweep_grid --seed 1 \\
        --seconds 32 --trace 0

Run it from the root of the source tree. It builds perfbench/ (which
compiles src/ alongside it) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, and writes nothing outside that directory.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs the same work with spans recorded around each public
call, plus per-layer probes, and prints the per-layer metrics: self
time per layer, counts, and the tracing overhead against the same work
timed untraced in the same run.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every line before it is the human-readable report and the run's
metadata.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

# BENCHMARK.json at the root of the tree names the workloads (with the
# reason each was chosen) and every metric with its unit.
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")

# The serving latency limit behind slo_rate_rps (p99, microseconds).
LATENCY_LIMIT_US = 100_000.0
DRIVER_TIMEOUT_S = 170

# Per-layer metrics taken from spans: (span name, statistic, scale).
# "self" sums self time over the run; "self_median" / "total_median"
# are per call.
SPAN_METRICS = {
    "workloads.build_s": ("workloads.build", "self", 1e-9),
    "workloads.init_s": ("workloads.init", "self", 1e-9),
    "core.system_ctor_s": ("core.system_ctor", "self", 1e-9),
    "core.load_kernel_s": ("core.load_kernel", "self", 1e-9),
    "sim.run_s": ("sim.run", "self", 1e-9),
    "verify.golden_s": ("verify.golden", "self", 1e-9),
    "verify.check_s": ("verify.check", "self", 1e-9),
    "serve.parse_us": ("serve.parse", "self_median", 1e-3),
    "serve.fingerprint_us": ("serve.fingerprint", "self_median", 1e-3),
    "serve.cache_get_us": ("serve.cache_get", "self_median", 1e-3),
    "serve.cache_put_us": ("serve.cache_put", "self_median", 1e-3),
    "serve.cas_get_us": ("serve.cas_get", "self_median", 1e-3),
    "serve.cas_put_us": ("serve.cas_put", "self_median", 1e-3),
    "serve.admit_us": ("serve.admit", "self_median", 1e-3),
    "serve.serialize_us": ("serve.serialize", "self_median", 1e-3),
    "serve.rtt_direct_us": ("serve.rtt_direct", "self_median", 1e-3),
    "serve.rtt_routed_us": ("serve.rtt_routed", "self_median", 1e-3),
    "serve.simulate_ms": ("serve.simulate", "total_median", 1e-6),
}

# Per-layer counts the driver records while tracing.
TRACE_COUNTS = (
    "sim.events", "sim.host_phase_s", "sim.channel_phase_max_s",
    "sim.windows", "sim.mailbox_msgs", "sim.stall_windows",
    "sim.arena_grows", "sim.heap_regrows", "sim.driver_divergent_points",
    "verify.oracle_s", "verify.oracle_checks", "verify.oracle_violations",
    "gpu.stall_cycles", "gpu.wait_per_fence", "gpu.wait_per_ol",
    "noc.l2_forwarded", "noc.ol_copies", "noc.ol_merges",
    "memctrl.pim_scheduled", "memctrl.host_scheduled",
    "memctrl.ordering_blocked", "dram.acts", "pim.commands", "pim.bytes",
    "model.exec_us",
)

SERVE_COUNTS = ("serve.busy_rejected", "serve.busy_retried",
                "serve.memory_hits", "serve.disk_hits",
                "serve.simulations")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build the driver; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
             build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def e2e_metrics(raw, rungs):
    meta = raw["meta"]
    # Median over the run's timed units (grid passes or rounds).
    cmds_per_s = stats.quantile([c / t for c, t in raw["units"]], 0.5)
    ol, louvre = stats.speedup_geomeans(raw["triples"])
    m = {
        "sim_cmds_per_s": cmds_per_s,
        "setup_s": stats.quantile(raw["setup_samples"], 0.5),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ol_speedup_geomean": ol,
        "louvre_speedup_geomean": louvre,
    }
    summaries = []
    for rung in rungs:
        lat = stats.rung_latencies(rung)
        summary = stats.timing_summary(lat)
        summary["rate"] = rung["rate"]
        summary["p50_slices"] = stats.slice_median(rung)
        summary["p99"] = stats.quantile(lat, 0.99)
        summary["backlog_grows"] = stats.rate_backlog_grows(rung)
        summaries.append(summary)
    for label, idx in (("low", 0), ("high", meta["high_rung"])):
        m[f"lat_p50_us.{label}"] = summaries[idx]["p50_slices"]
        m[f"lat_p99_us.{label}"] = summaries[idx]["p99"]
    m["slo_rate_rps"] = stats.slo_rate(
        [(s["rate"], s["p99"], s["backlog_grows"]) for s in summaries],
        LATENCY_LIMIT_US)
    return m, summaries


def per_layer_metrics(raw, rungs, attempted, failed):
    table = stats.span_table(raw["spans"])
    m = {}
    for name, (span, stat, scale) in SPAN_METRICS.items():
        row = table.get(span)
        if row is None:
            value = 0.0
        elif stat == "self":
            value = row["self"] * scale
        elif stat == "self_median":
            value = stats.quantile(row["self_calls"], 0.5) * scale
        else:
            value = stats.quantile(row["total_calls"], 0.5) * scale
        m[name] = value
    counts = raw["trace_counts"]
    for name in TRACE_COUNTS:
        m[name] = counts.get(name, 0.0)
    points = counts.get("model.points", 0.0)
    for name in ("gpu.wait_per_fence", "gpu.wait_per_ol"):
        m[name] = m[name] / points if points else 0.0
    hits = counts.get("dram.row_hits", 0.0)
    misses = counts.get("dram.row_misses", 0.0)
    m["dram.row_hit_rate"] = hits / (hits + misses) if hits else 0.0
    run_s = m["sim.run_s"]
    m["sim.events_per_s"] = m["sim.events"] / run_s if run_s else 0.0

    serve = raw["serve_counts"]
    for name in SERVE_COUNTS:
        m[name] = serve.get(name, 0.0)
    lookups = (serve.get("serve.memory_hits", 0.0) +
               serve.get("serve.disk_hits", 0.0) +
               serve.get("serve.simulations", 0.0))
    m["serve.hit_rate"] = ((serve.get("serve.memory_hits", 0.0) +
                            serve.get("serve.disk_hits", 0.0)) / lookups
                           if lookups else 0.0)
    high = rungs[raw["meta"]["high_rung"]]
    m["serve.gen_lag_ms"] = stats.quantile(
        [s[1] for s in high["samples"]], 0.99) / 1e3

    over = raw["overhead"]
    m["trace.overhead_pct"] = (
        (over["traced_s"] - over["untraced_s"]) / over["untraced_s"] * 100
        if over["untraced_s"] > 0 else 0.0)
    m["ops_attempted"] = attempted
    m["ops_failed"] = failed
    return m


def finite(value):
    """JSON has no infinity: a latency that is infinite because every
    request in its tail failed is reported as 1e12 us."""
    if isinstance(value, float) and not math.isfinite(value):
        return 1e12
    return value


def main():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=why)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: run from the root of the source tree "
            "(src/CMakeLists.txt not found)")
        return 2
    build_dir = os.path.relpath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", root)
    try:
        driver = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    raw_path = os.path.join(build_dir, f"raw-{os.getpid()}.json")
    cmd = [driver, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--dir", work, "--out", raw_path]
    # A SIGTERM still runs the finally below, so the driver never
    # outlives this process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=sys.stderr)
        if proc.wait(timeout=DRIVER_TIMEOUT_S) != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        with open(raw_path) as f:
            raw = json.load(f)
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"perfbench: driver failed: {e}")
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(raw_path):
            os.remove(raw_path)

    attempted, failed, failures = stats.count_failures(raw["ops"],
                                                       raw["rungs"])
    rungs = stats.pool_rates(raw["rungs"])
    e2e, summaries = e2e_metrics(raw, rungs)
    values = (per_layer_metrics(raw, rungs, attempted, failed)
              if args.trace else e2e)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        log("perfbench: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
        return 1

    meta = dict(raw["meta"])
    meta.update({
        "workload": args.workload, "why": why[args.workload],
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "latency_limit_us": LATENCY_LIMIT_US,
        "latency_us": [{k: finite(s[k]) for k in
                        ("rate", "n", "p50", "p50_slices", "p99",
                         "tail_percentile", "tail", "backlog_grows")}
                       for s in summaries],
        "ops_attempted": attempted, "ops_failed": failed,
        "failures": failures,
    })
    print("meta " + json.dumps(meta))
    for name in units:
        print(f"{name}: {values[name]:.6g} {units[name]}")

    positive = all(e2e[k] > 0 for k in
                   ("sim_cmds_per_s", "ol_speedup_geomean",
                    "louvre_speedup_geomean"))
    result = {
        "correct": failed == 0 and positive,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
