#!/usr/bin/env python3
"""Forwarding benchmark: one workload, one seed, one JSON line of metrics.

    python3 fwdbench/run.py --workload paper_fwd --seed 1 --seconds 30 --trace 0

Builds the leg driver (fwdbench.cpp) from the library sources of this
checkout into .bench_build/, then repeats passes of the workload with the
given seed for --seconds. A pass runs each of the workload's legs in its own
process. Every leg byte-checks each delivered message; this script also
checks that all passes agree on every virtual-time result.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: counts and virtual-time
histograms from the traced passes, host times from the untraced ones, and
the tracing overhead between the two. The traced legs write Chrome JSON
traces to .bench_build/traces/. README.md describes every metric.
"""
import argparse
import math
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fwdbench")
BINARY = os.path.join(BUILD, "fwdbench")
WORKLOADS = ("paper_fwd", "reliable_fwd", "flow_mix")
# Two same-seed passes are the least that can show a nondeterministic result.
MIN_PASSES = 2
# Each run must end within 180 s; passes stop being started well before that.
RUN_LIMIT_S = 150


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("fwdbench: no library sources under %s" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "fwdbench",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("fwdbench: build failed: %s" % " ".join(cmd))


def pin_to_one_core():
    """Keeps every actor thread of a leg on one core. The engine runs one
    actor at a time, so one core is all a leg uses; spread over several, each
    handoff became a cross-core wake-up whose cost varied with the
    scheduler's placement more than with the program."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_leg(args, leg, trace_dir, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--leg", str(leg), "--scale", args.scale]
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              preexec_fn=pin_to_one_core,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("fwdbench: leg did not finish in time: %s" % " ".join(cmd))
    if proc.returncode != 0:
        sys.exit("fwdbench: leg exited with %d: %s"
                 % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(args, trace_dir, deadline):
    """Runs every leg once and sums them into one pass record."""
    start = time.monotonic()
    legs = [run_leg(args, 0, trace_dir, deadline)]
    for leg in range(1, legs[0]["legs"]):
        legs.append(run_leg(args, leg, trace_dir, deadline))
    host = {name: sum(leg["host"][name] for leg in legs)
            for name in legs[0]["host"]}
    host["peak_rss_MB"] = max(leg["host"]["peak_rss_MB"] for leg in legs)
    host["setup_s"] = (host["net_setup_s"] + host["mad_setup_s"]
                       + host["fwd_setup_s"])
    host["pass_s"] = time.monotonic() - start
    counts = {}
    for leg in legs:
        for name, value in leg["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {
        "errors": ["%s: %s" % (leg["leg"], leg["error"]) for leg in legs
                   if leg["error"]],
        "sent": sum(leg["sent"] for leg in legs),
        "ok": sum(leg["ok"] for leg in legs),
        "delivered_bytes": sum(leg["delivered_bytes"] for leg in legs),
        "virt": [leg["virt"] for leg in legs],
        "host": host,
        "counts": counts,
        "histograms": [h for leg in legs for h in leg["histograms"]],
        "trace_events": sum(leg["trace_events"] for leg in legs),
        "trace_dropped": sum(leg["trace_dropped"] for leg in legs),
    }


def problems(plain, traced):
    found = []
    for p in plain + traced:
        found += ["engine error in " + e for e in p["errors"]]
        if p["ok"] != p["sent"]:
            found.append("%d of %d messages not delivered intact"
                         % (p["sent"] - p["ok"], p["sent"]))
        if p["virt"] != plain[0]["virt"]:
            found.append("virtual-time results differ between same-seed "
                         "passes")
    for p in traced[1:]:
        if p["histograms"] != traced[0]["histograms"]:
            found.append("traced histograms differ between same-seed passes")
    return found


def median(values):
    return statistics.median(list(values))


def percentile(values, q):
    """Nearest-rank percentile of exact samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def pooled_percentile(histograms, q):
    """Percentile of pooled log2-bucketed registry histograms, with the
    interpolation of sim::LatencyHistogram::percentile."""
    histograms = [h for h in histograms if h["count"]]
    if not histograms:
        return 0.0
    count = sum(h["count"] for h in histograms)
    low_clamp = min(h["min"] for h in histograms)
    high_clamp = max(h["max"] for h in histograms)
    target = q * count
    cumulative = 0
    for b in range(len(histograms[0]["buckets"])):
        in_bucket = sum(h["buckets"][b] for h in histograms)
        if in_bucket == 0:
            continue
        if cumulative + in_bucket >= target:
            low = 0.0 if b == 0 else 2.0 ** (b - 1)
            high = 2.0 ** b
            estimate = low + (target - cumulative) / in_bucket * (high - low)
            return min(max(estimate, low_clamp), high_clamp)
        cumulative += in_bucket
    return high_clamp


def virtual_results(p):
    """Virtual-time results of one pass; equal in every same-seed pass."""
    def us(name):
        return [ns / 1e3 for v in p["virt"] for ns in v[name]]

    latency = us("latency")
    bulk_bytes = bulk_ns = 0
    flow_mbps = []
    for v in p["virt"]:
        flows = [v["bulk"][i:i + 3] for i in range(0, len(v["bulk"]), 3)]
        if not flows:
            continue
        bulk_bytes += sum(f[0] for f in flows)
        bulk_ns += max(f[2] for f in flows) - min(f[1] for f in flows)
        flow_mbps += [f[0] / 1e6 / ((f[2] - f[1]) / 1e9) for f in flows]
    return {
        "bulk_MBps": bulk_bytes / 1e6 / (bulk_ns / 1e9) if bulk_ns else 0.0,
        "min_flow_MBps": min(flow_mbps, default=0.0),
        "small_p50_us": percentile(latency, 0.50),
        "small_p99_us": percentile(latency, 0.99),
        "small_samples": len(latency),
        "pack_p50_us": percentile(us("pack"), 0.50),
        "pack_p99_us": percentile(us("pack"), 0.99),
        "unpack_p50_us": percentile(us("unpack"), 0.50),
        "gen_late_p99_us": percentile(us("late"), 0.99),
    }


def end_to_end(plain, sent, ok):
    v = virtual_results(plain[0])
    return {
        "virt_bulk_MBps": (v["bulk_MBps"], "MB/s"),
        "virt_min_flow_MBps": (v["min_flow_MBps"], "MB/s"),
        "virt_small_p50_us": (v["small_p50_us"], "us"),
        "virt_small_p99_us": (v["small_p99_us"], "us"),
        "sim_MB_per_cpu_s": (median(p["delivered_bytes"] / 1e6
                                    / (p["host"]["cpu_user_s"]
                                       + p["host"]["cpu_sys_s"])
                                    for p in plain), "MB/s"),
        "setup_s": (median(p["host"]["setup_s"] for p in plain), "s"),
        "peak_rss_MB": (median(p["host"]["peak_rss_MB"] for p in plain), "MB"),
        "msg_ok_ratio": (ok / sent, "ratio"),
    }


def per_layer(plain, traced, sent, ok):
    passes = plain + traced

    def count(name):
        """Median over the passes that report it; the registry counters
        exist in traced passes only."""
        values = [p["counts"][name] for p in passes if name in p["counts"]]
        return median(values) if values else 0

    def host(name):
        return median(p["host"][name] for p in plain)

    def hist(q, name, labels=""):
        """Median over traced passes of a pooled registry percentile."""
        return median(pooled_percentile(
            [h for h in p["histograms"]
             if h["name"] == name and labels in h["labels"]], q)
            for p in traced)

    v = virtual_results(plain[0])
    payload_bytes = plain[0]["delivered_bytes"]
    lookups = count("fwd.mr_lookups")
    metrics = {}
    for name in ("sim.switches", "sim.timer_fires", "sim.notifies",
                 "sim.noop_notifies", "sim.direct_handoffs",
                 "sim.scheduler_rounds", "net.packets", "net.fault_drops",
                 "fwd.gw_paquets", "fwd.rel_retransmits",
                 "fwd.rel_fast_retransmits", "fwd.rel_timeouts",
                 "fwd.rel_dup_drops", "fwd.rel_stale_drops",
                 "fwd.rel_window_decreases", "fwd.flow_marks",
                 "fwd.admission_rejects", "fwd.admission_sheds",
                 "fwd.rdma_writes", "fwd.rdma_rendezvous", "fwd.mr_lookups",
                 "mad.copies"):
        metrics[name] = (count(name), "count")
    for name in ("net.bytes", "fwd.gw_bytes", "mad.copy_bytes",
                 "mad.copy_bytes_staged", "mad.copy_bytes_zero_copy",
                 "mad.copy_bytes_one_sided"):
        metrics[name] = (count(name), "bytes")
    metrics.update({
        "sim.MB_per_wall_s": (median(p["delivered_bytes"] / 1e6
                                     / p["host"]["run_s"] for p in plain),
                              "MB/s"),
        "sim.switches_per_MB": (count("sim.switches") * 1e6 / payload_bytes,
                                "count/MB"),
        "sim.ns_per_switch": (median(p["host"]["run_s"] * 1e9
                                     / p["counts"]["sim.switches"]
                                     for p in plain), "ns"),
        "sim.cpu_user_s": (host("cpu_user_s"), "s"),
        "sim.cpu_sys_s": (host("cpu_sys_s"), "s"),
        "sim.idle_s": (median(p["host"]["run_s"] - p["host"]["cpu_user_s"]
                              - p["host"]["cpu_sys_s"] for p in plain), "s"),
        "sim.stats_drift": (max(abs(p["counts"]["sim.switches"]
                                    - plain[0]["counts"]["sim.switches"])
                                for p in passes), "count"),
        # Every message crosses two networks, so 1.0 means no overhead.
        "net.wire_overhead_ratio": (count("net.bytes") / (2 * payload_bytes),
                                    "ratio"),
        "net.pci_us.p50": (hist(0.50, "pci.transfer_us", "bus=gw.pci"), "us"),
        "net.pci_us.p99": (hist(0.99, "pci.transfer_us", "bus=gw.pci"), "us"),
        "net.setup_s": (host("net_setup_s"), "s"),
        "mad.setup_s": (host("mad_setup_s"), "s"),
        "fwd.setup_s": (host("fwd_setup_s"), "s"),
        "fwd.gw_recv_us.p50": (hist(0.50, "gw.phase_us", "phase=recv"), "us"),
        "fwd.gw_switch_us.p50": (hist(0.50, "gw.phase_us", "phase=switch"),
                                 "us"),
        "fwd.gw_send_us.p50": (hist(0.50, "gw.phase_us", "phase=send"), "us"),
        "fwd.pack_us.p50": (v["pack_p50_us"], "us"),
        "fwd.pack_us.p99": (v["pack_p99_us"], "us"),
        "fwd.unpack_us.p50": (v["unpack_p50_us"], "us"),
        "fwd.gen_late_p99_us": (v["gen_late_p99_us"], "us"),
        "fwd.small_samples": (v["small_samples"], "count"),
        "fwd.rel_ack_us.p99": (hist(0.99, "rel.ack_us"), "us"),
        "fwd.rel_rtt_us.p50": (hist(0.50, "rel.rtt_us"), "us"),
        "fwd.flow_queue_depth.p99": (hist(0.99, "flow.queue_depth"),
                                     "paquets"),
        "fwd.flow_reject_retries": (count("flow.reject_retries"), "count"),
        "fwd.mr_hit_ratio": (count("fwd.mr_hits") / lookups if lookups
                             else 0.0, "ratio"),
        "msg_fail_ratio": ((sent - ok) / sent, "ratio"),
        "trace.events": (median(p["trace_events"] for p in traced), "count"),
        "trace.dropped": (median(p["trace_dropped"] for p in traced),
                          "count"),
        "trace.overhead_s": (median(p["host"]["pass_s"] for p in traced)
                             - host("pass_s"), "s"),
    })
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    plain, traced = [], []
    while True:
        cycle_start = time.monotonic()
        plain.append(run_pass(args, None, deadline))
        if args.trace:
            traced.append(run_pass(args, trace_dir, deadline))
        now = time.monotonic()
        cycle = now - cycle_start
        if len(plain) >= MIN_PASSES and (now + cycle > start + args.seconds
                                         or now + 2 * cycle > deadline):
            break

    sent = sum(p["sent"] for p in plain + traced)
    ok = sum(p["ok"] for p in plain + traced)
    found = problems(plain, traced)
    for problem in found:
        print("fwdbench: " + problem, file=sys.stderr)
    metrics = (per_layer(plain, traced, sent, ok) if args.trace
               else end_to_end(plain, sent, ok))
    print(json.dumps({
        "correct": not found,
        "attempted": sent,
        "failed": sent - ok,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
