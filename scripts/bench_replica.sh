#!/usr/bin/env bash
# Records BENCH_replication.json and BENCH_ha.json: WAL-shipping replica
# catch-up and Explain latency against the leader's (bench_replication,
# three repetitions, medians), and the serving group's hedged-read tail
# latency under injected leader stalls (bench_ha, three runs, medians).
# See bench/bench_replication.cc and bench/bench_ha.cc for the scenarios
# and docs/benchmarks.md for the artifact index.
#
# Usage: scripts/bench_replica.sh   # configures+builds ${BUILD_DIR:-build}
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
RUNS=3

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_replication bench_ha

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
"$BUILD_DIR"/bench/bench_replication --benchmark_repetitions="$RUNS" \
  --benchmark_report_aggregates_only=true --benchmark_format=json \
  > "$OUT/replication.json"
for run in $(seq "$RUNS"); do
  "$BUILD_DIR"/bench/bench_ha > "$OUT/ha.$run.txt"
done

python3 - "$OUT" "$RUNS" <<'PY'
import json
import re
import statistics
import sys

out, runs = sys.argv[1], int(sys.argv[2])


def write(path, doc):
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


replication = json.load(open(f"{out}/replication.json"))
context = replication["context"]
cpu_model = "unknown"
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
machine = {
    "num_cpus": context["num_cpus"],
    "mhz_per_cpu": context["mhz_per_cpu"],
    "cpu_model": cpu_model,
    "caveat": "shared multi-tenant container host: absolute numbers move "
              "between runs; the stable signals are catch-up scaling "
              "linearly in records, the replica-over-leader Explain ratio "
              "and the hedged p99 ratio.",
}

NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
benchmarks = []
medians = {}
for bench in replication["benchmarks"]:
    if bench.get("aggregate_name") != "median":
        continue
    name = bench["run_name"]
    entry = {"name": name,
             "median_real_time_ns": round(
                 bench["real_time"] * NS[bench["time_unit"]], 1)}
    if "items_per_second" in bench:
        entry["median_items_per_second"] = round(bench["items_per_second"], 1)
    benchmarks.append(entry)
    medians[name] = entry
leader = medians["BM_Explain_LeaderVsReplica/0"]["median_real_time_ns"]
replica = medians["BM_Explain_LeaderVsReplica/1"]["median_real_time_ns"]
write("BENCH_replication.json", {
    "note": f"WAL-shipping replication pipeline (bench_replication, "
            f"RelWithDebInfo, medians of {runs} repetitions, 4 leader "
            "shards; scripts/bench_replica.sh). Bootstrap = a fresh "
            "ReplicaProxy applying a shipped directory of N records (WAL "
            "replay + per-shard CRC-32C digest verification) and feeding "
            "them into its served view, a record-only one-shard "
            "ExplainableProxy with a bitset index. Incremental = leader "
            "Record batch -> shipper Ship (rewrites every shard's shipped "
            "segment + manifest) -> replica CatchUp, which records only "
            "the rows that crossed the watermark; items/s is bounded by "
            "the shipper re-copying whole segments each cycle. Explain "
            "(Arg 0 = leader, 1 = replica) runs the same "
            "ExplainableProxy::ExplainBatch over a 2048-row window on both "
            "sides: the leader reads 4 shard indexes, the replica its "
            "one-shard view; keys are bit-identical.",
    "machine": machine,
    "benchmarks": benchmarks,
    "headline_ratios": {
        "replica_explain_median_over_leader": round(replica / leader, 2),
        "bootstrap_catchup_records_per_second_at_50k":
            medians["BM_ReplicaCatchUp_Bootstrap/50000"]
            ["median_items_per_second"],
    },
})

line = re.compile(r"^(leader_only|hedged):\s+p50=(\d+)us p95=(\d+)us "
                  r"p99=(\d+)us degraded=(\d+)")
speedup = re.compile(r"^p99 speedup: ([0-9.]+)x")
samples = {}
speedups = []
for run in range(1, runs + 1):
    for text in open(f"{out}/ha.{run}.txt"):
        match = line.match(text)
        if match:
            policy = match.group(1)
            for key, value in zip(("p50", "p95", "p99", "degraded"),
                                  match.groups()[1:]):
                samples.setdefault((policy, key), []).append(int(value))
        match = speedup.match(text)
        if match:
            speedups.append(float(match.group(1)))
ha = []
for policy in ("leader_only", "hedged"):
    for key in ("p50", "p95", "p99"):
        ha.append({"name": f"ServingGroup_Explain/{policy}/{key}",
                   "median_real_time_ns":
                       statistics.median(samples[(policy, key)]) * 1000.0})
ha.append({"name": "ServingGroup_Explain/p99_speedup",
           "ratio": round(statistics.median(speedups), 1),
           "acceptance_floor": 2.0})
degraded = max(samples[("leader_only", "degraded")] +
               samples[("hedged", "degraded")])
write("BENCH_ha.json", {
    "note": f"Self-healing serving group hedged-read tail latency "
            f"(bench_ha, RelWithDebInfo, medians of {runs} runs; "
            "scripts/bench_replica.sh). One leader (4 shards, 2048-row "
            "context) + one caught-up replica behind a ServingGroup; 10% "
            "of leader Explain dispatches stall 20ms (deterministic spike "
            "schedule, modelling GC pauses / noisy neighbours); 2000 "
            "Explains per policy. leader_only pins RoutePolicy::kLeaderOnly "
            "with hedging off, so every spike lands on the caller. hedged "
            "runs kPreferFresh with hedging on (delay = clamp(2 x p95, "
            "1ms, 2ms)): the rolling per-backend p95 moves primary routing "
            "onto the replica once the leader's tail inflates, and the "
            "hedge races the residual spikes. p99_speedup is the median of "
            "the per-run leader_only/hedged p99 ratios; >= 2x is the "
            "acceptance floor. Most degraded serves in any run: "
            f"{degraded}.",
    "machine": machine,
    "benchmarks": ha,
})
PY
cat BENCH_replication.json BENCH_ha.json
