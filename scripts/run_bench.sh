#!/usr/bin/env bash
# Runs every benchmark binary with JSON reporting and writes
# BENCH_<name>.json at the repo root. Human-readable tables still go to
# stdout; the JSON files are the machine-readable record checked into the
# repo for before/after comparisons.
#
#   $ scripts/run_bench.sh [--quick] [build-dir] [filter]
#
# build-dir defaults to ./build. filter is a substring: only benches whose
# name contains it are run (e.g. `scripts/run_bench.sh build store` runs
# only bench_store_micro).
#
# --quick is the CI smoke mode: it sets GV_BENCH_QUICK=1 (the handwritten
# bench drivers shrink their iteration counts), caps the google-benchmark
# binaries at minimal run time, and writes the JSON into a temporary
# directory so the checked-in full-run BENCH_*.json records are not
# clobbered by throwaway numbers.
set -euo pipefail

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
  shift
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
filter="${2:-}"

out_root="$repo_root"
extra_args=()
if [[ "$quick" -eq 1 ]]; then
  export GV_BENCH_QUICK=1
  out_root="$(mktemp -d)"
  extra_args+=(--benchmark_min_time=0.01)
  echo "quick mode: JSON goes to $out_root (repo records untouched)"
fi

bench_dir="$build_dir/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir not found; build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi

ran=0
for bin in "$bench_dir"/bench_*; do
  [[ -x "$bin" && ! -d "$bin" ]] || continue
  name="$(basename "$bin")"
  [[ -z "$filter" || "$name" == *"$filter"* ]] || continue
  # Strip the bench_ prefix for the artifact name: BENCH_store_micro.json.
  out="$out_root/BENCH_${name#bench_}.json"
  echo "== $name -> $(basename "$out")"
  "$bin" --benchmark_out="$out" --benchmark_out_format=json "${extra_args[@]}"
  ran=$((ran + 1))
done

if [[ "$ran" -eq 0 ]]; then
  echo "error: no benchmarks matched filter '$filter'" >&2
  exit 1
fi

# Quick mode doubles as the CI smoke path: also run the chaos soak test so
# the fault-injection invariants (message conservation, drop attribution,
# no leaked requests, bit-identical replay) are exercised alongside the
# benches. A failing run prints the scenario seed to replay it.
if [[ "$quick" -eq 1 && -z "$filter" && -x "$build_dir/tests/fault_soak_test" ]]; then
  echo "== fault_soak_test (chaos smoke; failing seeds are printed for replay)"
  "$build_dir/tests/fault_soak_test" --gtest_brief=1
fi
# Same smoke treatment for the conjunctive executor: loss/churn/duplication
# over the bind-join pipeline, plus the bind-vs-collect differential.
if [[ "$quick" -eq 1 && -z "$filter" && -x "$build_dir/tests/conjunctive_chaos_test" ]]; then
  echo "== conjunctive_chaos_test (executor chaos smoke)"
  "$build_dir/tests/conjunctive_chaos_test" --gtest_brief=1
fi
# Sharded-engine smoke: the multi-shard chaos soak (conservation + replay
# invariants with real worker threads). The 100k-peer scale point itself runs
# inside bench_routing's quick mode above (E2b section).
if [[ "$quick" -eq 1 && -z "$filter" && -x "$build_dir/tests/sharded_soak_test" ]]; then
  echo "== sharded_soak_test (multi-shard chaos smoke)"
  "$build_dir/tests/sharded_soak_test" --gtest_brief=1
fi
# Observability artifact: a scripted shell session traces one conjunctive
# query end to end and exports the Chrome trace plus the unified metrics
# JSON. GV_ARTIFACT_DIR overrides the destination (CI uploads it and the
# validator asserts the trace parses and every span tree is acyclic).
shell_bin="$build_dir/examples/gridvine_shell"
if [[ "$quick" -eq 1 && -z "$filter" && -x "$shell_bin" ]]; then
  artifact_dir="${GV_ARTIFACT_DIR:-$out_root}"
  mkdir -p "$artifact_dir"
  echo "== trace artifact (scripted shell session) -> $artifact_dir"
  "$shell_bin" >/dev/null <<EOF
trace on
schema W w type,size
triple <w:e1> <W#type> "gadget" .
triple <w:e2> <W#type> "widget" .
triple <w:e1> <W#size> "3" .
triple <w:e2> <W#size> "5" .
cquery SELECT ?x, ?l WHERE (?x, <W#type>, "gadget"), (?x, <W#size>, ?l)
trace dump $artifact_dir/trace_conjunctive.json
metrics $artifact_dir/metrics.json
quit
EOF
  if command -v python3 >/dev/null 2>&1; then
    python3 "$repo_root/scripts/validate_trace.py" \
      "$artifact_dir/trace_conjunctive.json" "$artifact_dir/metrics.json"
  else
    echo "python3 not found; skipping trace validation"
  fi
fi
# Sharded observability artifact: the same session shape on the 2-shard
# engine with the windowed health layer on. The trace dump carries
# otherData.shards=2, which switches the validator to the shard-merge checks
# (shard-index span-id bits, strictly increasing merged (ts, order) keys),
# and the timeseries dump is checked against the windowed-sample schema.
if [[ "$quick" -eq 1 && -z "$filter" && -x "$shell_bin" ]]; then
  artifact_dir="${GV_ARTIFACT_DIR:-$out_root}"
  mkdir -p "$artifact_dir"
  echo "== sharded trace + timeseries artifact -> $artifact_dir"
  "$shell_bin" --shards 2 >/dev/null <<EOF
trace on
health on 0.25
schema W w type,size
triple <w:e1> <W#type> "gadget" .
triple <w:e2> <W#type> "widget" .
triple <w:e1> <W#size> "3" .
triple <w:e2> <W#size> "5" .
cquery SELECT ?x, ?l WHERE (?x, <W#type>, "gadget"), (?x, <W#size>, ?l)
query SELECT ?x WHERE (?x, <W#type>, "widget")
trace dump $artifact_dir/trace_sharded.json
metrics $artifact_dir/metrics_sharded.json
timeseries $artifact_dir/timeseries.json
quit
EOF
  if command -v python3 >/dev/null 2>&1; then
    python3 "$repo_root/scripts/validate_trace.py" \
      "$artifact_dir/trace_sharded.json" \
      "$artifact_dir/metrics_sharded.json" \
      "$artifact_dir/timeseries.json"
  else
    echo "python3 not found; skipping sharded trace validation"
  fi
fi
# Serving-throughput smoke: bench_serving ran in the loop above (flash-crowd
# arrival process, four feature modes); validate that BENCH_serving.json
# carries the metrics CI consumers graph and that the equal-recall
# cross-check passed. In quick mode CI uploads the file as an artifact.
serving_json="$out_root/BENCH_serving.json"
if [[ -f "$serving_json" ]] && command -v python3 >/dev/null 2>&1; then
  echo "== validating $(basename "$serving_json")"
  python3 - "$serving_json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
rows = {r["name"]: r for r in doc["benchmarks"]}
required_rows = ["off", "cache", "batch", "cache_batch", "summary"]
required_keys = ["qps", "hit_rate", "p99_ms", "peers", "concurrency"]
for mode in required_rows:
    name = "bench_serving/" + mode
    if name not in rows:
        sys.exit(f"missing row {name}")
    for key in required_keys:
        if key not in rows[name]:
            sys.exit(f"row {name} missing key {key}")
summary = rows["bench_serving/summary"]
if summary["equal_recall"] != 1.0:
    sys.exit("serving modes returned different results (equal_recall != 1)")
print(f"  ok: qps_speedup={summary['qps_speedup']:.2f}x "
      f"hit_rate={summary['hit_rate']:.2f} p99={summary['p99_ms']:.0f}ms")
EOF
  if [[ "$quick" -eq 1 && -n "${GV_ARTIFACT_DIR:-}" ]]; then
    mkdir -p "$GV_ARTIFACT_DIR"
    cp "$serving_json" "$GV_ARTIFACT_DIR/"
  fi
fi
# Cost-based planning smoke: bench_conjunctive ran the Zipf skewed-workload
# sweep in the loop above (greedy vs cost-based). Validate that the two
# mode rows and the summary carry the keys CI consumers graph, that both
# modes returned identical results, and — full runs only — that
# cost-based actually beat greedy on shipped rows (quick runs shrink the
# corpus too far to hold the full-run ratio to a floor). In quick mode CI
# uploads the JSON as the Zipf-sweep artifact.
conjunctive_json="$out_root/BENCH_conjunctive.json"
if [[ -f "$conjunctive_json" ]] && command -v python3 >/dev/null 2>&1; then
  echo "== validating $(basename "$conjunctive_json")"
  GV_BENCH_FULL="$((1 - quick))" python3 - "$conjunctive_json" <<'EOF'
import json, os, sys

doc = json.load(open(sys.argv[1]))
rows = {r["name"]: r for r in doc["benchmarks"]}
required_rows = ["zipf_greedy", "zipf_cost", "zipf_summary"]
required_keys = ["mode", "rows_shipped", "bytes", "messages", "est_error",
                 "drift_rows_shipped"]
for mode in required_rows[:2]:
    name = "bench_conjunctive/" + mode
    if name not in rows:
        sys.exit(f"missing row {name}")
    for key in required_keys:
        if key not in rows[name]:
            sys.exit(f"row {name} missing key {key}")
summary = rows.get("bench_conjunctive/zipf_summary")
if summary is None:
    sys.exit("missing row bench_conjunctive/zipf_summary")
if summary["differential_ok"] != 1.0:
    sys.exit("planner modes returned different results (differential_ok != 1)")
ratio = summary["greedy_over_cost_rows"]
if os.environ.get("GV_BENCH_FULL") == "1" and ratio < 2.0:
    sys.exit(f"cost-based plan only {ratio:.2f}x better than greedy "
             f"on shipped rows (acceptance floor is 2x)")
print(f"  ok: greedy/cost rows={ratio:.2f}x "
      f"bytes={summary['greedy_over_cost_bytes']:.2f}x")
EOF
  if [[ "$quick" -eq 1 && -n "${GV_ARTIFACT_DIR:-}" ]]; then
    mkdir -p "$GV_ARTIFACT_DIR"
    cp "$conjunctive_json" "$GV_ARTIFACT_DIR/"
  fi
fi
# Tracing-overhead gate: bench_sim_micro measures the relay hot path with no
# tracer, an attached-but-disabled tracer, and an enabled one (plus the
# 2-shard variant). Disabled tracing must stay under 3% overhead — the
# observability layer may not tax untraced runs. The gate reads the median
# of paired per-rep ratios and only binds on full runs; quick-mode windows
# (~10 ms) are pure jitter.
sim_micro_json="$out_root/BENCH_sim_micro.json"
if [[ -f "$sim_micro_json" ]] && command -v python3 >/dev/null 2>&1; then
  echo "== validating $(basename "$sim_micro_json")"
  GV_BENCH_FULL="$((1 - quick))" python3 - "$sim_micro_json" <<'EOF'
import json, os, sys

doc = json.load(open(sys.argv[1]))
rows = {r["name"]: r for r in doc["benchmarks"]}
classic = rows.get("bench_sim_micro/tracing_overhead")
sharded = rows.get("bench_sim_micro/tracing_overhead_sharded")
if classic is None or sharded is None:
    sys.exit("missing tracing_overhead row(s) in BENCH_sim_micro.json")
for key in ["messages_per_sec_untraced", "messages_per_sec_disabled",
            "messages_per_sec_enabled", "disabled_overhead_pct",
            "enabled_overhead_pct"]:
    if key not in classic:
        sys.exit(f"tracing_overhead row missing key {key}")
for key in ["shards", "messages_per_sec_untraced", "messages_per_sec_enabled",
            "enabled_overhead_pct"]:
    if key not in sharded:
        sys.exit(f"tracing_overhead_sharded row missing key {key}")
dis = classic["disabled_overhead_pct"]
if os.environ.get("GV_BENCH_FULL") == "1" and dis >= 3.0:
    sys.exit(f"attached-but-disabled tracer costs {dis:.1f}% on the relay "
             f"hot path (gate is 3%)")
print(f"  ok: disabled_overhead={dis:.1f}% "
      f"enabled={classic['enabled_overhead_pct']:.1f}% "
      f"sharded_enabled={sharded['enabled_overhead_pct']:.1f}%")
EOF
fi
# Self-organization smoke: bench_selforg ran the schema-evolution scenario
# in the loop above (quick mode shrinks the network). Validate that every
# row carries the keys CI consumers graph and that recall recovered after
# the mid-run schema change.
selforg_json="$out_root/BENCH_selforg.json"
if [[ -f "$selforg_json" ]] && command -v python3 >/dev/null 2>&1; then
  echo "== validating $(basename "$selforg_json")"
  python3 - "$selforg_json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
rows = doc["benchmarks"]
if not rows:
    sys.exit("BENCH_selforg.json has no rows")
required_keys = ["peers", "convergence_rounds", "recall_final",
                 "recall_pre", "recovery_ratio"]
for row in rows:
    for key in required_keys:
        if key not in row:
            sys.exit(f"row {row['name']} missing key {key}")
    if row["recovery_ratio"] < 0.95:
        sys.exit(f"row {row['name']}: recall only recovered to "
                 f"{row['recovery_ratio']:.2f} of pre-evolution level")
biggest = max(rows, key=lambda r: r["peers"])
print(f"  ok: {len(rows)} size(s), largest {int(biggest['peers'])} peers, "
      f"convergence_rounds={int(biggest['convergence_rounds'])} "
      f"recall_final={biggest['recall_final']:.2f}")
EOF
fi
echo
echo "wrote $ran JSON report(s) at $out_root/BENCH_*.json"
