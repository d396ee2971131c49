#!/usr/bin/env bash
# One-command pre-PR gate for mphpc: builds and tests every correctness
# lane. Run from anywhere inside the repo:
#
#   tools/ci.sh            # dev lane + paper claims + perfbench build +
#                          # asan/ubsan lane + lint
#   tools/ci.sh --with-tsan   # additionally run the ThreadSanitizer lane
#   tools/ci.sh --fast        # dev lane only (tier-1 verify + lint)
#
# Lanes (CMake presets, see CMakePresets.json):
#   dev    RelWithDebInfo, -Werror, contracts throw  -> full ctest (tier 1)
#   asan   AddressSanitizer + UndefinedBehaviorSanitizer -> full ctest
#   tsan   ThreadSanitizer (opt-in: slow)            -> full ctest
# The full gate also builds perfbench (Release, build-perfbench/).
# The lint pass (`ctest -R lint.mphpc`) runs inside every lane's suite;
# the dev lane is the canonical one.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 2)"
with_tsan=0
fast=0
for arg in "$@"; do
  case "${arg}" in
    --with-tsan) with_tsan=1 ;;
    --fast) fast=1 ;;
    *)
      echo "usage: tools/ci.sh [--with-tsan] [--fast]" >&2
      exit 2
      ;;
  esac
done

run_lane() {
  local preset="$1"
  echo "==== [${preset}] configure + build + test ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
  # Per-rule findings summary + ratchet diff against the checked-in
  # baseline (the lint.mphpc ctest already failed the lane on growth or
  # staleness; this prints the human-readable view of the JSON report).
  echo "---- [${preset}] lint summary ----"
  python3 tools/lint_summary.py \
    "build-${preset}/lint_report.json" tools/lint_baseline.json
}

run_lane dev

# GBT fit smoke: the histogram trainer must train end-to-end on the
# paper-shaped dataset (catches fit regressions that unit-sized problems
# miss). The tracked timings in results/BENCH_gbt.json come from the
# `bench` preset, not this dev tree:
#   build-bench/bench/bench_perf_micro --benchmark_filter=BM_GbtFit \
#     --benchmark_repetitions=5 --benchmark_out=results/BENCH_gbt.json \
#     --benchmark_out_format=json
echo "==== [dev] GBT fit smoke (hist) ===="
./build-dev/bench/bench_perf_micro \
  --benchmark_filter='BM_GbtFitHist/20$' \
  --benchmark_min_time=0.01

# Compiled-inference smoke: the batched engine must run the predict micro
# benchmarks end-to-end for every tree model, plus the scheduler-assign
# memoization micro (tracked timings live in results/BENCH_predict.json),
# and the compiled GBT engine must hold a >= 2x speedup over the reference
# node walker on the same model and rows — a deliberately loose floor so
# dev-build noise cannot flake the lane, while a regression that defeats
# the bin-code pool still fails it.
echo "==== [dev] compiled predict smoke (gbt + forest) ===="
./build-dev/bench/bench_perf_micro \
  --benchmark_filter='BM_(Gbt|Forest)Predict(Ref|Compiled)/4096$|BM_AssignModelBased' \
  --benchmark_min_time=0.1 \
  --benchmark_out=build-dev/predict_smoke.json --benchmark_out_format=json
python3 - <<'EOF'
import json
runs = {b["name"]: b["cpu_time"]
        for b in json.load(open("build-dev/predict_smoke.json"))["benchmarks"]}
ref = runs["BM_GbtPredictRef/4096"]
compiled = runs["BM_GbtPredictCompiled/4096"]
ratio = ref / compiled
assert ratio >= 2.0, \
    f"compiled GBT predict only {ratio:.2f}x faster than the reference (want >= 2x)"
print(f"predict smoke: ok (compiled GBT {ratio:.2f}x faster than the reference)")
EOF

# Fault-injection smoke: the sched-faults subcommand must complete a small
# degraded-mode strategy comparison end-to-end and emit parseable JSON in
# which at least one strategy actually exercised the retry path, and the
# checkpoint/restart comparison must show checkpointing recovering work.
echo "==== [dev] fault-injection smoke (sched-faults) ===="
./build-dev/tools/mphpc sched-faults \
  --jobs 400 --inputs 2 --rounds 20 --depth 3 \
  --node-mtbf-h 50 --mttr-h 1 --kill-prob 0.05 --seed 7 \
  --checkpoint-interval-s 120 --checkpoint-overhead-s 10 \
  --out build-dev/sched_faults_smoke.json
python3 - <<'EOF'
import json
report = json.load(open("build-dev/sched_faults_smoke.json"))
assert report["config"]["node_events"] > 0, "fault trace generated no node events"
assert any(s["total_retries"] > 0 for s in report["strategies"]), \
    "no strategy exercised the retry path"
for s in report["strategies"]:
    assert s["completed_jobs"] + s["abandoned_jobs"] == report["config"]["jobs"], \
        f"{s['strategy']}: jobs not reconciled"
cs = report["checkpoint_strategies"]
assert [c["policy"] for c in cs] == ["none", "fixed", "optimal", "adaptive"]
none = cs[0]
assert none["checkpoints_written"] == 0 and none["recovered_node_seconds"] == 0.0
guarded = next(s for s in report["strategies"] if "Model-based" in s["strategy"])
assert none["makespan_h"] == guarded["makespan_h"], \
    "no-checkpoint run must be the headline guarded run, bit-identical"
assert any(c["recovered_node_seconds"] > 0 for c in cs[1:]), \
    "checkpointing recovered no node-seconds"
print("sched-faults smoke: ok")
EOF

# Scheduler scale smoke: the calendar-queue engine must push a 100k-job
# faulty simulation through end-to-end, the two independent node-second
# tallies must agree, the seeded outcome fields must equal their recorded
# values exactly (this pins job sampling and the fault trace), and the wall
# time is published for trend-watching (the tracked 1M-job baseline lives
# in results/BENCH_sched.json).
echo "==== [dev] scheduler scale smoke (sched-scale, 100k jobs) ===="
./build-dev/tools/mphpc sched-scale \
  --jobs 100000 --inputs 2 --node-mtbf-h 50 --mttr-h 1 --kill-prob 0.02 \
  --seed 7 --out build-dev/sched_scale_smoke.json
python3 - <<'EOF'
import json
report = json.load(open("build-dev/sched_scale_smoke.json"))
faulty = report["faulty"]
assert faulty["completed_jobs"] + faulty["abandoned_jobs"] == report["config"]["jobs"], \
    "jobs not reconciled"
committed = faulty["node_seconds_total"]
outcomes = faulty["outcome_node_seconds_total"]
assert abs(committed - outcomes) <= 1e-6 * max(committed, 1.0), \
    f"node-seconds not reconciled: engine {committed} vs outcomes {outcomes}"
assert faulty["jobs_killed"] > 0 and faulty["total_retries"] > 0, \
    "faulty scale run exercised no kills/retries"
expected = {
    ("baseline", "makespan_h"): 3.305161958332314,
    ("faulty", "makespan_h"): 3.3197039830417787,
    ("faulty", "completed_jobs"): 100000,
    ("faulty", "abandoned_jobs"): 0,
    ("faulty", "jobs_killed"): 2229,
    ("faulty", "total_retries"): 2229,
}
for (section, key), want in expected.items():
    got = report[section][key]
    assert got == want, f"sched-scale smoke {section}.{key}: {got!r} != recorded {want!r}"
print(f"sched-scale smoke: ok (100k jobs, faulty wall {faulty['wall_s']:.2f} s)")
EOF

# Kill-and-resume train smoke: SIGKILL mphpc train mid-fit, resume from
# the on-disk checkpoint, and require the final model to be byte-identical
# to an uninterrupted train.
echo "==== [dev] kill-and-resume train smoke ===="
rm -f build-dev/train_smoke_ref.model build-dev/train_smoke.model \
  build-dev/train_smoke.model.ckpt build-dev/train_smoke.model.ckpt.manifest
train_args=(--inputs 4 --rounds 600 --depth 6)
./build-dev/tools/mphpc train "${train_args[@]}" \
  --out build-dev/train_smoke_ref.model
./build-dev/tools/mphpc train "${train_args[@]}" --checkpoint-every 2 \
  --out build-dev/train_smoke.model &
train_pid=$!
while [[ ! -e build-dev/train_smoke.model.ckpt ]]; do
  if ! kill -0 "${train_pid}" 2>/dev/null; then
    echo "train finished before it could be killed; enlarge the fit" >&2
    exit 1
  fi
  sleep 0.02
done
kill -9 "${train_pid}"
wait "${train_pid}" 2>/dev/null || true
if [[ -e build-dev/train_smoke.model ]]; then
  echo "final model exists despite SIGKILL; smoke inconclusive" >&2
  exit 1
fi
./build-dev/tools/mphpc train "${train_args[@]}" --checkpoint-every 2 --resume \
  --out build-dev/train_smoke.model
cmp build-dev/train_smoke_ref.model build-dev/train_smoke.model
echo "kill-and-resume train smoke: ok (models bit-identical)"

# Serve smoke: run the online prediction daemon end-to-end in stdio mode
# over a FIFO — predicts and enough feedback to force a refit/hot-swap, a
# malformed line that must produce a bad_request reply (not an exit), then
# SIGTERM, which must drain cleanly (exit 143 = 128+SIGTERM, the
# "interrupted but flushed" convention shared with train/sched-scale)
# and leave a verifiable model store at a refit generation.
echo "==== [dev] serve smoke (daemon, hot-swap, malformed input, SIGTERM) ===="
rm -rf build-dev/serve_smoke
mkdir -p build-dev/serve_smoke
./build-dev/tools/mphpc train --inputs 2 --rounds 30 --depth 3 \
  --out build-dev/serve_smoke/model.txt
./build-dev/bench/bench_serve_load --emit-jsonl build-dev/serve_smoke/session.jsonl \
  --predicts 4 --feedbacks 8
mkfifo build-dev/serve_smoke/in.fifo
./build-dev/tools/mphpc serve --state-dir build-dev/serve_smoke/state \
  --model build-dev/serve_smoke/model.txt \
  --refit-every 8 --min-refit-rows 4 --refit-rounds 3 \
  < build-dev/serve_smoke/in.fifo \
  > build-dev/serve_smoke/replies.jsonl 2> build-dev/serve_smoke/log.txt &
serve_pid=$!
exec 3> build-dev/serve_smoke/in.fifo
cat build-dev/serve_smoke/session.jsonl >&3
echo '{this is not json' >&3
# Poll stats until the refit thread has published generation 1.
swap_seen=0
for i in $(seq 1 200); do
  echo "{\"op\":\"stats\",\"id\":\"s${i}\"}" >&3
  if grep -q '"generation":1' build-dev/serve_smoke/replies.jsonl; then
    swap_seen=1
    break
  fi
  if ! kill -0 "${serve_pid}" 2>/dev/null; then
    echo "serve daemon died during the smoke" >&2
    cat build-dev/serve_smoke/log.txt >&2
    exit 1
  fi
  sleep 0.05
done
if [[ "${swap_seen}" -ne 1 ]]; then
  echo "serve daemon never published a refit generation" >&2
  cat build-dev/serve_smoke/log.txt >&2
  exit 1
fi
kill -TERM "${serve_pid}"
# A signal-initiated drain exits 128+SIGTERM = 143 (after flushing the
# model store); anything else — 0 included — means the drain path broke.
serve_rc=0
wait "${serve_pid}" || serve_rc=$?
if [[ "${serve_rc}" -ne 143 ]]; then
  echo "serve daemon exited ${serve_rc} on SIGTERM (want 143)" >&2
  cat build-dev/serve_smoke/log.txt >&2
  exit 1
fi
exec 3>&-
python3 - <<'EOF'
import json
replies = [json.loads(l) for l in open("build-dev/serve_smoke/replies.jsonl")]
ops = {}
for r in replies:
    key = r.get("op", "error:" + r.get("code", "?"))
    ops[key] = ops.get(key, 0) + 1
assert ops.get("predict", 0) >= 4, f"missing predict replies: {ops}"
assert ops.get("feedback", 0) >= 8, f"missing feedback replies: {ops}"
assert ops.get("error:bad_request", 0) == 1, f"malformed line not rejected: {ops}"
assert all(r["ok"] for r in replies if "code" not in r), "non-ok reply"
assert not any(r.get("fallback") for r in replies if r.get("op") == "predict"), \
    "healthy smoke produced fallback predictions"
stats = [r for r in replies if r.get("op") == "stats"]
assert stats, "no stats reply"
header = open("build-dev/serve_smoke/state/serve_model.txt").readline().split()
assert header[0] == "mphpc-serve-model" and int(header[2]) >= 1, \
    f"store not at a refit generation after drain: {header}"
print(f"serve smoke: ok ({ops}, store generation {header[2]})")
EOF

# Supervised-fleet smoke: three workers share one inherited listening
# socket. kill -9 one worker mid-load — clients must finish with zero
# errors (in-flight connections may reset; the client reconnects and
# retries), the supervisor must respawn the slot within its backoff
# bound, and a SIGTERM must drain the whole group with exit 143.
echo "==== [dev] supervised fleet smoke (--workers 3, kill -9, SIGTERM) ===="
rm -rf build-dev/fleet_smoke
mkdir -p build-dev/fleet_smoke
./build-dev/tools/mphpc serve --state-dir build-dev/fleet_smoke/state \
  --model build-dev/serve_smoke/model.txt \
  --socket build-dev/fleet_smoke/serve.sock --workers 3 \
  --refit-every 8 --min-refit-rows 4 --refit-rounds 3 \
  --restart-base-delay-s 0.1 --heartbeat-timeout-s 5 \
  2> build-dev/fleet_smoke/log.txt &
fleet_pid=$!
# The listener is created before the first fork; wait for the last
# worker to report in before loading the fleet.
fleet_up=0
for i in $(seq 1 100); do
  if grep -q 'spawned worker 2' build-dev/fleet_smoke/log.txt 2>/dev/null; then
    fleet_up=1
    break
  fi
  sleep 0.05
done
# Drain on failure with SIGTERM, not SIGKILL: a SIGKILLed supervisor
# orphans its workers, which keep the shared socket (and our stdout
# pipe) open forever.
fleet_fail() {
  echo "$1" >&2
  cat build-dev/fleet_smoke/log.txt >&2
  kill -TERM "${fleet_pid}" 2>/dev/null || true
  wait "${fleet_pid}" 2>/dev/null || true
  exit 1
}
if [[ "${fleet_up}" -ne 1 ]]; then
  fleet_fail "fleet never spawned all workers"
fi
victim="$(sed -nE 's/.*spawned worker 1 \(pid ([0-9]+), restarts 0\).*/\1/p' \
  build-dev/fleet_smoke/log.txt | head -1)"
if [[ -z "${victim}" ]]; then
  fleet_fail "could not extract worker 1 pid from the fleet log"
fi
./build-dev/bench/bench_serve_load --socket build-dev/fleet_smoke/serve.sock \
  --requests 6000 --clients 4 --feedback-every 4 \
  > build-dev/fleet_smoke/load.json &
load_pid=$!
sleep 0.05
kill -9 "${victim}"
load_rc=0
wait "${load_pid}" || load_rc=$?
if [[ "${load_rc}" -ne 0 ]]; then
  cat build-dev/fleet_smoke/load.json >&2 || true
  fleet_fail "fleet load saw client-visible errors (rc ${load_rc})"
fi
# The supervisor must respawn the killed slot within its backoff bound.
restart_seen=0
for i in $(seq 1 100); do
  if grep -qE 'spawned worker 1 \(pid [0-9]+, restarts 1\)' \
      build-dev/fleet_smoke/log.txt; then
    restart_seen=1
    break
  fi
  sleep 0.05
done
if [[ "${restart_seen}" -ne 1 ]]; then
  fleet_fail "supervisor never restarted the killed worker"
fi
kill -TERM "${fleet_pid}"
fleet_rc=0
wait "${fleet_pid}" || fleet_rc=$?
if [[ "${fleet_rc}" -ne 143 ]]; then
  echo "fleet exited ${fleet_rc} on SIGTERM (want 143)" >&2
  cat build-dev/fleet_smoke/log.txt >&2
  exit 1
fi
python3 - <<'EOF'
import json
report = json.load(open("build-dev/fleet_smoke/load.json"))
results = report["results"]
assert results["errors"] == 0, f"client-visible errors under worker kill: {results}"
assert results["ok"] == report["config"]["requests"], f"lost replies: {results}"
log = open("build-dev/fleet_smoke/log.txt").read()
assert "group drained" in log, "fleet drain never completed"
print(f"fleet smoke: ok ({results['ok']} requests, "
      f"{results['resets']} connection resets, worker restarted)")
EOF

if [[ "${fast}" -eq 0 ]]; then
  # Paper claims: rerun the Fig. 2, 3, 6 and 7/8 experiments and check the
  # orderings the paper reports on their JSON lines. Only orderings with
  # clear margins are asserted; per-cell Fig. 3 orderings are not (some
  # cells tie within 1e-4 MAE), nor is Model-based against Random in
  # Fig. 7/8 (they tie within 0.1%). The Fig. 7/8 schedule is deterministic,
  # so its makespans and slowdowns must also equal the tracked
  # results/bench_fig7_8_scheduling.txt exactly.
  echo "==== [dev] paper claims (Fig. 2, 3, 6, 7/8) ===="
  ./build-dev/bench/bench_fig2_model_comparison > build-dev/paper_fig2.txt
  ./build-dev/bench/bench_fig3_arch_ablation > build-dev/paper_fig3.txt
  ./build-dev/bench/bench_fig6_feature_importance > build-dev/paper_fig6.txt
  ./build-dev/bench/bench_fig7_8_scheduling > build-dev/paper_fig7_8.txt
  python3 - build-dev/paper_fig2.txt build-dev/paper_fig3.txt \
    build-dev/paper_fig6.txt build-dev/paper_fig7_8.txt <<'EOF'
import json, sys
def json_line(path):
    lines = [l for l in open(path) if l.startswith("JSON ")]
    assert len(lines) == 1, f"{path}: want one JSON line, got {len(lines)}"
    return json.loads(lines[0][len("JSON "):])
fig2 = json_line(sys.argv[1])
mae = {m["model"]: m["mae"] for m in fig2["models"]}
best = min(mae, key=mae.get)
assert best == "xgboost", f"Fig. 2: lowest MAE is {best}, not xgboost: {mae}"
fig3 = json_line(sys.argv[2])
xgb = {c["source"]: c["mae"] for c in fig3["cells"] if c["model"] == "xgboost"}
gpu = (xgb["lassen"] + xgb["corona"]) / 2
cpu = (xgb["quartz"] + xgb["ruby"]) / 2
assert gpu > cpu, \
    f"Fig. 3: xgboost GPU-sourced MAE {gpu:.4f} not above CPU-sourced {cpu:.4f}"
fig6 = json_line(sys.argv[3])
ranked = sorted(fig6["importances"], key=lambda i: i["importance"], reverse=True)
top2 = {i["feature"] for i in ranked[:2]}
assert top2 == {"uses_gpu", "cores"}, \
    f"Fig. 6: the two largest importances are {ranked[:2]}, not uses_gpu and cores"
fig78 = json_line(sys.argv[4])
makespan = {s["strategy"]: s["makespan_s"] for s in fig78["strategies"]}
assert makespan["Model-based"] < makespan["Round-Robin"], \
    f"Fig. 7/8: Model-based makespan not below Round-Robin's: {makespan}"
# The schedule itself must not move: every strategy's makespan and
# bounded slowdown equal the tracked output exactly (sim_seconds is timing).
tracked = {s["strategy"]: s
           for s in json_line("results/bench_fig7_8_scheduling.txt")["strategies"]}
for s in fig78["strategies"]:
    for key in ("makespan_s", "avg_bounded_slowdown"):
        want = tracked[s["strategy"]][key]
        assert s[key] == want, \
            f"Fig. 7/8: {s['strategy']} {key} is {s[key]!r}, tracked {want!r}"
assert tracked.keys() == makespan.keys(), \
    f"Fig. 7/8: strategies {sorted(makespan)} differ from tracked {sorted(tracked)}"
print(f"paper claims: ok (Fig. 2 xgboost MAE {mae['xgboost']:.4f} lowest; "
      f"Fig. 3 xgboost GPU/CPU-sourced MAE {gpu / cpu:.2f}x; "
      f"Fig. 6 top two {ranked[0]['feature']} {ranked[0]['importance']:.3f}, "
      f"{ranked[1]['feature']} {ranked[1]['importance']:.3f}; "
      f"Fig. 7/8 Model-based {makespan['Model-based']:.0f} s < "
      f"Round-Robin {makespan['Round-Robin']:.0f} s, "
      f"all {len(tracked)} strategies equal to the tracked output)")
EOF

  # perfbench is its own top-level CMake project over src/ and tools/
  # (no GoogleTest or Google Benchmark), so no lane above builds it. Build
  # the two programs perfbench/run.py runs, so a change to a module's
  # build files cannot break the benchmark unseen.
  echo "==== [perfbench] configure + build (perfbench_harness, mphpc) ===="
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench --target perfbench_harness mphpc_cli -j "${jobs}"

  run_lane asan
  # The compiled engine indexes its flat node pool with hand-built offsets:
  # the packed 32- and 64-bit words, cut tables, grouped single-row walk
  # and gather-based vector walk; assert the
  # parity tests ran under ASan/UBSan (--no-tests=error fails the lane if
  # they vanish). The histogram tree builder likewise writes cells at
  # hist + width * bin from offset bin-table entries; its golden and
  # thread-count determinism fits must run under ASan too. So must the
  # serve transport's line framing and outbound-buffer offsets
  # (ServeIntake, ServeTransport), and the scheduler's two backfill passes,
  # which walk the FCFS queue's intrusive link arrays up to their kNull
  # sentinel and the calendar queues' buckets (EngineGolden, EngineDigest,
  # CalendarQueue). So must the model-text parser, which walks string_view
  # line and field offsets into one buffer, and the store's read and
  # two-part write (Gbt.Deserialize, GbtParse, ServeModelStore).
  ctest --preset asan \
    -R 'CompiledParity|QuantizedParity|WideWordParity|TrainingGolden|HistDeterministicAcrossThreadCounts|ServeIntake|ServeTransport|EngineGolden|EngineDigest|CalendarQueue|Gbt\.Deserialize|GbtParse|ServeModelStore' \
    --no-tests=error --output-on-failure
  if [[ "${with_tsan}" -eq 1 ]]; then
    # The full suite already ran under TSan above; this re-run asserts the
    # fault/determinism/checkpoint/serve/supervisor tests (the ones most
    # likely to surface scheduler or daemon races) still exist —
    # --no-tests=error fails the lane if they vanish. 'Fault' also picks
    # up the FaultInject suite.
    run_lane tsan
    ctest --preset tsan -R 'Fault|Determinism|Checkpoint|Resum|Serve|Supervisor' \
      --no-tests=error --output-on-failure
  fi
fi

echo "==== ci.sh: all requested lanes passed ===="
