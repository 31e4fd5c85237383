#!/usr/bin/env bash
# Full local gate: release build, tests, lints, formatting.
#
# clippy and rustfmt run only when their components are installed, so
# the script works on minimal toolchains (the build and tests are
# always mandatory).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

# First-party packages only: the vendored stubs under vendor/ stand in
# for external dependencies and are not held to the lint/format gate.
PACKAGES=(entity-id eid-relational eid-ilfd eid-rules eid-obs eid-core \
          eid-baselines eid-datagen eid-bench eid-fault)
PKG_FLAGS=()
for p in "${PACKAGES[@]}"; do PKG_FLAGS+=(-p "$p"); done

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${PKG_FLAGS[@]}"

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy "${PKG_FLAGS[@]}" --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping"
fi

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt "${PKG_FLAGS[@]}" --check
else
    echo "==> rustfmt not installed; skipping"
fi

# Observability smoke: a real CLI run on a sound world (the stock
# example minus its intentionally-unsound sichuan row) must emit a
# parseable report whose soundness counters read zero — no pair in
# both tables (classify/overlap), no §3.3 monotonicity violations —
# and whose blocking/classification ledgers sum correctly.
if command -v python3 >/dev/null 2>&1; then
    echo "==> eid match --report-json smoke"
    report="$(mktemp)" s_sound="$(mktemp)" bench_out="$(mktemp)" plan_out="$(mktemp)"
    trap 'rm -f "$report" "$s_sound" "$bench_out" "$plan_out"' EXIT
    grep -v sichuan examples/data/s.csv > "$s_sound"
    ./target/release/eid match \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --negative --report-json "$report" >/dev/null
    python3 - "$report" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
counters = {c["name"]: c["value"] for c in report["counters"]}
stages = {s["path"] for s in report["stages"]}
assert counters["classify/overlap"] == 0, counters
assert counters.get("incremental/monotonicity_violations", 0) == 0, counters
assert counters["block/candidates"] == \
    counters["block/accepted"] + counters["block/rejected"], counters
assert counters["classify/mt"] + counters["classify/nmt"] \
    + counters["classify/undetermined"] \
    == counters["classify/pairs_total"] + counters["classify/overlap"], counters
assert {"match", "match/derive", "match/engine"} <= stages, stages
print(f"    report OK: {len(counters)} counters, {len(stages)} stages")
EOF
    # Plan-explain smoke: `eid plan` must print the cost model's
    # choices without executing, and the --json form must be a
    # well-shaped plan (every node carries id/kind/label/why/span,
    # at least one probed identity rule names its blocking key).
    echo "==> eid plan --explain smoke"
    ./target/release/eid plan \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --explain | grep -q '^match plan — arm ' \
        || { echo "eid plan text tree missing header"; exit 1; }
    ./target/release/eid plan \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --json > "$plan_out"
    python3 - "$plan_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    plan = json.load(f)
for key in ("arm", "mode", "mode_why", "workers", "index_free", "nodes"):
    assert key in plan, f"plan JSON missing {key!r}"
kinds = [n["kind"] for n in plan["nodes"]]
for kind in ("derive", "encode", "block", "identity-probe", "vector-scan", "sink",
             "classify"):
    assert kind in kinds, f"plan has no {kind!r} node: {kinds}"
for n in plan["nodes"]:
    for field in ("id", "kind", "label", "why", "span", "inputs"):
        assert field in n, f"node {n} missing {field!r}"
probes = [n for n in plan["nodes"]
          if n["kind"] == "identity-probe" and n["strategy"] == "probe"]
assert probes, "no probed identity rule in the plan"
assert all(n["key_positions"] for n in probes), probes
assert any("blocking key" in n["why"] for n in probes), probes
print(f"    plan OK: {len(plan['nodes'])} nodes, arm {plan['arm']}, "
      f"mode {plan['mode']}")
EOF
    # Trace smoke: a traced run must write valid Chrome trace_event
    # JSON (balanced B/E per worker track, plan-span slice names) and
    # must classify identically to the untraced run — tracing is an
    # observer, never a participant.
    echo "==> eid match --trace-out smoke"
    trace_out="$(mktemp)" rep_traced="$(mktemp)"
    ./target/release/eid match \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --trace-out "$trace_out" --report-json "$rep_traced" >/dev/null
    python3 - "$trace_out" "$rep_traced" "$report" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "empty trace"
depth = {}
names = set()
for e in events:
    if e["ph"] == "B":
        depth[e["tid"]] = depth.get(e["tid"], 0) + 1
        names.add(e["name"])
    elif e["ph"] == "E":
        depth[e["tid"]] = depth[e["tid"]] - 1
        assert depth[e["tid"]] >= 0, f"E before B on tid {e['tid']}"
assert all(d == 0 for d in depth.values()), f"unbalanced B/E: {depth}"
assert any(n.startswith("match/engine/") for n in names), names
with open(sys.argv[2]) as f:
    traced = {c["name"]: c["value"] for c in json.load(f)["counters"]}
with open(sys.argv[3]) as f:
    plain = {c["name"]: c["value"] for c in json.load(f)["counters"]}
for key in ("classify/mt", "classify/nmt", "classify/undetermined",
            "classify/overlap", "block/candidates", "block/accepted"):
    assert traced.get(key) == plain.get(key), \
        f"tracing changed {key}: {traced.get(key)} != {plain.get(key)}"
slices = sum(1 for e in events if e["ph"] == "B")
print(f"    trace OK: {slices} slices over {len(depth)} worker track(s), "
      f"classification identical to untraced run")
EOF
    # EXPLAIN ANALYZE smoke: --analyze executes the plan and joins
    # estimates with per-node actuals; the text form carries the
    # columns and drift footer, the JSON form the per-node documents.
    echo "==> eid plan --analyze smoke"
    ./target/release/eid plan \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --analyze > "$plan_out"
    grep -q '(analyzed)' "$plan_out" || { echo "--analyze missing header"; exit 1; }
    grep -q 'est pairs' "$plan_out" || { echo "--analyze missing columns"; exit 1; }
    grep -q '^  drift: ' "$plan_out" || { echo "--analyze missing drift footer"; exit 1; }
    ./target/release/eid plan \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --analyze --json > "$plan_out"
    python3 - "$plan_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert "plan" in doc and "analyze" in doc, list(doc)
nodes = doc["analyze"]["nodes"]
assert len(nodes) == len(doc["plan"]["nodes"]), "analyze/plan node mismatch"
executed = [n for n in nodes if n["executed"]]
assert executed, "no node executed"
assert all("est_pairs" in n and "pairs" in n and "nanos" in n for n in nodes)
assert doc["analyze"]["drift_nodes"] == sum(n["drift"] for n in nodes)
print(f"    analyze OK: {len(nodes)} nodes, {len(executed)} executed, "
      f"drift {doc['analyze']['drift_nodes']}")
EOF
    rm -f "$trace_out" "$rep_traced"
else
    echo "==> python3 not installed; skipping --report-json smoke"
fi

# Fault-matrix smoke: the deterministic degradation ladder. The
# injection harness is compiled out of release builds, so this runs
# the debug test binary — every rung (worker panic -> serial rerun ->
# nested loop -> typed error) plus the budget trips.
echo "==> fault-matrix smoke (tests/fault_matrix.rs)"
cargo test -q -p entity-id --test fault_matrix

# Chaos smoke: fixed multi-fault spill schedules — transient
# open/write/read failures that retry with backoff, retry exhaustion
# that latches containment or drops the emission rung, and a budget
# that must degrade to out-of-core instead of aborting (plus its
# --no-spill inverse). Every schedule must land a byte-identical
# table or a typed error, with no leaked spill files. The injection
# harness is compiled out of release builds, so this runs the debug
# test binary.
echo "==> chaos smoke (tests/chaos_props.rs, fixed schedules)"
cargo test -q -p entity-id --test chaos_props -- \
    spill_io_faults_recover_or_degrade_a_rung \
    no_spill_restores_abort_as_the_final_rung

# Budget trips must stay typed in *release* too: distinct exit codes,
# never a panic, and the report is still written on abort.
echo "==> release budget-abort smoke (exit codes 124/125)"
abort_report="$(mktemp)"
rc=0
./target/release/eid match \
    --r examples/data/r.csv --r-key name,street \
    --s examples/data/s.csv --s-key name,speciality,county \
    --rules examples/data/knowledge.rules --key name,cuisine \
    --timeout-ms 0 --report-json "$abort_report" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 124 ] || { echo "expected exit 124 for --timeout-ms 0, got $rc"; exit 1; }
grep -q '"abort"' "$abort_report" || { echo "abort report missing abort label"; exit 1; }
rc=0
./target/release/eid match \
    --r examples/data/r.csv --r-key name,street \
    --s examples/data/s.csv --s-key name,speciality,county \
    --rules examples/data/knowledge.rules --key name,cuisine \
    --max-pairs 1 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 125 ] || { echo "expected exit 125 for --max-pairs 1, got $rc"; exit 1; }
rm -f "$abort_report"
echo "    budget aborts OK: 124/125 with abort-labelled report"

# Benchmark smoke at small n: every engine must agree with the
# nested-loop oracle on MT/NMT/undetermined (the binary itself
# asserts this before writing), and the blocked arms' convert step
# must cost less than the engine step at the largest smoke size —
# the invariant the interned/columnar pipeline exists to hold.
if command -v python3 >/dev/null 2>&1; then
    echo "==> bench_json smoke (n=100,200)"
    ./target/release/bench_json 100 200 --out "$bench_out" >/dev/null
    python3 - "$bench_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
largest = max(bench["sizes"], key=lambda s: s["n_entities"])
engines = {e["name"]: e for e in largest["engines"]}
oracle = engines["nested_loop"]
for name, e in engines.items():
    agree = (e["matching"], e["negative"], e["undetermined"])
    want = (oracle["matching"], oracle["negative"], oracle["undetermined"])
    assert agree == want, f"{name}: {agree} != oracle {want}"
    # Planner decisions ride along: mode, blocking keys, and a plan
    # cache that misses exactly once then hits on every rep.
    plan = e["plan"]
    assert plan["mode"], f"{name}: empty plan mode"
    assert plan["cache_misses"] == 1, f"{name}: {plan}"
    assert plan["cache_hits"] >= 1, f"{name}: {plan}"
assert engines["blocked"]["plan"]["keys"], "blocked arm chose no blocking key"
for name in ("blocked", "blocked_parallel"):
    stages = engines[name]["stages"]
    convert, engine = stages["match/convert"], stages["match/engine"]
    assert convert < engine, \
        f"{name}: convert {convert}s >= engine {engine}s at n={largest['n_entities']}"
# Panic isolation must not tax the fault-free path: the parallel arm
# may not fall behind the serial blocked arm by more than tolerance
# (it falls back to the serial path below the parallelism threshold,
# so at smoke sizes the two should be near-identical).
par, ser = engines["blocked_parallel"]["pairs_per_sec"], engines["blocked"]["pairs_per_sec"]
assert par >= 0.75 * ser, \
    f"blocked_parallel {par:.0f} pairs/s < 75% of blocked {ser:.0f} at n={largest['n_entities']}"
print(f"    bench OK: engines agree; convert < engine at n={largest['n_entities']}")
EOF
    # Kernel smoke at a vectorizing size: the blocked arm with
    # kernels forced on and forced off must produce identical
    # classification counts, and the on-run must actually take the
    # vectorized path (kernel/batches > 0) — a silent scalar
    # fallback would keep the counts honest while voiding the perf
    # claim this PR makes.
    echo "==> kernel smoke (n=1600, kernels on vs off)"
    kern_on="$(mktemp)" kern_off="$(mktemp)"
    ./target/release/bench_json 1600 --engines blocked \
        --kernels on --out "$kern_on" >/dev/null
    ./target/release/bench_json 1600 --engines blocked \
        --kernels off --out "$kern_off" >/dev/null
    python3 - "$kern_on" "$kern_off" <<'EOF'
import json, sys
def arm(path):
    with open(path) as f:
        bench = json.load(f)
    size = bench["sizes"][0]
    return {e["name"]: e for e in size["engines"]}["blocked"]
on, off = arm(sys.argv[1]), arm(sys.argv[2])
for key in ("matching", "negative", "undetermined"):
    assert on[key] == off[key], \
        f"kernels changed {key}: on={on[key]} off={off[key]}"
batches = on["counters"].get("kernel/batches", 0)
assert batches > 0, f"kernels-on run never entered a kernel: {on['counters']}"
assert off["counters"].get("kernel/batches", 0) == 0, \
    "kernels-off run still tallied kernel batches"
print(f"    kernel OK: counts identical; {batches} batches, "
      f"{on['counters'].get('kernel/lanes_used', 0)} lanes on")
EOF
    rm -f "$kern_on" "$kern_off"
    # Auto-plan smoke: at n=800 the planner's own choice must take
    # the fast path — streamed emission into bitset sinks and at
    # least one vectorized scan — and classify exactly like the
    # nested-loop oracle arm.
    echo "==> auto-plan smoke (n=800, streamed + vector vs nested_loop)"
    auto_out="$(mktemp)"
    ./target/release/bench_json 800 --engines nested_loop,blocked \
        --out "$auto_out" >/dev/null
    python3 - "$auto_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
engines = {e["name"]: e for e in bench["sizes"][0]["engines"]}
oracle, blocked = engines["nested_loop"], engines["blocked"]
for key in ("matching", "negative", "undetermined"):
    assert blocked[key] == oracle[key], \
        f"auto plan changed {key}: blocked={blocked[key]} nested_loop={oracle[key]}"
plan = blocked["plan"]
assert plan["emit"].startswith("streamed"), f"n=800 did not auto-stream: {plan['emit']}"
assert plan["vector_nodes"] >= 1, f"n=800 auto plan has no vector node: {plan}"
shards = blocked["counters"].get("sink/shards", 0)
assert shards >= 1, f"streamed run recorded no sink shards: {blocked['counters']}"
print(f"    auto plan OK: streamed, {plan['vector_nodes']} vector node(s), "
      f"{shards} shard(s), counts equal to nested_loop")
EOF
    rm -f "$auto_out"
    # Streaming perf gate: at n=3200 the blocked arm must resolve to
    # streamed emission on its own (auto), classify exactly the known
    # workload counts, and convert must come in under the buffered
    # baseline's 0.020943 s — the regression tripwire for the
    # fold-emission-dedup-convert-into-one-pass claim.
    echo "==> streaming perf gate (n=3200)"
    sink_l="$(mktemp)"
    ./target/release/bench_json 3200 --engines blocked --out "$sink_l" >/dev/null
    python3 - "$sink_l" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
size = bench["sizes"][0]
blocked = {e["name"]: e for e in size["engines"]}["blocked"]
assert blocked["plan"]["emit"].startswith("streamed"), \
    f"n=3200 did not auto-stream: {blocked['plan']['emit']}"
assert (blocked["matching"], blocked["negative"]) == (1595, 5164412), \
    f"classification drifted: {blocked['matching']}/{blocked['negative']}"
convert = blocked["stages"]["match/convert"]
assert convert < 0.020943, \
    f"streamed convert {convert}s not under buffered baseline 0.020943s"
print(f"    perf gate OK: auto-streamed, convert {convert*1e3:.2f} ms, "
      f"{blocked['seconds']*1e3:.2f} ms total")
EOF
    # Release spill smoke, from the same bench run: under a 32 MiB
    # pair-byte budget the n=3200 run must *plan* spilled emission and
    # complete with counts identical to the unbudgeted arm (the bench
    # binary asserts agreement before writing), and the forced-spill
    # arm must move real segment bytes through the spill files. A
    # budget that aborts — or spilled counts that drift — fail here.
    echo "==> release spill smoke (n=3200, --max-mem-mb 32 equivalent)"
    python3 - "$sink_l" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
spill = bench["spill"]
assert spill["n_entities"] == 3200, spill
assert spill["budget_bytes"] == 32 * 1024 * 1024, spill
assert spill["ab_identical"], "spilled counts drifted from streamed"
assert spill["spill_bytes"] > 0, f"forced-spill arm wrote no segments: {spill}"
assert spill["spill_segments"] > 0, spill
print(f"    spill smoke OK: budgeted spilled {spill['spilled_seconds']*1e3:.2f} ms "
      f"vs streamed {spill['streamed_seconds']*1e3:.2f} ms; forced spill moved "
      f"{spill['spill_bytes']} bytes in {spill['spill_segments']} segments")
EOF
    # Store rung of the same n=3200 bench run: the three arms
    # (re-encode, warm RAM, cold open) agreed before the JSON was
    # written; here assert the economics — reopening the persisted
    # store must be cheaper than re-encoding it (the hard < 5% bound
    # is asserted inside bench_json itself at n >= 6400).
    echo "==> store rung smoke (n=3200, cold open vs re-encode)"
    python3 - "$sink_l" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
store = bench["store"]
assert store["ab_identical"], "store-backed counts drifted from the re-encode path"
assert store["stats_source_cold"] == "persisted", store
assert store["open_ms"] < store["encode_ms"], \
    f"cold open {store['open_ms']:.2f} ms not under encode {store['encode_ms']:.2f} ms"
print(f"    store rung OK: encode {store['encode_ms']:.2f} ms, "
      f"open {store['open_ms']:.2f} ms ({store['open_pct_of_encode']:.1f}%), "
      f"{store['store_bytes']} bytes on disk")
EOF
    rm -f "$sink_l"
    # Dataset-store CLI smoke: encode the example world once, then
    # match from the store — stdout must be byte-identical to the CSV
    # path (same tables, same message, same partition), the reopened
    # plan must read persisted statistics, and a truncated store file
    # must exit 65 (EX_DATAERR), never a panic or a partial answer.
    echo "==> dataset-store CLI smoke (encode/match --store/corruption)"
    store_dir="$(mktemp -d)" csv_out="$(mktemp)" store_out="$(mktemp)"
    ./target/release/eid encode \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --out "$store_dir/world.eids" >/dev/null
    ./target/release/eid match \
        --r examples/data/r.csv --r-key name,street \
        --s "$s_sound" --s-key name,speciality,county \
        --rules examples/data/knowledge.rules --key name,cuisine \
        --negative > "$csv_out"
    ./target/release/eid match --store "$store_dir/world.eids" --negative > "$store_out"
    diff "$csv_out" "$store_out" \
        || { echo "store-backed match differs from the CSV path"; exit 1; }
    ./target/release/eid plan --store "$store_dir/world.eids" \
        | grep -q '^  stats: persisted$' \
        || { echo "store-backed plan missing persisted stats provenance"; exit 1; }
    ./target/release/eid inspect --store "$store_dir/world.eids" \
        | grep -q 'blocking index: ' \
        || { echo "eid inspect missing index line"; exit 1; }
    mv "$store_dir/world.eids/stats.eid" "$store_dir/stats.bak"
    head -c 10 "$store_dir/stats.bak" > "$store_dir/world.eids/stats.eid"
    rc=0
    ./target/release/eid match --store "$store_dir/world.eids" >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 65 ] || { echo "expected exit 65 for truncated store, got $rc"; exit 1; }
    rm -rf "$store_dir" "$csv_out" "$store_out"
    echo "    store CLI OK: store-backed match byte-identical; corrupt store exits 65"
else
    echo "==> python3 not installed; skipping bench smoke"
fi

echo "==> all checks passed"
