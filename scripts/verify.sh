#!/usr/bin/env sh
# Offline verification: build, test, format check, and the runtime-layer
# benchmark. Must pass from a clean checkout with an empty cargo registry —
# the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> golden vectors (protocol stack byte-for-byte)"
cargo test -q --offline -p ivn --test golden_vectors

echo "==> observability suites (unit + property)"
cargo test -q --offline -p ivn-runtime obs
cargo test -q --offline -p ivn-runtime --test obs_props

echo "==> timeline-trace suites (unit + ring-buffer edge cases + analyzer)"
cargo test -q --offline -p ivn-runtime trace
cargo test -q --offline -p ivn-runtime --test trace_props
cargo test -q --offline -p ivn-bench --lib trace_analysis

echo "==> trace round trip: reproduce --trace → in-tree JSON parse → balance check"
TRACE_OUT=target/verify_trace.json
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --quick --trace "$TRACE_OUT" > /dev/null
# trace_report --check parses through the in-tree JSON layer, requires a
# non-empty traceEvents array, and verifies every B has a matching E.
cargo run --release --offline -p ivn-bench --bin trace_report -- "$TRACE_OUT" --check
for span in sdr.emit_ns em.ensemble_responses_ns harvester.power_up_ns rfid.pie_decode_ns freqsel.mc_eval_ns freqsel.kernel_batch_ns freqsel.kernel_fill physics.envelope_peak physics.harvested_charge_j; do
    grep -q "\"$span\"" "$TRACE_OUT" || {
        echo "verify: FAIL — '$span' missing from $TRACE_OUT" >&2
        exit 1
    }
done

echo "==> runtime bench with observability (BENCH_runtime.json)"
IVN_BENCH_FAST="${IVN_BENCH_FAST:-1}" cargo run --release --offline -p ivn-bench --bin bench_runtime -- --obs

echo "==> BENCH_runtime.json carries per-stage timings + obs report"
for stage in sdr em harvester rfid freqsel; do
    grep -q "\"$stage\"" BENCH_runtime.json || {
        echo "verify: FAIL — stage '$stage' missing from BENCH_runtime.json" >&2
        exit 1
    }
done
grep -q '"obs_report"' BENCH_runtime.json || {
    echo "verify: FAIL — obs_report missing from BENCH_runtime.json" >&2
    exit 1
}
grep -q 'harvester.power_up_ns' BENCH_runtime.json || {
    echo "verify: FAIL — span histogram missing from obs report" >&2
    exit 1
}
# The envelope-kernel spans must show up too: the batched Monte-Carlo
# eval from the freqsel stage and the incremental climb from the
# kernel/climb micro-bench.
for span in freqsel.kernel_batch_ns freqsel.kernel_incr_ns; do
    grep -q "$span" BENCH_runtime.json || {
        echo "verify: FAIL — kernel span '$span' missing from obs report" >&2
        exit 1
    }
done

echo "==> freqsel perf-regression gate (fast mode only)"
# Median stage/freqsel wall-clock committed with the envelope-kernel
# rewrite (seed 42, grid 1024, 16 draws, IVN_BENCH_FAST=1). A regression
# of more than 25% over this baseline fails verification. Full-mode runs
# (IVN_BENCH_FAST!=1) use 96 draws and skip the gate.
FREQSEL_BASELINE_NS=268000
if [ "${IVN_BENCH_FAST:-1}" = "1" ]; then
    freqsel_ns=$(sed -n 's/.*"stage":"freqsel","median_ns":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
    [ -n "$freqsel_ns" ] || {
        echo "verify: FAIL — stage/freqsel median_ns missing from BENCH_runtime.json" >&2
        exit 1
    }
    awk -v v="$freqsel_ns" -v base="$FREQSEL_BASELINE_NS" \
        'BEGIN { exit !(v <= base * 1.25) }' || {
        echo "verify: FAIL — stage/freqsel median ${freqsel_ns}ns regressed >25% over baseline ${FREQSEL_BASELINE_NS}ns" >&2
        exit 1
    }
    echo "stage/freqsel median ${freqsel_ns}ns (baseline ${FREQSEL_BASELINE_NS}ns, gate x1.25)"
else
    echo "skipped (full mode)"
fi

echo "==> instrumentation overhead: 95% CI upper bound under 4%"
# The old gate checked the min-of-mins point estimate, which is pure
# timer noise on a quiet run (it once reported -0.65%). The bench now
# interleaves (off, obs) pairs and reports a median with an
# order-statistic 95% CI; the gate holds the *upper* CI bound under 4%
# (typical quiet-run reading is ~1%; shared-runner noise pushes the CI
# bound up to ~3%), so it cannot pass on a lucky draw but survives a
# contended scheduler.
pct=$(sed -n 's/.*"obs_overhead_pct":\(-\{0,1\}[0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
hi=$(sed -n 's/.*"obs_overhead_ci95_pct":\[[^,]*,\(-\{0,1\}[0-9.eE+-]*\)\].*/\1/p' BENCH_runtime.json)
[ -n "$pct" ] && [ -n "$hi" ] || {
    echo "verify: FAIL — obs overhead median/CI missing from BENCH_runtime.json" >&2
    exit 1
}
awk -v v="$hi" 'BEGIN { exit !(v < 4.0) }' || {
    echo "verify: FAIL — obs overhead 95% CI upper bound ${hi}% is not < 4%" >&2
    exit 1
}
echo "obs_overhead_pct=$pct (95% CI upper bound ${hi}%)"

echo "==> sdr synthesis throughput: >= 20 MS/s streaming"
# The trig-free lane-batched rotator path. Baseline before the rewrite
# was 1.5 MS/s; the phasor-rotator + memoized-PA path holds >= 20 MS/s.
sdr_msps=$(sed -n 's/.*"stage":"sdr","msps":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
[ -n "$sdr_msps" ] || {
    echo "verify: FAIL — streaming sdr msps missing from BENCH_runtime.json" >&2
    exit 1
}
awk -v v="$sdr_msps" 'BEGIN { exit !(v >= 20.0) }' || {
    echo "verify: FAIL — streaming sdr throughput ${sdr_msps} MS/s is below 20 MS/s" >&2
    exit 1
}
echo "streaming sdr throughput ${sdr_msps} MS/s (gate >= 20)"

echo "==> harvester + rfid streaming throughput (streaming-tail rebalance)"
# The α-hoisted integrator with the fused |rx|²·scale pass holds
# ~110 MS/s and the run-length PIE/FM0 decoders ~230 MS/s on a quiet
# 1-core runner (was ~26 / ~25 before the rewrite). Gates sit well
# below the committed readings so scheduler noise cannot trip them, but
# far above the pre-rewrite rates; the committed BENCH_baseline.json
# bands pin the tighter regression envelope.
harv_msps=$(sed -n 's/.*"stage":"harvester","msps":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
rfid_msps=$(sed -n 's/.*"stage":"rfid","msps":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
[ -n "$harv_msps" ] && [ -n "$rfid_msps" ] || {
    echo "verify: FAIL — streaming harvester/rfid msps missing from BENCH_runtime.json" >&2
    exit 1
}
awk -v v="$harv_msps" 'BEGIN { exit !(v >= 60.0) }' || {
    echo "verify: FAIL — streaming harvester throughput ${harv_msps} MS/s is below 60 MS/s" >&2
    exit 1
}
awk -v v="$rfid_msps" 'BEGIN { exit !(v >= 100.0) }' || {
    echo "verify: FAIL — streaming rfid throughput ${rfid_msps} MS/s is below 100 MS/s" >&2
    exit 1
}
echo "streaming harvester ${harv_msps} MS/s (gate >= 60), rfid ${rfid_msps} MS/s (gate >= 100)"

echo "==> worker pool: 8-way dispatch amortization >= 4x"
# Pooled dispatch of 8-chunk batches vs spawn-per-call threads on the
# identical workload. This measures what the pool refactor fixes —
# per-dispatch cost — and holds on any core count.
pool_x=$(sed -n 's/.*"dispatch_speedup_x8":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
[ -n "$pool_x" ] || {
    echo "verify: FAIL — pool dispatch_speedup_x8 missing from BENCH_runtime.json" >&2
    exit 1
}
awk -v v="$pool_x" 'BEGIN { exit !(v >= 4.0) }' || {
    echo "verify: FAIL — pool dispatch speedup ${pool_x}x is below 4x" >&2
    exit 1
}
echo "pool dispatch speedup ${pool_x}x over spawn-per-call (gate >= 4)"

echo "==> 8-thread parallel_sweep wall-clock speedup (gated when cores >= 8)"
# On boxes with fewer cores than the sweep width the bench records
# {"threads":8,"skipped_oversubscribed":true} instead of timing pure
# contention; either a passing speedup or an explicit skip is required —
# a silently missing entry fails.
cores=$(sed -n 's/.*"cores":\([0-9]*\).*/\1/p' BENCH_runtime.json | head -n 1)
[ -n "$cores" ] || {
    echo "verify: FAIL — cores missing from BENCH_runtime.json" >&2
    exit 1
}
if [ "$cores" -ge 8 ]; then
    sweep_x=$(sed -n 's/.*"threads":8,"median_ns":[0-9.eE+-]*,"speedup":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
    [ -n "$sweep_x" ] || {
        echo "verify: FAIL — 8-thread sweep speedup missing from BENCH_runtime.json" >&2
        exit 1
    }
    awk -v v="$sweep_x" 'BEGIN { exit !(v >= 4.0) }' || {
        echo "verify: FAIL — 8-thread parallel_sweep speedup ${sweep_x}x is below 4x on ${cores} cores" >&2
        exit 1
    }
    echo "8-thread parallel_sweep speedup ${sweep_x}x on ${cores} cores (gate >= 4)"
else
    grep -q '"threads":8,"skipped_oversubscribed":true' BENCH_runtime.json || {
        echo "verify: FAIL — 8-thread sweep entry neither timed nor marked skipped on ${cores} core(s)" >&2
        exit 1
    }
    echo "8-thread sweep marked skipped_oversubscribed on ${cores} core(s) — wall-clock gate requires >= 8 cores"
fi

echo "==> rotor / pool / streaming-equivalence suites"
cargo test -q --offline -p ivn-dsp --test rotor_props
cargo test -q --offline -p ivn-runtime --test pool_props
cargo test -q --offline -p ivn --test streaming_equivalence

echo "==> streaming pipeline: bit-identical to whole-buffer batch path"
STREAM_OUT=target/verify_stream.txt
BATCH_OUT=target/verify_batch.txt
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --quick --stream-stats > "$STREAM_OUT"
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --quick --batch --stream-stats > "$BATCH_OUT"
stream_hash=$(sed -n 's/.*rx_hash=\([0-9a-f]*\).*/\1/p' "$STREAM_OUT")
batch_hash=$(sed -n 's/.*rx_hash=\([0-9a-f]*\).*/\1/p' "$BATCH_OUT")
[ -n "$stream_hash" ] && [ -n "$batch_hash" ] || {
    echo "verify: FAIL — rx_hash missing from pipeline output" >&2
    exit 1
}
[ "$stream_hash" = "$batch_hash" ] || {
    echo "verify: FAIL — streaming rx_hash $stream_hash != batch rx_hash $batch_hash" >&2
    exit 1
}
echo "rx_hash=$stream_hash (streaming == batch)"

echo "==> streaming pipeline: full 1 MS/s period with bounded per-stage memory"
MSPS_OUT=target/verify_stream_1msps.txt
cargo run --release --offline -p ivn-bench --bin reproduce -- pipeline --quick --sample-rate 1e6 --stream-stats > "$MSPS_OUT"
grep -q 'powered=true' "$MSPS_OUT" || {
    echo "verify: FAIL — 1 MS/s streaming run did not power the tag" >&2
    exit 1
}
footprint=$(sed -n 's/^stream *footprint \(.*\) samples.*/\1/p' "$MSPS_OUT")
[ -n "$footprint" ] || {
    echo "verify: FAIL — footprint line missing from 1 MS/s run" >&2
    exit 1
}
block=$(sed -n 's/.*block=\([0-9]*\).*/\1/p' "$MSPS_OUT")
for kv in $footprint; do
    stage=${kv%%=*}
    peak=${kv#*=}
    awk -v v="$peak" -v b="$block" 'BEGIN { exit !(v <= 2 * b) }' || {
        echo "verify: FAIL — stage '$stage' peak footprint ${peak} samples exceeds 2x block (${block})" >&2
        exit 1
    }
done
echo "per-stage peak footprint [$footprint] all within 2x block=$block at 1 MS/s"

echo "==> BENCH_runtime.json records streaming stage throughput"
grep -q '"streaming"' BENCH_runtime.json && grep -q '"msps"' BENCH_runtime.json || {
    echo "verify: FAIL — streaming throughput missing from BENCH_runtime.json" >&2
    exit 1
}

echo "==> scenario export: byte-identical JSON round-trip"
SCN_DIR=target/verify_scenarios
mkdir -p "$SCN_DIR"
for name in fig6 fig9 fig13 invivo session multisensor; do
    cargo run --release --offline -p ivn-bench --bin reproduce -- export "$name" --out "$SCN_DIR/$name.json" 2> /dev/null
    cargo run --release --offline -p ivn-bench --bin reproduce -- --scenario "$SCN_DIR/$name.json" --quick > /dev/null
done
# export → run through a file → re-export must not change a byte; the
# scenario_golden suite pins parse→dump stability, this pins the CLI path.
cargo run --release --offline -p ivn-bench --bin reproduce -- export session --out "$SCN_DIR/session2.json" 2> /dev/null
cmp "$SCN_DIR/session.json" "$SCN_DIR/session2.json" || {
    echo "verify: FAIL — scenario export is not byte-stable" >&2
    exit 1
}
echo "scenario export round-trip OK"

echo "==> built-in scenarios reproduce the legacy figure bytes at 1 and 2 threads"
# The registry path through `reproduce <target>` must match the golden
# files (the full 13-target pin runs in scenario_golden). Every target
# whose Monte-Carlo sweep dispatches on the worker pool runs at two pool
# widths, so a scheduling-dependent result cannot hide behind one width.
for threads in 1 2; do
    for target in fig2 fig4 fig6 fig9 fig10 fig11 fig12 fig13 invivo freqs ablations; do
        out="target/verify_${target}_t$threads.txt"
        IVN_THREADS=$threads cargo run -q --release --offline -p ivn-bench --bin reproduce -- "$target" --quick > "$out"
        cmp "$out" "tests/golden/figures/$target.quick.txt" || {
            echo "verify: FAIL — IVN_THREADS=$threads reproduce $target --quick diverged from tests/golden/figures/$target.quick.txt" >&2
            exit 1
        }
    done
done
echo "figure bytes match golden files at IVN_THREADS=1 and 2"

echo "==> 25-scenario generated campaign smoke run"
FLEET_DIR=target/verify_fleet
rm -rf "$FLEET_DIR"
cargo run --release --offline -p ivn-bench --bin reproduce -- generate --out "$FLEET_DIR" --base session --count 25 --seed 7 \
    --sweep placement.depth_m=0.02,0.05,0.08 --jitter eirp_dbm=0.05
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$FLEET_DIR" --quick --threads 2 --out target/verify_campaign.json
grep -q '"evaluated":25' target/verify_campaign.json || {
    echo "verify: FAIL — campaign report did not evaluate all 25 scenarios" >&2
    exit 1
}
grep -q '"errors":0' target/verify_campaign.json || {
    echo "verify: FAIL — campaign reported scenario errors" >&2
    exit 1
}
echo "campaign smoke run OK (25 scenarios)"

echo "==> BENCH_runtime.json records campaign throughput"
grep -q '"campaign"' BENCH_runtime.json && grep -q '"scenarios_per_sec"' BENCH_runtime.json || {
    echo "verify: FAIL — campaign throughput missing from BENCH_runtime.json" >&2
    exit 1
}

echo "==> population-scale inventory: >= 1M tag-sessions, per-policy stats, pool-width invariant"
# bench_runtime's inventory section asserts a 64-body probe bit-identical
# at 1/2/8 workers before writing the JSON; the gates here re-check the
# recorded artifact: all three policy arms present with throughput and
# rounds-to-full numbers, and at least a million tag-sessions total.
grep -q '"inventory"' BENCH_runtime.json && grep -q '"tag_sessions_per_sec"' BENCH_runtime.json || {
    echo "verify: FAIL — inventory section missing from BENCH_runtime.json" >&2
    exit 1
}
inv_total=$(sed -n 's/.*"total_tag_sessions":\([0-9]*\).*/\1/p' BENCH_runtime.json)
[ -n "$inv_total" ] || {
    echo "verify: FAIL — total_tag_sessions missing from BENCH_runtime.json" >&2
    exit 1
}
[ "$inv_total" -ge 1000000 ] || {
    echo "verify: FAIL — inventory fleet ran only ${inv_total} tag-sessions (gate >= 1000000)" >&2
    exit 1
}
grep -q '"thread_invariant":true' BENCH_runtime.json || {
    echo "verify: FAIL — inventory fleet thread-invariance flag missing" >&2
    exit 1
}
for pol in adaptive fixed schoute; do
    grep -q "\"policy\":\"$pol\"" BENCH_runtime.json || {
        echo "verify: FAIL — inventory policy arm '$pol' missing from BENCH_runtime.json" >&2
        exit 1
    }
done
grep -q '"rounds_to_full_median"' BENCH_runtime.json || {
    echo "verify: FAIL — rounds_to_full_median missing from inventory section" >&2
    exit 1
}
echo "inventory fleet ${inv_total} tag-sessions across 3 policies (gate >= 1M, pool-width invariant)"

echo "==> 64-tag inventory campaign: byte-identical at 1/2/8 threads"
INV_DIR=target/verify_inventory_fleet
rm -rf "$INV_DIR"
cargo run --release --offline -p ivn-bench --bin reproduce -- generate --out "$INV_DIR" --base inventory --count 6 --seed 11 \
    --sweep eirp_dbm=36,37,38 > /dev/null
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$INV_DIR" --quick --threads 1 --out target/verify_inventory_t1.json
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$INV_DIR" --quick --threads 2 --out target/verify_inventory_t2.json
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$INV_DIR" --quick --threads 8 --out target/verify_inventory_t8.json
grep -q '"evaluated":6' target/verify_inventory_t1.json || {
    echo "verify: FAIL — inventory campaign did not evaluate all 6 scenarios" >&2
    exit 1
}
grep -q '"errors":0' target/verify_inventory_t1.json || {
    echo "verify: FAIL — inventory campaign reported scenario errors" >&2
    exit 1
}
cmp target/verify_inventory_t1.json target/verify_inventory_t2.json || {
    echo "verify: FAIL — inventory campaign diverged between 1 and 2 threads" >&2
    exit 1
}
cmp target/verify_inventory_t1.json target/verify_inventory_t8.json || {
    echo "verify: FAIL — inventory campaign diverged between 1 and 8 threads" >&2
    exit 1
}
echo "inventory campaign OK (6 x 64-tag scenarios, byte-identical at 1/2/8 threads)"

echo "==> plan-cache campaign: >= 3x on a plan-sharing fleet, hits byte-identical to cold"
# bench_runtime's campaign_planshare section runs the same fleet cold
# (cache disabled, every scenario pays the Eq. 10 search) and warm
# (cache enabled from empty) and asserts the two reports byte-identical
# before it will write the JSON at all; the gate here re-checks the
# recorded speedup and the byte_identical flag from the artifact.
plan_x=$(sed -n 's/.*"campaign_planshare":{[^}]*"speedup":\([0-9.eE+-]*\).*/\1/p' BENCH_runtime.json)
[ -n "$plan_x" ] || {
    echo "verify: FAIL — campaign_planshare speedup missing from BENCH_runtime.json" >&2
    exit 1
}
awk -v v="$plan_x" 'BEGIN { exit !(v >= 3.0) }' || {
    echo "verify: FAIL — plan-cache campaign speedup ${plan_x}x is below 3x" >&2
    exit 1
}
grep -q '"campaign_planshare":{[^}]*"byte_identical":true' BENCH_runtime.json || {
    echo "verify: FAIL — plan-cache warm campaign is not byte-identical to cold" >&2
    exit 1
}
echo "plan-cache campaign speedup ${plan_x}x (gate >= 3), warm report byte-identical"

echo "==> telemetry + sentinel suites (flight recorder, delta/merge, tolerance bands)"
cargo test -q --offline -p ivn-runtime telemetry
cargo test -q --offline -p ivn-bench --lib sentinel

echo "==> BENCH_runtime.json carries per-worker pool observatory metrics"
for key in pool_workers steals steal_misses busy_frac queue_depth_peak; do
    grep -q "\"$key\"" BENCH_runtime.json || {
        echo "verify: FAIL — pool observatory key '$key' missing from BENCH_runtime.json" >&2
        exit 1
    }
done
echo "pool observatory metrics present"

echo "==> flight recorder: live campaign telemetry is valid NDJSON"
LIVE_FLEET=target/verify_live_fleet
LIVE_OUT=target/verify_live.ndjson
rm -rf "$LIVE_FLEET"
cargo run --release --offline -p ivn-bench --bin reproduce -- generate --out "$LIVE_FLEET" --base session --count 64 --seed 7 \
    --sweep placement.depth_m=0.02,0.05,0.08,0.11 --jitter eirp_dbm=0.05 > /dev/null
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$LIVE_FLEET" --quick \
    --live "$LIVE_OUT" --live-interval-ms 2 > target/verify_live_on.txt 2> /dev/null
# validate_ndjson checks parseable lines, gapless seq from 0, monotone
# elapsed time; the gate also requires >= 3 snapshots so a recorder that
# started and immediately died cannot pass.
cargo run --release --offline -p ivn-bench --bin bench_runtime -- --check-ndjson "$LIVE_OUT"
grep -q '"rates"' "$LIVE_OUT" || {
    echo "verify: FAIL — no rates in $LIVE_OUT snapshots" >&2
    exit 1
}
grep -q 'campaign.scenarios_done' "$LIVE_OUT" || {
    echo "verify: FAIL — campaign progress counter missing from $LIVE_OUT" >&2
    exit 1
}
# --live must never change the campaign's answer: stdout byte-identical
# to a run with telemetry off.
cargo run --release --offline -p ivn-bench --bin reproduce -- campaign "$LIVE_FLEET" --quick > target/verify_live_off.txt 2> /dev/null
cmp target/verify_live_on.txt target/verify_live_off.txt || {
    echo "verify: FAIL — campaign stdout differs with --live enabled" >&2
    exit 1
}
echo "live telemetry OK ($(wc -l < "$LIVE_OUT") snapshots, stdout byte-identical)"

echo "==> bottleneck attribution from the verify trace"
cargo run --release --offline -p ivn-bench --bin trace_report -- "$TRACE_OUT" --attribute --bench BENCH_runtime.json > target/verify_attr.txt
grep -q 'bottleneck attribution' target/verify_attr.txt && grep -q 'stage ranking' target/verify_attr.txt || {
    echo "verify: FAIL — trace_report --attribute did not produce an attribution report" >&2
    exit 1
}
echo "attribution report OK"

echo "==> perf-regression sentinel: BENCH_runtime.json vs committed baseline"
# Band-by-band tolerance check against BENCH_baseline.json; skips itself
# (exit 0 with a notice) when the bench ran in a different mode than the
# baseline was recorded under.
cargo run --release --offline -p ivn-bench --bin bench_runtime -- --check-baseline

echo "verify: OK"
