#!/usr/bin/env bash
# Full CI gate: formatting, lints, tier-1 build + tests, the benchmark
# package's build + tests, every workspace crate's tests, the resilience and
# chaos/resume suites, the serve smoke test, and the benchmarks (emit
# BENCH_characterize.json and BENCH_serve.json at the repo root). Run from
# anywhere; operates on the repo that contains it.
#
# Every step runs under a wall-clock timeout so a wedged solver (or a
# chaos child that never dies) fails CI with a timeout error instead of
# hanging the pipeline. GNU timeout exits 124 on expiry; SIGKILL follows
# 30 s later if the step ignores SIGTERM.
set -euo pipefail
cd "$(dirname "$0")"

step() {
    local limit="$1" name="$2"
    shift 2
    echo "==> ${name} (timeout ${limit})"
    timeout --kill-after=30s "$limit" "$@" || {
        local rc=$?
        if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
            echo "!! ${name}: timed out after ${limit}" >&2
        else
            echo "!! ${name}: failed with exit code ${rc}" >&2
        fi
        exit "$rc"
    }
}

step 5m  "cargo fmt --check"                 cargo fmt --all -- --check
step 15m "cargo clippy -- -D warnings"       cargo clippy --workspace --all-targets -- -D warnings
step 20m "tier-1: cargo build --release"     cargo build --release
# The root package's build leaves out the other crates' binaries that the
# smoke tests and benches below run (trace2chrome, bench_characterize,
# bench_serve).
step 20m "workspace: cargo build --release"  cargo build --release --workspace
step 20m "tier-1: cargo test -q"             cargo test -q
# STA scaling smoke: times Sta::new and Sta::run on ripple-carry adders up
# to 9 216 gates and fails only if a run errors or a vector switches no
# output; the ns/gate table is printed, never gated (wall-clock on a shared
# host is too noisy to gate on).
step 10m "sta: scaling smoke (<= 9216 gates)" cargo run --release --quiet --example sta_scaling -- 9216
# The benchmark package (proxbench/) is a workspace of its own that builds
# the crates through path dependencies; compile and test it here so an API
# change that breaks it fails CI instead of the next benchmark run.
step 20m "proxbench: cargo build --release"  cargo build --release --offline --manifest-path proxbench/Cargo.toml
step 20m "proxbench: cargo test --release"   cargo test --release --offline --manifest-path proxbench/Cargo.toml
step 30m "workspace: cargo test --workspace" cargo test -q --workspace
step 15m "resilience: fault injection"       cargo test -q --features fault-injection --test fault_injection
step 15m "workers: byte identity + faults"   cargo test -q --features fault-injection --test worker_identity
step 15m "audit: invariants + self-repair"   cargo test -q --features fault-injection --test audit
step 10m "observability: trace round-trip"   cargo test -q --test observability
step 10m "observability: flight + serve"     cargo test -q --test flight_recorder --test serve_observability
step 15m "chaos: SIGKILL/SIGTERM + resume"   cargo test -q --test chaos
step 15m "serve: malformed-input corpus"     cargo test -q --features fault-injection --test serve_robustness
# Lifecycle suite: hot reload under sustained load, memory-budgeted
# eviction, and (via the feature) every durable sink against an injected
# full disk — including the drain-still-exits-0 contract.
step 15m "serve: lifecycle + disk faults"    cargo test -q --features fault-injection --test serve_lifecycle
# Fleet suite: supervised replicas, SIGKILL failover under churn, crash-loop
# quarantine on a corrupt store, rolling reload, and hedged requests.
step 15m "serve: fleet suite"                cargo test -q --test serve_fleet
# Differential suite: a seeded population of queries and 16-query batches,
# answered over the wire after a store save/load round trip, must match the
# in-process model bit for bit — degraded-slice provenance included (via the
# feature).
step 15m "serve: wire vs in-process answers" cargo test -q --features fault-injection --test serve_differential

# Daemon smoke: start on a temp socket, round-trip a query and a health
# probe through the CLI client, then SIGTERM and require a clean drain
# (exit 0, "drained" marker, metrics snapshot flushed).
serve_smoke() {
    set -euo pipefail
    local dir pid rc
    dir="$(mktemp -d)"
    ./target/release/proxim_serve serve --store "${dir}/store" \
        --socket "${dir}/smoke.sock" --metrics-out "${dir}/metrics.json" \
        --demo >"${dir}/serve.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 600); do
        grep -q '^ready ' "${dir}/serve.log" 2>/dev/null && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    grep -q '^ready ' "${dir}/serve.log" || {
        echo "daemon never became ready:" >&2
        cat "${dir}/serve.log" >&2
        return 1
    }
    ./target/release/proxim_serve query --socket "${dir}/smoke.sock" --json \
        '{"op":"query","model":"nand2_demo","events":[{"pin":0,"edge":"rise","t":0.0,"tt":4e-10},{"pin":1,"edge":"rise","t":5e-11,"tt":4e-10}]}'
    ./target/release/proxim_serve query --socket "${dir}/smoke.sock" \
        --json '{"op":"health"}'
    kill -TERM "$pid"
    wait "$pid" && rc=0 || rc=$?
    [ "$rc" -eq 0 ] || { echo "daemon exited ${rc} after SIGTERM" >&2; return 1; }
    grep -q '^drained ' "${dir}/serve.log" || { echo "no drained marker" >&2; return 1; }
    [ -s "${dir}/metrics.json" ] || { echo "metrics snapshot missing" >&2; return 1; }
    rm -rf "$dir"
}
export -f serve_smoke
step 10m "serve: daemon smoke + drain"       bash -c serve_smoke

# Observability smoke: the same daemon with tracing fully on — JSONL sink
# (PROXIM_TRACE), per-request head sampling, flight recorder armed. Drives
# the whole introspection plane over the wire: a traced query whose
# response echoes the client trace_id with a per-phase breakdown, a
# Prometheus scrape (the obs CLI validates the exposition syntax before
# printing it), a runtime knob flip plus a live flight-dump fetch, and a
# SIGTERM drain that must leave both the sink file and the post-mortem
# dump holding the traced request. Both JSONL artifacts must convert
# cleanly to Chrome traces.
obs_smoke() {
    set -euo pipefail
    local dir pid rc out
    dir="$(mktemp -d)"
    PROXIM_TRACE="${dir}/trace.jsonl" ./target/release/proxim_serve serve \
        --store "${dir}/store" --socket "${dir}/obs.sock" \
        --sample-every 1 --flight-out "${dir}/flight.jsonl" \
        --metrics-out "${dir}/metrics.json" \
        --demo >"${dir}/serve.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 600); do
        grep -q '^ready ' "${dir}/serve.log" 2>/dev/null && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    grep -q '^ready ' "${dir}/serve.log" || {
        echo "daemon never became ready:" >&2
        cat "${dir}/serve.log" >&2
        return 1
    }
    out="$(./target/release/proxim_serve query --socket "${dir}/obs.sock" --json \
        '{"op":"query","model":"nand2_demo","trace_id":"ci-obs-1","events":[{"pin":0,"edge":"rise","t":0.0,"tt":4e-10},{"pin":1,"edge":"rise","t":5e-11,"tt":4e-10}]}')"
    echo "$out" | grep -q '"trace_id":"ci-obs-1"' || { echo "no trace_id echo: $out" >&2; return 1; }
    echo "$out" | grep -q '"breakdown"' || { echo "no phase breakdown: $out" >&2; return 1; }
    ./target/release/proxim_serve obs --socket "${dir}/obs.sock" --prom \
        >"${dir}/scrape.prom" || { echo "prometheus scrape failed" >&2; return 1; }
    grep -q '^# TYPE serve_requests counter' "${dir}/scrape.prom" || {
        echo "exposition missing serve_requests:" >&2
        cat "${dir}/scrape.prom" >&2
        return 1
    }
    ./target/release/proxim_serve obs --socket "${dir}/obs.sock" \
        --slow-ms 1 --dump "${dir}/live_dump.jsonl" >"${dir}/obs_flip.out"
    grep -q '"slow_ms":1' "${dir}/obs_flip.out" || {
        echo "runtime obs flip not echoed:" >&2
        cat "${dir}/obs_flip.out" >&2
        return 1
    }
    head -1 "${dir}/live_dump.jsonl" | grep -q '"t":"flight"' || { echo "bad dump header" >&2; return 1; }
    grep -q 'ci-obs-1' "${dir}/live_dump.jsonl" || { echo "traced request missing from live dump" >&2; return 1; }
    kill -TERM "$pid"
    wait "$pid" && rc=0 || rc=$?
    [ "$rc" -eq 0 ] || { echo "daemon exited ${rc} after SIGTERM" >&2; return 1; }
    grep -q '^drained ' "${dir}/serve.log" || { echo "no drained marker" >&2; return 1; }
    grep -q 'ci-obs-1' "${dir}/flight.jsonl" || { echo "traced request missing from post-SIGTERM dump" >&2; return 1; }
    grep -q '"name":"serve.request"' "${dir}/trace.jsonl" || { echo "no serve.request span in sink" >&2; return 1; }
    ./target/release/trace2chrome "${dir}/trace.jsonl" -o "${dir}/trace.chrome.json"
    ./target/release/trace2chrome "${dir}/flight.jsonl" -o "${dir}/flight.chrome.json"
    [ -s "${dir}/trace.chrome.json" ] && [ -s "${dir}/flight.chrome.json" ] || return 1
    rm -rf "$dir"
}
export -f obs_smoke
step 10m "serve: tracing-on smoke + scrape"  bash -c obs_smoke

# Lifecycle smoke: the same daemon pinned to a 1-byte memory budget, so
# every query is a cold miss (eviction churn at its harshest), driven by
# the closed-loop churn client; then a SIGHUP reload and a wire reload
# (through the retrying client), and a clean drain on generation 3.
lifecycle_smoke() {
    set -euo pipefail
    local dir pid rc out
    dir="$(mktemp -d)"
    ./target/release/proxim_serve serve --store "${dir}/store" \
        --socket "${dir}/lc.sock" --memory-budget 1 --demo \
        >"${dir}/serve.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 600); do
        grep -q '^ready ' "${dir}/serve.log" 2>/dev/null && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    grep -q '^ready ' "${dir}/serve.log" || {
        echo "daemon never became ready:" >&2
        cat "${dir}/serve.log" >&2
        return 1
    }
    out="$(./target/release/proxim_serve churn --socket "${dir}/lc.sock" --queries 32)"
    echo "$out" | grep -q 'ok=32' || { echo "churn queries failed: $out" >&2; return 1; }
    echo "$out" | grep -q 'cold=32' || { echo "a 1-byte budget must serve all-cold: $out" >&2; return 1; }
    kill -HUP "$pid"
    for _ in $(seq 1 100); do
        grep -q '^reloaded generation=2 ' "${dir}/serve.log" 2>/dev/null && break
        sleep 0.1
    done
    grep -q '^reloaded generation=2 ' "${dir}/serve.log" || {
        echo "SIGHUP reload never landed:" >&2
        cat "${dir}/serve.log" >&2
        return 1
    }
    out="$(./target/release/proxim_serve query --socket "${dir}/lc.sock" \
        --retry --deadline-ms 5000 --json '{"op":"reload","label":"ci"}')"
    echo "$out" | grep -q '"swapped":true' || { echo "wire reload refused: $out" >&2; return 1; }
    out="$(./target/release/proxim_serve query --socket "${dir}/lc.sock" \
        --retry --deadline-ms 5000 --json '{"op":"health"}')"
    echo "$out" | grep -q '"generation":3' || { echo "wrong generation: $out" >&2; return 1; }
    kill -TERM "$pid"
    wait "$pid" && rc=0 || rc=$?
    [ "$rc" -eq 0 ] || { echo "daemon exited ${rc} after SIGTERM" >&2; return 1; }
    grep -q '^drained ' "${dir}/serve.log" || { echo "no drained marker" >&2; return 1; }
    rm -rf "$dir"
}
export -f lifecycle_smoke
step 10m "serve: reload + eviction smoke"    bash -c lifecycle_smoke

# Fleet smoke: three supervised replicas, SIGKILL one, require that the
# survivors keep answering, the supervisor restarts the victim back to
# full strength (control-socket "fleet" op reports replicas_up=3), and
# SIGTERM drains the whole fleet with exit 0.
fleet_smoke() {
    set -euo pipefail
    local dir pid rc victim out
    dir="$(mktemp -d)"
    ./target/release/proxim_serve fleet --store "${dir}/store" \
        --dir "${dir}/fleet" --replicas 3 --demo >"${dir}/fleet.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 600); do
        grep -q '^fleet ready ' "${dir}/fleet.log" 2>/dev/null && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    grep -q '^fleet ready ' "${dir}/fleet.log" || {
        echo "fleet never became ready:" >&2
        cat "${dir}/fleet.log" >&2
        return 1
    }
    ./target/release/proxim_serve query --socket "${dir}/fleet/replica-0.sock" --json \
        '{"op":"query","model":"nand2_demo","events":[{"pin":0,"edge":"rise","t":0.0,"tt":4e-10},{"pin":1,"edge":"rise","t":5e-11,"tt":4e-10}]}'
    victim="$(grep '^replica index=1 ' "${dir}/fleet.log" | head -1 \
        | sed 's/.*pid=\([0-9-]*\).*/\1/')"
    [ -n "$victim" ] && [ "$victim" != "-" ] || {
        echo "no pid recorded for replica 1:" >&2
        cat "${dir}/fleet.log" >&2
        return 1
    }
    kill -KILL "$victim"
    # Survivors answer while the victim is down.
    ./target/release/proxim_serve query --socket "${dir}/fleet/replica-0.sock" \
        --retry --deadline-ms 5000 --json '{"op":"health"}'
    for _ in $(seq 1 600); do
        grep -q '^restarted replica index=1 ' "${dir}/fleet.log" 2>/dev/null && break
        sleep 0.1
    done
    grep -q '^restarted replica index=1 ' "${dir}/fleet.log" || {
        echo "supervisor never restarted the killed replica:" >&2
        cat "${dir}/fleet.log" >&2
        return 1
    }
    out=""
    for _ in $(seq 1 100); do
        out="$(./target/release/proxim_serve query --socket "${dir}/fleet/fleet.sock" \
            --json '{"op":"fleet"}')" || out=""
        echo "$out" | grep -q '"replicas_up":3' && break
        sleep 0.1
    done
    echo "$out" | grep -q '"replicas_up":3' || {
        echo "fleet never returned to full strength: $out" >&2
        return 1
    }
    kill -TERM "$pid"
    wait "$pid" && rc=0 || rc=$?
    [ "$rc" -eq 0 ] || { echo "fleet exited ${rc} after SIGTERM" >&2; return 1; }
    grep -q '^fleet drained ' "${dir}/fleet.log" || { echo "no fleet drained marker" >&2; return 1; }
    rm -rf "$dir"
}
export -f fleet_smoke
step 10m "serve: fleet smoke + failover"     bash -c fleet_smoke

step 15m "bench: characterization pipeline"  ./target/release/bench_characterize --out BENCH_characterize.json --scaling
step 5m  "bench: pool smoke (jobs = 2)"      ./target/release/bench_characterize --pool-smoke
# bench_serve carries the trace-overhead gate: traced-on (shipped config)
# must stay within 5% of traced-off, measured on process-CPU-per-request.
step 15m "bench: serve latency + trace gate" ./target/release/bench_serve --out BENCH_serve.json

echo "==> CI OK"
