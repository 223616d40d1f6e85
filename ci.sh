#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs with --offline: this workspace
# has zero registry dependencies by policy (see DESIGN.md "Hermetic build"),
# so CI must prove the build needs no network.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> hermetic-manifest check (no registry dependencies)"
if grep -rn "rand\|proptest\|criterion" --include=Cargo.toml Cargo.toml crates/; then
    echo "ERROR: a manifest references an external registry dependency" >&2
    exit 1
fi

echo "==> unsafe-free check (every crate root forbids unsafe_code)"
# The attribute in each library root makes the compiler reject any unsafe
# code in that crate. servebench/ is a separate, frozen package and is not
# checked here.
for root in crates/*/src/lib.rs src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
        echo "ERROR: $root lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "==> one-scheduler check (runtime threads start only in crew.rs and the server's event thread)"
# The serving executor runs on the Crew; only the scheduler itself and the
# event server's one event thread may start threads, so the executor
# cannot grow a private fan-out again, nor the server a worker pool.
if grep -rnE 'thread::(scope|spawn)\(' crates/runtime/src \
    | grep -vE '^crates/runtime/src/(crew|net/server)\.rs:'; then
    echo "ERROR: crates/runtime/src starts threads outside crew.rs and net/server.rs" >&2
    exit 1
fi
spawns=$(grep -cE 'thread::(scope|spawn)\(' crates/runtime/src/net/server.rs || true)
if [ "$spawns" -ne 1 ]; then
    echo "ERROR: net/server.rs starts threads in $spawns places, not only its event thread" >&2
    exit 1
fi

echo "==> sans-IO core check (net/core.rs names no socket, clock or thread)"
# The server core holds every connection rule and is driven by method
# calls alone, so its tests need no socket and no timer; only the event
# loop's shell in net/server.rs touches sockets, clocks and threads.
if grep -nE 'std::net|TcpStream|TcpListener|Instant|SystemTime|thread::' \
    crates/runtime/src/net/core.rs; then
    echo "ERROR: net/core.rs names a socket, clock or thread API" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline (reduced property-test budget)"
MEI_PROP_CASES=32 cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> benches compile"
cargo build --offline -p mei-bench --benches

echo "==> paper reproduction goldens (Table 1, Figs 2 to 5, the ablations)"
# These binaries consume the Monte-Carlo robustness protocol, so a panic
# in it fails the gate. FAST mode shrinks every training budget; their
# shape checks are judged on full-budget runs only (EXPERIMENTS.md). Each
# FAST stdout must equal its golden in results/fast/ byte for byte: the
# goldens are host-independent (no thread count on stdout) and hold at
# any MEI_THREADS. A golden changes only in a PR that names the numbers
# and verdicts that moved, and why. fig4_methods and fig5_noise take 2
# to 4 minutes each: their Monte-Carlo trials and SAAB scoring send
# every noisy forward pass through the crossbar kernels.
for bin in table1 fig2_breakdown fig3_exp_fit fig4_methods fig5_noise ablation_bc \
    ablation_bitlength ablation_encoding ablation_irdrop ablation_loss ablation_mapping \
    ablation_retention; do
    if ! MEI_BENCH_FAST=1 cargo run --release --offline -p mei-bench --bin "$bin" \
        | diff -u "results/fast/$bin.txt" -; then
        echo "ERROR: $bin FAST stdout differs from results/fast/$bin.txt" >&2
        exit 1
    fi
done

echo "==> throughput bench smoke (closed sweep, in-process ramp-to-knee, policies)"
# FAST mode shrinks training, windows, and the open-loop ramp. The report
# must be strict JSON (the binary validates it) and non-empty. The wire is
# measured by the servebench runs below.
MEI_BENCH_FAST=1 MEI_BENCH_SECONDS=0.5 \
    MEI_BENCH_JSON=target/BENCH_throughput_smoke.json \
    cargo run --release --offline -p mei-bench --bin throughput > /dev/null
test -s target/BENCH_throughput_smoke.json

echo "==> wire protocol v2 smoke (negotiation, pipelining, fresh-server bit identity)"
# The serving_engine suite pins v1 ≡ v2 bits, two fresh servers ≡ the in-
# process fold, idle-connection capacity, and in-band corrupt-frame
# recovery; json_validity
# re-validates every committed results/BENCH_*.json plus the emitters.
cargo test -q --offline --test serving_engine > /dev/null
cargo test -q --offline -p mei-bench --test json_validity > /dev/null

echo "==> idle-cost bench smoke (event-loop CPU share by parked connections)"
# The event loop polls its sockets, so idle connections cost CPU. The
# binary parks 0/1/64/512 v2 connections, reports the process CPU share
# per count as strict JSON, and fails if one idle connection costs half
# a core or more (a spinning loop).
MEI_BENCH_FAST=1 MEI_BENCH_SECONDS=0.5 \
    MEI_BENCH_JSON=target/BENCH_idle_cost_smoke.json \
    cargo run --release --offline -p mei-bench --bin idle_cost > /dev/null
test -s target/BENCH_idle_cost_smoke.json

echo "==> TCP front-end smoke (loopback round trip, in-band errors, shutdown)"
cargo run --release --offline --example serve_tcp > /dev/null

echo "==> servebench (own package): tests + wire-level runs checked against the in-process fold"
# servebench has its own [workspace], so --workspace never compiles it.
# Each run exits non-zero when the served wire bits differ from the
# in-process fold; the negative control (a twin built from another seed)
# must be refused. The exit code covers only the bits, so each positive
# run must also print "correct": true and "failed": 0 in its result line:
# an executor that drops or fails requests must not pass. The traced
# mlp-roundtrip run replays v1 lines through offer_one; the cnn-pipelined
# run also requires the served CNN accuracy to equal the digital twin's.
cargo test -q --offline --release --manifest-path servebench/Cargo.toml > /dev/null
servebench() {
    cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- "$@" \
        > /dev/null 2>&1
}
servebench_served() {
    local line
    line=$(cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- "$@" \
        2> /dev/null)
    if ! grep -q '"correct": true' <<< "$line" || ! grep -q '"failed": 0,' <<< "$line"; then
        echo "ERROR: servebench $* did not serve every request correctly: $line" >&2
        exit 1
    fi
}
servebench_served --workload mlp-pipelined --seed 1 --seconds 1 --trace 0
servebench_served --workload mlp-roundtrip --seed 1 --seconds 1 --trace 0
servebench_served --workload mlp-pipelined --seed 1 --seconds 1 --trace 1
servebench_served --workload mlp-roundtrip --seed 1 --seconds 1 --trace 1
servebench_served --workload cnn-pipelined --seed 1 --seconds 1 --trace 0
if servebench --workload mlp-pipelined --seed 1 --twin-seed 2 --seconds 1 --trace 0; then
    echo "ERROR: servebench accepted a twin built from another seed" >&2
    exit 1
fi

echo "==> drift + admission bench smoke (online recalibration, knee-derived gate)"
# Asserts the host-independent gate invariants: zero sheds at 0.5x the
# measured knee, positive shed rate at 1.5x over it. The frozen-vs-
# recalibrated p99 ratio is reported only (meaningless on 1-core hosts).
MEI_BENCH_FAST=1 MEI_BENCH_SECONDS=0.4 \
    cargo run --release --offline -p mei-bench --bin drift_admission > /dev/null

echo "==> fleet serving smoke (SLA search, forced-quarantine failover, zero loss)"
# FAST mode runs the SLA capacity search on tiny windows and the 2-pool
# failover drill: every chip in the primary pool is broken, the fleet
# must eject it via recalibration, serve with zero lost requests, and
# replay bit-identically. The report must be strict JSON (validated by
# json_validity over committed results/ and checked non-empty here).
MEI_BENCH_FAST=1 MEI_BENCH_SECONDS=0.4 \
    MEI_BENCH_JSON=target/BENCH_fleet_smoke.json \
    cargo run --release --offline -p mei-bench --bin fleet_serving > /dev/null 2>&1
test -s target/BENCH_fleet_smoke.json
cargo test -q --offline -p runtime --test fleet_failover > /dev/null

echo "==> fleet cost smoke (Eq (6)/(7) accounting rollup + budgeted DSE pick)"
# FAST mode trains a tiny MEI chip, rolls fleet accounting up from the
# per-chip cost sheets (the binary asserts every chip is accounted),
# and runs the capacity DSE under an explicit area+power budget. The
# report must be strict JSON and non-empty; the committed full-run
# report is shape-checked by json_validity.
MEI_BENCH_FAST=1 MEI_BENCH_SECONDS=0.25 \
    MEI_BENCH_JSON=target/BENCH_fleet_cost_smoke.json \
    cargo run --release --offline -p mei-bench --bin fleet_cost > /dev/null 2>&1
test -s target/BENCH_fleet_cost_smoke.json

echo "==> kernels bench smoke (kernel ≡ cell walk bits, GS ≡ CG currents)"
# FAST mode uses 5 samples / 200 µs windows; the binary always asserts
# the correctness contracts (every timed matvec bit-identical to the
# cell walk, solver agreement) before timing, self-validates its JSON,
# and skips the speedup floors (those are enforced on full runs only).
MEI_BENCH_FAST=1 MEI_BENCH_JSON=target/BENCH_kernels_smoke.json \
    cargo run --release --offline -p mei-bench --bin kernels > /dev/null
test -s target/BENCH_kernels_smoke.json

echo "==> cnn serving bench smoke (tiling identity, wear-aware vs round-robin)"
# FAST mode trains a tiny binarized CNN; the binary always asserts the
# tiled-conv ≡ direct-oracle bitwise identity at 1/2/N tiles BEFORE any
# timing, and that wear-aware placement ends no more write-imbalanced
# than round-robin, then emits strict JSON (committed full-run report is
# shape-checked by json_validity).
MEI_BENCH_FAST=1 MEI_BENCH_SECONDS=0.25 \
    MEI_BENCH_JSON=target/BENCH_cnn_smoke.json \
    cargo run --release --offline -p mei-bench --bin cnn_serving > /dev/null 2>&1
test -s target/BENCH_cnn_smoke.json

echo "==> conv + wear test suites (oracle properties, wear placement, endurance)"
# The crossbar property suite pins tiled conv ≡ direct oracle bitwise
# over random shapes/tilings and kernel ≡ cell walk on interface bits;
# the wear suite pins bit-identical wear-aware replay and the load-shift
# off worn chips.
MEI_PROP_CASES=32 cargo test -q --offline -p crossbar --test properties > /dev/null
cargo test -q --offline -p runtime --test wear > /dev/null
cargo test -q --offline -p rram --lib > /dev/null

echo "==> training throughput bench smoke (1-epoch calls, 0.3-second windows)"
# The 0.9x sanity floor on the 2-thread speedup is enforced by the binary
# only on hosts with >= 2 hardware threads; the bit-identity check across
# thread counts is asserted everywhere.
MEI_BENCH_FAST=1 MEI_BENCH_SECONDS=0.3 MEI_BENCH_MIN_SPEEDUP=0.9 \
    cargo run --release --offline -p mei-bench --bin training_throughput > /dev/null

echo "CI gate passed."
