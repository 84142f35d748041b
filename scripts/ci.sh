#!/usr/bin/env sh
# Full CI gate: formatting, lints, tier-1 tests, and the host-throughput
# benchmark artifact. Mirrors .github/workflows/ci.yml so the same checks
# run locally, plus one local-only step the workflow does not have: the
# `ia-fleet --smoke` gate below. Its scaling floor fails on 2-core hosts;
# ROADMAP.md's "Hostile guests" item tracks why and the fix.
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets --release -- -D warnings
./scripts/tier1.sh
# The benchmark's own checks: reference equality, tracing inertness and
# wrapper forwarding over the trace agent and the router (perfbench is a
# package of its own, so the workspace test run above does not reach it).
cargo test --release --manifest-path perfbench/Cargo.toml
# Bench smoke check: trap throughput (fast path) and compute throughput
# (fused engine) must both stay within 20% of the committed BENCH_1
# baseline. Runs before --json below rewrites the file.
cargo run --release -p ia-bench --bin reproduce -- --smoke
cargo run --release -p ia-bench --bin reproduce -- --json
# Fleet smoke gate: 256 tenants on a work-stealing pool — solo-vs-fleet
# determinism spot checks plus a self-calibrating scaling-ratio floor
# (parallel throughput >= 0.7 x linear over the 1-thread run).
cargo run --release -p ia-fleet -- --smoke
# Fusion-hit histogram: which superinstruction families representative
# workloads actually execute, uploaded as a CI artifact.
cargo run --release -p ia-bench --bin ia-stats -- --fusion > target/fusion-hist.json
