#!/usr/bin/env bash
# Full local gate: repo lint, formatting, clippy, and the tier-1 verify from
# ROADMAP.md. Run from anywhere; everything executes at the repository root.
#
#   scripts/check.sh          the standard gate
#   scripts/check.sh --full   additionally runs scripts/sanitize.sh
#                             (miri/tsan/model-check over the unsafe region)
set -euo pipefail
cd "$(dirname "$0")/.."

full=0
if [ "${1:-}" = "--full" ]; then
    full=1
fi

echo "==> cargo xtask lint (repo-specific rules L0-L9, see DESIGN.md)"
# Gated against the committed baseline: any new violation, and any *growth*
# in per-rule suppression counts (exemption creep), fails the build. The
# machine-readable report lands in target/LINT.json for tooling.
cargo xtask lint --report target/LINT.json --baseline results/LINT_baseline.json

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
# The workspace's default-members make these cover the root package and
# every crate under crates/ (not the vendor/ shims).
cargo build --release
cargo test -q

echo "==> perfbench smoke: the benchmark package builds against the crates and its output checks pass"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run

echo "==> chaos smoke: bounded fault-injection sweep (FAR/FRR envelopes)"
cargo run -q --release -p puf-bench --bin chaos -- --smoke

echo "==> trace gate: deterministic tick trace from chaos --smoke, validated + byte-stable"
cargo run -q --release -p puf-bench --bin chaos -- --smoke --trace=target/CHAOS_trace.json
cargo run -q --release -p puf-bench --bin chaos -- --smoke --trace=target/CHAOS_trace.rerun.json
cmp target/CHAOS_trace.json target/CHAOS_trace.rerun.json
cmp target/CHAOS_trace.json.folded target/CHAOS_trace.rerun.json.folded
cargo xtask trace-check target/CHAOS_trace.json

echo "==> figure identity: deterministic fig/ext/ablation bins regenerate results/ byte for byte"
# Each bin below runs at default scale in about a second and prints only
# seeded results, so any change to a measurement or selection path that moves
# a single draw shows up as a diff. fig04, fig10, ext_reliability and
# ablation_optimizer are regenerated into results/ the same way but are not
# compared: they print wall-clock columns (training/fit times, attack
# seconds). ablation_features (about ten seconds) and fig04_large (a
# 500,000-challenge run of fig04) are left out to keep the gate fast.
mkdir -p target/figcheck
for bin in fig02 fig03 fig05_07 fig08 fig09 fig11 fig12 ext_aging ablation_estimator ablation_salvage; do
    target/release/"$bin" > target/figcheck/"$bin".txt
    cmp target/figcheck/"$bin".txt results/"$bin".txt
done

echo "==> trillion smoke: bit-sliced replay harness end-to-end (tiny dims, no gate)"
cargo run -q --release -p puf-bench --bin trillion -- --smoke

echo "==> server smoke: fleet auth service, 100k chips; asserts the >=3x batched gate"
cargo run -q --release -p puf-bench --bin server -- --smoke

echo "==> soak smoke: decade-soak lifecycle harness; byte-identical re-run + crash/recover"
# Two fresh runs must emit byte-identical JSON (the durable store, pool
# accounting, and crash/recover cycles are all deterministic per seed)...
cargo run -q --release -p puf-bench --bin soak -- --smoke --fresh --out target/BENCH_soak_smoke.json
cargo run -q --release -p puf-bench --bin soak -- --smoke --fresh --out target/BENCH_soak_smoke.rerun.json
cmp target/BENCH_soak_smoke.json target/BENCH_soak_smoke.rerun.json
# ...and a soak killed mid-run must resume from its checkpoint to the same
# bytes as an uninterrupted run (clean crash/recover cycles are asserted
# bit-identical inside the harness itself).
SOAK_STOP_AFTER=2 cargo run -q --release -p puf-bench --bin soak -- --smoke --fresh --out target/BENCH_soak_smoke.resume.json
cargo run -q --release -p puf-bench --bin soak -- --smoke --out target/BENCH_soak_smoke.resume.json
cmp target/BENCH_soak_smoke.json target/BENCH_soak_smoke.resume.json

echo "==> bench-diff observatory: committed baselines parse and self-compare clean"
cargo xtask bench-diff --baseline results --current results

if [ "$full" -eq 1 ]; then
    echo "==> --full: scripts/sanitize.sh (miri / tsan / model check)"
    scripts/sanitize.sh
fi

echo "==> all checks passed"
