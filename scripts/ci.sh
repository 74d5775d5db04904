#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#   - build + full test suite (release, so the DES scenarios stay fast)
#   - rustfmt (no diffs)
#   - clippy with warnings denied
# Run from the repository root: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --release --workspace

echo "== examples build =="
cargo build --release --examples

echo "== tests =="
# Every suite runs once, here. Among them, the gates the later steps build on:
#   - driver differential (ars-rescheduler `differential`): the DES adapter
#     and the live TCP driver replay one scripted command sequence into the
#     shared RegistryCore and must land in identical state — the live leg
#     runs once per wire codec (XML and binary).
#   - wire codecs (ars-xmlwire `codec_fidelity`, ars-rescheduler `live_tcp`):
#     the golden corpus must be byte-identical in XML to the legacy framing
#     and round-trip through both codecs (plus the proptest differential);
#     the live reactor must serve mixed codecs, survive hostile peers, and
#     enforce frame caps.
#   - malleability (ars-apps `malleable_e2e`, ars-mpisim `redist_props`):
#     expand/shrink/back-to-back e2e commits, refusal and rollback paths,
#     block-cyclic redistribution proptests (bit-for-bit k→k'→k round-trips).
#   - registry fault zero-cost gate (`chaos`): an armed-but-idle registry
#     fault engine (plan present, nothing fires) must leave tree traces
#     byte-identical.
#   - observability equivalence (`chaos`): a chaos run with an enabled
#     observability session must produce a byte-identical kernel trace to
#     the same run without one (same discipline as the fault-layer
#     equivalence test).
#   - the chaos suite at its default seeds; the steps below widen the matrix.
cargo test --release --workspace -q

echo "== checkpoint codec matrix =="
# Widens the checkpoint codec round-trip, checksum-detection and byte-level
# reader fuzz properties past the default-case pass above.
PROPTEST_CASES=2000 cargo test --release -q -p ars-hpcm --test properties

echo "== wire codec matrix =="
# Widens the XML codec round-trip (codec_fidelity), the pull decoder's
# differential against the reference tree-walking decoder (golden corpus,
# arbitrary messages, byte-edited documents of every variant) and the
# byte-level FrameReader fuzz past the default-case pass above.
PROPTEST_CASES=2000 cargo test --release -q -p ars-xmlwire

echo "== event queue model check =="
# Widens the queue-vs-reference-map property (random push / pop / peek /
# cancel interleavings, stale cancels of recycled slots, bounded slot table)
# past the default-case pass above.
PROPTEST_CASES=2000 cargo test --release -q -p ars-simcore --test properties

echo "== wire smoke (256 conns per codec) =="
# One small live-registry load cell per codec: asserts liveness and sane
# latency-sample counts, not codec ordering (CI boxes cannot promise
# stable relative timings).
timeout 120 ./target/release/bench_wire --smoke

echo "== chaos matrix =="
# Widens the seeded fault-schedule matrix past the default-seed pass above.
# Every schedule must terminate with each app completed or lost-with-cause,
# and must replay bit-identically.
ARS_CHAOS_SEEDS="3,5,11,12,13,17,23,42" \
    cargo test --release -q --test chaos -- chaos_liveness_over_the_seed_matrix

echo "== registry chaos (tree mode) =="
# Registry fault tolerance: a depth-3 tree with one mid-registry crashed
# per seed must complete every app (re-parenting + escalation deadlines)
# and replay bit-identically. Small seed matrix to stay inside the wall
# budget — the default-seed pass already ran with the workspace tests.
ARS_CHAOS_SEEDS="5,11,42" timeout 300 \
    cargo test --release -q --test chaos -- \
    tree_chaos_mid_registry_crash_keeps_all_apps_completing

echo "== malleability smoke =="
# The full overload scenario with its three gates (replay determinism,
# inert-config byte-identity, malleable arm strictly better on throughput
# AND turnaround).
timeout 180 ./target/release/bench_malleable --smoke

echo "== reconfiguration chaos (mid-expand crashes) =="
# A joiner host crashed at seeded pre-commit times must always roll the
# world back (old size, old epoch, exact digests) and replay
# bit-identically. Wider matrix than the default workspace pass.
ARS_CHAOS_SEEDS="3,5,11,12,13,17,23,42" timeout 300 \
    cargo test --release -q --test chaos -- \
    expand_crash_rolls_back_to_the_old_world_over_the_seed_matrix

echo "== scale smoke (N = 4096, hierarchical + sharded) =="
# The two scaling paths at 4096 simulated hosts must finish inside the
# wall budget and still migrate; catches superlinear regressions in the
# kernel hot path long before the full bench matrix would.
timeout 180 ./target/release/bench_scale --smoke

echo "== performance ledger (benchmark/) =="
# benchmark/ is a workspace of its own, so nothing above compiles it: build
# and test it against the current layer APIs, then run every workload at
# CI size (checks and output shape only, no timing claims).
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
timeout 120 bash benchmark/run.sh --quick
# A change to the dependency list of any crate the ledger path-depends on
# rewrites benchmark/Cargo.lock, which a gain-claiming PR may not commit.
git diff --exit-code -- benchmark/Cargo.lock BENCHMARK.json

echo "== ledger identity (DES workloads at seed 11) =="
# sim.events and sim.trace_fnv64 of flat_hb / tree_hb / reconfig_storm must
# equal the values pinned in scripts/ledger_identity.txt: a change to the
# simulation's arithmetic or event order shows here, and re-pins knowingly.
timeout 300 scripts/ledger_identity.sh

echo "== allocation lints (sim crates, checkpoint path) =="
# The kernel hot path is allocation-free by construction, and a checkpoint
# is sealed in place, never copied; deny the two lints that catch
# clones/to_owned creeping back into either.
cargo clippy -p ars-sim -p ars-simcore -p ars-simnet -p ars-simhost -p ars-rescheduler \
    -p ars-hpcm --all-targets -- -D warnings -D clippy::unnecessary_to_owned -D clippy::redundant_clone

echo "== rustfmt =="
# Vendored crates (vendor/*) keep their upstream formatting, so list our
# packages explicitly instead of using --all.
fmt_packages=(-p ars)
for manifest in crates/*/Cargo.toml; do
    fmt_packages+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)")
done
cargo fmt "${fmt_packages[@]}" -- --check

echo "== clippy =="
cargo clippy --workspace --exclude proptest --exclude criterion --all-targets -- -D warnings

echo "ci: all green"
