#!/usr/bin/env bash
# The one command of the performance ledger (see README.md).
#
#   benchmark/run.sh [--seed N]                 every workload, end to end
#   benchmark/run.sh --traced                   ... plus the per-layer run
#   benchmark/run.sh --selfcheck | --spread     repeatability checks
#   benchmark/run.sh --quick                    small sizes, for CI
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one run (BENCHMARK.json's command)
#
# Builds the stand-alone crate next to this script (offline, release) and
# runs it. CARGO_TARGET_DIR is honoured; the root workspace is not touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# 1000 generator sockets + 1000 registry sockets live in one process.
ulimit -n 4096 2>/dev/null || true

exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"
