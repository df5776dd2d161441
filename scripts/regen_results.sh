#!/usr/bin/env bash
# Regenerates every experiment artifact under results/.
#
# One `experiments` run executes the whole experiment registry
# (crates/bench/src/experiments.rs): the tables and figures, the cycle
# breakdown and per-FASE waterfalls, the static lint, the crash fuzzer
# and the exhaustive litmus model check, fanning each grid out across
# host cores via the sweep harness in crates/bench/src/sweep.rs; output
# is byte-identical to a serial run. It exits 1 — after writing every
# file — when any experiment's checks fail, printing each failure with
# a one-line reproducer. Knobs:
#
#   PMEMSPEC_JOBS=N    worker threads (default: all cores)
#   PMEMSPEC_SMOKE=1   reduced grid (2 cores, 1 seed, 25 FASEs) — fast
#                      sanity pass, NOT the checked-in numbers
#
# Wall time on a 2-core host: ~85 s (fig10 ~62 s of it, every other
# experiment under 9 s); ~150 s with --serial (fig10 ~113 s). More cores
# divide it further. Pass --serial to reproduce the single-threaded run
# exactly.
#
# `experiments` prints one `== name: N.NNNs, VmHWM N kB` line per
# experiment (the peak RSS so far) so suite-cost regressions show up in
# CI logs per step instead of hiding inside one opaque total.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --workspace
mkdir -p results

now_ms() { date +%s%3N; }
suite_start=$(now_ms)
./target/release/experiments --out results "$@" > /dev/null
if command -v python3 >/dev/null; then
    python3 scripts/render_figures.py
fi
ms=$(($(now_ms) - suite_start))
printf '== total: %d.%03ds\n' $((ms / 1000)) $((ms % 1000))
echo "done — see results/"
