#!/usr/bin/env bash
# Regenerates every experiment artifact under results/ (markdown + JSON).
#
# The binaries fan their simulation grids out across host cores via the
# sweep harness in crates/bench/src/sweep.rs; output is byte-identical
# to a serial run. Knobs:
#
#   PMEMSPEC_JOBS=N    worker threads per binary (default: all cores)
#   PMEMSPEC_SMOKE=1   reduced grid (2 cores, 1 seed, 25 FASEs) — fast
#                      sanity pass, NOT the checked-in numbers
#
# Wall time on a 2-core host: ~46 s (fig10 ~33 s of it, every other
# binary under 5 s); ~88 s with --serial (fig10 ~63 s). More cores
# divide it further. Pass --serial to reproduce the single-threaded run
# exactly.
#
# Every step prints its own wall time so suite-cost regressions show up
# in CI logs per binary instead of hiding inside one opaque total.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --workspace
mkdir -p results

now_ms() { date +%s%3N; }
# took <name> <start_ms>: prints "== name: N.NNNs".
took() {
    local ms=$(($(now_ms) - $2))
    printf '== %s: %d.%03ds\n' "$1" $((ms / 1000)) $((ms % 1000))
}

suite_start=$(now_ms)
for bin in table3 fig9 fig11 fig12 misspec ablation_detect ablation_checkpoint \
           extended multi_pmc characterize crashfuzz; do
    start=$(now_ms)
    ./target/release/$bin --json "$@" > "results/$bin.md"
    took "$bin" "$start"
done
start=$(now_ms)
./target/release/explain --out results --collapsed "$@" > /dev/null
took "explain (cycle-accounting breakdown)" "$start"
start=$(now_ms)
./target/release/waterfall --out results "$@" > /dev/null
took "waterfall (per-FASE span waterfalls)" "$start"
start=$(now_ms)
./target/release/lint --out results "$@" > /dev/null
took "lint (static persistency verifier)" "$start"
start=$(now_ms)
./target/release/fig10 --json "$@" > results/fig10.md
took "fig10 (16/32/64 cores)" "$start"
if command -v python3 >/dev/null; then
    python3 scripts/render_figures.py
fi
took "total" "$suite_start"
echo "done — see results/"
