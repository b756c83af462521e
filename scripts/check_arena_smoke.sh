#!/usr/bin/env bash
# Arena smoke check: the scratch-arena hot path, end to end. Runs the
# alloc_bench drills — the modeled >=1.2x speedup gate, the measured
# pooled-vs-fresh A/B (bit-identity asserted in-binary), the steady-state
# zero-heap-allocation drill, and the 256-byte exhaustion drill — under
# full tracing, and asserts the exact `arena.*` lease-accounting counters.
# The drills are single-threaded and structural, so every count below is
# deterministic in --quick mode; any change to the lease discipline (a new
# scratch buffer, a lost reuse, a fallback where none belongs) moves one of
# them and fails here. Finishes with a results-drift diff of the committed
# results/arena_speedup.txt.
#
# Usage: scripts/check_arena_smoke.sh
#   Runs under WD_TRACE=full; exits nonzero on any missing signal, wrong
#   count, or artifact drift.
set -euo pipefail

# shellcheck source=scripts/lib.sh
. "$(dirname "$0")/lib.sh"

log=/tmp/wd_arena_smoke.log      # stdout: the artifact-shaped report
trace=/tmp/wd_arena_smoke.trace  # stderr: the wd-trace summary

if ! WD_TRACE=full \
    cargo run --release -q -p wd-bench --bin alloc_bench -- --quick \
    >"$log" 2>"$trace"; then
    echo "FAIL alloc_bench exited nonzero:" >&2
    cat "$log" "$trace" >&2
    exit 1
fi

# The run's own end-state assertions (including the >=1.2x modeled-speedup
# gate and both bit-identity checks) all passed.
wd_need "^PASS:" "alloc_bench PASS line" "$log"
wd_need "steady-state heap allocations per op: 0" \
    "steady-state zero-alloc line" "$log"
wd_need "output bit-identical to keyswitch_unpooled" \
    "exhaustion bit-identity line" "$log"

# Exact lease accounting for the whole quick run (single-threaded,
# structural, host-independent). lease = reuse + fresh + fallback + bypass.
# Each base conversion leases two slabs, a y slab of |from|·min(N, 1024)
# words and a v slab of min(N, 1024) words. All three arena-backed
# keyswitch warm-ups (measured A/B, HMULT batch, steady-state drill) run
# with |from| = 1 and N <= 1024, so both slabs are one limb wide: a warm-up
# parks two limb-sized conversion slabs, which ModDown then reuses.
wd_expect_eq "$(wd_counter arena.lease "$trace")" 3441 \
    "arena.lease (total scratch leases)"
wd_expect_eq "$(wd_counter arena.reuse "$trace")" 1871 \
    "arena.reuse (steady-state shelf hits)"
wd_expect_eq "$(wd_counter arena.fresh "$trace")" 51 \
    "arena.fresh (warm-up allocations parked on return)"
# Only the 256-byte exhaustion drill may overflow the retention cap. Its
# keyswitch makes 31 leases and every one is at least 64 words (512 B)
# wide at N=2^6, so all 31 fall back.
wd_expect_eq "$(wd_counter arena.fallback "$trace")" 31 \
    "arena.fallback (exhaustion drill only)"
# Only the disabled-arena half of the HMULT A/B bypasses the shelves.
wd_expect_eq "$(wd_counter arena.bypass "$trace")" 1488 \
    "arena.bypass (fresh-allocation reference path only)"

# Pooling must not move a single committed number: regenerate the artifact
# and diff it against the checked-in copy (measured lines ~HOST-masked).
if scripts/check_results_drift.sh arena_speedup; then
    echo "OK       results/arena_speedup.txt drift-free"
else
    echo "FAIL     results/arena_speedup.txt drifted" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo
    echo "arena smoke failed; report at $log, trace summary at $trace" >&2
fi
exit "$fail"
