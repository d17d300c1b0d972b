#!/bin/sh
# Tier-1 gate: build + run the full test suite three times — the regular
# RelWithDebInfo build (plus the sharded-engine scaling smoke and the
# benchmark's smoke pass), an ASan+UBSan instrumented build
# (-DDOXLAB_SANITIZE=ON), and a TSan build (-DDOXLAB_TSAN=ON) that re-runs
# the cross-thread tests and a sharded engine smoke under the race
# detector. All must be green.
#
# Usage: tools/check.sh [jobs]   (from the repository root)
set -eu

jobs=${1:-$(nproc 2>/dev/null || echo 4)}
root=$(cd "$(dirname "$0")/.." && pwd)

echo "== regular build (${root}/build) =="
cmake -B "$root/build" -S "$root" >/dev/null
cmake --build "$root/build" -j "$jobs"
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"
echo "== sharded engine scaling smoke =="
"$root/build/bench/engine_scale" --smoke
echo "== tiered cache / warm-restart smoke =="
"$root/build/bench/cache_tiers" --smoke
echo "== adverse-path smoke (fairness + RFC 9002 recovery) =="
"$root/build/bench/adverse_path" --smoke
"$root/build/tools/doxperf" adverse --smoke >/dev/null
echo "== benchmark smoke (doxbench, built into ${root}/.bench_build) =="
# doxbench builds its own copy of the library and reads the engine's stats.
python3 "$root/doxbench/run.py" --smoke

echo "== sanitizer build (${root}/build-sanitize, ASan+UBSan) =="
cmake -B "$root/build-sanitize" -S "$root" -DDOXLAB_SANITIZE=ON >/dev/null
cmake --build "$root/build-sanitize" -j "$jobs"
ctest --test-dir "$root/build-sanitize" --output-on-failure -j "$jobs"
# Snapshot-tier warm start under ASan: the second run replays the log the
# first one wrote (append + replay + compaction paths), then a two-shard
# churn campaign with a mid-run restart exercises the two-world teardown.
snapdir=$(mktemp -d)
trap 'rm -rf "$snapdir"' EXIT
"$root/build-sanitize/tools/doxperf" engine --shards=2 --clients=2000 \
      --qps=2000 --seconds=2 --snapshot-dir="$snapdir" >/dev/null
"$root/build-sanitize/tools/doxperf" engine --shards=2 --clients=2000 \
      --qps=2000 --seconds=2 --snapshot-dir="$snapdir" --l2-stale >/dev/null
"$root/build-sanitize/tools/doxperf" churn --smoke --shards=2 \
      --restart-at=4 --snapshot-dir="$snapdir/churn" >/dev/null
# Scan-vs-decode parity fuzz (fixed iterations) under ASan/UBSan: the
# validating scan reads every stub query and every answer the swarm gets.
"$root/build-sanitize/tests/scan_fuzz_test" --gtest_brief=1
# A hot four-shard run at the benchmark's rate with a restart: streamed
# schedule fills, recycled arrival runs, the deadline FIFO, composed
# queries and both worlds' merges under ASan/UBSan.
"$root/build-sanitize/tools/doxperf" engine --shards=4 --qps=50000 \
      --seconds=3 --restart-at=2 >/dev/null

echo "== race-detector build (${root}/build-tsan, TSan) =="
cmake -B "$root/build-tsan" -S "$root" -DDOXLAB_TSAN=ON >/dev/null
# Fail loudly if the build dir is stale (configured without the TSan
# flag, e.g. created by hand): running uninstrumented binaries here would
# silently pass the race stage without detecting anything.
if ! grep -q '^DOXLAB_TSAN:BOOL=ON' "$root/build-tsan/CMakeCache.txt"; then
  echo "ERROR: $root/build-tsan is not a TSan build" \
       "(DOXLAB_TSAN is not ON in CMakeCache.txt) — delete it and rerun" >&2
  exit 1
fi
cmake --build "$root/build-tsan" -j "$jobs" --target \
      util_test packet_cache_test sharded_engine_test runner_test doxperf
for bin in tests/util_test tests/packet_cache_test \
           tests/sharded_engine_test tests/runner_test tools/doxperf; do
  if [ ! -x "$root/build-tsan/$bin" ]; then
    echo "ERROR: expected TSan binary $root/build-tsan/$bin is missing" >&2
    exit 1
  fi
done
"$root/build-tsan/tests/util_test" --gtest_filter='Buffer*:BufferPool*'
"$root/build-tsan/tests/packet_cache_test"
"$root/build-tsan/tests/sharded_engine_test"
"$root/build-tsan/tests/runner_test"
"$root/build-tsan/tools/doxperf" engine --shards=4 --clients=5000 \
      --qps=3000 --seconds=2 >/dev/null
"$root/build-tsan/tools/doxperf" engine --shards=4 --clients=5000 \
      --qps=3000 --seconds=2 --batch-us=200 >/dev/null
# Finite-rate bottleneck on every shard host: exercises the link-layer
# queue/loss path under the race detector.
"$root/build-tsan/tools/doxperf" engine --shards=4 --clients=5000 \
      --qps=3000 --seconds=2 --bottleneck-mbps=20 >/dev/null
# Snapshot tier + stale-L2 serving across 4 shards under TSan: per-shard
# snapshot files must never be touched cross-thread, and stale retention
# changes the sweep/lookup interleaving.
"$root/build-tsan/tools/doxperf" engine --shards=4 --clients=5000 \
      --qps=3000 --seconds=2 --snapshot-dir="$snapdir/tsan" \
      --l2-stale >/dev/null
# Attack mixes and churn (events, restart, series) across 4 shards: attack
# sockets, per-shard churn events and the rebuilt worlds of a restart.
"$root/build-tsan/tools/doxperf" abuse --smoke --shards=4 >/dev/null
"$root/build-tsan/tools/doxperf" churn --smoke --shards=4 --restart-at=4 \
      --snapshot-dir="$snapdir/tsan-churn" >/dev/null

echo "== all checks passed =="
