#!/usr/bin/env bash
# Release-mode end-to-end smoke: the grw_serve daemon over a real TCP
# socket, the sharded out-of-core path, and the gated perf benches
# (the hardware-sensitive speedup gates last).
#
# Usage: tools/smoke.sh [BUILD_DIR]     (default: build)
#
# BUILD_DIR must hold a Release build (-DCMAKE_BUILD_TYPE=Release) of:
#   format_test loader_error_test access_test crawl_engine_test
#   conformance_test adjacency_test walk_test serve_test flags_test grw_cli
#   grw_serve bench_loader
#   bench_micro_hasedge bench_access bench_serve bench_sharded
# Every step runs inside BUILD_DIR and leaves its files there; the bench
# --json outputs (bench_*.json, BENCH_SHARDED.json) are the perf
# trajectory. Exits non-zero on the first failed step or gate.

set -euo pipefail
cd "${1:-build}"

step() { printf '\n=== %s\n' "$*"; }

step "Release-mode access/snapshot/adjacency/walk tests and the identity matrix"
./format_test
./loader_error_test
./access_test
./crawl_engine_test
./conformance_test
./adjacency_test
./walk_test

step "Convert + crawl workflow smoke"
./grw_cli generate hk --n 20000 --param 4 --out smoke.edges
./grw_cli convert smoke.edges smoke.grwb --relabel-degree
./grw_cli info smoke.grwb
./grw_cli estimate smoke.grwb --k 4 --steps 50000 --quiet
./grw_cli estimate smoke.grwb --k 4 --budget-queries 5000 \
  --cache-size 4096 --latency-us 100 --chains 2 --max-steps 200000
# Each pool thread steps its block of ceil(chains / threads) chains as
# one interleaved group: with at least 4 hardware threads, 7 chains run
# in blocks of 7, 3 and 2 here, and must give the same bytes.
for t in 1 3 4; do
  ./grw_cli estimate smoke.grwb --k 4 --steps 50000 --chains 7 \
    --threads "$t" --quiet --raw > "group$t.txt"
done
diff group1.txt group3.txt
diff group1.txt group4.txt
# The same for the G(d) walk's rejection move: d = 3 plain and
# non-backtracking, d = 4, and SRW3CSS (the CSS table's counted G(3)
# state degrees), each in memory and through a 256-list crawl cache.
walks=("--k 4 --d 3" "--k 4 --d 3 --nb 1" "--k 5 --d 4" "--k 5 --d 3 --css 1")
for w in "${!walks[@]}"; do
  for c in 0 1; do
    access=""
    [ "$c" = 1 ] && access="--crawl --cache-size 256"
    for t in 1 3 4; do
      # shellcheck disable=SC2086
      ./grw_cli estimate smoke.grwb ${walks[$w]} $access --steps 50000 \
        --chains 7 --threads "$t" --quiet --raw > "group_w${w}_c${c}_$t.txt"
    done
    diff "group_w${w}_c${c}_1.txt" "group_w${w}_c${c}_3.txt"
    diff "group_w${w}_c${c}_1.txt" "group_w${w}_c${c}_4.txt"
  done
done

step "Access bench (gated on bit-identical estimates)"
./bench_access --check-identical --json bench_access.json

step "Serve bench (gated on bit-identical responses)"
# In-process server + concurrent clients; --check-identical fails unless
# every served response matches a direct engine run byte for byte.
# QPS/p50/p99 land in the perf trajectory.
./bench_serve --clients 1,4,8 --requests 24 \
  --check-identical --json bench_serve.json

step "Release-mode serve + flags tests"
./serve_test
./flags_test

step "Daemon smoke (query parity, malformed input, SIGTERM drain)"
./grw_cli generate hk --n 5000 --param 4 --out smoke.edges
./grw_cli convert smoke.edges smoke.grwb
# One worker and no waiting room: the queries below are sequential, so
# every one of them must still be admitted and answered.
./grw_serve --port 0 --workers 1 --queue 0 fixture=smoke.grwb \
  > serve.log 2>serve.err &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
PORT=""
for i in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' serve.log)
  [ -n "$PORT" ] && break
  sleep 0.2
done
test -n "$PORT" || { cat serve.err; exit 1; }

# Served estimates must be byte-identical to local CLI runs.
./grw_cli estimate smoke.grwb --k 4 --steps 50000 --chains 2 \
  --quiet --raw > local.txt
./grw_cli query fixture --port "$PORT" --k 4 --steps 50000 \
  --chains 2 --raw > served.txt
diff local.txt served.txt

# Every access type runs the same walk: a crawl with an unbounded cache
# must match the plain run.
./grw_cli estimate smoke.grwb --k 4 --steps 50000 --chains 2 \
  --quiet --raw --crawl --cache-size 0 > crawl.txt
diff local.txt crawl.txt
# The same at d = 3 (PSRW: the G(d) walk's rejection move), through a
# 256-list cache: about 5% of the graph, so the crawl evicts and refetches.
./grw_cli estimate smoke.grwb --k 4 --d 3 --steps 50000 --chains 2 \
  --quiet --raw > local3.txt
./grw_cli estimate smoke.grwb --k 4 --d 3 --steps 50000 --chains 2 \
  --quiet --raw --crawl --cache-size 256 > crawl3.txt
diff local3.txt crawl3.txt
# Each chain crawls through its own cache, so the merged crawl cost must
# not depend on how chains are spread over threads: at d = 3 and at
# k = 5, d = 4.
for w in "--k 4 --d 3" "--k 5 --d 4"; do
  for t in 1 4; do
    # shellcheck disable=SC2086
    ./grw_cli estimate smoke.grwb $w --steps 50000 --chains 2 \
      --crawl --cache-size 256 --threads "$t" 2> "crawl_cost$t.err" \
      | grep '^crawl cost:' > "crawl_cost$t.txt"
  done
  diff crawl_cost1.txt crawl_cost4.txt
done
# And at k = 3 (d = 1, where the window takes the edge the walk stepped
# along instead of probing it), through the same 256-list cache.
./grw_cli estimate smoke.grwb --k 3 --steps 50000 --chains 2 \
  --quiet --raw > local_k3.txt
./grw_cli estimate smoke.grwb --k 3 --steps 50000 --chains 2 \
  --quiet --raw --crawl --cache-size 256 > crawl_k3.txt
diff local_k3.txt crawl_k3.txt

# Malformed requests: error response (client exits 1), daemon stays
# healthy.
if ./grw_cli query fixture --port "$PORT" \
    --send 'ESTIMATE graph=fixture k=banana'; then
  echo "malformed request unexpectedly succeeded"; exit 1
fi
./grw_cli query fixture --port "$PORT" --send PING
./grw_cli query fixture --port "$PORT" --send LIST

# Graceful drain: SIGTERM -> exit 0 + drain report.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
grep "drained" serve.log

step "Out-of-core estimate is bit-identical unbounded and under a budget"
./grw_cli generate hk --n 200000 --param 5 --out big.edges
./grw_cli convert big.edges big.grwb
./grw_cli shard big.grwb big.shards --shards 8
./grw_cli info big.shards --verify

./grw_cli estimate big.grwb --k 4 --steps 50000 --chains 4 \
  --quiet --raw > mono.txt
# ~10 MiB of shards on a bounded store: each chain reads through its own
# fixed-size list cache, which must evict to make progress, and the
# estimate must not move.
./grw_cli estimate big.shards --resident-budget-mb 2 \
  --k 4 --steps 50000 --chains 4 --quiet --raw > sharded.txt
diff mono.txt sharded.txt
# The same at d = 3.
./grw_cli estimate big.grwb --k 4 --d 3 --steps 50000 --chains 4 \
  --quiet --raw > mono3.txt
./grw_cli estimate big.shards --resident-budget-mb 2 \
  --k 4 --d 3 --steps 50000 --chains 4 --quiet --raw > sharded3.txt
diff mono3.txt sharded3.txt
# And at k = 3 (d = 1).
./grw_cli estimate big.grwb --k 3 --steps 50000 --chains 4 \
  --quiet --raw > mono_k3.txt
./grw_cli estimate big.shards --resident-budget-mb 2 \
  --k 3 --steps 50000 --chains 4 --quiet --raw > sharded_k3.txt
diff mono_k3.txt sharded_k3.txt
# With no budget the shards are copied into one in-memory graph at open:
# the same estimates, and no shard store, so no shard-read report.
./grw_cli estimate big.shards \
  --k 4 --steps 50000 --chains 4 --quiet --raw > unbounded.txt
diff mono.txt unbounded.txt
./grw_cli estimate big.shards \
  --k 4 --d 3 --steps 50000 --chains 4 --quiet --raw > unbounded3.txt
diff mono3.txt unbounded3.txt
./grw_cli estimate big.shards --k 4 --steps 50000 --chains 4 2> /dev/null \
  > unbounded_report.txt
if grep '^shard reads:' unbounded_report.txt; then
  echo "an unbounded sharded estimate must print no shard-read report"; exit 1
fi
# The copy serves the commands that need the whole graph resident.
./grw_cli exact big.grwb --k 3 > exact_mono.txt
./grw_cli exact big.shards --k 3 > exact_sharded.txt
diff <(sed 1d exact_mono.txt) <(sed 1d exact_sharded.txt)
# A crawl cache in front of the evicting shard readers: a 256-list cache
# evicts and refetches, and neither layer may move the estimate.
./grw_cli estimate big.shards --resident-budget-mb 2 --crawl --cache-size 256 \
  --k 4 --steps 50000 --chains 4 --quiet --raw > sharded_crawl.txt
diff mono.txt sharded_crawl.txt
./grw_cli estimate big.shards --resident-budget-mb 2 --crawl --cache-size 256 \
  --k 4 --d 3 --steps 50000 --chains 4 --quiet --raw > sharded_crawl3.txt
diff mono3.txt sharded_crawl3.txt
# 2^44 MiB would wrap to 0 bytes (= unbounded): both tools must refuse it.
if ./grw_cli estimate big.shards --resident-budget-mb 17592186044416 \
    --k 4 --quiet --raw; then
  echo "oversized --resident-budget-mb unexpectedly accepted"; exit 1
fi
if ! { timeout 10 ./grw_serve --port 0 --resident-budget-mb 17592186044416 \
    s=big.shards; [ $? -eq 2 ]; }; then
  echo "grw_serve must exit 2 on an oversized --resident-budget-mb"; exit 1
fi

step "bench_sharded identity gate, unbounded and across budget fractions"
./bench_sharded --n 8000 --steps 20000 --chains 8 \
  --check-identical --json BENCH_SHARDED.json

# The two speedup gates depend on the hardware (the HasEdge one can fail
# on small VMs), so they run last: every identity step above has run
# whichever way they go, and a failed gate still fails the script.
# The loader gate: the snapshot checksum kernel >= 2x its byte loop on a
# CPU that runs it ("bytewise only" passes elsewhere).
step "Loader bench (gated)"
./bench_loader --check-checksum-speedup 2 --json bench_loader.json

step "HasEdge + walk bench (gated)"
./bench_micro_hasedge --check-speedup 2 --check-walk-speedup 1.3 \
  --json bench_hasedge.json
