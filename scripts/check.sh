#!/usr/bin/env bash
# Tier-1+ gate for the repo: formatting, vet, build, reachability,
# race-enabled tests, one run of each example, the
# durability/shard/suppression/region/service CLI smokes, the service
# soak, the benchmark module's own tests and a short run of the
# performance ledger (benchmark/run.sh) with its correctness checks
# armed. Numbers are not compared here: the ledger run on parent and
# change is what judges performance (benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# The service smoke runs a daemon in the background; whatever step fails
# after it starts, kill it and remove what the smokes put in /tmp.
serve_pid=""
tmp_paths=()
cleanup() {
    if [[ -n "$serve_pid" ]]; then
        kill "$serve_pid" 2> /dev/null || true
        wait "$serve_pid" 2> /dev/null || true
    fi
    if (( ${#tmp_paths[@]} )); then
        rm -rf "${tmp_paths[@]}"
    fi
}
trap cleanup EXIT

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> reachability (every internal package is imported by a binary, an example or the benchmark)"
unreached=$(comm -23 <(go list ./internal/... | sort) \
    <({ go list -deps ./cmd/... ./examples/...; (cd benchmark && go list -deps ./...); } | sort -u))
if [[ -n "$unreached" ]]; then
    echo "packages only their own tests reach:" >&2
    echo "$unreached" >&2
    exit 1
fi

echo "==> go test -race"
# The figure smokes in internal/bench outlast go test's 10-minute default
# under the race detector on a two-core box.
go test -race -timeout 45m ./...

echo "==> runtime and planner benchmarks (1 iteration, with allocation stats)"
go test -run '^$' -bench 'BenchmarkRuntime' -benchtime 1x -benchmem .
# At -cpu 1 and 2, so both the sequential and the windowed search run.
go test -run '^$' -bench 'BenchmarkPlan|BenchmarkReplanChurn' -benchtime 1x -cpu 1,2 .
# The read path's and the stream's sizing benchmarks (delta reads
# beside an unpaced backend; one SSE subscriber reading every round of
# one), run once so they cannot rot.
go test -run '^$' -bench 'BenchmarkLatestBesideRounds|BenchmarkStreamRound' -benchtime 1x ./internal/serve

echo "==> stream, round barrier and TCP mailbox hand-off under -race, repeated"
go test -race -count=10 -run 'Stream|Broker|Gap|Flush|Mailbox' ./internal/serve ./internal/transport

echo "==> planner beside the round loop, replan-sequence golden, set-aside plans, plan determinism and lone-vs-sharded scoring under -race, repeated"
# A SetTasks during an outage carries the set-aside plan forward in
# Propose, unlocked, beside the rounds (the Aside tests).
go test -race -count=10 -run 'Replan|Parked|Drain|Readers|Aside' ./internal/serve ./internal/adapt .
# The guided search evaluates its ranked candidates in windows of one
# per worker, and successive windows share one evaluation cache: a
# window that adopted out of rank order, or a cache race between
# windows, would show as a flaky plan or replan sequence across worker
# counts. About 80 s on two cores.
go test -race -count=10 \
    -run 'ParallelPlanner|ParallelEvaluations|EvalCacheConcurrentHammer|ParallelReplanChurn' \
    ./internal/core
# The ledger-shape plans golden (boot plan and the first ops of a SetTasks
# script on the four ledger shapes, at 1 and 2 workers) pins the tree
# builder's shortcuts and the shared memo trees. About 2 minutes for
# the six runs under -race on two cores.
go test -race -short -count=3 -cpu 1,2 -run 'LedgerPlansGolden' ./internal/core
# The tier routes pairs through maps: a map-order leak into a shard's
# score would show as a flaky lone-vs-sharded mismatch, and — the
# dispatcher runs every round of a lone collector too — as a flaky
# shard counter across a lone collector's crash. The two largest
# fault-free cases (larger, fig6a-small: about 27 s and 7 s a run under
# -race on two cores) run once in the full -race pass above, not here.
# A cold resume walks the recovered dead set (a map) for every shard
# count, so a map-order leak there would show as a flaky reintegration.
go test -race -count=10 \
    -run 'LocalWeightDeterministic|PlanDeterministicUnderFrequencies|LoneCollectorCrashCounters|ColdResumeRestoresDeadSet|ShardedMatchesSingleCollector/^(ample|tight|very-tight|aggregated|one-node-trees)$' \
    ./internal/task ./internal/core ./internal/cluster .

echo "==> installs, fences, parked-frame conservation and mailbox order under -race, repeated"
# Each tree's runtime record (epoch, accountable shard) is written
# between rounds — by installs, dispatcher moves and resumes — and read
# by every pool worker inside the round phases; a write that leaked
# into a phase would show here as a race or a flaky fence count. A
# drained mailbox's order of equal-key frames (a parked backlog, a
# delayed frame beside a fresh one) must not follow the send phase's
# schedule, which would show as a flaky MailboxOrderDeterministic. About
# 40 s on two cores once the -race build above is cached.
go test -race -count=10 \
    -run 'EngineEquivalenceAcrossInstall|InstallFencesEveryTreeInFlight|ShardSwapFencesStaleFrames|SuppressionSurvivesInstall|InstallPruneConservesParkedFrames|MailboxOrderDeterministic' \
    ./internal/cluster

echo "==> examples (each runs to completion)"
for example in examples/*/; do
    go run "./$example" > /dev/null
done

echo "==> verification harness (plan + repairs + results cross-checked)"
go run ./cmd/remo-sim -nodes 40 -tasks 20 -rounds 12 -chaos 0.15 -suspicion 2 -verify > /dev/null
go run ./cmd/remo-sim -nodes 30 -tasks 15 -rounds 10 -verify > /dev/null

echo "==> durability smoke (collector crash + journal resume, verified)"
journal_dir=$(mktemp -d)
tmp_paths+=("$journal_dir")
go run ./cmd/remo-sim -nodes 30 -tasks 15 -rounds 24 \
    -journal "$journal_dir" -chaos-collector 8 -verify > /dev/null

echo "==> sharding chaos smoke (shard crash + orphan re-dispatch, verified, one journal)"
journal_dir=$(mktemp -d)
tmp_paths+=("$journal_dir")
go run ./cmd/remo-sim -nodes 30 -tasks 15 -rounds 24 -seed 7 -shards 4 \
    -journal "$journal_dir" -chaos-shard 0 -verify > /dev/null
# A session keeps one journal whatever its shard count.
if compgen -G "$journal_dir/shard-*" > /dev/null; then
    echo "sharded session wrote per-shard journals:" >&2
    ls "$journal_dir" >&2
    exit 1
fi

echo "==> suppression smoke (forecast suppression under loss, verified, under -race)"
go run -race ./cmd/remo-sim -nodes 30 -tasks 15 -rounds 24 -seed 5 \
    -predict -chaos-drop 0.1 -verify > /dev/null

echo "==> region chaos smoke (region partition + re-homing, verified, under -race)"
region_out=$(go run -race ./cmd/remo-sim -nodes 30 -attrs 6 -tasks 15 -rounds 24 -seed 7 \
    -regions 3 -chaos-region 1 -suspicion 2 -verify)
if ! echo "$region_out" | grep -q "repair:"; then
    echo "region-loss run produced no repair events:" >&2
    echo "$region_out" >&2
    exit 1
fi
if ! echo "$region_out" | grep -q "coverage floor 90% held"; then
    echo "region-loss run did not hold the surviving-region floor:" >&2
    echo "$region_out" >&2
    exit 1
fi

echo "==> service soak (60s churn + streams + collector crash, leak-checked, under -race)"
REMO_SOAK_SECONDS=60 go test -race -count=1 -run 'TestServiceSoak' .

echo "==> service smoke (reads answer while a round is parked; remo-serve boot, admit, read, SIGTERM drain)"
go test -count=1 -run 'TestReadsAnswerWhileRoundParked' ./internal/serve
tmp_paths+=(/tmp/remo-serve-smoke)
go build -o /tmp/remo-serve-smoke ./cmd/remo-serve
journal_dir=$(mktemp -d)
serve_log=$(mktemp)
tmp_paths+=("$journal_dir" "$serve_log")
/tmp/remo-serve-smoke -addr 127.0.0.1:0 -journal "$journal_dir" -verify > "$serve_log" &
serve_pid=$!
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$serve_log")
    [[ -n "$base" ]] && break
    sleep 0.1
done
if [[ -z "$base" ]]; then
    echo "remo-serve did not come up:" >&2
    cat "$serve_log" >&2
    exit 1
fi
curl -fsS "$base/healthz" > /dev/null
op=$(curl -fsS -X POST -d '{"name":"smoke","attrs":[1],"nodes":[1,2]}' "$base/v1/tasks" \
    | sed -n 's|.*"id": "\([^"]*\)".*|\1|p')
status=""
for _ in $(seq 1 100); do
    status=$(curl -fsS "$base/v1/operations/$op" | sed -n 's|.*"status": "\([^"]*\)".*|\1|p')
    [[ "$status" == succeeded || "$status" == failed ]] && break
    sleep 0.1
done
if [[ "$status" != succeeded ]]; then
    echo "admission $op ended as '$status', want succeeded" >&2
    exit 1
fi
latest=$(curl -fsS "$base/v1/latest")
if ! grep -q '"value":' <<< "$latest"; then
    echo "/v1/latest holds no collected value:" >&2
    echo "$latest" >&2
    exit 1
fi
metrics=$(curl -fsS "$base/metrics")
if ! grep -qx 'remo_verify_failures_total 0' <<< "$metrics"; then
    echo "live verification failed:" >&2
    grep remo_verify <<< "$metrics" >&2
    exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
if ! grep -q "drained: session journaled" "$serve_log"; then
    echo "remo-serve did not drain cleanly:" >&2
    cat "$serve_log" >&2
    exit 1
fi

echo "==> benchmark module (vet + short tests)"
(cd benchmark && go vet ./... && go test -short ./...)

echo "==> ledger smoke (every workload, 5 s window, correctness checks armed)"
# The driver exits 0 when an all-workload run is INVALID, so read its
# classification lines. SUSPECT lines are expected here: too few ops
# finish in 5 s for the op metrics, and no number is read from this run.
ledger_out=$(bash benchmark/run.sh --seed 1 --seconds 5)
if echo "$ledger_out" | grep ' INVALID '; then
    echo "ledger smoke produced wrong outputs" >&2
    exit 1
fi

echo "==> fuzz smoke (FuzzDecode, 10s)"
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/transport

echo "==> coverage gate"
# Floor set 2 points under the last measured total (87.4%; 86.1% when
# the gate was added); raise it as coverage grows, never lower it to
# pass.
COVER_FLOOR=85.4
tmp_paths+=(/tmp/remo-cover.out)
go test -count=1 -coverprofile=/tmp/remo-cover.out ./... > /dev/null
total=$(go tool cover -func=/tmp/remo-cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "    total coverage: ${total}% (floor ${COVER_FLOOR}%)"
# The size figure every simplicity PR quotes; printed, never gated.
lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1 | awk '{print $1}')
echo "    non-test Go lines outside benchmark/: ${lines}"
awk -v t="$total" -v f="$COVER_FLOOR" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "coverage ${total}% fell below the ${COVER_FLOOR}% floor" >&2
    exit 1
}

echo "OK"
