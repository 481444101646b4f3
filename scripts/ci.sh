#!/usr/bin/env bash
# Offline CI for the tsvr workspace: release build, tests, lints, and a
# probes-compiled-out build. No network access is required — the
# workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> TSVR_THREADS=1 cargo test -q --workspace (forced-sequential runtime)"
TSVR_THREADS=1 cargo test -q --workspace

# The end-to-end benchmark is its own package outside the workspace;
# its smoke test builds it against the current crates and checks that
# every metric BENCHMARK.json names is emitted with a finite value, so
# an API change cannot silently break the benchmark.
echo "==> e2e benchmark smoke test"
cargo test --release --offline --manifest-path e2e-bench/Cargo.toml

# The crash-consistency sweep runs with the full workspace tests above;
# this rerun pins the fast-mode path (used for quick local iteration)
# so a regression in the env-var gate cannot slip through. Budget: <30s.
echo "==> crash-consistency suite (TSVR_CRASH_FAST=1)"
TSVR_CRASH_FAST=1 cargo test -q --test crash_consistency

# Sharded crash sweep: a crash at every op boundary of a cross-shard
# workload (torn tail on a rotating victim file, manifest included)
# must leave every shard independently recoverable. Fast mode thins the
# sweep to every 3rd crash point; the full sweep runs with the
# workspace tests above.
echo "==> sharded crash sweep (TSVR_CRASH_FAST=1)"
TSVR_CRASH_FAST=1 cargo test -q -p tsvr-viddb --test shard_crash

# Bench bins: each smoke-runs in fast mode inside a scratch directory,
# so it cannot clobber a committed full-mode report, and exits non-zero
# when its report does not pass. Every committed report must record a
# pass. The report envelope and its one pass rule are documented in
# crates/bench/src/harness.rs.
repo="$PWD"
for bin in parallel kernels index shard query scenarios obs_overhead; do
    echo "==> $bin bench smoke run (TSVR_BENCH_FAST=1)"
    (cd "$(mktemp -d)" && TSVR_BENCH_FAST=1 cargo run --release -q \
        --manifest-path "$repo/Cargo.toml" -p tsvr-bench --bin "$bin")
done
echo "==> committed bench reports pass"
for report in BENCH_*.json; do
    grep -q '"pass":true' "$report" || { echo "$report: no pass" >&2; exit 1; }
done

# Serve TCP smoke: a scripted NDJSON session over bash's /dev/tcp
# against a real `tsvr serve` process (slowlog retaining everything, so
# the ops plane has traces to serve), then a cross-process check that
# the checkpointed session is readable by the CLI replay path.
echo "==> serve TCP smoke (scripted NDJSON session over /dev/tcp)"
smoke="$(mktemp -d)"
./target/release/tsvr simulate --db "$smoke/smoke.db" \
    --scenario tunnel-small --seed 7 --clip-id 1 >/dev/null
port=$((20000 + RANDOM % 20000))
./target/release/tsvr serve --db "$smoke/smoke.db" \
    --addr "127.0.0.1:$port" --workers 2 \
    --slowlog-ms 0 --flight-dump "$smoke/flight.ndjson" \
    >"$smoke/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then break; fi
    sleep 0.2
done
exec 3<>"/dev/tcp/127.0.0.1/$port"
expect() { # expect <needle> — send stdin line, read one response, grep it
    local needle="$1" line
    read -r line <&3
    echo "   <- $line"
    last="$line"
    [[ "$line" == *"$needle"* ]] || {
        echo "serve smoke: expected '$needle' in response" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    }
}
send() { echo "   -> $1"; printf '%s\n' "$1" >&3; }
send '{"op":"ping"}';                                    expect '"ok":"pong"'
# Latency gate: 50 ping round trips against the real binary. A response
# that stalls on Nagle + delayed ACK costs ~44 ms (~2.2 s for all 50);
# one write per line with TCP_NODELAY costs well under 1 ms.
pings_start="$EPOCHREALTIME"
for _ in $(seq 1 50); do
    printf '%s\n' '{"op":"ping"}' >&3; expect '"ok":"pong"' >/dev/null
done
pings_ms=$(( (${EPOCHREALTIME//[.,]/} - ${pings_start//[.,]/}) / 1000 ))
echo "   50 ping round trips: ${pings_ms} ms"
(( pings_ms < 1000 )) || {
    echo "serve smoke: 50 ping round trips took ${pings_ms} ms (gate: < 1000 ms)" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
send '{"op":"open","clip_id":1,"query":"accident","learner":"ocsvm"}'
                                                         expect '"ok":"opened"'
send '{"op":"page","session_id":1,"n":5}';               expect '"ok":"page"'
send '{"op":"feedback","session_id":1,"labels":[[0,true],[1,false]]}'
                                                         expect '"ok":"learned"'
send '{"op":"page","session_id":1,"n":5}';               expect '"ok":"page"'
# The page served after the acked round, e.g. "6,8,9,15,10".
served_top="$(sed -n 's/.*"ranking":\[\([0-9,]*\)\].*/\1/p' <<<"$last")"
send '{"op":"page","session_id":99}';                    expect '"error":"not_found"'
# Query language over the wire: a planned query answers with a plan
# receipt; a typo'd event name is a typed error with a suggestion.
send '{"op":"query","expr":"vdiff >= 0.5","k":3}';       expect '"ok":"query"'
send '{"op":"query","expr":"event = acident"}';          expect '"error":"bad_request"'
# The remote CLI proxies through the server; the local CLI plans
# directly against the database. Same query, byte-identical output.
./target/release/tsvr query "vdiff >= 0.5" \
    --addr "127.0.0.1:$port" --top 3 | tee "$smoke/query_remote.out"
# Ops plane: live registry snapshot, latest trace tree, slowlog.
send '{"op":"stats"}';                                   expect '"ok":"stats"'
send '{"op":"trace"}';                                   expect '"ok":"trace"'
send '{"op":"trace","trace_id":999999999}';              expect '"error":"not_found"'
send '{"op":"slowlog"}';                                 expect '"ok":"slowlog"'
# The CLI subcommands are thin clients over the same three ops.
./target/release/tsvr stats --addr "127.0.0.1:$port" | grep -q 'serve.requests'
./target/release/tsvr trace --addr "127.0.0.1:$port" | grep -q 'serve.latency.'
./target/release/tsvr slowlog --addr "127.0.0.1:$port" | grep -q 'serve.latency.'
send '{"op":"shutdown"}';                                expect '"ok":"shutting_down"'
exec 3<&- 3>&-
wait "$serve_pid"
# The feedback round the TCP client saw acked must be durable and
# replayable from another process.
./target/release/tsvr session list --db "$smoke/smoke.db" | grep -q "MIL_OneClassSVM"
./target/release/tsvr session replay --db "$smoke/smoke.db" \
    --clip-id 1 --session 1 --top 5 | tee "$smoke/replay.out"
grep -q "1 rounds replayed" "$smoke/replay.out"
# ...and the replay, in another process, serves the page the server did.
replayed_top="$(sed -n 's/.*current top [0-9]*: \[\(.*\)\]/\1/p' "$smoke/replay.out" | tr -d ' ')"
[[ -n "$served_top" && "$served_top" == "$replayed_top" ]] || {
    echo "serve smoke: served top 5 [$served_top] != replayed [$replayed_top]" >&2
    exit 1
}
# Cross-check the planner surfaces: the local CLI (planning directly
# against the database) must print exactly what the remote CLI printed
# while proxying through the server.
./target/release/tsvr query "vdiff >= 0.5" \
    --db "$smoke/smoke.db" --top 3 | tee "$smoke/query_local.out"
diff "$smoke/query_remote.out" "$smoke/query_local.out"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --no-default-features (obs probes off)"
cargo build --workspace --no-default-features

echo "==> ci.sh: all green"
