#!/usr/bin/env bash
# ops-smoke.sh — end-to-end smoke of the collector ops plane.
#
# Generates a simulation run, starts umon-collect in follow mode
# with the introspection server, and drives it the way an operator would:
# umonctl health polls readiness (no fixed sleeps), umonctl events -follow
# streams live events over SSE while ingest runs, umonctl status/trace
# exercise the query routes. Then the daemon gets SIGTERM, drains, and the
# smoke asserts three independent views of the run agree on the event
# count: the followed SSE stream, the -event-log JSONL file, and the
# -summary-json drain summary.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
OUT=${OUT:-out/ops-smoke}
ADDR=${ADDR:-127.0.0.1:9177}

mkdir -p "$OUT" bin
$GO build -o bin/umon-sim ./cmd/umon-sim
$GO build -o bin/umon-collect ./cmd/umon-collect
$GO build -o bin/umonctl ./cmd/umonctl

# The run: epoch-rotated host reports + the mirror pcap feed.
./bin/umon-sim -workload hadoop -ms 20 -epoch-ms 2 -sample-bits 1 \
    -out "$OUT" >"$OUT/sim.log"

# The daemon tails both inputs until SIGTERM, serving the ops API.
./bin/umon-collect -follow -quiet \
    -reports "$OUT/reports.umstream" -mirrors "$OUT/mirrors.pcap" \
    -window 8 -epoch-ms 2 \
    -telemetry-addr "$ADDR" \
    -summary-json "$OUT/summary.json" -event-log "$OUT/events.jsonl" \
    >"$OUT/collect.log" 2>&1 &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT

# Readiness: poll /healthz through umonctl instead of sleeping.
ready=0
for _ in $(seq 1 100); do
    if ./bin/umonctl -addr "$ADDR" health >/dev/null 2>&1; then
        ready=1
        break
    fi
    if ! kill -0 "$DAEMON" 2>/dev/null; then
        echo "ops-smoke: daemon died before serving /healthz" >&2
        cat "$OUT/collect.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$ready" != 1 ]; then
    echo "ops-smoke: daemon never became healthy on $ADDR" >&2
    exit 1
fi
./bin/umonctl -addr "$ADDR" health

# Follow the live event stream while ingest runs. Started before ingest
# finishes on purpose: the daemon streams its event log from cursor 0, so
# the follower must still see every event, with no gap reported on stderr.
./bin/umonctl -addr "$ADDR" events -follow >"$OUT/followed.jsonl" 2>"$OUT/follow.err" &
FOLLOW=$!

# Wait for ingest to pick up both feeds, then exercise the query routes.
for _ in $(seq 1 100); do
    if ./bin/umonctl -addr "$ADDR" status | grep -q 'ingested    [1-9]'; then
        break
    fi
    sleep 0.1
done
./bin/umonctl -addr "$ADDR" status
./bin/umonctl -addr "$ADDR" trace >"$OUT/trace.txt"
head -6 "$OUT/trace.txt"

# Drain: the daemon closes open events (publishing them to followers),
# ends the SSE stream, writes the summaries, and shuts down gracefully.
kill -TERM "$DAEMON"
wait "$DAEMON"
trap - EXIT
wait "$FOLLOW"

summary=$(sed -n 's/^  "events": \([0-9][0-9]*\),\{0,1\}$/\1/p' "$OUT/summary.json" | head -1)
followed=$(wc -l <"$OUT/followed.jsonl")
logged=$(wc -l <"$OUT/events.jsonl")
if [ -z "$summary" ] || [ "$summary" -eq 0 ]; then
    echo "ops-smoke: drain summary reported no events — nothing was exercised" >&2
    exit 1
fi
if [ -s "$OUT/follow.err" ]; then
    echo "ops-smoke: the follower reported:" >&2
    cat "$OUT/follow.err" >&2
    exit 1
fi
if [ "$followed" -ne "$summary" ] || [ "$logged" -ne "$summary" ]; then
    echo "ops-smoke: event counts disagree: followed=$followed logged=$logged summary=$summary" >&2
    exit 1
fi
echo "ops-smoke: OK — $summary events streamed, logged, and summarized identically"
