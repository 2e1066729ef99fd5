#!/usr/bin/env bash
# Hard-crash smoke test: kill a journaled run with SIGKILL, which gives
# it no chance to save anything, then resume from whatever the journal
# holds and require the same results as an uninterrupted run.
#
# At --snapshot-every 1 each replication is appended and synced before
# the next is recorded, so the journal holds every replication that
# completed before the kill, plus at most one torn line, which resume
# drops. With --quiet the --csv output holds no timing field, so the
# outputs are compared whole.
#
# Environment:
#   BIN              path to the ckptsim binary [target/release/ckptsim]
#   KILL_AFTER_SECS  head start before SIGKILL [3]
set -euo pipefail

BIN="${BIN:-target/release/ckptsim}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

# About 10 s of simulation, so the kill lands mid-run.
FLAGS=(run --processors 65536 --reps 200 --hours 20000 --transient 1000
       --jobs 1 --csv --quiet)

echo "== reference run (uninterrupted)"
"$BIN" "${FLAGS[@]}" > "$OUT/reference.csv"

echo "== journaled run (SIGKILL after ${KILL_AFTER_SECS:-3}s)"
set +e
"$BIN" "${FLAGS[@]}" --snapshot "$OUT/snap.json" --snapshot-every 1 \
    > "$OUT/killed.csv" 2> "$OUT/killed.log" &
pid=$!
sleep "${KILL_AFTER_SECS:-3}"
kill -KILL "$pid" 2> /dev/null
wait "$pid"
status=$?
set -e

if [ "$status" -eq 0 ]; then
    echo "run finished before the kill landed; comparing directly"
    diff "$OUT/reference.csv" "$OUT/killed.csv"
    echo "crash smoke OK (uninterrupted path)"
    exit 0
fi
if [ "$status" -ne 137 ]; then
    echo "expected exit 137 (128+SIGKILL), got $status" >&2
    cat "$OUT/killed.log" >&2
    exit 1
fi
[ -s "$OUT/snap.json" ] || {
    echo "the killed run left no journal" >&2
    exit 1
}
lines=$(wc -l < "$OUT/snap.json")
echo "journal holds $((lines - 1)) complete replication(s)"

echo "== resumed run"
"$BIN" "${FLAGS[@]}" --resume "$OUT/snap.json" > "$OUT/resumed.csv"

diff "$OUT/reference.csv" "$OUT/resumed.csv"
echo "crash smoke OK: resumed results identical to the uninterrupted run"
