#!/usr/bin/env bash
# Service smoke test: start `ckptsim serve` on an ephemeral port,
# submit the same spec twice, and require
#   1. the second submission is a cache hit (no re-execution),
#   2. the two fetched result bodies are byte-identical (`cmp`),
#   3. status polling reports the job done,
#   4. the progress stream is well-formed JSONL,
#   5. a standard HTTP/1.1 client (Python's http.client) gets the same
#      result bytes twice on one persistent connection,
#   6. the spec resubmitted through http.client as re-indented JSON
#      (not its canonical bytes, so the server parses and fingerprints
#      it) is the same job, a cache hit, with the same result bytes.
#
# Environment:
#   BIN  path to the ckptsim binary [target/release/ckptsim]
set -euo pipefail

BIN="${BIN:-target/release/ckptsim}"
OUT="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2> /dev/null || true
    rm -rf "$OUT"
}
trap cleanup EXIT

SPEC_FLAGS=(--processors 8192 --reps 2 --hours 200 --transient 20)

echo "== start server (ephemeral port)"
"$BIN" serve --addr 127.0.0.1:0 --store "$OUT/store" --workers 2 \
    > "$OUT/server.log" 2>&1 &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on //p' "$OUT/server.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2> /dev/null || {
        echo "server died during startup" >&2
        cat "$OUT/server.log" >&2
        exit 1
    }
    sleep 0.1
done
[ -n "$ADDR" ] || {
    echo "server never reported its address" >&2
    cat "$OUT/server.log" >&2
    exit 1
}
echo "server at $ADDR"

echo "== first submission (must execute)"
"$BIN" submit "${SPEC_FLAGS[@]}" --server "$ADDR" > "$OUT/accept1.json"
cat "$OUT/accept1.json"
grep -q '"cached":false' "$OUT/accept1.json" || {
    echo "first submission claims to be cached" >&2
    exit 1
}
JOB_ID="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$OUT/accept1.json")"

echo "== poll status until done"
DONE=""
for _ in $(seq 1 200); do
    "$BIN" status "$JOB_ID" --server "$ADDR" > "$OUT/status.json"
    STATE="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["state"])' "$OUT/status.json")"
    case "$STATE" in
        done) DONE=1; break ;;
        failed) echo "job failed:" >&2; cat "$OUT/status.json" >&2; exit 1 ;;
        queued | running) sleep 0.1 ;;
        *) echo "unexpected state '$STATE'" >&2; exit 1 ;;
    esac
done
[ -n "$DONE" ] || {
    echo "job never finished" >&2
    cat "$OUT/status.json" >&2
    exit 1
}
cat "$OUT/status.json"

echo "== fetch first result"
"$BIN" result "$JOB_ID" --server "$ADDR" > "$OUT/result1.json"

echo "== second submission (must be a cache hit)"
"$BIN" submit "${SPEC_FLAGS[@]}" --server "$ADDR" > "$OUT/accept2.json"
cat "$OUT/accept2.json"
grep -q '"cached":true' "$OUT/accept2.json" || {
    echo "identical resubmission was not served from the cache" >&2
    exit 1
}
ID2="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$OUT/accept2.json")"
[ "$ID2" = "$JOB_ID" ] || {
    echo "identical specs got different job ids: $JOB_ID vs $ID2" >&2
    exit 1
}

echo "== fetch second result and compare byte-for-byte"
"$BIN" submit "${SPEC_FLAGS[@]}" --server "$ADDR" --wait > "$OUT/result2.json"
cmp "$OUT/result1.json" "$OUT/result2.json"

echo "== validate the result document"
python3 - "$OUT/result1.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["kind"] == "job_result", doc.get("kind")
assert doc["schema_version"] == 1
assert len(doc["fingerprint"]) == 16
assert len(doc["replicates"]) == 2, "one entry per replication"
assert "jobs" not in doc["spec"], "worker count must not leak into the result"
assert 0.0 < doc["useful_work_fraction"]["mean"] < 1.0
EOF

echo "== one persistent connection from Python's http.client"
python3 - "$ADDR" "$JOB_ID" "$OUT" <<'EOF'
import http.client, sys
addr, job_id, out = sys.argv[1:]
host, port = addr.rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=30)
paths = ["/v1/healthz", f"/v1/jobs/{job_id}/result", f"/v1/jobs/{job_id}/result"]
sockets = []
for k, path in enumerate(paths):
    conn.request("GET", path)
    resp = conn.getresponse()
    body = resp.read()
    assert resp.status == 200, (path, resp.status, body)
    assert resp.getheader("Connection") is None, (path, resp.getheader("Connection"))
    sockets.append(conn.sock)
    if k > 0:
        open(f"{out}/python{k}.json", "wb").write(body)
assert sockets[0] is not None and all(s is sockets[0] for s in sockets), \
    "http.client opened a new connection: the server closed a persistent one"
conn.close()
EOF
cmp "$OUT/result1.json" "$OUT/python1.json"
cmp "$OUT/result1.json" "$OUT/python2.json"

echo "== resubmit the spec as re-indented JSON (must parse to the same cache hit)"
python3 - "$ADDR" "$JOB_ID" "$OUT" <<'EOF'
import http.client, json, sys
addr, job_id, out = sys.argv[1:]
host, port = addr.rsplit(":", 1)
spec = json.load(open(f"{out}/result1.json"))["spec"]
body = json.dumps(spec, indent=2).encode()
conn = http.client.HTTPConnection(host, int(port), timeout=30)
conn.request("POST", "/v1/jobs", body=body, headers={"X-Tenant": "smoke"})
resp = conn.getresponse()
reply = resp.read()
assert resp.status == 200, (resp.status, reply)
doc = json.loads(reply)
assert doc["id"] == job_id, f"re-indented spec got id {doc['id']}, not {job_id}"
assert doc["cached"] is True, f"re-indented spec was not a cache hit: {reply!r}"
conn.request("GET", f"/v1/jobs/{job_id}/result")
resp = conn.getresponse()
result = resp.read()
assert resp.status == 200, (resp.status, result)
open(f"{out}/python3.json", "wb").write(result)
conn.close()
EOF
cmp "$OUT/result1.json" "$OUT/python3.json"

echo "serve smoke OK: one execution, byte-identical results on every fetch"
