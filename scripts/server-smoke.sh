#!/bin/sh
# server-smoke.sh — end-to-end smoke test of the aliaslabd daemon over
# a real socket: build, start, exercise every endpoint with curl
# (including a duplicate request to prove the cache), SIGTERM, and
# assert a clean drain. Exits non-zero on the first broken promise.
set -eu

PORT="${PORT:-7465}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

fail() { echo "server-smoke: FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$DIR/aliaslabd" ./cmd/aliaslabd

echo "== start"
"$DIR/aliaslabd" -addr "127.0.0.1:$PORT" 2> "$DIR/server.log" &
SRV_PID=$!

# Wait for readiness.
i=0
until curl -sf "$BASE/readyz" > /dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { cat "$DIR/server.log" >&2; fail "server not ready after 5s"; }
    kill -0 "$SRV_PID" 2>/dev/null || { cat "$DIR/server.log" >&2; fail "server exited at startup"; }
    sleep 0.1
done

echo "== healthz"
curl -sf "$BASE/healthz" | grep -q ok || fail "healthz"

echo "== corpus listing"
curl -sf "$BASE/v1/corpus" | grep -q '"part"' || fail "corpus listing"

echo "== analyze (fresh)"
code=$(curl -s -o "$DIR/a1.json" -w '%{http_code}' -D "$DIR/h1.txt" \
    -X POST "$BASE/v1/analyze" -d '{"corpus":"part"}')
[ "$code" = 200 ] || fail "analyze: HTTP $code: $(cat "$DIR/a1.json")"
grep -q '"unit": "part.c"' "$DIR/a1.json" || fail "analyze body: $(cat "$DIR/a1.json")"
grep -qi 'x-aliaslab-cache: miss' "$DIR/h1.txt" || fail "first analyze not a cache miss"

echo "== analyze (duplicate -> cache hit, identical bytes)"
code=$(curl -s -o "$DIR/a2.json" -w '%{http_code}' -D "$DIR/h2.txt" \
    -X POST "$BASE/v1/analyze" -d '{"corpus":"part"}')
[ "$code" = 200 ] || fail "duplicate analyze: HTTP $code"
grep -qi 'x-aliaslab-cache: hit' "$DIR/h2.txt" || fail "duplicate analyze not a cache hit"
cmp -s "$DIR/a1.json" "$DIR/a2.json" || fail "cache hit bytes differ from fresh solve"

echo "== analyze with budget headers (degraded path)"
code=$(curl -s -o "$DIR/a3.json" -w '%{http_code}' \
    -X POST "$BASE/v1/analyze" -H 'X-Aliaslab-Max-Pairs: 10' -d '{"corpus":"compress"}')
[ "$code" = 503 ] || fail "tiny pair budget: HTTP $code, want 503"
grep -q '"degraded": true' "$DIR/a3.json" || fail "503 without degradation envelope"

echo "== vet"
code=$(curl -s -o "$DIR/v1.json" -w '%{http_code}' -X POST "$BASE/v1/vet" \
    -d '{"source":"int main(void) { int *p; p = malloc(4); free(p); return *p; }"}')
[ "$code" = 200 ] || fail "vet: HTTP $code"
grep -q '"checker": "uaf"' "$DIR/v1.json" || fail "vet missed the use-after-free: $(cat "$DIR/v1.json")"

echo "== invalid request"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/analyze" \
    -d '{"corpus":"part","backend":"steensgaard","worklist":"lifo"}')
[ "$code" = 400 ] || fail "removed worklist field: HTTP $code, want 400"

echo "== metrics"
curl -sf "$BASE/metrics" | grep -q 'server.cache.hits' || fail "metrics missing cache counters"

echo "== drain on SIGTERM"
kill -TERM "$SRV_PID"
i=0
while kill -0 "$SRV_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "server did not exit within 10s of SIGTERM"
    sleep 0.1
done
wait "$SRV_PID" && rc=0 || rc=$?
[ "$rc" = 0 ] || { cat "$DIR/server.log" >&2; fail "server exited $rc after SIGTERM, want 0"; }
grep -q 'drained, exiting' "$DIR/server.log" || fail "no clean-drain log line"

echo "server-smoke: PASS"
