#!/bin/sh
# fleet-smoke: boot three numaiod replicas behind a numaiogw gateway,
# exercise sharded routing, fleet-wide placement, hot-model replication,
# request-ID and trace-context propagation across both hops (including a
# numaiotrace-stitched fleet timeline for one traced request), then kill
# the replica that owns the test fingerprint and prove the fleet keeps
# serving — degraded, with the breaker metrics and the gateway's flight
# recorder showing it. Finally drain the gateway with SIGTERM.
#
# FLEET_SMOKE_BASE_PORT pins replica ports to base..base+2 and the gateway
# to base+3; unset (the default) every process takes a kernel-assigned
# ephemeral port, so this smoke never collides with serve-smoke.sh or a
# developer's running daemon.
set -eu

. "$(dirname "$0")/smoke-lib.sh"

GO=${GO:-go}
base_port=${FLEET_SMOKE_BASE_PORT:-}
pids=""
workdir=$(mktemp -d)

cleanup() {
    for p in $pids; do
        kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT
trap 'exit 129' INT
trap 'exit 143' TERM

fail() {
    echo "fleet-smoke: $1" >&2
    for f in "$workdir"/*.err.log; do
        [ -f "$f" ] && { echo "--- $f" >&2; tail -5 "$f" >&2; }
    done
    exit 1
}

echo "fleet-smoke: building numaiod, numaiogw, numaioload and numaiotrace"
"$GO" build -o "$workdir/numaiod" ./cmd/numaiod
"$GO" build -o "$workdir/numaiogw" ./cmd/numaiogw
"$GO" build -o "$workdir/numaioload" ./cmd/numaioload
"$GO" build -o "$workdir/numaiotrace" ./cmd/numaiotrace

# Three replicas. Without a base port each takes :0 and announces what it
# got; request logs stay on so request-ID traceability can be grepped.
for i in 0 1 2; do
    if [ -n "$base_port" ]; then
        addr="127.0.0.1:$((base_port + i))"
    else
        addr="127.0.0.1:0"
    fi
    "$workdir/numaiod" -addr "$addr" \
        >"$workdir/r$i.out.log" 2>"$workdir/r$i.err.log" &
    pids="$pids $!"
    eval "pid_r$i=$!"
done

for i in 0 1 2; do
    url=$(wait_banner "$workdir/r$i.out.log")
    [ -n "$url" ] || fail "replica r$i never announced its address"
    eval "url_r$i=$url"
done
echo "fleet-smoke: replicas at $url_r0 $url_r1 $url_r2"

cat >"$workdir/fleet.json" <<EOF
{
  "replicas": [
    {"name": "r0", "url": "$url_r0"},
    {"name": "r1", "url": "$url_r1"},
    {"name": "r2", "url": "$url_r2"}
  ],
  "replication": 2,
  "hot_threshold": 2
}
EOF

if [ -n "$base_port" ]; then
    gw_addr="127.0.0.1:$((base_port + 3))"
else
    gw_addr="127.0.0.1:0"
fi
"$workdir/numaiogw" -addr "$gw_addr" -config "$workdir/fleet.json" \
    -health-interval 200ms \
    >"$workdir/gw.out.log" 2>"$workdir/gw.err.log" &
pids="$pids $!"
gw_pid=$!

gw=$(wait_banner "$workdir/gw.out.log")
[ -n "$gw" ] || fail "gateway never announced its address"
echo "fleet-smoke: gateway at $gw"

curl -fsS -o "$workdir/resp" "$gw/healthz" || fail "gateway /healthz unreachable"
grep -q '3/3' "$workdir/resp" || fail "gateway does not see 3/3 replicas: $(cat "$workdir/resp")"

# Routed predict with a pinned request ID and trace context: lands on the
# ring owner, and both IDs must appear in the structured logs on BOTH hops
# — the gateway derives a child span context, so the trace ID survives the
# forward while the span ID changes.
smoke_tid='cafe0000000000000000000000000042'
predict='{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
          "target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}}'
curl -fsS -o "$workdir/resp" -D "$workdir/hdrs" -H 'X-Request-Id: smoke-rid-42' \
    -H "X-Trace-Ctx: 00-$smoke_tid-1234567890abcdef-01" \
    -X POST -d "$predict" "$gw/v1/predict" || fail "routed predict failed"
grep -q '"predicted_bps"' "$workdir/resp" || fail "predict returned no prediction"

curl -fsS "$gw/metrics" >"$workdir/metrics.txt"
grep -q 'numaiogw_routed_total 1' "$workdir/metrics.txt" || fail "predict was not counted as routed"
grep -q 'numaiogw_proxied_total 0' "$workdir/metrics.txt" || fail "healthy-fleet predict was proxied"
grep -q 'request_id=smoke-rid-42' "$workdir/gw.err.log" || fail "gateway log missing request ID"
grep -q 'request_id=smoke-rid-42' "$workdir"/r?.err.log || fail "replica logs missing propagated request ID"
grep -q "trace_id=$smoke_tid" "$workdir/gw.err.log" || fail "gateway log missing the pinned trace ID"
grep -q "trace_id=$smoke_tid" "$workdir"/r?.err.log || fail "replica logs missing the propagated trace ID"
grep -iq 'server-timing:.*forward;dur=' "$workdir/hdrs" || fail "response lacks the gateway's Server-Timing stages"
grep -iq 'server-timing:.*solve;dur=' "$workdir/hdrs" || fail "response lacks the replica's Server-Timing stages"

# The owner is whichever replica absorbed that forward.
owner=$(sed -n 's/^numaiogw_forwards_total{replica="\(r[0-9]\)"} 1$/\1/p' "$workdir/metrics.txt" | head -n 1)
[ -n "$owner" ] || fail "could not identify the ring owner from forward counters"
echo "fleet-smoke: fingerprint owner is $owner"

# Second identical predict crosses hot_threshold=2: the model replicates
# to a ring peer so the fingerprint stays readable if the owner dies.
curl -fsS -o /dev/null -X POST -d "$predict" "$gw/v1/predict" || fail "second predict failed"
curl -fsS "$gw/metrics" | grep -q 'numaiogw_replication_pulls_total 1' \
    || fail "hot model did not replicate after crossing the threshold"

# Fleet-wide placement over all three replicas.
place='{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "target": 0}'
curl -fsS -o "$workdir/resp" -X POST -d "$place" "$gw/v1/fleet/place" || fail "fleet place failed"
grep -q '"host"' "$workdir/resp" || fail "fleet place returned no host"
grep -q '"degraded": false' "$workdir/resp" || fail "healthy fleet place marked degraded"

# The gateway enforces the same 4 MiB body cap as the replicas: 413, and
# the oversized body is never forwarded.
{ printf '{"machine": "'; head -c 4195328 /dev/zero | tr '\0' x; printf '"}'; } >"$workdir/big.json"
code=$(curl -sS -o "$workdir/resp" -w '%{http_code}' -X POST --data-binary @"$workdir/big.json" "$gw/v1/predict")
[ "$code" = 413 ] || fail "oversized predict body through the gateway got HTTP $code, want 413"
grep -q '4194304-byte cap' "$workdir/resp" || fail "gateway 413 body does not name the cap"

# Load through the gateway: every request must survive the extra hop.
echo "fleet-smoke: numaioload against $gw"
"$workdir/numaioload" -addr "$gw" -endpoint predict \
    -machine intel-4s4n -target 0 -mix "0:0.5,2:0.5" \
    -concurrency 2 -requests 40 >"$workdir/load.txt" || fail "numaioload run failed"
cat "$workdir/load.txt"
grep -q 'requests 40 errors 0' "$workdir/load.txt" || fail "numaioload lost requests through the gateway"
grep -q 'stage ttfb' "$workdir/load.txt" || fail "numaioload report lacks the per-stage split"
grep -q 'slowest decile exemplars' "$workdir/load.txt" || fail "numaioload report lacks slowest-decile exemplar IDs"

# One traced request end to end: record on the gateway and every replica,
# drive a single request with numaioload -trace, then stitch the client's
# dump and all four server dumps into one fleet timeline with numaiotrace
# and prove at least three processes (load client, gateway, serving
# replica) carry spans with the request's trace ID.
for u in "$gw" "$url_r0" "$url_r1" "$url_r2"; do
    curl -fsS -o /dev/null -X POST "$u/debug/trace/start" || fail "trace start on $u failed"
done
"$workdir/numaioload" -addr "$gw" -endpoint predict \
    -machine intel-4s4n -target 0 -mix "0:0.5,2:0.5" \
    -concurrency 1 -requests 1 -trace "$workdir/load-trace.json" \
    >"$workdir/load1.txt" || fail "traced numaioload run failed"
for u in "$gw" "$url_r0" "$url_r1" "$url_r2"; do
    curl -fsS -o /dev/null -X POST "$u/debug/trace/stop" || fail "trace stop on $u failed"
done
curl -fsS -o "$workdir/gw-trace.json" "$gw/debug/trace" || fail "gateway trace download failed"
curl -fsS -o "$workdir/r0-trace.json" "$url_r0/debug/trace" || fail "r0 trace download failed"
curl -fsS -o "$workdir/r1-trace.json" "$url_r1/debug/trace" || fail "r1 trace download failed"
curl -fsS -o "$workdir/r2-trace.json" "$url_r2/debug/trace" || fail "r2 trace download failed"
tid=$(sed -n 's/.*"trace_id":"\([0-9a-f]\{32\}\)".*/\1/p' "$workdir/load-trace.json" | head -n 1)
[ -n "$tid" ] || fail "load trace carries no trace ID"
traces="load=$workdir/load-trace.json gw=$workdir/gw-trace.json"
traces="$traces r0=$workdir/r0-trace.json r1=$workdir/r1-trace.json r2=$workdir/r2-trace.json"
"$workdir/numaiotrace" -o "$workdir/fleet-trace.json" $traces \
    || fail "numaiotrace merge failed"
grep -q '"process_name"' "$workdir/fleet-trace.json" || fail "merged trace lacks process labels"
# Metadata (ph=M) labels exist for every input; count real spans only.
procs=$("$workdir/numaiotrace" -trace-id "$tid" $traces \
    | grep -v '"ph":"M"' | grep -o '"pid":[0-9]*' | sort -u | wc -l)
[ "$procs" -ge 3 ] || fail "trace $tid spans only $procs process(es) in the merged timeline, want >= 3"
echo "fleet-smoke: trace $tid stitched across $procs processes"

# The always-on flight recorders saw the traced request on both hops.
curl -fsS "$gw/debug/flightrecorder" | grep -q "\"trace_id\":\"$tid\"" \
    || fail "gateway flight recorder missing the traced request"

# Kill the owner. The fleet must keep serving: the next predict proxies to
# a ring successor, the health loop pulls the dead replica out, and the
# breaker metrics record the degradation.
echo "fleet-smoke: killing owner $owner"
eval "kill \$pid_$owner"
wait_metric "$gw" 'numaiogw_replicas_healthy 2' || fail "health loop never noticed the dead replica"

curl -fsS -o "$workdir/resp" -X POST -d "$predict" "$gw/v1/predict" \
    || fail "predict with dead owner failed — fleet did not degrade gracefully"
grep -q '"predicted_bps"' "$workdir/resp" || fail "degraded predict returned no prediction"
curl -fsS "$gw/metrics" >"$workdir/metrics.txt"
grep -Eq 'numaiogw_proxied_total [1-9]' "$workdir/metrics.txt" || fail "degraded predict was not proxied"
grep -q "numaiogw_replica_healthy{replica=\"$owner\"} 0" "$workdir/metrics.txt" \
    || fail "dead replica still marked healthy"
wait_metric "$gw" 'numaiogw_breaker_open 1' || fail "breaker never opened for the dead replica"

# The degradation left a resilience breadcrumb in the gateway's always-on
# flight recorder: the breaker opening on the dead owner. (Failed forward
# attempts would add failover events too, but the health loop usually pulls
# the corpse out of rotation before a request ever tries it.)
curl -fsS "$gw/debug/flightrecorder" >"$workdir/flight.json" \
    || fail "gateway /debug/flightrecorder unreachable after failover"
grep -q '"name":"breaker_open"' "$workdir/flight.json" || fail "flight recorder lacks a breaker-open event"
grep -q "replica=$owner" "$workdir/flight.json" || fail "resilience events do not name the dead owner"

curl -fsS -o "$workdir/resp" "$gw/healthz" || fail "gateway /healthz failed while degraded"
grep -q '2/3' "$workdir/resp" || fail "gateway healthz does not report 2/3: $(cat "$workdir/resp")"

curl -fsS -o "$workdir/resp" -X POST -d "$place" "$gw/v1/fleet/place" || fail "degraded fleet place failed"
grep -q '"degraded": true' "$workdir/resp" || fail "fleet place did not report degradation"
grep -q '"host"' "$workdir/resp" || fail "degraded fleet place returned no host"

echo "fleet-smoke: sending SIGTERM to gateway"
kill -TERM "$gw_pid"
wait_exit "$gw_pid" || fail "gateway did not exit after SIGTERM"
grep -q drained "$workdir/gw.out.log" || fail "gateway exited without draining"
echo "fleet-smoke: ok"
