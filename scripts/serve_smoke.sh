#!/bin/sh
# End-to-end smoke test of the bmstreed daemon, run by `make serve-smoke`
# and CI. Two phases against real processes over loopback:
#
#   1. A default daemon serves a mixed-algorithm burst from
#      tools/loadgen (every request must return 200), and the /metrics
#      snapshot it leaves behind must pass tools/checkmetrics.
#   2. A deliberately tiny daemon (-workers 1 -queue 1) absorbs a
#      saturating burst of large builds: loadgen -expect-shed requires
#      real 429s and that the serve `shed` counter matches the observed
#      count exactly.
#
# Each phase ends with SIGTERM and asserts a clean drain (exit 0).
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "serve-smoke: building binaries"
$GO build -o "$tmp/bmstreed" ./cmd/bmstreed
$GO build -o "$tmp/loadgen" ./tools/loadgen
$GO build -o "$tmp/checkmetrics" ./tools/checkmetrics

# boot_daemon <addr-file> [flags...]: starts bmstreed on a free port and
# waits until it has written its bound address.
boot_daemon() {
    addr_file=$1
    shift
    "$tmp/bmstreed" -addr 127.0.0.1:0 -addr-file "$addr_file" "$@" &
    pid=$!
    i=0
    while [ ! -s "$addr_file" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: daemon never wrote $addr_file" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# stop_daemon: SIGTERM, then require a clean exit.
stop_daemon() {
    kill -TERM "$pid"
    wait "$pid" || { echo "serve-smoke: daemon exited non-zero" >&2; exit 1; }
    pid=""
}

echo "serve-smoke: phase 1 — mixed-algorithm burst + metrics validation"
boot_daemon "$tmp/addr1"
"$tmp/loadgen" -addr "$(cat "$tmp/addr1")" \
    -n 60 -c 8 -algos bkrus,mst,bkst,spt,bprim -sinks 24 -sweep 3 \
    -metrics-out "$tmp/metrics.json"
"$tmp/checkmetrics" "$tmp/metrics.json"
stop_daemon

echo "serve-smoke: phase 2 — queue-full burst must shed with matching counter"
boot_daemon "$tmp/addr2" -workers 1 -queue 1
"$tmp/loadgen" -addr "$(cat "$tmp/addr2")" \
    -n 32 -c 16 -algos bkrus -sinks 400 -expect-shed
stop_daemon

echo "serve-smoke: ok"
