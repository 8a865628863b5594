#!/bin/sh
# serve_smoke.sh - end-to-end smoke test of cmd/eccserve + cmd/eccload.
#
# Builds both binaries, boots eccserve on an ephemeral loopback port,
# runs a short mixed-traffic eccload sweep against it (the mix
# includes ECQV certificate traffic: enroll + cert-verify), then a
# dedicated certificate-workload run, asserts each summary reports
# non-zero completed operations with zero sheds and zero errors, then
# SIGTERMs the server and requires a clean drain (exit 0).
#
# A second, chaos-mode leg then reboots the server with -fault-rate so
# the listener injects seeded connection faults (stalls, resets, torn
# and partial writes, accept errors) and drives it with eccload's
# retry/reconnect path. Assertions: work still completes, the server
# actually injected faults, every client-side failure is accounted to
# an operation (unaccounted=0), and the drain is still clean.
#
# Run from the repository root; used by `make serve-smoke`.
set -eu

GO=${GO:-go}
DUR=${DUR:-2s}

tmp=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -KILL "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building eccserve and eccload"
$GO build -o "$tmp/eccserve" ./cmd/eccserve
$GO build -o "$tmp/eccload" ./cmd/eccload

# The serving stack's batching latency rides on the worker's batch
# collect, so the smoke run also executes the batch-window tests
# (bursts coalesce, also when submitted from another P; a lone request
# does not wait out the window; the window bounds a collect that every
# yield would extend). -count=1 so a cached pass can never mask a
# regression here.
echo "serve-smoke: batch-window tests"
$GO test ./internal/engine -run 'TestBatchWindow' -count=1

"$tmp/eccserve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    >"$tmp/server.log" 2>&1 &
server_pid=$!

# Wait for the server to publish its bound address.
i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: server never published its address" >&2
        cat "$tmp/server.log" >&2
        exit 1
    fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve-smoke: server exited during startup" >&2
        cat "$tmp/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr")
echo "serve-smoke: server up on $addr"

# check_load <op-label> <output-file>: assert an eccload summary line
# reports completed work with zero sheds and zero errors.
check_load() {
    summary=$(grep '^eccload-net:' "$2")
    ops=$(echo "$summary" | sed -n 's/.*ops=\([0-9]*\).*/\1/p')
    shed=$(echo "$summary" | sed -n 's/.*shed=\([0-9]*\).*/\1/p')
    errors=$(echo "$summary" | sed -n 's/.*errors=\([0-9]*\).*/\1/p')
    if [ -z "$ops" ] || [ "$ops" -eq 0 ]; then
        echo "serve-smoke: FAIL: no $1 operations completed" >&2
        exit 1
    fi
    if [ "$shed" -ne 0 ]; then
        echo "serve-smoke: FAIL: $shed $1 requests shed at smoke-test load" >&2
        exit 1
    fi
    if [ "$errors" -ne 0 ]; then
        echo "serve-smoke: FAIL: $errors $1 request errors" >&2
        exit 1
    fi
}

"$tmp/eccload" -addr "$addr" -op mixed -gs 4 -dur "$DUR" | tee "$tmp/load.out"
check_load mixed "$tmp/load.out"

# Dedicated certificate workload: every worker enrolls over the wire
# (reconstructing its private key client-side) and then hammers
# TCertVerify against the server's extraction cache.
"$tmp/eccload" -addr "$addr" -op cert -gs 4 -dur "$DUR" | tee "$tmp/cert.out"
check_load cert "$tmp/cert.out"

# drain <log-file>: SIGTERM the server and require a clean exit.
drain() {
    echo "serve-smoke: draining server (SIGTERM)"
    kill -TERM "$server_pid"
    i=0
    while kill -0 "$server_pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: FAIL: server did not exit within 10s of SIGTERM" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
    done
    if ! wait "$server_pid"; then
        echo "serve-smoke: FAIL: server exited non-zero after SIGTERM" >&2
        cat "$1" >&2
        exit 1
    fi
    server_pid=""
}

drain "$tmp/server.log"
clean_ops=$ops

# --- Chaos leg: the same stack under seeded fault injection. ---------
# The fault listener wraps every accepted connection with a seeded
# plan, so a deterministic fraction of reads/writes stall, reset, or
# tear mid-frame. eccload's reconnecting client retries each failed
# op; the error budget is generous because the point is accounting,
# not a clean run: ops must still complete, every failure must be
# attributed to an operation, and the drain must stay clean.
echo "serve-smoke: chaos leg (-fault-rate 0.01, seed 42)"
"$tmp/eccserve" -addr 127.0.0.1:0 -addr-file "$tmp/addr2" \
    -read-idle 2s -write-timeout 1s -fault-rate 0.01 -fault-seed 42 \
    >"$tmp/chaos-server.log" 2>&1 &
server_pid=$!
i=0
while [ ! -s "$tmp/addr2" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: chaos server never published its address" >&2
        cat "$tmp/chaos-server.log" >&2
        exit 1
    fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve-smoke: chaos server exited during startup" >&2
        cat "$tmp/chaos-server.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$tmp/addr2")
echo "serve-smoke: chaos server up on $addr"

"$tmp/eccload" -addr "$addr" -op mixed -gs 4 -dur "$DUR" \
    -net-timeout 1s -retries 4 -err-budget 1000 | tee "$tmp/chaos.out"

summary=$(grep '^eccload-net:' "$tmp/chaos.out" | head -1)
ops=$(echo "$summary" | sed -n 's/.*ops=\([0-9]*\).*/\1/p')
unaccounted=$(echo "$summary" | sed -n 's/.*unaccounted=\([0-9]*\).*/\1/p')
if [ -z "$ops" ] || [ "$ops" -eq 0 ]; then
    echo "serve-smoke: FAIL: no operations completed under fault injection" >&2
    exit 1
fi
if [ -z "$unaccounted" ] || [ "$unaccounted" -ne 0 ]; then
    echo "serve-smoke: FAIL: unaccounted errors under fault injection: ${unaccounted:-missing}" >&2
    exit 1
fi

drain "$tmp/chaos-server.log"

# The server logs its injection tally on shutdown; the chaos leg is
# only meaningful if faults actually fired.
injected=$(sed -n 's/.*chaos: injected \([0-9]*\) faults.*/\1/p' "$tmp/chaos-server.log")
if [ -z "$injected" ] || [ "$injected" -eq 0 ]; then
    echo "serve-smoke: FAIL: chaos run injected no faults" >&2
    cat "$tmp/chaos-server.log" >&2
    exit 1
fi

echo "serve-smoke: PASS ($clean_ops clean ops; chaos: $ops ops, $injected faults injected, 0 unaccounted, clean drain)"
