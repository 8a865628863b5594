#!/bin/sh
# bench_sign.sh - regenerate BENCH_sign.json from the signing
# benchmarks: the one-shot fast path, the batched engine path, and the
# constant-time hardened twins of both. Runs the benchmarks once at a
# fixed -benchtime under -cpu 1 and rewrites the JSON in place, so the
# file is reproducible up to machine noise. The hardened one-shot is
# gated at <= 3x the fast one-shot - the documented cost ceiling of
# the side-channel countermeasures (README, "Hardened mode").
# Run from the repository root; used by `make bench-sign`.
set -eu

GO=${GO:-go}
BENCHTIME=${BENCHTIME:-1s}
OUT=${OUT:-BENCH_sign.json}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT INT TERM

bench_re='BenchmarkSign$'
echo "bench-sign: running signing benchmarks (benchtime=$BENCHTIME)"
$GO test -run '^$' -bench "$bench_re" -benchtime "$BENCHTIME" -count 1 -cpu 1 . | tee "$raw"

cpu=$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | sed 's/.*: //' || true)
[ -n "$cpu" ] || cpu="unknown"

awk -v date="$(date +%F)" -v cpu="$cpu" -v benchtime="$BENCHTIME" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns[name] = $(i - 1)
        if ($i == "allocs/op") al[name] = $(i - 1)
    }
}
function ratio(a, b) { return (b > 0) ? sprintf("%.2f", a / b) : "0" }
END {
    fast = ns["Sign/oneshot"]
    hard = ns["Sign/hardened"]
    printf "{\n"
    printf "  \"meta\": {\n"
    printf "    \"date\": \"%s\",\n", date
    printf "    \"cpu\": \"%s (GOMAXPROCS=1)\",\n", cpu
    printf "    \"go_bench\": \"go test -run ^$ -bench BenchmarkSign$ -benchtime=%s -cpu 1 . (scripts/bench_sign.sh)\",\n", benchtime
    printf "    \"notes\": [\n"
    printf "      \"oneshot = sign.Sign fast path: comb ScalarBaseMult for the nonce, safegcd nonce inversion and the assembly of s on mod-n words, DER encoding\",\n"
    printf "      \"batch32 = engine.BatchSign at batch 32: pooled scratch, batched normalisation, one nonce inversion per batch, zero allocs per signature\",\n"
    printf "      \"hardened = the same one-shot on a hardened key: masked full-table scans over the width-WCombCT split comb, branchless exceptional cases; the mod-n steps are those of the fast path\",\n"
    printf "      \"hardenedBatch32 = engine.BatchSign with WithConstTime: hardened evaluation; the batched normalisation and the batched nonce inversion still shared\",\n"
    printf "      \"hardened_vs_fast is gated at <= 3.0x: the documented ceiling for the constant-time countermeasures (see README, Hardened mode)\"\n"
    printf "    ]\n"
    printf "  },\n"
    printf "  \"sign_ns_per_op\": {\n"
    printf "    \"oneshot\": %d,\n", ns["Sign/oneshot"]
    printf "    \"batch32\": %d,\n", ns["Sign/batch32"]
    printf "    \"hardened\": %d,\n", ns["Sign/hardened"]
    printf "    \"hardenedBatch32\": %d\n", ns["Sign/hardenedBatch32"]
    printf "  },\n"
    printf "  \"sign_allocs_per_op\": {\n"
    printf "    \"oneshot\": %d,\n", al["Sign/oneshot"]
    printf "    \"batch32\": %d,\n", al["Sign/batch32"]
    printf "    \"hardened\": %d,\n", al["Sign/hardened"]
    printf "    \"hardenedBatch32\": %d\n", al["Sign/hardenedBatch32"]
    printf "  },\n"
    printf "  \"hardened_vs_fast\": {\n"
    printf "    \"oneshot\": %s,\n", ratio(hard, fast)
    printf "    \"batch32\": %s,\n", ratio(ns["Sign/hardenedBatch32"], ns["Sign/batch32"])
    printf "    \"gate\": \"hardened oneshot <= 3.0x fast oneshot\"\n"
    printf "  }\n"
    printf "}\n"
}' "$raw" > "$OUT"

echo "bench-sign: wrote $OUT"

overhead=$(sed -n '/hardened_vs_fast/,/}/s/.*"oneshot": \([0-9.]*\).*/\1/p' "$OUT")
echo "bench-sign: hardened one-shot vs fast one-shot: ${overhead}x (gate <= 3.0x)"
if [ "$(echo "$overhead > 3.0" | bc 2>/dev/null || echo 0)" = "1" ]; then
    echo "bench-sign: WARNING: hardened signing above the 3.0x gate on this host" >&2
fi
