#!/usr/bin/env bash
# Byte-identity gate for the DSE sweep engine on the 10k-point grid.
#
#   tools/dse_identity.sh BUILD_DIR
#
# Runs BUILD_DIR/bench/cryowire_sweep on examples/specs/dse_grid_10k.json
# in a fresh BUILD_DIR/dse and fails unless:
#
#   1. a serial run (--jobs 1) and three shards (--jobs nproc), merged,
#      write the same JSONL;
#   2. the serial cache holds the records of the three shard caches,
#      byte for byte (sorted: workers append records as points
#      complete, so only the order follows thread timing);
#   3. the serial cache with every other record deleted resumes to the
#      same JSONL, re-evaluating exactly the missing half;
#   4. a damaged cache (a torn record, a CRC mismatch and a legacy v1
#      line) quarantines, migrates and resumes the same at --jobs 1
#      and --jobs nproc: the same JSONL, sidecar, sorted cache and
#      stats line.
#
# Stats lines collect in BUILD_DIR/dse/cache_stats.txt, the merged
# shards' Pareto frontier in BUILD_DIR/dse/pareto.csv.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:?usage: dse_identity.sh BUILD_DIR}"
SWEEP="$BUILD_DIR/bench/cryowire_sweep"
SPEC="$ROOT/examples/specs/dse_grid_10k.json"
OUT="$BUILD_DIR/dse"
N="$(nproc)"

rm -rf "$OUT"
mkdir -p "$OUT"

echo "==> 10k-point sweep, serial vs 3 shards"
"$SWEEP" --spec "$SPEC" --out "$OUT/serial.jsonl" \
    --cache "$OUT/serial.cache" --jobs 1 2> "$OUT/cache_stats.txt"
for k in 0 1 2; do
    "$SWEEP" --spec "$SPEC" --out "$OUT/shard$k.jsonl" \
        --cache "$OUT/shard$k.cache" --shard "$k/3" --jobs "$N" \
        2>> "$OUT/cache_stats.txt"
done
"$SWEEP" --merge "$OUT/merged.jsonl" \
    "$OUT/shard0.jsonl" "$OUT/shard1.jsonl" "$OUT/shard2.jsonl" \
    --pareto "$OUT/pareto.csv" 2>> "$OUT/cache_stats.txt"
cmp "$OUT/serial.jsonl" "$OUT/merged.jsonl"

echo "==> cache records are the same bytes at any shard split"
cmp <(LC_ALL=C sort "$OUT/serial.cache") \
    <(LC_ALL=C sort "$OUT/shard0.cache" "$OUT/shard1.cache" \
        "$OUT/shard2.cache")

echo "==> resume after cache loss"
awk 'NR % 2 == 0' "$OUT/serial.cache" > "$OUT/half.cache"
"$SWEEP" --spec "$SPEC" --out "$OUT/resume.jsonl" \
    --cache "$OUT/half.cache" --jobs "$N" 2>> "$OUT/cache_stats.txt"
cmp "$OUT/serial.jsonl" "$OUT/resume.jsonl"
grep -q '5000 cache hit(s), 5000 evaluated' "$OUT/cache_stats.txt"

echo "==> damaged cache resumes the same at --jobs 1 and --jobs $N"
# Line 3 torn, one CRC digit of line 7 flipped, and line 11's payload
# appended bare, as a v1 record.
awk 'NR == 3 { print substr($0, 1, 40); next }
     NR == 7 { p = length($2) + 5
               d = substr($0, p, 1) == "0" ? "1" : "0"
               print substr($0, 1, p - 1) d substr($0, p + 1)
               next }
     { print }' "$OUT/serial.cache" > "$OUT/damaged.cache"
sed -n 11p "$OUT/serial.cache" | cut -d' ' -f4- >> "$OUT/damaged.cache"
for j in 1 "$N"; do
    mkdir -p "$OUT/jobs$j"
    cp "$OUT/damaged.cache" "$OUT/jobs$j/cache"
    "$SWEEP" --spec "$SPEC" --out "$OUT/jobs$j/resume.jsonl" \
        --cache "$OUT/jobs$j/cache" --jobs "$j" \
        2> "$OUT/jobs$j/stderr.txt"
    cmp "$OUT/serial.jsonl" "$OUT/jobs$j/resume.jsonl"
    grep '^cryowire_sweep:' "$OUT/jobs$j/stderr.txt" \
        > "$OUT/jobs$j/stats.txt"
done
cmp "$OUT/jobs1/cache.quarantine" "$OUT/jobs$N/cache.quarantine"
cmp <(LC_ALL=C sort "$OUT/jobs1/cache") <(LC_ALL=C sort "$OUT/jobs$N/cache")
cmp "$OUT/jobs1/stats.txt" "$OUT/jobs$N/stats.txt"
grep -q '9998 cache hit(s), 2 evaluated, 2 quarantined' \
    "$OUT/jobs1/stats.txt"
cat "$OUT"/jobs*/stats.txt >> "$OUT/cache_stats.txt"

echo "==> DSE byte-identity held"
