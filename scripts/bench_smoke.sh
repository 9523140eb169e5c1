#!/usr/bin/env sh
# Benchmark smoke run for CI: builds bench_micro and runs it with a tiny
# minimum time so the whole sweep finishes in seconds, writing google
# benchmark's JSON to BENCH_ci.json (schema documented in
# docs/OBSERVABILITY.md). The parallel-engine acceptance signal is the
# BM_ParallelEndToEndRun/1 vs /4 real_time ratio on multi-core runners.
#
#   scripts/bench_smoke.sh [build_dir] [output_json]
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_ci.json}"

cmake -B "$BUILD_DIR" -S . ${SMARTML_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_micro

# google-benchmark >= 1.8 wants a unit suffix on min_time; older releases
# reject it. Try the suffixed form first, then fall back.
if ! "$BUILD_DIR"/bench/bench_micro \
    --benchmark_min_time=0.01s \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json; then
  "$BUILD_DIR"/bench/bench_micro \
    --benchmark_min_time=0.01 \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json
fi

# Surface the KB-lookup speedups: the cached normalized matrix vs the old
# re-normalizing scan, and the k-d tree vs the cached linear scan. The tree
# ratio at 100k records is the acceptance signal for the sublinear lookup
# (>= 5x); fail loudly if the benchmarks went missing from the sweep.
python3 - "$OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

times = {
    b["name"]: b["real_time"]
    for b in data.get("benchmarks", [])
    if b["name"].startswith("BM_KbLookup")
}
missing = [
    name
    for size in (1000, 10000)
    for name in (
        "BM_KbLookupCached/%d" % size,
        "BM_KbLookupLinearScan/%d" % size,
    )
    if name not in times
] + [
    name
    for size in (1000, 10000, 100000)
    for name in ("BM_KbLookupKdTree/%d" % size,)
    if name not in times
] + [
    name
    for name in ("BM_KbLookupCached/100000",)
    if name not in times
]
if missing:
    print("bench_smoke: missing KB-lookup benchmarks: %s" % ", ".join(missing))
    sys.exit(1)

for n in (1000, 10000):
    cached = times["BM_KbLookupCached/%d" % n]
    linear = times["BM_KbLookupLinearScan/%d" % n]
    ratio = linear / cached if cached > 0 else float("inf")
    print(
        "bench_smoke: KB lookup at %5d records: cached %.1fus, "
        "linear scan %.1fus, speedup %.2fx" % (n, cached / 1e3, linear / 1e3, ratio)
    )

for n in (1000, 10000, 100000):
    cached = times["BM_KbLookupCached/%d" % n]
    tree = times["BM_KbLookupKdTree/%d" % n]
    ratio = cached / tree if tree > 0 else float("inf")
    print(
        "bench_smoke: KB lookup at %6d records: linear %.1fus, "
        "k-d tree %.1fus, speedup %.2fx" % (n, cached / 1e3, tree / 1e3, ratio)
    )

# RandomForest fit and its permutation importance at the table4 shape, the
# admission path's CSV parse, JSON escape, journal framing and CRC-32, and
# the number printers behind the CSV writer and JsonWriter: reported for
# developers, not gated.
labels = {
    "BM_ForestFit": "RandomForest fit at table4 shape",
    "BM_PermutationImportance": "RandomForest permutation importance",
    "BM_ReadCsv": "ReadCsvString on a 300 x 30 upload",
    "BM_JsonEscape": "JsonWriter::Escape of that upload",
    "BM_JournalEncode": "EncodeJournalFrame of its kAdmit-sized record",
    "BM_Crc32": "Crc32 over 172 KB",
    "BM_WriteCsv": "WriteCsvString of the 300 x 30 upload",
    "BM_JsonNumber": "JsonWriter::Number over 1024 doubles",
}
for b in data.get("benchmarks", []):
    if b["name"] in labels:
        print("bench_smoke: %s: %.1f%s"
              % (labels[b["name"]], b["real_time"], b.get("time_unit", "ns")))

# The tentpole acceptance bar: sublinear lookup must beat the linear scan
# by >= 5x at 100k records (the measured margin is far larger; 5x absorbs
# runner noise).
big_ratio = times["BM_KbLookupCached/100000"] / times["BM_KbLookupKdTree/100000"]
if big_ratio < 5.0:
    print(
        "bench_smoke: FAIL k-d tree speedup at 100k records is %.2fx, "
        "expected >= 5x" % big_ratio
    )
    sys.exit(1)
EOF

echo "bench_smoke: wrote $OUT"
