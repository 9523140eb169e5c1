#!/usr/bin/env sh
# KB crash-recovery smoke test: a save that dies mid-write (SMARTML_FAULT=
# kb_save_crash) must never leave the knowledge base unloadable, and
# converting a KB between the text and binary formats must not change what
# it nominates.
#
#   scripts/kb_recovery_smoke.sh path/to/build-dir
#
# Uses the kb_tool binary from the given build directory. Exercises the
# real process-level path (env var -> fault point -> torn temp file) rather
# than the in-process SetSpec API the unit tests use.
set -eu

BUILD_DIR="${1:?usage: kb_recovery_smoke.sh <build-dir>}"
KB_TOOL="$BUILD_DIR/examples/kb_tool"
[ -x "$KB_TOOL" ] || KB_TOOL="$BUILD_DIR/kb_tool"
if [ ! -x "$KB_TOOL" ]; then
  echo "kb_recovery_smoke: kb_tool not found under $BUILD_DIR" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
KB="$WORK/kb.txt"

# 1. Seed a small KB through the atomic save path.
"$KB_TOOL" seed "$KB" 6 >/dev/null

# 2. A save under kb_save_crash must fail ...
if SMARTML_FAULT=kb_save_crash "$KB_TOOL" seed "$KB" 9 >/dev/null 2>&1; then
  echo "kb_recovery_smoke: FAIL (save unexpectedly survived kb_save_crash)" >&2
  exit 1
fi

# 3. ... and must not have touched the live file: it still loads, with the
#    pre-crash record count.
"$KB_TOOL" stats "$KB" | grep -q "records: 6" || {
  echo "kb_recovery_smoke: FAIL (live KB damaged by crashed save)" >&2
  exit 1
}

# 4. A later successful save keeps the previous generation as .bak.
"$KB_TOOL" seed "$KB" 9 >/dev/null
[ -f "$KB.bak" ] || {
  echo "kb_recovery_smoke: FAIL (no .bak after overwrite)" >&2
  exit 1
}

# 5. Tear the live file in half; the recovering loader must still come back
#    with a usable KB (salvaged prefix or the .bak copy).
SIZE="$(wc -c <"$KB")"
HALF=$((SIZE / 2))
head -c "$HALF" "$KB" >"$KB.torn" && mv "$KB.torn" "$KB"
"$KB_TOOL" stats "$KB" >/dev/null || {
  echo "kb_recovery_smoke: FAIL (torn KB did not load)" >&2
  exit 1
}

# 6. Converting between formats must not change nominations: a 300-record
#    KB (past the k-d tree threshold) converted to text and back to binary
#    answers one query identically from all three files.
CKB="$WORK/convert.kb"
"$KB_TOOL" seed "$CKB" 300 >/dev/null
"$KB_TOOL" convert "$CKB" "$CKB.txt" text >/dev/null
"$KB_TOOL" convert "$CKB.txt" "$CKB.bin" binary >/dev/null
# 25 meta-features near the last seeded records (num_instances, _,
# num_features vary; the rest are zero). No trailing newline.
MF="$WORK/mf.txt"
{
  printf '2955 0 289.5'
  i=3
  while [ "$i" -lt 25 ]; do printf ' 0'; i=$((i + 1)); done
} >"$MF"
"$KB_TOOL" query "$CKB" "$MF" >"$WORK/query.bin"
"$KB_TOOL" query "$CKB.txt" "$MF" >"$WORK/query.txt"
"$KB_TOOL" query "$CKB.bin" "$MF" >"$WORK/query.rebin"
[ -s "$WORK/query.bin" ] || {
  echo "kb_recovery_smoke: FAIL (query printed no nominations)" >&2
  exit 1
}
if ! cmp -s "$WORK/query.bin" "$WORK/query.txt" ||
   ! cmp -s "$WORK/query.bin" "$WORK/query.rebin"; then
  echo "kb_recovery_smoke: FAIL (format conversion changed nominations)" >&2
  exit 1
fi

echo "kb_recovery_smoke: OK"
