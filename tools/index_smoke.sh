#!/usr/bin/env bash
# End-to-end smoke for the urr_index CLI: build a small snapshot with 1 and 2
# threads (byte-identical files required), inspect it, run the full verify
# path with distance probes, exercise the bench mode, and check that a
# version-1 file and a corrupted file are refused.
set -euo pipefail

URR_INDEX="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$URR_INDEX" build --city grid --width 10 --height 8 --seed 7 \
  --threads 1 --out "$DIR/a.urrx"
"$URR_INDEX" build --city grid --width 10 --height 8 --seed 7 \
  --threads 2 --out "$DIR/b.urrx"
cmp "$DIR/a.urrx" "$DIR/b.urrx"

"$URR_INDEX" info "$DIR/a.urrx"
"$URR_INDEX" verify "$DIR/a.urrx" --probe 100

"$URR_INDEX" bench --city grid --width 8 --height 8 --seed 3 \
  --threads 1,2 --out "$DIR/bench.urrx"
"$URR_INDEX" verify "$DIR/bench.urrx"

# A version-1 file (the old layout with a hierarchy section) must be refused
# by its version number: patch the version field of a built file to 1.
cp "$DIR/a.urrx" "$DIR/v1.urrx"
python3 - "$DIR/v1.urrx" <<'PY'
import struct, sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
struct.pack_into("<I", data, 4, 1)
open(path, "wb").write(bytes(data))
PY
if "$URR_INDEX" verify "$DIR/v1.urrx" >"$DIR/v1.out" 2>&1; then
  echo "version-1 snapshot unexpectedly verified" >&2
  exit 1
fi
if ! grep -q "version 1" "$DIR/v1.out"; then
  echo "version-1 rejection does not name the version:" >&2
  cat "$DIR/v1.out" >&2
  exit 1
fi

# Corruption must be caught: flip one payload byte and expect a loud failure.
python3 - "$DIR/a.urrx" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[200] ^= 0xFF
open(path, "wb").write(bytes(data))
PY
if "$URR_INDEX" verify "$DIR/a.urrx" 2>/dev/null; then
  echo "corrupted snapshot unexpectedly verified" >&2
  exit 1
fi
echo "smoke OK"
