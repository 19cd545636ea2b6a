#!/usr/bin/env bash
# CLI determinism check: the detect and daemon commands must print the same
# thing on every run and at every shard count.
#
# Usage: tools/cli_determinism.sh path/to/attacktagger
#
# Trains a model, writes a small corpus, then requires
#   - detect --shards 1 and --shards 4 to print identical output after the
#     header line (which names the shard count), with at least one page;
#   - two runs of daemon --shards 4 to print identical output apart from
#     the stats table's max_ring_depth row (a timing-dependent high-water).

set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: tools/cli_determinism.sh path/to/attacktagger" >&2
  exit 2
fi
CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fail() { echo "cli_determinism: FAIL: $*" >&2; exit 1; }

"$CLI" train --out "$WORK/model.at" --seed 7 > /dev/null
"$CLI" corpus --out "$WORK/corpus" --seed 5 --scale 0.01 > /dev/null
run() { "$CLI" "$1" --model "$WORK/model.at" --log "$WORK/corpus/notices.log" --shards "$2"; }

run detect 1 | tail -n +2 > "$WORK/detect1.txt"
run detect 4 | tail -n +2 > "$WORK/detect4.txt"
grep -q '^PAGE ' "$WORK/detect1.txt" || fail "detect printed no pages"
diff "$WORK/detect1.txt" "$WORK/detect4.txt" > /dev/null \
  || fail "detect output differs between 1 and 4 shards"

run daemon 4 | grep -v 'max_ring_depth' > "$WORK/daemon_a.txt"
run daemon 4 | grep -v 'max_ring_depth' > "$WORK/daemon_b.txt"
grep -q ' verdict ' "$WORK/daemon_a.txt" || fail "daemon printed no verdicts"
diff "$WORK/daemon_a.txt" "$WORK/daemon_b.txt" > /dev/null \
  || fail "daemon output differs between two runs"

echo "cli_determinism: OK"
