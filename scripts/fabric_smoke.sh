#!/usr/bin/env bash
# fabric_smoke.sh — check (default) or regenerate (--update) the
# committed golden digest of the distributed-fabric smoke campaign.
#
# The smoke is the fabric's whole fault story on one box: a coordinator
# serving the fattree fabric-smoke campaign to a fleet of 4 worker
# processes, one of which is kill -9'd mid-run. Its leases expire, the
# survivors re-lease (or steal) the lost cells, and the coordinator's
# deduplicated stream must merge to byte-for-byte the output of a plain
# single-process run — which is also pinned against the golden digest,
# so a behavior shift and a determinism break are caught separately.
#
# Usage:
#   scripts/fabric_smoke.sh            # run the smoke, verify digests
#   scripts/fabric_smoke.sh --update   # refresh the digest after an
#                                      # intentional behavior change
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC=examples/campaign/fabric_smoke.json
GOLDEN=examples/campaign/golden/fabric_smoke.sha256
NAME=fabric_smoke

WORK=$(mktemp -d)
cleanup() {
  # The killed worker is gone already; stop anything else we spawned.
  [ -n "${WPIDS:-}" ] && kill $WPIDS 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/contracamp" ./cmd/contracamp
go build -o "$WORK/contracheck" ./cmd/contracheck

# Single-process reference run.
"$WORK/contracamp" -spec "$SPEC" -q -notable \
  -out "$WORK/$NAME.json" -csv "$WORK/$NAME.csv"

# Coordinator (ephemeral port, external workers only) + 4 workers.
# The short lease TTL keeps the kill -9 recovery fast; it cannot
# affect output bytes, only scheduling. The run is journaled: the
# flight recorder must be strictly additive, so the byte-compares and
# the golden digest below hold with it on.
"$WORK/contracamp" -spec "$SPEC" -serve 127.0.0.1:0 -workers 0 \
  -stream "$WORK/$NAME.jsonl" -url-file "$WORK/url" -lease-ttl 1s -q -notable \
  -journal "$WORK/$NAME.journal.jsonl" \
  -out "$WORK/$NAME.fabric.json" -csv "$WORK/$NAME.fabric.csv" &
COORD=$!
for _ in $(seq 1 100); do [ -s "$WORK/url" ] && break; sleep 0.1; done
URL=$(cat "$WORK/url")

WPIDS=
VICTIM=
for i in 0 1 2 3; do
  "$WORK/contracamp" -worker "$URL" -worker-dir "$WORK/w$i" -worker-id "w$i" -q &
  WPIDS="$WPIDS $!"
  [ -z "$VICTIM" ] && VICTIM=$!
done

# Kill one worker as soon as real work is in flight (first record
# durable in the coordinator stream), i.e. genuinely mid-run.
for _ in $(seq 1 200); do [ -s "$WORK/$NAME.jsonl" ] && break; sleep 0.05; done
kill -9 "$VICTIM"
echo "killed worker $VICTIM mid-run; survivors must finish the campaign"

wait "$COORD"

# The fabric run (crash, expiry, steal and all) must be byte-identical
# to the single-process reference.
cmp "$WORK/$NAME.json" "$WORK/$NAME.fabric.json"
cmp "$WORK/$NAME.csv" "$WORK/$NAME.fabric.csv"
echo "fabric output is byte-identical to the single-process run"

# The flight recorder: the journal must validate structurally, and the
# auto-run post-mortem artifacts must exist and be non-empty.
"$WORK/contracheck" journal "$WORK/$NAME.journal.jsonl"
for ext in pm.md pm.csv; do
  [ -s "$WORK/$NAME.journal.jsonl.$ext" ] || {
    echo "missing post-mortem artifact $NAME.journal.jsonl.$ext" >&2; exit 1; }
done
grep -q '^# Campaign post-mortem' "$WORK/$NAME.journal.jsonl.pm.md"
echo "journal validated; post-mortem artifacts present"

# CI uploads the observability artifacts when FABRIC_SMOKE_OUT is set.
if [ -n "${FABRIC_SMOKE_OUT:-}" ]; then
  mkdir -p "$FABRIC_SMOKE_OUT"
  cp "$WORK/$NAME.journal.jsonl" "$WORK/$NAME.journal.jsonl.pm.md" \
     "$WORK/$NAME.journal.jsonl.pm.csv" "$FABRIC_SMOKE_OUT/"
fi

if [ "${1:-}" = "--update" ]; then
  mkdir -p "$(dirname "$GOLDEN")"
  (cd "$WORK" && sha256sum "$NAME.json" "$NAME.csv") > "$GOLDEN"
  echo "updated $GOLDEN"
  cat "$GOLDEN"
else
  (cd "$WORK" && sha256sum -c) < "$GOLDEN"
  echo "golden digest OK: $NAME output is byte-identical"
fi
