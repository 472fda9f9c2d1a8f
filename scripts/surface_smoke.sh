#!/usr/bin/env bash
# Surface smoke: every CLI subcommand runs once against a small 4-store
# snapshot, and every --json output parses. A subcommand that stops
# being wired to its report fails here in well under 30 s.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
snap="$work/snap"
repro() { python -m repro "$@"; }
json() { python -m json.tool > /dev/null; }
sql=(--snapshot "$snap" --database transactions
     --query "SELECT * FROM inventory WHERE seq < 5" --level 1)
load=(--stores 4 --albums 30 --clients 2 --requests 2 --workers 2)

repro demo > /dev/null
repro generate --stores 4 --albums 40 --out "$snap" > /dev/null
repro inspect --snapshot "$snap" > /dev/null
repro query "${sql[@]}" > /dev/null
repro query --snapshot "$snap" --database catalogue --query \
    '{"collection": "albums", "filter": {"year": {"$gt": 2010}}, "limit": 2}' \
    | grep "^2 result(s)" > /dev/null
repro explore --snapshot "$snap" --database similar \
    --query '{"op": "match", "label": "Item", "limit": 1}' > /dev/null
repro stats "${sql[@]}" --shards 2 | grep "^shard routing:" > /dev/null
# The validator refuses an aggregate the same way over shards (exit 1,
# the same error line), instead of answering with per-shard counts.
count=(--snapshot "$snap" --database transactions
       --query "SELECT COUNT(*) FROM inventory")
plain="$(repro query "${count[@]}" 2>&1)" && exit 1
sharded="$(repro query "${count[@]}" --shards 2 2>&1)" && exit 1
[[ "$plain" == error:* && "$sharded" == "$plain" ]]
# A sharded ORDER BY ... LIMIT is the unsharded answer (the engine merges
# the shards' rows), not one LIMIT per shard.
top=(--snapshot "$snap" --database transactions --level 0
     --query "SELECT * FROM inventory ORDER BY seq LIMIT 3")
one="$(repro query "${top[@]}" --shards 1)"
[[ "$one" == "3 result(s)"* && "$(repro query "${top[@]}" --shards 2)" == "$one" ]]
# A query the store refuses (BETWEEN on mismatched types: a TypeError
# inside the engine until ISSUE 22) is one error line, not a traceback.
refused="$(repro query --snapshot "$snap" --database transactions \
    --query "SELECT * FROM inventory WHERE seq BETWEEN 'a' AND 'z'" 2>&1)" \
    && exit 1
[[ "$refused" == "error: type error in BETWEEN"* ]]
[[ "$(wc -l <<< "$refused")" -eq 1 ]]
repro trace "${sql[@]}" --trace-id t-000001 > /dev/null
repro trace "${sql[@]}" --format chrome | json
repro explain "${sql[@]}" --analyze --json | json
repro plan "${sql[@]}" --targets catalogue,similar --execute --json | json
repro events "${sql[@]}" --slow-ms 0 > /dev/null
repro faults "${sql[@]}" --inject discount:fail --shards 2 --json | json
repro serve --snapshot "$snap" --port 0 --duration 0.05 > /dev/null
# Single-flight sits on the real runtime in the shape the benchmark
# spine reads, and no hedging key is left in the report.
repro loadgen "${load[@]}" --json | python -c '
import json, sys
text = sys.stdin.read()
assert "leaders" in json.loads(text)["serving"]["accelerator"]["coalesce"]
assert "\"hedge" not in text, "a hedge key in loadgen --json"
'
repro loadgen "${load[@]}" --deadline 5 > /dev/null
# A --limit above what the recorder holds returns every digest it holds.
# A nanosecond deadline sheds all 4 requests, and a shed is always kept.
for limit in 6 100000; do
    repro record "${load[@]}" --deadline 1e-9 --limit "$limit" --json \
        | python -c '
import json, sys
payload = json.load(sys.stdin)
assert payload["recorder"]["size"] == 4, payload["recorder"]
assert len(payload["requests"]) == 4, payload["requests"]
'
done
repro ingest --albums 20 --updates 6 --batch 3 --json | json
# The SLO monitor is gone, and its subcommand with it; so are the
# per-session cap and the recorder's knobs, and their flags with them.
repro slo "${load[@]}" > /dev/null 2>&1 && exit 1
repro serve --snapshot "$snap" --port 0 --duration 0.05 --max-inflight 2 \
    > /dev/null 2>&1 && exit 1
repro record "${load[@]}" --slow-threshold 1 > /dev/null 2>&1 && exit 1
echo "surface smoke: 15 subcommands ok"
