#!/usr/bin/env bash
# End-to-end smoke test for the service layer. Drives the real binaries:
#
#   0. drepair_server rejects an out-of-range --cold-fallback-fraction
#      (NaN included) with exit code 2
#   1. batch CLI --json baseline over the paper's running example
#   2. drepair_server bootstrapped from the same CSVs (snapshot + WAL)
#   3. repair + CQA through drepair_client; reports must be byte-identical
#      to the CLI's (timing fields scrubbed)
#   4. Prometheus scrape through `drepair_client metrics`: request
#      counters and latency histograms move monotonically with traffic,
#      and a client-supplied --trace-id is echoed in the response JSON
#   5. updates through the WAL, then kill -9 and restart: the store must
#      recover from snapshot + log replay with identical verdicts
#   6. SIGTERM must drain gracefully with exit code 0 (structured
#      logging on the restarted server)
#
# Usage: service_smoke_test.sh <drepair_server> <drepair_client> \
#                              <drepair_cli> <work_dir>
set -euo pipefail

SERVER=$(realpath "$1")
CLIENT=$(realpath "$2")
CLI=$(realpath "$3")
WORK=$4

rm -rf "$WORK"
mkdir -p "$WORK/data"
cd "$WORK"

cat > data/Author.csv <<'EOF'
aid:int,name:str,oid:int
1,Alice,100
2,Bob,200
3,Carol,300
EOF
cat > data/Org.csv <<'EOF'
oid:int,oname:str
100,ERC
200,UCSD
300,UCSD
EOF
cat > data/Writes.csv <<'EOF'
aid:int,pid:int
1,10
2,10
2,20
3,20
EOF
cat > repair.dl <<'EOF'
~Author(a, n, o) :- Author(a, n, o), Org(o, x), x = 'ERC'.
~Writes(a, p) :- Writes(a, p), ~Author(a, n, o).
EOF

QUERY='q(n) :- Author(a, n, o)'

# Scrubs every *_seconds field, then compares two JSON documents.
# --first-result replaces the first document by its results[0] element
# (the batch CLI wraps per-run reports in a document; the server sends
# the report object alone).
compare_json() {
  python3 - "$@" <<'EOF'
import json, sys

def scrub(x):
    if isinstance(x, dict):
        return {k: (0 if k.endswith("_seconds") else scrub(v))
                for k, v in x.items()}
    if isinstance(x, list):
        return [scrub(v) for v in x]
    return x

args = [a for a in sys.argv[1:] if not a.startswith("--")]
a = json.load(open(args[0]))
if "--first-result" in sys.argv:
    a = a["results"][0]
a = scrub(a)
b = scrub(json.load(open(args[1])))
if a != b:
    print(f"JSON mismatch between {args[0]} and {args[1]}:",
          file=sys.stderr)
    print(json.dumps(a, indent=1), file=sys.stderr)
    print("---", file=sys.stderr)
    print(json.dumps(b, indent=1), file=sys.stderr)
    sys.exit(1)
EOF
}

# Prints the value of one Prometheus series from a metrics scrape.
scrape() {  # scrape <port-file> <series>
  "$CLIENT" --port-file "$1" metrics | awk -v s="$2" '$1 == s {print $2}'
}

wait_for_port_file() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "server never wrote $1" >&2
  return 1
}

# --- 0. Flag validation. ---------------------------------------------------
# A cold-fallback fraction outside [0, 1] is a usage error (exit 2) before
# the store is opened; NaN compares false both ways and must fail too.
for f in nan 2 -0.5; do
  RC=0
  "$SERVER" --store missing_store --program repair.dl \
    --cold-fallback-fraction "$f" > /dev/null 2>&1 || RC=$?
  if [ "$RC" -ne 2 ]; then
    echo "--cold-fallback-fraction $f exited $RC, want 2" >&2
    exit 1
  fi
done

# --- 1. Batch CLI baseline. -----------------------------------------------
"$CLI" --data data --program repair.dl --semantics end --verify \
  --json cli_repair.json > /dev/null
"$CLI" --data data --program repair.dl --semantics stage \
  --query "$QUERY" --json cli_cqa.json > /dev/null

# --- 2. Bootstrap the server from the CSVs. -------------------------------
"$SERVER" --store store --program repair.dl --init-data data \
  --port-file port1.txt --trace > server1.log 2>&1 &
SERVER_PID=$!
wait_for_port_file port1.txt

"$CLIENT" --port-file port1.txt ping | grep -q '"ok":true'
"$CLIENT" --port-file port1.txt repair --semantics end --verify \
  > server_repair1.json
"$CLIENT" --port-file port1.txt cqa --semantics stage --query "$QUERY" \
  > server_cqa1.json

# --- 3. Server and CLI reports are byte-identical (timings scrubbed). -----
compare_json --first-result cli_repair.json server_repair1.json
compare_json --first-result cli_cqa.json server_cqa1.json

# --- 4. Metrics scrape + trace-id echo. -----------------------------------
"$CLIENT" --port-file port1.txt metrics > metrics1.txt
grep -q '^# TYPE drepair_server_requests_total counter$' metrics1.txt
grep -q '^# TYPE drepair_server_request_seconds histogram$' metrics1.txt
grep -q '^# TYPE drepair_server_queue_wait_seconds histogram$' metrics1.txt
R1=$(scrape port1.txt 'drepair_server_requests_total{type="repair"}')
H1=$(scrape port1.txt 'drepair_server_request_seconds_count{type="repair"}')
if [ "$R1" != "1" ] || [ "$H1" != "1" ]; then
  echo "expected one repair served so far, got counter=$R1 hist=$H1" >&2
  exit 1
fi

# A client-supplied trace id is echoed back in the response JSON; the
# report is otherwise identical to the untraced one.
"$CLIENT" --port-file port1.txt repair --semantics end --verify \
  --trace-id 7 > server_repair_traced.json
grep -q '"trace_id":"0000000000000007"' server_repair_traced.json
python3 - server_repair_traced.json server_repair1.json <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
del a["trace_id"]
b = json.load(open(sys.argv[2]))
def scrub(x):
    if isinstance(x, dict):
        return {k: (0 if k.endswith("_seconds") else scrub(v))
                for k, v in x.items()}
    if isinstance(x, list):
        return [scrub(v) for v in x]
    return x
assert scrub(a) == scrub(b), "traced report diverged beyond trace_id"
EOF

# Counters and histogram counts advanced monotonically and agree.
R2=$(scrape port1.txt 'drepair_server_requests_total{type="repair"}')
H2=$(scrape port1.txt 'drepair_server_request_seconds_count{type="repair"}')
C2=$(scrape port1.txt 'drepair_server_requests_total{type="cqa"}')
if [ "$R2" != "2" ] || [ "$H2" != "2" ] || [ "$C2" != "1" ]; then
  echo "metrics did not advance: repair=$R2 hist=$H2 cqa=$C2" >&2
  cat metrics1.txt >&2
  exit 1
fi

# The stats frame carries the coherent serving counters + flight state.
"$CLIENT" --port-file port1.txt stats > stats1.json
grep -q '"queue_wait_seconds_total"' stats1.json
grep -q '"flight"' stats1.json
grep -q '"metrics_requests"' stats1.json

# The server runs with --trace: its span rings dump as Chrome trace JSON
# carrying the full request tree, queue wait through engine internals.
"$CLIENT" --port-file port1.txt trace > trace1.json
python3 - trace1.json <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in events}
for needle in ("server.queue_wait", "server.request", "server.execute",
               "server.encode", "ground.enumerate_rule",
               "fixpoint.semi_naive"):
    assert needle in names, (needle, sorted(names))
traced = [e for e in events
          if e.get("args", {}).get("trace_id") == "0000000000000007"]
assert traced, "spans for --trace-id 7 missing from the server trace"
EOF

# --- 5. Updates through the WAL, kill -9, recover. ------------------------
"$CLIENT" --port-file port1.txt insert --relation Writes --tuple 3,30 \
  | grep -q '"ok":true'
"$CLIENT" --port-file port1.txt insert --relation Writes --tuple 3,40 \
  | grep -q '"ok":true'
"$CLIENT" --port-file port1.txt delete --relation Writes --tuple 3,40 \
  | grep -q '"ok":true'
"$CLIENT" --port-file port1.txt stats | grep -q '"total_live":11'

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2> /dev/null || true

"$SERVER" --store store --program repair.dl --port-file port2.txt \
  > server2.log 2>&1 &
SERVER_PID=$!
wait_for_port_file port2.txt
grep -q "WAL records replayed" server2.log

# The net insert survived the crash, and the verdicts are unchanged
# (Writes(3,30) is untouched by the ERC repair; q(n) ranges over Author).
"$CLIENT" --port-file port2.txt stats | grep -q '"total_live":11'
"$CLIENT" --port-file port2.txt repair --semantics end --verify \
  > server_repair2.json
"$CLIENT" --port-file port2.txt cqa --semantics stage --query "$QUERY" \
  > server_cqa2.json
compare_json server_repair1.json server_repair2.json
compare_json server_cqa1.json server_cqa2.json

# Compaction folds the WAL and keeps serving.
"$CLIENT" --port-file port2.txt compact | grep -q '"wal_reset":true'
"$CLIENT" --port-file port2.txt repair --semantics end --verify \
  > server_repair3.json
compare_json server_repair1.json server_repair3.json

# --- 6. Graceful drain on SIGTERM. ----------------------------------------
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
if [ "$RC" -ne 0 ]; then
  echo "server exited $RC on SIGTERM" >&2
  cat server2.log >&2
  exit 1
fi
grep -q "draining" server2.log

# A restart after the compact + drain still recovers cleanly (0 records).
# This one runs with structured logging: every line carries a timestamp,
# level, and trace field, but the legacy message text survives intact.
"$SERVER" --store store --program repair.dl --port-file port3.txt \
  --log-level info > server3.log 2>&1 &
SERVER_PID=$!
wait_for_port_file port3.txt
grep -q "0 WAL records replayed" server3.log
grep -Eq '^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9:.]+Z INFO +trace=- .*listening on' \
  server3.log
"$CLIENT" --port-file port3.txt stats | grep -q '"total_live":11'
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"

echo "service smoke test passed"
