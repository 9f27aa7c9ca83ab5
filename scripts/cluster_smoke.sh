#!/usr/bin/env bash
# End-to-end smoke test for the bbsrouter sharded cluster (run by the CI
# cluster-smoke job, and runnable locally):
#
#   1. generate a dataset, split it 3 ways with `bbsmine split`, build a
#      per-shard segmented index for each part plus a full index and a
#      single-node oracle daemon over the concatenated data;
#   2. start 3 bbsmined shards and a bbsrouter in front of them;
#   3. diff router COUNT answers against the offline oracle and router
#      MINE output against the oracle daemon — both must be bit-identical;
#   4. INSERT through the router (tail-shard routing) and verify the count
#      and the cluster-wide transaction total move;
#   5. require the Bloofi routing tree to have pruned at least one shard
#      fan-out (absent-item queries cannot cover any shard signature);
#   6. kill one shard with SIGKILL mid-traffic and require degraded-but-
#      answering COUNT/MINE responses carrying the missing-shard list;
#   7. SIGTERM the router and require a clean drain plus a schema-valid
#      bbsrouter service report with a populated cluster section;
#   8. failover leg: a two-shard fleet whose tail shard is a durable
#      semi-sync primary (bbsmined --repl-ack) with a warm follower
#      (bbsmined --follow); kill -9 the primary mid-INSERT-burst, require
#      the router to promote the follower within a deadline, then diff
#      COUNT/MINE bit-for-bit against an offline oracle rebuilt from the
#      acked-INSERT log, and require the fenced old primary (restarted on
#      its old port) to never be consulted again;
#   9. bench leg: run the same fixed-seed bbsbench --target load against
#      fleets of 1, 2 and 4 shards over the same total data and compose
#      the tracked BENCH_cluster.json (schema + per-shard breakdown
#      validated).
#
# Usage: scripts/cluster_smoke.sh [BUILD_DIR] [CLUSTER_JSON]
#   (defaults: build, BENCH_cluster.json in the current directory)

set -euo pipefail

BUILD_DIR="${1:-build}"
CLUSTER_JSON="${2:-BENCH_cluster.json}"
BBSMINE="$BUILD_DIR/tools/bbsmine"
BBSMINED="$BUILD_DIR/tools/bbsmined"
BBSROUTER="$BUILD_DIR/tools/bbsrouter"
BBSBENCH="$BUILD_DIR/tools/bbsbench"
WORK="$(mktemp -d)"

# Every spawned process, tracked by PID saved at spawn time — never matched
# by name (pgrep -f would race other jobs and even this script's own shell).
ALL_PIDS=()

cleanup() {
  for pid in "${ALL_PIDS[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -KILL "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# start_daemon LOG INDEX DB -> sets DPID / DPORT.
start_daemon() {
  local log=$1 index=$2 db=$3
  "$BBSMINED" --index "$index" --db "$db" --port 0 > "$log" 2>&1 &
  DPID=$!
  ALL_PIDS+=("$DPID")
  DPORT=""
  for _ in $(seq 1 50); do
    DPORT=$(sed -n 's/^bbsmined listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [[ -n "$DPORT" ]] && break
    kill -0 "$DPID" || { cat "$log"; exit 1; }
    sleep 0.2
  done
  [[ -n "$DPORT" ]] || { echo "daemon never reported its port"; cat "$log"; exit 1; }
}

# start_router LOG SHARDSPEC [extra flags...] -> sets RPID / RPORT.
start_router() {
  local log=$1 spec=$2
  shift 2
  "$BBSROUTER" --shards "$spec" --port 0 "$@" > "$log" 2>&1 &
  RPID=$!
  ALL_PIDS+=("$RPID")
  RPORT=""
  for _ in $(seq 1 50); do
    RPORT=$(sed -n 's/^bbsrouter listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [[ -n "$RPORT" ]] && break
    kill -0 "$RPID" || { cat "$log"; exit 1; }
    sleep 0.2
  done
  [[ -n "$RPORT" ]] || { echo "router never reported its port"; cat "$log"; exit 1; }
}

# split_and_index N PREFIX -> builds PREFIX.<i>.db / PREFIX.<i>.seg and
# sets SHARD_SPEC / SHARD_PIDS / SHARD_PORTS for a running fleet of N.
start_fleet() {
  local n=$1 prefix=$2
  "$BBSMINE" split --db "$WORK/smoke.db" --shards "$n" \
    --out-prefix "$prefix" >/dev/null
  SHARD_SPEC=""
  SHARD_PIDS=()
  SHARD_PORTS=()
  for i in $(seq 0 $((n - 1))); do
    "$BBSMINE" build --db "$prefix.$i.db" --out "$prefix.$i.seg" \
      --bits 800 --hashes 3 --segment-capacity 512 >/dev/null
    start_daemon "$prefix.$i.log" "$prefix.$i.seg" "$prefix.$i.db"
    SHARD_PIDS+=("$DPID")
    SHARD_PORTS+=("$DPORT")
    SHARD_SPEC+="${SHARD_SPEC:+,}127.0.0.1:$DPORT"
  done
}

stop_pid() {
  local pid=$1
  kill -TERM "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
}

json_field() {
  python3 -c "import json,sys;r=json.load(open(sys.argv[1]));print(r$2)" "$1"
}

echo "== generating dataset, full oracle index, 3-way split"
"$BBSMINE" gen --out "$WORK/smoke.db" --txns 3000 --items 200 --t 8 --i 4 \
  --patterns 50 --seed 11 >/dev/null
"$BBSMINE" build --db "$WORK/smoke.db" --out "$WORK/smoke.seg" \
  --bits 800 --hashes 3 --segment-capacity 512 >/dev/null
start_daemon "$WORK/oracle.log" "$WORK/smoke.seg" "$WORK/smoke.db"
ORACLE_PID=$DPID
ORACLE_PORT=$DPORT
start_fleet 3 "$WORK/shard"
echo "   3 shards up (ports ${SHARD_PORTS[*]}), oracle on $ORACLE_PORT"

echo "== starting bbsrouter"
start_router "$WORK/router.log" "$SHARD_SPEC" \
  --report-out "$WORK/router-report.json"
grep -q "(3 shards, 3 up" "$WORK/router.log" || {
  echo "router banner reports a partial fleet"; cat "$WORK/router.log"; exit 1; }
echo "   router on port $RPORT (pid $RPID)"

"$BBSMINE" client --port "$RPORT" --verb PING >/dev/null

# The daemon_smoke query mix: frequent heads of seed 11's distribution,
# pairs, a triple, and absent items (both zero paths and pruning bait).
QUERIES=(161 27 111 "128,161" "111,161" "27,128" "27,111,161" 17 "3,17,42"
         199 "161,199")

echo "== ${#QUERIES[@]} router COUNT answers vs offline oracle"
for i in "${!QUERIES[@]}"; do
  router_count=$("$BBSMINE" client --port "$RPORT" --verb COUNT \
    --items "${QUERIES[$i]}" --json | python3 -c \
    "import json,sys;r=json.load(sys.stdin);assert r['ok'],r;\
assert not r['degraded'],r;print(r['count'])")
  oracle_count=$("$BBSMINE" count --index "$WORK/smoke.seg" \
    --items "${QUERIES[$i]}" | sed -n 's/^ *estimate \([0-9][0-9]*\).*/\1/p')
  if [[ "$router_count" != "$oracle_count" ]]; then
    echo "MISMATCH on {${QUERIES[$i]}}: router=$router_count oracle=$oracle_count"
    exit 1
  fi
  echo "   {${QUERIES[$i]}} -> $router_count (matches oracle)"
done

echo "== router MINE vs single-node oracle daemon (bit-identity)"
"$BBSMINE" client --port "$RPORT" --verb MINE --minsup 0.01 --top 15 \
  --json > "$WORK/mine-router.json"
"$BBSMINE" client --port "$ORACLE_PORT" --verb MINE --minsup 0.01 --top 15 \
  --json > "$WORK/mine-oracle.json"
python3 - "$WORK/mine-router.json" "$WORK/mine-oracle.json" <<'EOF'
import json, sys
router = json.load(open(sys.argv[1]))
oracle = json.load(open(sys.argv[2]))
assert router['ok'] and oracle['ok'], (router, oracle)
assert not router['degraded'], router
for key in ('patterns', 'total_frequent', 'transactions', 'min_support'):
    assert router[key] == oracle[key], (
        f'MINE {key} differs:\n  router: {router[key]}\n  oracle: {oracle[key]}')
ex = router['exchange']
assert ex['tau'] >= 1 and ex['candidates'] > 0, ex
print('   MINE bit-identical:', router['total_frequent'], 'frequent,',
      len(router['patterns']), 'returned, tau', ex['tau'])
EOF

echo "== INSERT routes to the tail shard and moves the cluster count"
before=$("$BBSMINE" client --port "$RPORT" --verb COUNT --items "3,17,42" \
  --json | python3 -c "import json,sys;print(json.load(sys.stdin)['count'])")
"$BBSMINE" client --port "$RPORT" --verb INSERT --items "3,17,42" \
  --json > "$WORK/insert.json"
python3 - "$WORK/insert.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['ok'], r
assert r['shard'] == 2, r  # the tail of the transaction-range partition
assert r['transactions'] == 3001, r  # cluster-wide total
print('   INSERT landed on shard', r['shard'], 'cluster total', r['transactions'])
EOF
after=$("$BBSMINE" client --port "$RPORT" --verb COUNT --items "3,17,42" \
  --json | python3 -c "import json,sys;print(json.load(sys.stdin)['count'])")
[[ "$after" -eq $((before + 1)) ]] || {
  echo "INSERT did not advance the routed count: $before -> $after"; exit 1; }
echo "   count {3,17,42}: $before -> $after"

echo "== Bloofi pruning skipped at least one shard"
"$BBSMINE" client --port "$RPORT" --verb STATS --json > "$WORK/stats.json"
python3 - "$WORK/stats.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['ok'], r
report = r['report']
assert report['kind'] == 'bbsrouter_service', report['kind']
cluster = report['cluster']
assert cluster['role'] == 'router'
assert cluster['shards_total'] == 3 and cluster['shards_up'] == 3, cluster
pruned = cluster['pruned_shard_queries']
assert pruned > 0, 'absent-item queries never pruned a shard'
assert sum(s['requests'] for s in cluster['shards']) > 0
print('   pruning OK:', pruned, 'shard fan-outs skipped;',
      'per-shard requests', [s['requests'] for s in cluster['shards']])
EOF

echo "== SIGKILL shard 1 mid-traffic -> degraded answers, not failures"
(
  for _ in $(seq 1 40); do
    "$BBSMINE" client --port "$RPORT" --verb COUNT --items 161 \
      --json >/dev/null 2>&1 || true
    sleep 0.05
  done
) &
TRAFFIC_PID=$!
ALL_PIDS+=("$TRAFFIC_PID")
sleep 0.4
kill -KILL "${SHARD_PIDS[1]}"
wait "$TRAFFIC_PID" || true

"$BBSMINE" client --port "$RPORT" --verb COUNT --items 161 \
  --json > "$WORK/degraded.json" 2> "$WORK/degraded.err"
grep -q "degraded answer" "$WORK/degraded.err" || {
  echo "client printed no degraded warning"; cat "$WORK/degraded.err"; exit 1; }
python3 - "$WORK/degraded.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['ok'], r  # degraded, but still an answer
assert r['degraded'] is True, r
assert r['missing_shards'] == [1], r
assert r['count'] > 0
print('   degraded COUNT OK:', r['count'], 'from the survivors, missing', r['missing_shards'])
EOF
"$BBSMINE" client --port "$RPORT" --verb MINE --minsup 0.05 --top 5 \
  --json | python3 -c "import json,sys;r=json.load(sys.stdin);\
assert r['ok'] and r['degraded'] and r['missing_shards']==[1],r;\
print('   degraded MINE OK:', r['total_frequent'], 'frequent from the survivors')"

echo "== graceful SIGTERM drain"
kill -TERM "$RPID"
EXIT_CODE=0
wait "$RPID" || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 0 ]] || {
  echo "router exited with $EXIT_CODE"; cat "$WORK/router.log"; exit 1; }
grep -q "bbsrouter draining" "$WORK/router.log"
grep -q "bbsrouter exited cleanly (2/3 shards up" "$WORK/router.log"

echo "== validating router service report"
python3 - "$WORK/router-report.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['schema_version'] == 1, r['schema_version']
assert r['kind'] == 'bbsrouter_service', r['kind']
svc = r['service']
assert svc['draining'] is True
assert svc['transactions'] == 3001, svc['transactions']
c = r['cluster']
assert c['role'] == 'router'
assert c['shards_total'] == 3 and c['shards_up'] == 2, c
shards = c['shards']
assert len(shards) == 3
assert shards[1]['up'] is False and shards[1]['errors'] > 0, shards[1]
for s in shards:
    for key in ('endpoint', 'requests', 'pruned_queries', 'latency_us'):
        assert key in s, f'shard row missing {key}'
assert c['degraded_responses'] > 0, c
assert 'fanout_us' in c, 'cluster fan-out histogram missing'
# No shard in this fleet has a replica: the kill above degrades, it must
# not count as a failover, and the replication section reports disabled.
assert c['failovers'] == 0, c
for s in shards:
    assert 'replica' not in s and s['failed_over'] is False, s
    assert s['active'] == 'primary' and s['term'] >= 1, s
repl = r['replication']
assert repl == {'enabled': False, 'role': 'router', 'failovers': 0}, repl
print('   router report OK:', c['shards_up'], 'of', c['shards_total'],
      'shards up,', r['metrics']['counters']['requests_total'], 'requests')
EOF

for pid in "${SHARD_PIDS[0]}" "${SHARD_PIDS[2]}"; do stop_pid "$pid"; done

echo "== failover leg: replicated tail shard, kill -9 the primary mid-burst"
# Topology: shard 0 is a static index over half the dataset; shard 1 is an
# empty durable semi-sync primary with a warm follower. Every failover-leg
# INSERT routes to shard 1 and — because of --repl-ack — is on the
# follower before the client sees OK, so the acked log written below is
# exactly the set of transactions that must survive the kill.
FO="$WORK/fo"
"$BBSMINE" split --db "$WORK/smoke.db" --shards 2 --out-prefix "$FO" \
  >/dev/null
"$BBSMINE" build --db "$FO.0.db" --out "$FO.0.seg" \
  --bits 800 --hashes 3 --segment-capacity 512 >/dev/null
start_daemon "$FO.s0.log" "$FO.0.seg" "$FO.0.db"
FO_S0_PID=$DPID
FO_S0_PORT=$DPORT

# Empty transaction DBs make the replicated pair MINE-capable from birth
# (INSERT and the replication apply path both append to the daemon's DB).
: > "$FO.empty.fimi"
"$BBSMINE" convert --in "$FO.empty.fimi" --out "$FO.primary.db" >/dev/null
"$BBSMINE" convert --in "$FO.empty.fimi" --out "$FO.replica.db" >/dev/null

# start_replicated LOG DUR DB [flags...] -> DPID / DPORT. The explicit
# --bits/--hashes match `bbsmine build` above: the router refuses a fleet
# with mixed hash configs.
start_replicated() {
  local log=$1 dur=$2 db=$3
  shift 3
  "$BBSMINED" --durable-dir "$dur" --db "$db" --bits 800 --hashes 3 \
    --segment-capacity 512 --fsync always --port 0 "$@" > "$log" 2>&1 &
  DPID=$!
  ALL_PIDS+=("$DPID")
  DPORT=""
  for _ in $(seq 1 50); do
    DPORT=$(sed -n 's/^bbsmined listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [[ -n "$DPORT" ]] && break
    kill -0 "$DPID" || { cat "$log"; exit 1; }
    sleep 0.2
  done
  [[ -n "$DPORT" ]] || { echo "daemon never reported its port"; cat "$log"; exit 1; }
}

start_replicated "$FO.primary.log" "$WORK/fo-primary" "$FO.primary.db" \
  --repl-ack
FO_P_PID=$DPID
FO_P_PORT=$DPORT
start_replicated "$FO.replica.log" "$WORK/fo-replica" "$FO.replica.db" \
  --follow "127.0.0.1:$FO_P_PORT"
FO_R_PID=$DPID
FO_R_PORT=$DPORT
echo "   shard 0 on $FO_S0_PORT; shard 1 primary $FO_P_PORT -> follower $FO_R_PORT"

# The follower must be attached before the burst: semi-sync acks degrade
# (not block) without one, and the leg's loss accounting needs every acked
# INSERT follower-durable.
for _ in $(seq 1 50); do
  followers=$("$BBSMINE" client --port "$FO_P_PORT" --verb STATS --json \
    | python3 -c "import json,sys;\
print(json.load(sys.stdin)['report']['replication']['followers'])")
  [[ "$followers" == "1" ]] && break
  sleep 0.2
done
[[ "$followers" == "1" ]] || {
  echo "follower never attached"; cat "$FO.replica.log"; exit 1; }

echo "== replication STATS sections on both roles"
"$BBSMINE" client --port "$FO_P_PORT" --verb STATS --json \
  > "$FO.primary-stats.json"
python3 - "$FO.primary-stats.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['ok'], r
repl = r['report']['replication']
assert repl['enabled'] is True and repl['role'] == 'primary', repl
assert repl['term'] == 1 and repl['promotions'] == 0, repl
assert repl['semi_sync'] is True and repl['followers'] == 1, repl
for key in ('last_acked_txn', 'lag_records', 'lag_bytes', 'records_shipped',
            'bytes_shipped', 'ack_timeouts'):
    assert key in repl, f'missing replication.{key}'
print('   primary replication OK: semi-sync,', repl['followers'], 'follower')
EOF
"$BBSMINE" client --port "$FO_R_PORT" --verb STATS --json \
  > "$FO.replica-stats.json"
python3 - "$FO.replica-stats.json" "$FO_P_PORT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['ok'], r
repl = r['report']['replication']
assert repl['enabled'] is True and repl['role'] == 'follower', repl
assert repl['connected'] is True, repl
assert repl['primary'].endswith(':' + sys.argv[2]), repl
assert repl['crc_rejects'] == 0, repl
for key in ('last_applied_txn', 'lag_records', 'records_applied',
            'reconnects'):
    assert key in repl, f'missing replication.{key}'
print('   follower replication OK: tailing', repl['primary'])
EOF

start_router "$FO.router.log" \
  "127.0.0.1:$FO_S0_PORT,127.0.0.1:$FO_P_PORT/127.0.0.1:$FO_R_PORT" \
  --probe-interval-ms 200 --probe-timeout-ms 1000 \
  --report-out "$FO.router-report.json"
grep -q "(2 shards, 2 up" "$FO.router.log" || {
  echo "failover fleet came up partial"; cat "$FO.router.log"; exit 1; }
echo "   router on port $RPORT"

# Deterministic INSERT sequence: itemset #n is a pure function of n, so
# the oracle can reconstruct "the first R transactions" after the dust
# settles (same idiom as crash_torture.sh).
fo_itemset() {
  local n=$1
  echo "$((n % 40)),$((40 + (n * 7) % 40)),$((80 + (n * 3) % 40))"
}

FO_ACKED="$FO.acked.fimi"
: > "$FO_ACKED"

# Sequential burst through the router (no client retries: a duplicate
# INSERT applied once to the dying primary and once to the promoted
# follower would corrupt the oracle). An itemset is logged only after its
# OK response; the first failure — the kill landing — stops the burst,
# so at most the single in-flight INSERT is indeterminate.
(
  n=0
  while (( n < 400 )); do
    items=$(fo_itemset "$n")
    "$BBSMINE" client --port "$RPORT" --verb INSERT --items "$items" \
      --json > "$FO.last-insert.json" 2>/dev/null || exit 0
    echo "$items" | tr ',' ' ' >> "$FO_ACKED"
    n=$((n + 1))
  done
) &
BURST_PID=$!
ALL_PIDS+=("$BURST_PID")

sleep 1
kill -KILL "$FO_P_PID"
echo "   primary (pid $FO_P_PID) killed -9 mid-burst"
wait "$BURST_PID" || true

echo "== waiting for the router to promote the follower"
PROMOTED=""
for _ in $(seq 1 100); do
  PROMOTED=$("$BBSMINE" client --port "$RPORT" --verb STATS --json \
    2>/dev/null | python3 -c "import json,sys;\
print(json.load(sys.stdin)['report']['cluster']['failovers'])" \
    2>/dev/null || echo "")
  [[ "$PROMOTED" == "1" ]] && break
  sleep 0.2
done
[[ "$PROMOTED" == "1" ]] || {
  echo "router never promoted the replica"; cat "$FO.router.log"; exit 1; }
grep -q "failed over to replica 127.0.0.1:$FO_R_PORT at term 2" \
  "$FO.router.log" || {
  echo "no promotion line in the router log"; cat "$FO.router.log"; exit 1; }

# Reconcile the one indeterminate INSERT: the promoted shard must hold
# every acked transaction, plus at most the in-flight one whose response
# the kill swallowed (semi-sync already copied it to the follower).
ACKED_N=$(wc -l < "$FO_ACKED")
CLUSTER_TXNS=$("$BBSMINE" client --port "$RPORT" --verb STATS --json \
  | python3 -c "import json,sys;r=json.load(sys.stdin);assert r['ok'],r;\
print(r['report']['service']['transactions'])")
PROMOTED_TXNS=$((CLUSTER_TXNS - 1500))
if [[ "$PROMOTED_TXNS" -eq $((ACKED_N + 1)) ]]; then
  fo_itemset "$ACKED_N" | tr ',' ' ' >> "$FO_ACKED"
  ACKED_N=$((ACKED_N + 1))
  echo "   in-flight INSERT #$((ACKED_N - 1)) reached the follower; oracle extended"
elif [[ "$PROMOTED_TXNS" -ne "$ACKED_N" ]]; then
  echo "ACKED INSERT LOST: follower holds $PROMOTED_TXNS of $ACKED_N acked"
  exit 1
fi
echo "   $ACKED_N burst transactions survive on the promoted follower"

echo "== post-failover COUNT/MINE vs acked-prefix oracle (bit-identity)"
"$BBSMINE" convert --in "$FO.0.db" --out "$FO.0.fimi" >/dev/null
cat "$FO.0.fimi" "$FO_ACKED" > "$FO.oracle.fimi"
"$BBSMINE" convert --in "$FO.oracle.fimi" --out "$FO.oracle.db" >/dev/null
"$BBSMINE" build --db "$FO.oracle.db" --out "$FO.oracle.seg" \
  --bits 800 --hashes 3 --segment-capacity 512 >/dev/null
FO_QUERIES=(161 27 "128,161" 17 "0,40,80" "5,75,95" "13,53" 39 "150,151"
            "7,49,101")
for q in "${FO_QUERIES[@]}"; do
  router_count=$("$BBSMINE" client --port "$RPORT" --verb COUNT \
    --items "$q" --json | python3 -c \
    "import json,sys;r=json.load(sys.stdin);assert r['ok'],r;\
assert not r['degraded'],r;print(r['count'])")
  oracle_count=$("$BBSMINE" count --index "$FO.oracle.seg" \
    --items "$q" | sed -n 's/^ *estimate \([0-9][0-9]*\).*/\1/p')
  if [[ "$router_count" != "$oracle_count" ]]; then
    echo "MISMATCH on {$q}: router=$router_count oracle=$oracle_count"
    exit 1
  fi
done
echo "   ${#FO_QUERIES[@]} COUNT answers match the acked-prefix oracle"

start_daemon "$FO.oracle.log" "$FO.oracle.seg" "$FO.oracle.db"
FO_ORACLE_PID=$DPID
FO_ORACLE_PORT=$DPORT
"$BBSMINE" client --port "$RPORT" --verb MINE --minsup 0.01 --top 15 \
  --json > "$FO.mine-router.json"
"$BBSMINE" client --port "$FO_ORACLE_PORT" --verb MINE --minsup 0.01 \
  --top 15 --json > "$FO.mine-oracle.json"
python3 - "$FO.mine-router.json" "$FO.mine-oracle.json" <<'EOF'
import json, sys
router = json.load(open(sys.argv[1]))
oracle = json.load(open(sys.argv[2]))
assert router['ok'] and oracle['ok'], (router, oracle)
assert not router['degraded'], router
for key in ('patterns', 'total_frequent', 'transactions', 'min_support'):
    assert router[key] == oracle[key], (
        f'post-failover MINE {key} differs:\n'
        f'  router: {router[key]}\n  oracle: {oracle[key]}')
print('   post-failover MINE bit-identical:', router['total_frequent'],
      'frequent over', router['transactions'], 'transactions')
EOF
stop_pid "$FO_ORACLE_PID"

echo "== promoted daemon wears the primary role at term 2"
"$BBSMINE" client --port "$FO_R_PORT" --verb STATS --json | python3 -c \
  "import json,sys;r=json.load(sys.stdin);repl=r['report']['replication'];\
assert repl['role']=='primary' and repl['term']==2,repl;\
assert repl['promotions']==1,repl;\
print('   promoted:', repl['role'], 'term', repl['term'])"

echo "== fenced old primary: restarted on its old port, never consulted"
"$BBSMINED" --durable-dir "$WORK/fo-primary" --db "$FO.primary.db" \
  --bits 800 --hashes 3 --segment-capacity 512 --fsync always \
  --port "$FO_P_PORT" > "$FO.zombie.log" 2>&1 &
ZOMBIE_PID=$!
ALL_PIDS+=("$ZOMBIE_PID")
for _ in $(seq 1 50); do
  grep -q "bbsmined listening" "$FO.zombie.log" && break
  kill -0 "$ZOMBIE_PID" || { cat "$FO.zombie.log"; exit 1; }
  sleep 0.2
done
# The zombie recovered its WAL and answers on the address the router once
# routed to — the sentinel proves the router no longer does. It lands on
# the promoted follower, and the zombie never sees it.
"$BBSMINE" client --port "$RPORT" --verb INSERT --items "150,151" \
  --json | python3 -c "import json,sys;r=json.load(sys.stdin);\
assert r['ok'] and r['shard']==1,r"
for _ in $(seq 1 5); do
  "$BBSMINE" client --port "$RPORT" --verb COUNT --items "150,151" \
    --json | python3 -c "import json,sys;r=json.load(sys.stdin);\
assert r['ok'] and not r['degraded'],r;\
assert r['count']==1,('sentinel count',r['count'])"
done
zombie_count=$("$BBSMINE" client --port "$FO_P_PORT" --verb COUNT \
  --items "150,151" --json | python3 -c \
  "import json,sys;r=json.load(sys.stdin);assert r['ok'],r;print(r['count'])")
[[ "$zombie_count" == "0" ]] || {
  echo "fencing breach: the demoted primary saw the sentinel INSERT"
  exit 1; }
echo "   sentinel INSERT served by the replica only; zombie count 0"

echo "== failover-leg router drain + report"
kill -TERM "$RPID"
EXIT_CODE=0
wait "$RPID" || EXIT_CODE=$?
[[ "$EXIT_CODE" -eq 0 ]] || {
  echo "router exited with $EXIT_CODE"; cat "$FO.router.log"; exit 1; }
grep -q "bbsrouter exited cleanly (2/2 shards up" "$FO.router.log"
python3 - "$FO.router-report.json" "$FO_R_PORT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['schema_version'] == 1, r['schema_version']
assert r['kind'] == 'bbsrouter_service', r['kind']
c = r['cluster']
assert c['failovers'] == 1, c
tail = c['shards'][1]
assert tail['failed_over'] is True and tail['active'] == 'replica', tail
assert tail['term'] == 2 and tail['up'] is True, tail
assert tail['replica'].endswith(':' + sys.argv[2]), tail
assert tail['endpoint'] == tail['replica'], tail
repl = r['replication']
assert repl == {'enabled': True, 'role': 'router', 'failovers': 1}, repl
print('   failover report OK: shard 1 active on', tail['endpoint'],
      'at term', tail['term'])
EOF
stop_pid "$ZOMBIE_PID"
stop_pid "$FO_R_PID"
stop_pid "$FO_S0_PID"

echo "== bench leg: same data behind 1 / 2 / 4 shards -> $CLUSTER_JSON"
for n in 1 2 4; do
  start_fleet "$n" "$WORK/bench$n"
  start_router "$WORK/bench$n.router.log" "$SHARD_SPEC"
  "$BBSBENCH" --target "127.0.0.1:$RPORT" --seed 42 --rate 200 \
    --duration-s 2 --items 200 --connections 8 \
    --mix-ping 5 --mix-count 80 --mix-insert 0 --mix-mine 10 --mix-stats 5 \
    --out "$WORK/bench$n.json" >/dev/null
  stop_pid "$RPID"
  for pid in "${SHARD_PIDS[@]}"; do stop_pid "$pid"; done
  echo "   fleet of $n benched"
done

python3 - "$WORK" "$CLUSTER_JSON" <<'EOF'
import json, sys
work, out = sys.argv[1], sys.argv[2]
fleets = []
for n in (1, 2, 4):
    r = json.load(open(f'{work}/bench{n}.json'))
    assert r['kind'] == 'bbsbench_service', r['kind']
    totals = r['totals']
    assert totals['ok'] == totals['sent'], (n, totals)
    cluster = r['cluster']
    assert cluster['role'] == 'router', (n, cluster)
    assert cluster['shards_total'] == n and cluster['shards_up'] == n, (n, cluster)
    shards = cluster['shards']
    assert len(shards) == n
    assert sum(s['requests'] for s in shards) > 0, (n, shards)
    fleets.append({
        'shards': n,
        'totals': totals,
        'count_latency_us': r['verbs']['COUNT']['latency_us'],
        'mine_latency_us': r['verbs']['MINE']['latency_us'],
        'cluster': cluster,
    })
report = {
    'schema_version': 1,
    'kind': 'bbsmine_cluster_bench',
    'config': {
        'transactions': 3000, 'items': 200, 'data_seed': 11,
        'bench_seed': 42, 'rate_rps': 200.0, 'duration_s': 2,
        'note': 'same total data split across 1 / 2 / 4 bbsmined shards '
                'behind one bbsrouter',
    },
    'fleets': fleets,
}
json.dump(report, open(out, 'w'), indent=2)
print('   BENCH_cluster.json OK: COUNT p50 by fleet size',
      {f['shards']: f['count_latency_us']['p50'] for f in fleets})
EOF

stop_pid "$ORACLE_PID"
echo "cluster smoke test PASSED"
