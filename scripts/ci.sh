#!/usr/bin/env bash
# CI entry point: a plain release build + full test suite, then a
# ThreadSanitizer build (the morsel executor and the adaptive engine's
# background repartition are the race surface) and an AddressSanitizer
# build (plan-cache lifetime: cached plans vs database swaps).
#
# Sanitizer runs are ~10-20x slower, so the heavier tests read
# DVP_TEST_DOCS to scale their data set down without losing the thread
# interleavings.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== release build ==="
# Warning-free under -Wall -Wextra: -Werror here only, so the
# sanitizer builds below never fail on a compiler's extra diagnostics.
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== observability smoke ==="
# A tiny bench run must produce valid NDJSON, a parseable Prometheus
# dump, and a span trace that ends with a summary record.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./build-ci/bench/bench_fig3_partition_size --docs 400 --repeats 1 \
    --json "$OBS_TMP/bench.ndjson" --metrics "$OBS_TMP/metrics.prom" \
    --trace "$OBS_TMP/trace.ndjson" > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
tmp = sys.argv[1]
rows = [json.loads(l) for l in open(f"{tmp}/bench.ndjson")]
assert rows and all(r["bench"] == "fig3_partition_size" for r in rows)
prom = open(f"{tmp}/metrics.prom").read()
assert "# TYPE dvp_queries_total counter" in prom, prom[:200]
assert "dvp_rows_scanned_total" in prom
spans = [json.loads(l) for l in open(f"{tmp}/trace.ndjson")]
assert spans[-1]["type"] == "trace_summary" and spans[-1]["recorded"] > 0
assert any(s.get("name") == "query" for s in spans)
print(f"obs smoke: {len(rows)} bench rows, {len(spans)-1} spans ok")
EOF

echo "=== scan kernels ==="
# The kernel suite registers twice in ctest (default dispatch and
# DVP_FORCE_SCALAR=1); run both registrations explicitly so a filter
# change elsewhere can never silently drop one dispatch outcome, then
# smoke the kernel bench: every form must reproduce the row-loop match
# vector (the bench aborts on disagreement) and emit parseable NDJSON.
ctest --test-dir build-ci --output-on-failure -R 'test_kernels'
./build-ci/bench/bench_scan_kernels --docs 4000 --repeats 1 \
    --json "$OBS_TMP/kernels.ndjson" > /dev/null
DVP_FORCE_SCALAR=1 ./build-ci/bench/bench_scan_kernels --docs 4000 \
    --repeats 1 > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/kernels.ndjson")]
assert rows and all(r["bench"] == "scan_kernels" for r in rows)
metrics = {r["metric"] for r in rows}
assert {"rows_per_sec_baseline", "rows_per_sec_scalar",
        "speedup_scalar", "block_skip_ratio"} <= metrics, metrics
print(f"scan kernels smoke: {len(rows)} NDJSON rows ok")
EOF

echo "=== tape parse ==="
# The tape-vs-DOM suite registers twice in ctest (default dispatch and
# DVP_FORCE_SCALAR=1); run both registrations explicitly, then smoke
# the LOAD bench under both dispatch outcomes.  The bench itself is a
# differential check at data scale: every tape-loaded DataSet is
# compared document-by-document against the serial DOM load and the
# bench aborts on any disagreement.  The NDJSON must carry the
# throughput schema, and the single-thread tape speedup over DOM must
# clear a floor — 2x is deliberately far under the ~3x a quiet
# machine measures (EXPERIMENTS.md E15), because CI boxes are noisy.
ctest --test-dir build-ci --output-on-failure -R 'test_json_tape'
./build-ci/bench/bench_load --docs 4000 --repeats 3 \
    --json "$OBS_TMP/load.ndjson" > /dev/null
DVP_FORCE_SCALAR=1 ./build-ci/bench/bench_load --docs 4000 \
    --repeats 1 > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/load.ndjson")]
assert rows and all(r["bench"] == "load" for r in rows)
assert all("rss_peak_bytes" in r for r in rows)
metrics = {r["metric"] for r in rows}
assert {"docs_per_sec", "mb_per_sec", "speedup_vs_dom1", "load_ms",
        "index_ns", "walk_ns", "encode_ns"} <= metrics, metrics
speed = {(r["engine"], r["query"]): r["value"] for r in rows
         if r["metric"] == "speedup_vs_dom1"}
tape1 = max(v for (e, q), v in speed.items()
            if e.startswith("tape") and q == "t1")
assert tape1 >= 2.0, speed
falls = [r["value"] for r in rows if r["metric"] == "fallback_docs"]
assert falls and all(v == 0 for v in falls), falls
print(f"tape parse smoke: {len(rows)} NDJSON rows, "
      f"tape {tape1:.2f}x DOM at 1 thread ok")
EOF

echo "=== compressed blocks ==="
# The compressed-block bench builds plain/compressed twins and aborts
# on any result-digest disagreement, so a tiny run is itself a
# differential check; run it under both dispatch outcomes, then
# validate the NDJSON carries the footprint and slowdown metrics.
./build-ci/bench/bench_compression --docs 5000 --repeats 1 \
    --json "$OBS_TMP/compression.ndjson" > /dev/null
DVP_FORCE_SCALAR=1 ./build-ci/bench/bench_compression --docs 5000 \
    --repeats 1 > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/compression.ndjson")]
assert rows and all(r["bench"] == "compression" for r in rows)
assert all("rss_peak_bytes" in r for r in rows)
metrics = {r["metric"] for r in rows if "metric" in r}
assert {"bytes_raw", "bytes_compressed", "footprint_ratio",
        "scan_rows_per_sec_compressed", "slowdown_pct",
        "mean_slowdown_pct"} <= metrics, metrics
ratios = {r["engine"]: r["value"] for r in rows
          if r.get("metric") == "footprint_ratio"}
assert ratios["row"] > 3, ratios
print(f"compression smoke: {len(rows)} NDJSON rows, "
      f"row ratio {ratios['row']:.1f}x ok")
EOF

echo "=== result path ==="
# The serving path of every Q1-Q11 result in one process, stage by
# stage: the bench aborts unless each decoded RESULT frame carries the
# in-process ResultSet's digest, rows, oids and cells, and its NDJSON
# must carry every stage for every class.
./build-ci/bench/bench_result_path --docs 2000 --repeats 3 --threads 1 \
    --json "$OBS_TMP/result_path.ndjson" > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/result_path.ndjson")]
assert rows and all(r["bench"] == "result_path" for r in rows)
assert all("rss_peak_bytes" in r for r in rows)
m = {(r["query"], r["metric"]): r["value"] for r in rows}
stages = ["exec", "digest", "encode", "frame", "assemble", "decode",
          "destroy"]
for q in [f"Q{i}" for i in range(1, 12)]:
    assert m[(q, "rows")] >= 0 and m[(q, "cells")] >= 0, q
    for s in stages:
        assert m[(q, f"{s}_ms")] >= 0, (q, s)
assert m[("Q1", "rows")] > 0 and m[("round", "exec_ms")] > 0, m
print(f"result path smoke: {len(rows)} NDJSON rows, round "
      f"{sum(m[('round', f'{s}_ms')] for s in stages):.2f} ms ok")
EOF

echo "=== parallel scaling ==="
# Q1-Q11 on the DVP layout at 1/2/4/8 lanes: the bench aborts unless
# every lane count reproduces the serial digest, and its NDJSON must
# time every query at every lane count.
./build-ci/bench/bench_parallel_scaling --docs 3000 --repeats 1 \
    --json "$OBS_TMP/scaling.ndjson" > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/scaling.ndjson")]
assert rows and all(r["bench"] == "parallel_scaling" for r in rows)
seen = {(r["query"], r["threads"]) for r in rows}
want = {(f"Q{i}", t) for i in range(1, 12) for t in (1, 2, 4, 8)}
assert want <= seen, sorted(want - seen)
assert all(r["seconds"] > 0 for r in rows)
print(f"parallel scaling smoke: {len(want)} query x lane cells ok")
EOF

echo "=== network server ==="
# dvp_client refuses a flag it does not know as a usage error (exit
# 2) before it connects: port 1 has no server, so any connection
# attempt would print a connect error.
set +e
./build-ci/examples/dvp_client --port 1 --bogus "SELECT 1" \
    > /dev/null 2> "$OBS_TMP/usage.err"
USAGE_RC=$?
set -e
[ "$USAGE_RC" -eq 2 ]
grep -q "^usage:" "$OBS_TMP/usage.err"
if grep -q "connect" "$OBS_TMP/usage.err"; then
    echo "dvp_client connected before refusing an unknown flag" >&2
    exit 1
fi
# End-to-end over real sockets: dvpd on an ephemeral port discovered
# via --port-file, a dvp_client smoke (query + EXPLAIN + stats), a
# graceful SIGTERM drain, then a short load-generator run whose NDJSON
# must carry QPS and tail-latency metrics.
./build-ci/examples/dvpd --gen 500 --port 0 \
    --port-file "$OBS_TMP/dvpd.port" > "$OBS_TMP/dvpd.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 50); do
    [ -s "$OBS_TMP/dvpd.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd.port")"
./build-ci/examples/dvp_client --port "$DVPD_PORT" --stats \
    "SELECT COUNT(*) FROM t GROUP BY thousandth" \
    "EXPLAIN SELECT COUNT(*) FROM t GROUP BY thousandth" \
    "EXPLAIN SELECT str1, num FROM t" > "$OBS_TMP/client.out"
grep -q "^group" "$OBS_TMP/client.out"
# SQL binds COUNT(*) GROUP BY to its grouping column, not SELECT *.
grep -q "IndexRetrieve cols=1 " "$OBS_TMP/client.out"
grep -q "requests_total" "$OBS_TMP/client.out"
kill -TERM "$DVPD_PID"
wait "$DVPD_PID"
grep -q "drained" "$OBS_TMP/dvpd.log"
# An oversized result is a typed error, and the server keeps serving:
# 50250 docs is the smallest --gen (in steps of 250) whose SELECT *
# payload passes the 64 MiB frame cap.
./build-ci/examples/dvpd --gen 50250 --port 0 \
    --port-file "$OBS_TMP/dvpd_big.port" > "$OBS_TMP/dvpd_big.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 600); do
    [ -s "$OBS_TMP/dvpd_big.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd_big.port")"
if ./build-ci/examples/dvp_client --port "$DVPD_PORT" "SELECT * FROM t" \
    > /dev/null 2> "$OBS_TMP/too_large.err"; then
    echo "dvpd sent a SELECT * past the frame payload cap" >&2; exit 1
fi
grep -q "RESULT_TOO_LARGE" "$OBS_TMP/too_large.err"
./build-ci/examples/dvp_client --port "$DVPD_PORT" \
    "SELECT * FROM t WHERE str1 = 'str1_17'" > "$OBS_TMP/after_big.out"
grep -q "row(s), digest" "$OBS_TMP/after_big.out"
kill -TERM "$DVPD_PID"
wait "$DVPD_PID"
# LOAD DATA over the wire is all-or-nothing: a 100-line file moves
# STATS docs by exactly 100, and a file with one bad line is an error
# that appends nothing.
python3 - "$OBS_TMP" <<'EOF'
import sys
tmp = sys.argv[1]
with open(f"{tmp}/load_good.jsonl", "w") as f:
    for i in range(100):
        f.write(f'{{"ci_load": {i}, "str1": "ci_load_{i}"}}\n')
with open(f"{tmp}/load_bad.jsonl", "w") as f:
    for i in range(100):
        f.write('{"ci_load": oops}\n' if i == 49
                else f'{{"ci_load": {1000 + i}}}\n')
EOF
./build-ci/examples/dvpd --gen 500 --port 0 --allow-load \
    --port-file "$OBS_TMP/dvpd_load.port" > "$OBS_TMP/dvpd_load.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 50); do
    [ -s "$OBS_TMP/dvpd_load.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd_load.port")"
stats_docs() {
    ./build-ci/examples/dvp_client --port "$DVPD_PORT" --stats \
        2> /dev/null | awk '$1 == "docs" { print $2 }'
}
DOCS0="$(stats_docs)"
./build-ci/examples/dvp_client --port "$DVPD_PORT" \
    "LOAD DATA LOCAL INFILE '$OBS_TMP/load_good.jsonl' REPLACE INTO TABLE t" \
    > "$OBS_TMP/load_good.out"
DOCS1="$(stats_docs)"
[ "$DOCS1" -eq $((DOCS0 + 100)) ] || {
    echo "LOAD of 100 lines moved docs $DOCS0 -> $DOCS1" >&2; exit 1; }
if ./build-ci/examples/dvp_client --port "$DVPD_PORT" \
    "LOAD DATA LOCAL INFILE '$OBS_TMP/load_bad.jsonl' REPLACE INTO TABLE t" \
    > /dev/null 2> "$OBS_TMP/load_bad.err"; then
    echo "dvpd acknowledged a LOAD with a bad line" >&2; exit 1
fi
grep -q "line 50" "$OBS_TMP/load_bad.err"
DOCS2="$(stats_docs)"
[ "$DOCS2" -eq "$DOCS1" ] || {
    echo "a failed LOAD moved docs $DOCS1 -> $DOCS2" >&2; exit 1; }
kill -TERM "$DVPD_PID"
wait "$DVPD_PID"
./build-ci/bench/bench_server_throughput --docs 2000 --duration 2 \
    --connections 4 --json "$OBS_TMP/server.ndjson" > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/server.ndjson")]
assert rows and all(r["bench"] == "server_throughput" for r in rows)
metrics = {r["metric"]: r["value"] for r in rows}
assert {"qps", "rows_per_s", "p50_ms", "p95_ms", "p99_ms"} <= \
    metrics.keys(), metrics
assert metrics["qps"] > 0 and metrics["p99_ms"] >= metrics["p50_ms"]
assert metrics["errors"] == 0, metrics
print(f"server smoke: {metrics['qps']:.0f} QPS, "
      f"p99 {metrics['p99_ms']:.2f} ms ok")
EOF

echo "=== request-scoped observability ==="
# dvpd with the HTTP scrape endpoint and slow-query log: /metrics and
# /healthz must answer with valid Prometheus text, a traced join must
# leave a parseable NDJSON slow-query record, EXPLAIN ANALYZE must
# render over the wire, and a level-1 HELLO must be refused with a
# typed PROTOCOL_ERROR.
./build-ci/examples/dvpd --gen 2000 --port 0 \
    --port-file "$OBS_TMP/dvpd2.port" \
    --http-port 0 --http-port-file "$OBS_TMP/http.port" \
    --slow-ms 1 --slow-query-log "$OBS_TMP/slow.ndjson" \
    > "$OBS_TMP/dvpd2.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 50); do
    [ -s "$OBS_TMP/dvpd2.port" ] && [ -s "$OBS_TMP/http.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd2.port")"
HTTP_PORT="$(cat "$OBS_TMP/http.port")"
JOIN="SELECT * FROM t AS l INNER JOIN t AS r \
ON l.nested_obj.str = r.str1 WHERE l.num BETWEEN 0 AND 999999"
for _ in $(seq 10); do
    ./build-ci/examples/dvp_client --port "$DVPD_PORT" \
        --trace-id c1f00ddeadbeef01 "$JOIN" > /dev/null
    [ -s "$OBS_TMP/slow.ndjson" ] && break
done
./build-ci/examples/dvp_client --port "$DVPD_PORT" \
    "EXPLAIN ANALYZE SELECT str1, num FROM t" | grep -q "execution:"
# Feature level 1 is retired: a raw level-1 HELLO must come back as a
# PROTOCOL_ERROR frame, and the next plain client must be served.
python3 - "$DVPD_PORT" <<'EOF'
import socket, struct, sys, zlib
payload = struct.pack("<II", 1, 3) + b"old"
head = struct.pack("<HBBIII", 0xD59A, 1, 1, len(payload),
                   zlib.crc32(payload), 0)
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=5)
s.sendall(head + payload)
buf = b""
while len(buf) < 18:
    chunk = s.recv(4096)
    assert chunk, "server closed without an ERROR frame"
    buf += chunk
magic, _, ftype, _, _, _ = struct.unpack("<HBBIII", buf[:16])
code = struct.unpack("<H", buf[16:18])[0]
assert (magic, ftype, code) == (0xD59A, 5, 5), (magic, ftype, code)
s.close()
EOF
./build-ci/examples/dvp_client --port "$DVPD_PORT" --stats \
    "SELECT str1, num FROM t" > "$OBS_TMP/plain.out"
grep -q "requests_total" "$OBS_TMP/plain.out"
python3 - "$OBS_TMP" "$HTTP_PORT" "$DVPD_PORT" <<'EOF'
import json, subprocess, sys, urllib.request
tmp, port, dvpd_port = sys.argv[1], sys.argv[2], sys.argv[3]
base = f"http://127.0.0.1:{port}"
# STATS renders the registry, so with no query in between it must
# agree with /metrics on the same dvpd.
stats = subprocess.run(
    ["./build-ci/examples/dvp_client", "--port", dvpd_port, "--stats"],
    check=True, capture_output=True, text=True).stdout
stats = dict(l.split() for l in stats.splitlines()
             if len(l.split()) == 2)
prom = urllib.request.urlopen(base + "/metrics", timeout=5).read().decode()
# Prometheus text format: non-comment lines are "name[{labels}] value".
names = set()
for line in prom.splitlines():
    if not line or line.startswith("#"):
        continue
    name, value = line.rsplit(None, 1)
    float(value)
    names.add(name.split("{")[0])
assert "dvp_server_requests_total" in names, sorted(names)[:20]
assert "dvp_queries_total" in names
prom_requests = next(l.split()[1] for l in prom.splitlines()
                     if l.startswith("dvp_server_requests_total "))
assert stats["server_requests_total"] == prom_requests, \
    (stats["server_requests_total"], prom_requests)
health = urllib.request.urlopen(base + "/healthz", timeout=5).read().decode()
assert health.strip() == "ok", health
recs = [json.loads(l) for l in open(f"{tmp}/slow.ndjson")]
assert recs, "no slow-query records after 10 join executions"
r = recs[0]
assert r["statement"].startswith("SELECT * FROM t AS l"), r
assert r["trace_id"] == "c1f00ddeadbeef01", r
assert r["exec_ns"] > 0 and r["layout_epoch"] > 0, r
assert r["stats"]["rows_out"] > 0, r
print(f"request obs smoke: {len(names)} metric families, "
      f"{len(recs)} slow-query records ok")
EOF
kill -TERM "$DVPD_PID"
wait "$DVPD_PID"
# Twin load run, observability off vs on: the local bar is 5%, but CI
# machines are noisy, so gate on a generous threshold here.
./build-ci/bench/bench_server_throughput --docs 2000 --duration 2 \
    --connections 2 --obs-overhead --max-overhead-pct 25 \
    --json "$OBS_TMP/obs_overhead.ndjson" > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/obs_overhead.ndjson")]
m = {r["metric"]: r["value"] for r in rows}
assert m["qps_on"] > 0 and m["qps_off"] > 0, m
print(f"obs overhead: {m['overhead_pct']:.2f}% ok")
EOF

echo "=== live ingest ==="
# The write path end to end: dvpd with --allow-insert takes wire
# INSERTs (single and batch via --exec) of attributes no document had
# before, a SELECT over them returns every inserted row, the doc count
# moves, a read-only dvpd answers INSERT with the typed READ_ONLY
# error, then the mixed read/write load generator must sustain both
# inserts and reads and emit parseable NDJSON.
./build-ci/examples/dvpd --gen 500 --port 0 --allow-insert \
    --port-file "$OBS_TMP/dvpd3.port" > "$OBS_TMP/dvpd3.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 50); do
    [ -s "$OBS_TMP/dvpd3.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd3.port")"
cat > "$OBS_TMP/inserts.sql" <<'EOF'
-- two INSERT statements (three documents), then read them back
INSERT INTO nobench VALUES ('{"ci_q": 1, "ci_v": 10}')
INSERT INTO nobench VALUES ('{"ci_q": 2, "ci_v": 20}'), ('{"ci_q": 3, "ci_v": 30}')
SELECT ci_q, ci_v FROM t WHERE ci_q BETWEEN 1 AND 3
EOF
./build-ci/examples/dvp_client --port "$DVPD_PORT" --stats \
    --exec "$OBS_TMP/inserts.sql" > "$OBS_TMP/ingest.out"
grep -q "INSERT 1 (501 docs" "$OBS_TMP/ingest.out"
grep -q "INSERT 2 (503 docs" "$OBS_TMP/ingest.out"
grep -q "3 row(s)" "$OBS_TMP/ingest.out"
grep -Eq "docs +503" "$OBS_TMP/ingest.out"
kill -TERM "$DVPD_PID"
wait "$DVPD_PID"
# Read-only server: the same INSERT must fail typed, not crash.
./build-ci/examples/dvpd --gen 100 --port 0 \
    --port-file "$OBS_TMP/dvpd4.port" > "$OBS_TMP/dvpd4.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 50); do
    [ -s "$OBS_TMP/dvpd4.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd4.port")"
if ./build-ci/examples/dvp_client --port "$DVPD_PORT" \
    "INSERT INTO nobench VALUES ('{\"x\": 1}')" \
    > /dev/null 2> "$OBS_TMP/readonly.err"; then
    echo "read-only dvpd accepted an INSERT" >&2; exit 1
fi
grep -q "READ_ONLY" "$OBS_TMP/readonly.err"
kill -TERM "$DVPD_PID"
wait "$DVPD_PID"
./build-ci/bench/bench_ingest --docs 2000 --duration 2 \
    --connections 2 --rate 100 --writers 2 --write-rate 300 \
    --json "$OBS_TMP/ingest.ndjson" > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/ingest.ndjson")]
assert rows and all(r["bench"] == "ingest" for r in rows)
m = {(r["query"], r["metric"]): r["value"] for r in rows}
assert m[("insert_only", "inserts_per_s")] > 0, m
assert m[("read_only", "qps")] > 0 and m[("mixed", "qps")] > 0, m
assert m[("mixed", "inserts_per_s")] > 0, m
print(f"ingest smoke: {m[('insert_only', 'inserts_per_s')]:.0f} "
      f"inserts/s, write lock {m[('insert_only', 'lock_ms')]:.3f} ms "
      f"per batch, mixed p95 {m[('mixed', 'p95_ms')]:.2f} ms ok")
EOF

echo "=== durability ==="
# Crash recovery end to end over real sockets: dvpd with a data
# directory (fsync=always) takes acked wire INSERTs and a CHECKPOINT,
# then an insert storm is kill -9'd mid-stream.  The restart must
# recover at least every acked document and answer the reference
# query byte-identically.
DUR_DIR="$OBS_TMP/durdata"
./build-ci/examples/dvpd --gen 300 --port 0 --allow-insert \
    --data-dir "$DUR_DIR" --fsync always \
    --port-file "$OBS_TMP/dvpd5.port" > "$OBS_TMP/dvpd5.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 50); do
    [ -s "$OBS_TMP/dvpd5.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd5.port")"
grep -q "initial checkpoint" "$OBS_TMP/dvpd5.log"
# One owner per data directory: a second dvpd on the same --data-dir
# must refuse to start (exit non-zero, by name) while the first runs.
if ./build-ci/examples/dvpd --port 0 --allow-insert \
    --data-dir "$DUR_DIR" --fsync always \
    > "$OBS_TMP/dvpd5b.log" 2>&1; then
    echo "a second dvpd started on a data dir already in use" >&2; exit 1
fi
grep -q "locked by another process" "$OBS_TMP/dvpd5b.log"
DUR_SELECT="SELECT dur_k, dur_v FROM t WHERE dur_k BETWEEN 1 AND 3"
./build-ci/examples/dvp_client --port "$DVPD_PORT" \
    "INSERT INTO nobench VALUES ('{\"dur_k\": 1, \"dur_v\": 11}')" \
    "CHECKPOINT" \
    "INSERT INTO nobench VALUES ('{\"dur_k\": 2, \"dur_v\": 22}'), ('{\"dur_k\": 3, \"dur_v\": 33}')" \
    "$DUR_SELECT" > "$OBS_TMP/dur_ref.out"
grep -q "INSERT 1 (301 docs" "$OBS_TMP/dur_ref.out"
grep -q "CHECKPOINT (snapshot-" "$OBS_TMP/dur_ref.out"
grep -q "INSERT 2 (303 docs" "$OBS_TMP/dur_ref.out"
# Insert storm, killed -9 mid-stream: the client's acked count is the
# durability floor.
python3 - > "$OBS_TMP/storm.sql" <<'EOF'
for i in range(500):
    print(f'INSERT INTO nobench VALUES (\'{{"storm": {i}}}\')')
EOF
./build-ci/examples/dvp_client --port "$DVPD_PORT" \
    --exec "$OBS_TMP/storm.sql" > "$OBS_TMP/storm.out" 2>&1 &
STORM_PID=$!
sleep 0.7
kill -9 "$DVPD_PID"
wait "$DVPD_PID" 2>/dev/null || true
wait "$STORM_PID" 2>/dev/null || true
ACKED=$(grep -c "^INSERT 1" "$OBS_TMP/storm.out" || true)
echo "storm: $ACKED inserts acked before kill -9"
# Restart on the same directory: recovery must cover every ack.
./build-ci/examples/dvpd --port 0 --allow-insert \
    --data-dir "$DUR_DIR" --fsync always \
    --port-file "$OBS_TMP/dvpd6.port" > "$OBS_TMP/dvpd6.log" 2>&1 &
DVPD_PID=$!
for _ in $(seq 50); do
    [ -s "$OBS_TMP/dvpd6.port" ] && break
    sleep 0.1
done
DVPD_PORT="$(cat "$OBS_TMP/dvpd6.port")"
grep -q "dvpd: recovered" "$OBS_TMP/dvpd6.log"
RECOVERED=$(sed -n 's/^dvpd: recovered \([0-9]*\) docs.*/\1/p' \
    "$OBS_TMP/dvpd6.log")
[ "$RECOVERED" -ge $((303 + ACKED)) ] || {
    echo "recovered $RECOVERED docs < 303 + $ACKED acked" >&2; exit 1; }
./build-ci/examples/dvp_client --port "$DVPD_PORT" --stats \
    "$DUR_SELECT" > "$OBS_TMP/dur_post.out"
grep -Eq "recovered_docs +$RECOVERED" "$OBS_TMP/dur_post.out"
# The reference rows must come back byte-identical after recovery.
grep -A 100 "^dur_k" "$OBS_TMP/dur_ref.out" | head -4 \
    > "$OBS_TMP/dur_ref.rows"
grep -A 100 "^dur_k" "$OBS_TMP/dur_post.out" | head -4 \
    > "$OBS_TMP/dur_post.rows"
diff "$OBS_TMP/dur_ref.rows" "$OBS_TMP/dur_post.rows"
kill -TERM "$DVPD_PID"
wait "$DVPD_PID"
# Recovery bench smoke: the NDJSON must carry every E16 metric.
./build-ci/bench/bench_recovery --docs 2000 \
    --json "$OBS_TMP/recovery.ndjson" > /dev/null
python3 - "$OBS_TMP" <<'EOF'
import json, sys
rows = [json.loads(l) for l in open(f"{sys.argv[1]}/recovery.ndjson")]
assert rows and all(r["bench"] == "recovery" for r in rows)
assert all("rss_peak_bytes" in r for r in rows)
m = {(r["query"], r["metric"]): r["value"] for r in rows}
assert m[("wal_fsync_always", "wal_docs_per_sec")] > 0, m
assert m[("wal_fsync_none", "wal_docs_per_sec")] > 0, m
assert m[("checkpoint", "checkpoint_mb_per_sec")] > 0, m
assert m[("replay", "replay_docs_per_sec")] > 0, m
assert m[("restart", "restart_ms")] > 0, m
print(f"recovery smoke: replay "
      f"{m[('replay', 'replay_docs_per_sec')]:.0f} docs/s, "
      f"restart {m[('restart', 'restart_ms')]:.1f} ms ok")
EOF
echo "durability smoke: $RECOVERED docs recovered, rows identical ok"

echo "=== perfbench smoke ==="
# The repository benchmark (perfbench/, BENCHMARK.json) at a tiny
# amount of work: each read workload must exit 0 and report
# "correct": true, i.e. every answer matched the reference engine.
for workload in serve_mix scan_parallel; do
    python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 0 > "$OBS_TMP/perfbench_$workload.out"
    tail -n 1 "$OBS_TMP/perfbench_$workload.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
assert r["correct"] is True and r["failed"] == 0, r
print("perfbench", sys.argv[1], "smoke:", r["attempted"], "answers correct")
' "$workload"
done

echo "=== thread-sanitizer build ==="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDVP_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
DVP_TEST_DOCS=800 ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'test_parallel|test_util|test_adaptive|test_obs|test_plan|test_kernels|test_compress|test_server|test_analyze|test_ingest|test_json_tape|test_durability'

echo "=== address-sanitizer build ==="
# ASan catches lifetime bugs the plan cache could introduce: a cached
# plan outliving its Database (epoch guard), swap invalidation racing
# executions, and layout mutations under randomized move sequences.
# test_persist adds static-destruction order: fixtures whose
# destructors flush metrics after main() returns.  test_engine and
# test_argo add the offset arithmetic of the flat result rows, and
# test_parallel the lanes that write SELECT * cells at computed
# offsets of pre-sized rows.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDVP_SANITIZE=address
cmake --build build-asan -j "$JOBS"
DVP_TEST_DOCS=800 ctest --test-dir build-asan --output-on-failure \
    -j "$JOBS" -R 'test_plan|test_adaptive|test_layout|test_kernels|test_compress|test_server|test_analyze|test_ingest|test_json_tape|test_durability|test_persist|test_engine|test_argo|test_parallel'

echo "ci.sh: all suites passed"
