#!/usr/bin/env bash
# Dispatcher smoke: start dispatchd + 2 simworkers on localhost, kill one
# worker mid-cell, and assert the lease re-book completes the sweep with a
# merged report. A fleet flight recorder (`analyze -record`) polls every
# /metrics endpoint throughout and its dataset must replay into queue and
# utilization timelines afterwards. Then export the finished sweep as a
# report bundle with `sweep -bundle` plus a Chrome trace with `-trace`,
# re-verify every bundled artifact body's SHA-256 against the journal's
# digests, and assert the trace's span tree covers every cell's
# queued→done lifecycle across the crash. Exercises the real binaries over
# the real wire protocol — the deterministic in-process equivalent lives
# in internal/dispatch tests.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir" ./cmd/dispatchd ./cmd/simworker ./cmd/analyze
# Built separately: `sweep` would collide with the journal dir name below.
go build -o "$workdir/sweepcli" ./cmd/sweep

addr="127.0.0.1:${DISPATCH_SMOKE_PORT:-19199}"
worker_metrics="127.0.0.1:${DISPATCH_SMOKE_METRICS_PORT:-19198}"
journal="$workdir/sweep"

# Cells sized to run a few seconds each, so the kill lands mid-cell.
"$workdir/dispatchd" -dir "$journal" -addr "$addr" \
  -scale 0.08 -vms 2800 -days 8 -sample 10m \
  -scenarios baseline,host-failures -seeds 7,11 \
  -lease 3s -checkpoint 6h -timeout 10m \
  >"$workdir/dispatchd.out" 2>"$workdir/dispatchd.err" &
dispatchd_pid=$!

sleep 1
"$workdir/simworker" -dispatcher "http://$addr" -id victim -heartbeat 300ms -poll 200ms \
  >/dev/null 2>"$workdir/victim.err" &
victim_pid=$!
"$workdir/simworker" -dispatcher "http://$addr" -id survivor -heartbeat 300ms -poll 200ms \
  -metrics "$worker_metrics" \
  >/dev/null 2>"$workdir/survivor.err" &
survivor_pid=$!

# Fleet flight recorder: poll both /metrics endpoints for the whole sweep,
# appending every sample to an on-disk dataset that survives whatever the
# sweep (or the recorder) does next.
fleet="$workdir/fleet"
"$workdir/analyze" -record "$fleet" \
  -scrape "http://$addr/metrics,http://$worker_metrics/metrics" -every 300ms \
  >"$workdir/recorder.out" 2>"$workdir/recorder.err" &
recorder_pid=$!

# Kill the victim once the journal holds its first accepted heartbeat (the
# booked → running record) — guaranteed mid-cell.
killed=""
for _ in $(seq 1 150); do
  if grep -q '"state":"running","worker":"victim"' "$journal/journal.jsonl" 2>/dev/null; then
    kill -9 "$victim_pid" 2>/dev/null || true
    killed=yes
    echo "smoke: killed victim worker mid-cell (heartbeat journaled)"
    break
  fi
  sleep 0.2
done
[ -n "$killed" ] || { echo "smoke: victim never got a heartbeat journaled" >&2; exit 1; }

# Mid-sweep fleet observability: scrape dispatchd's and the survivor's
# /metrics endpoints through the in-tree scrape/promql stack and assert
# queue-depth conservation — every cell of the 2x2 matrix is in exactly one
# state, whatever the re-book races are doing right now.
depth=$("$workdir/analyze" \
    -scrape "http://$addr/metrics,http://$worker_metrics/metrics" \
    -query 'sum(dispatch_queue_jobs)' | tail -n 1)
[ "$depth" = "4" ] ||
  { echo "smoke: mid-sweep sum(dispatch_queue_jobs) = $depth, want 4" >&2; exit 1; }
capacity=$("$workdir/analyze" \
    -scrape "http://$worker_metrics/metrics" \
    -query 'sum(worker_capacity)' | tail -n 1)
[ "$capacity" = "1" ] ||
  { echo "smoke: survivor worker_capacity = $capacity, want 1" >&2; exit 1; }
echo "smoke: mid-sweep metrics scrape OK (queue depth conserved at 4 cells)"

# The survivor must drain the sweep, including the re-booked cell.
if ! wait "$dispatchd_pid"; then
  echo "smoke: dispatchd failed" >&2
  cat "$workdir/dispatchd.err" >&2
  exit 1
fi
wait "$survivor_pid" || { echo "smoke: survivor failed" >&2; cat "$workdir/survivor.err" >&2; exit 1; }

# Stop the recorder and replay its dataset: the recording must be
# non-empty, reloadable, and must render the sweep's fleet timelines.
kill -INT "$recorder_pid" 2>/dev/null || true
wait "$recorder_pid" || { echo "smoke: recorder failed" >&2; cat "$workdir/recorder.err" >&2; exit 1; }
rows=$(($(wc -l < "$fleet/fleet.csv") - 1))
[ "$rows" -gt 0 ] ||
  { echo "smoke: flight recorder dataset is empty" >&2; exit 1; }
"$workdir/analyze" -fleet "$fleet" >"$workdir/fleet.out" ||
  { echo "smoke: fleet timeline replay failed" >&2; exit 1; }
grep -q 'queue depth by state' "$workdir/fleet.out" ||
  { echo "smoke: fleet replay is missing the queue-depth timeline" >&2; exit 1; }
grep -q 'worker utilization' "$workdir/fleet.out" ||
  { echo "smoke: fleet replay is missing the worker-utilization timeline" >&2; exit 1; }
echo "smoke: flight recorder captured $rows samples across the sweep"

grep -q '"attempt":2' "$journal/journal.jsonl" ||
  { echo "smoke: no lease re-book recorded in the journal" >&2; exit 1; }
grep -q 'booked by survivor (attempt 2)' "$workdir/dispatchd.err" ||
  { echo "smoke: the re-booked cell was not picked up by the survivor" >&2; exit 1; }
test -s "$journal/report.txt" || { echo "smoke: no merged report written" >&2; exit 1; }
grep -q 'host-failures' "$journal/report.txt" ||
  { echo "smoke: merged report is missing scenarios" >&2; exit 1; }

echo "smoke: sweep completed after worker kill + lease re-book"

# The completions carried every artifact body into the journal dir's CAS;
# materialize the bundle from the finished journal and re-verify every
# body's recomputed SHA-256 against the digests the journal recorded.
bundle="$workdir/bundle"
trace="$workdir/trace.json"
engprof="$workdir/engprof"
"$workdir/sweepcli" -resume "$journal" -bundle "$bundle" -trace "$trace" -engprof "$engprof" \
  >"$workdir/bundle.out" 2>"$workdir/bundle.err" ||
  { echo "smoke: bundle export failed" >&2; cat "$workdir/bundle.err" >&2; exit 1; }

# Engine self-profiles: every completed cell shipped one into the CAS, the
# pointers survived the worker kill, the re-book, and the resume, and the
# export must cover the full 2x2 matrix — including the re-booked cell.
grep -q '"t":"profile"' "$journal/journal.jsonl" ||
  { echo "smoke: no profile pointer recorded in the journal" >&2; exit 1; }
profiles=$(find "$engprof" -name '*.engprof.json' | wc -l)
[ "$profiles" -eq 4 ] ||
  { echo "smoke: exported $profiles engine profiles, want 4 (one per cell)" >&2; exit 1; }
"$workdir/analyze" -engprof "$engprof" -critpath "$trace" >"$workdir/engprof.out" ||
  { echo "smoke: engine-profile analysis failed" >&2; exit 1; }
grep -q 'engine profile .*: 4 cells' "$workdir/engprof.out" ||
  { echo "smoke: engprof report did not aggregate all 4 cells" >&2; exit 1; }
grep -q 'per-phase attribution' "$workdir/engprof.out" ||
  { echo "smoke: engprof report is missing the per-phase attribution table" >&2; exit 1; }
grep -q 'sample/hosts' "$workdir/engprof.out" ||
  { echo "smoke: engprof report has no host-sampling phase row" >&2; exit 1; }
grep -q 'stragglers' "$workdir/engprof.out" ||
  { echo "smoke: engprof report is missing the straggler table" >&2; exit 1; }
echo "smoke: engine profiles exported and aggregated (4 cells, per-phase attribution across kill+resume)"

# The exported trace must reconstruct the full cell lifecycle from the
# journal: one root span per cell of the 2x2 matrix, exactly one attempt
# span per booking the journal recorded (including the victim's), and the
# worker-shipped engine-phase spans merged in.
test -s "$trace" || { echo "smoke: no trace exported" >&2; exit 1; }
cells=$(grep -o '"name":"cell"' "$trace" | wc -l)
[ "$cells" -eq 4 ] ||
  { echo "smoke: trace has $cells cell root spans, want 4" >&2; exit 1; }
attempts=$(grep -o '"name":"attempt"' "$trace" | wc -l)
booked=$(grep -c '"state":"booked"' "$journal/journal.jsonl")
[ "$attempts" -eq "$booked" ] ||
  { echo "smoke: trace has $attempts attempt spans but the journal recorded $booked bookings" >&2; exit 1; }
runs=$(grep -o '"name":"run"' "$trace" | wc -l)
[ "$runs" -gt 0 ] ||
  { echo "smoke: trace has no worker-shipped engine run spans" >&2; exit 1; }
"$workdir/analyze" -critpath "$trace" >"$workdir/critpath.out" ||
  { echo "smoke: critical-path analysis failed" >&2; exit 1; }
grep -q 'critical path:' "$workdir/critpath.out" ||
  { echo "smoke: critical-path report is incomplete" >&2; exit 1; }
echo "smoke: trace verified ($cells cells, $attempts attempts for $booked bookings, $runs run spans)"

test -s "$bundle/index.html" || { echo "smoke: bundle has no index" >&2; exit 1; }
test -s "$bundle/scenarios/host-failures/report.txt" ||
  { echo "smoke: bundle is missing per-scenario reports" >&2; exit 1; }

# 2 scenarios x 2 seeds x 18 artifacts = 72 bundled bodies.
bodies=$(wc -l < "$bundle/SHA256SUMS")
[ "$bodies" -eq 72 ] ||
  { echo "smoke: bundle lists $bodies bodies, want 72" >&2; exit 1; }
(cd "$bundle" && sha256sum --check --quiet SHA256SUMS) ||
  { echo "smoke: a bundled artifact's recomputed SHA-256 differs from the journal digest" >&2; exit 1; }

# Dedup + reclamation: after the drain and the resume's orphan GC, the CAS
# must hold exactly one blob per distinct bundled digest plus one surviving
# profile blob per cell (profiles outlive completion by design) — and
# strictly fewer artifact blobs than bundled bodies (the static tables are
# identical across all four cells).
distinct=$(cut -d' ' -f1 "$bundle/SHA256SUMS" | sort -u | wc -l)
blobs=$(find "$journal/cas" -type f | wc -l)
[ "$blobs" -eq $((distinct + 4)) ] ||
  { echo "smoke: CAS holds $blobs blobs, want $distinct artifact + 4 profile blobs" >&2; exit 1; }
[ "$distinct" -lt "$bodies" ] ||
  { echo "smoke: no dedup: $distinct distinct blobs for $bodies bodies" >&2; exit 1; }

echo "smoke: bundle verified ($bodies bodies, $distinct distinct artifact blobs + 4 profile blobs, all SHA-256 match the journal)"
