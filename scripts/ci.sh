#!/usr/bin/env bash
# The full verification gate: static checks, build, the race-enabled
# test suite, a fixed-seed chaos smoke of the serving layer, and a
# short fuzz smoke of every fuzz target.
#
#   scripts/ci.sh              # everything (~a few minutes)
#   FUZZTIME=30s scripts/ci.sh # longer fuzz smoke
#
# The fuzz smoke caps the minimizer at 2s so a 10s budget is spent
# actually fuzzing instead of minimizing the first interesting input.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted="$(gofmt -l . | grep -v testdata || true)"
if [ -n "${unformatted}" ]; then
  echo "gofmt needed on:" >&2
  echo "${unformatted}" >&2
  exit 1
fi

echo "== xqvet"
go run ./cmd/xqvet ./...

echo "== xqvet findings artifact (JSON)"
# Machine-readable findings for CI archiving. The gate above already
# failed on findings; this run records the (empty) array plus the
# sorted shape CI diffs rely on. XQVET_JSON_OUT defaults to a
# git-ignored scratch path; the workflow uploads it as an artifact.
XQVET_JSON_OUT="${XQVET_JSON_OUT:-xqvet-findings.json}"
go run ./cmd/xqvet -json ./... > "${XQVET_JSON_OUT}"
echo "findings written to ${XQVET_JSON_OUT}"

echo "== xqvet negative test (seeded violations must fail the gate)"
# The golden fixtures are a module full of deliberate violations; if
# xqvet ever exits 0 on them, the gate has silently stopped gating.
if go run ./cmd/xqvet -dir internal/vetcheck/testdata/src/fix ./... >/dev/null 2>&1; then
  echo "xqvet negative test failed: fixture violations were not reported" >&2
  exit 1
fi

echo "== xqvet negative test (seeded lock inversion must fail the gate)"
# The mut module carries a hand-inserted lock-order inversion and a
# laundered verdict with no want comments: if the dataflow checks ever
# stop seeing them, this exit-0 catches it.
if go run ./cmd/xqvet -dir internal/vetcheck/testdata/src/mut ./... >/dev/null 2>&1; then
  echo "xqvet negative test failed: seeded lock inversion was not reported" >&2
  exit 1
fi

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== bench smoke (compiled-schema, prepared-plan and audit-overhead comparisons, 1 iteration)"
# One iteration only — this proves the engine/phase, cold/warm and
# audit off/on benchmarks still compile and run. Measure one with
# `go test -run '^$' -bench <name> -benchmem .`;
# BENCH_compiledschema.json and BENCH_sentinel.json are the historical
# records of the first and last.
go test -run '^$' -bench 'BenchmarkCompiledVsReference|BenchmarkPreparedVsCold|BenchmarkAuditOverhead' -benchtime 1x .

echo "== bench module (go vet + go test inside bench/)"
# bench/ is a module of its own, so `go test ./...` above never reaches
# it; an internal API change that breaks its layer entry points would
# otherwise pass. The module proxy is off, as bench/run.sh sets it.
(
  cd bench
  export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
  go vet ./...
  go test ./...
)

echo "== chaos smoke (fixed seed, ${CHAOS_RUNS:-60} runs)"
# A second, differently-seeded pass over the serving layer's chaos
# harness (the default-seed 200-run suite already ran above). Seed and
# run count are pinned so failures reproduce with the printed values.
CHAOS_SEED="${CHAOS_SEED:-424242}" CHAOS_RUNS="${CHAOS_RUNS:-60}" \
  go test ./internal/server -race -count=1 -run 'TestChaos'

echo "== sentinel chaos smoke (fixed seed, ${CHAOS_RUNS:-60} runs)"
# Same discipline for the audit-and-quarantine layer: a differently
# seeded pass of its containment proof (unsound verdicts are audited,
# refuted and quarantined; recovery restores service; no leaks).
CHAOS_SEED="${CHAOS_SEED:-424242}" CHAOS_RUNS="${CHAOS_RUNS:-60}" \
  go test ./internal/sentinel -race -count=1 -run 'TestChaos'

echo "== crash-recovery chaos smoke (fixed seed, ${CHAOS_RUNS:-60} runs)"
# And for the durable-state layer: the statefile journal/snapshot
# protocol under injected short writes, failed fsyncs and kill-9, with
# the invariant that every acknowledged record survives recovery (the
# default-seed 200-run suite already ran above).
CHAOS_SEED="${CHAOS_SEED:-424242}" CHAOS_RUNS="${CHAOS_RUNS:-60}" \
  go test ./internal/statefile -race -count=1 -run 'TestCrashChaos'

echo "== metricz smoke (boot daemon, scrape, check families)"
# Boot the real daemon and scrape /metricz once: proves the ops
# surface end to end (routes wired, exposition parses as text, the
# core families are present) rather than trusting the handler tests.
METRICZ_PORT="${METRICZ_PORT:-18117}"
daemon_bin="$(mktemp -d)/xqindepd"
go build -o "${daemon_bin}" ./cmd/xqindepd
"${daemon_bin}" -addr "localhost:${METRICZ_PORT}" -trace-ring 4 &
daemon_pid=$!
trap 'kill "${daemon_pid}" 2>/dev/null || true' EXIT
scrape=""
for _ in $(seq 1 50); do
  if scrape="$(curl -sf "http://localhost:${METRICZ_PORT}/metricz")"; then
    break
  fi
  sleep 0.1
done
if [ -z "${scrape}" ]; then
  echo "metricz smoke: daemon never answered on :${METRICZ_PORT}" >&2
  exit 1
fi
for fam in xqindep_request_latency_seconds xqindep_requests_total \
           xqindep_verdicts_total xqindep_pool_admitted_total \
           xqindep_cache_hits_total xqindep_cache_resident \
           xqindep_quarantined xqindep_trace_ring_added_total; do
  if ! grep -q "^# TYPE ${fam} " <<<"${scrape}"; then
    echo "metricz smoke: family ${fam} missing from /metricz" >&2
    exit 1
  fi
done
for tier in compile plan; do
  if ! grep -q "^xqindep_cache_misses_total{tier=\"${tier}\"} " <<<"${scrape}"; then
    echo "metricz smoke: cache tier ${tier} missing from /metricz" >&2
    exit 1
  fi
done
kill "${daemon_pid}" 2>/dev/null || true
wait "${daemon_pid}" 2>/dev/null || true
trap - EXIT

echo "== docs-to-registry grep (README metric names and registered families must agree)"
# Every xqindep_* name the README mentions must be a registered family
# in internal/server/metrics.go — documentation naming a metric that
# doesn't exist (or that drifted after a rename) fails CI. Exposition
# suffixes (_bucket/_sum/_count) are stripped: they are derived forms.
doc_names="$(grep -o 'xqindep_[a-z_]*[a-z]' README.md \
  | sed -E 's/_(bucket|sum|count)$//' | sort -u)"
if [ -z "${doc_names}" ]; then
  echo "docs grep: README names no xqindep_* metrics; ops section missing?" >&2
  exit 1
fi
for name in ${doc_names}; do
  if ! grep -q "\"${name}\"" internal/server/metrics.go; then
    echo "docs grep: README names ${name} but internal/server/metrics.go does not define it" >&2
    exit 1
  fi
done
echo "$(wc -w <<<"${doc_names}") documented families all registered"
# And the reverse: every registered family must be documented.
reg_names="$(grep -o '"xqindep_[a-z_]*[a-z]"' internal/server/metrics.go | tr -d '"' | sort -u)"
for name in ${reg_names}; do
  if ! grep -qw "${name}" README.md; then
    echo "docs grep: internal/server/metrics.go registers ${name} but README.md does not document it" >&2
    exit 1
  fi
done
echo "$(wc -w <<<"${reg_names}") registered families all documented"

echo "== docs-to-flags grep (every xqindepd and xqindep flag is documented in README)"
# Every flag the daemon and the analyzer CLI register must appear in
# README.md as -name, so a new or renamed flag cannot ship
# undocumented. Names may hold digits (-update2).
for cmd in xqindepd xqindep; do
  flag_names="$(grep -o 'flag\.[A-Za-z0-9]*("[a-z0-9-]*"' "cmd/${cmd}/main.go" \
    | sed -E 's/.*\("([a-z0-9-]*)"/\1/' | sort -u)"
  if [ -z "${flag_names}" ]; then
    echo "flags grep: cmd/${cmd}/main.go registers no flags; pattern stale?" >&2
    exit 1
  fi
  for name in ${flag_names}; do
    if ! grep -qE -- "-${name}([^a-z0-9-]|\$)" README.md; then
      echo "flags grep: cmd/${cmd} registers -${name} but README.md does not document it" >&2
      exit 1
    fi
  done
  echo "$(wc -w <<<"${flag_names}") ${cmd} flags all documented"
done

echo "== fuzz smoke (${FUZZTIME} per target)"
fuzz() {
  local pkg="$1" target="$2"
  echo "-- ${target} (${pkg})"
  go test "${pkg}" -run '^$' -fuzz "^${target}\$" \
    -fuzztime "${FUZZTIME}" -fuzzminimizetime 2s
}
fuzz ./internal/dtd FuzzParseSchema
fuzz ./internal/xquery FuzzParseQuery
fuzz ./internal/xquery FuzzParseUpdate
fuzz . FuzzAnalyzeContext
fuzz . FuzzParseDocument

echo "== ok"
