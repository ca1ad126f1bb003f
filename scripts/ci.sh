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

echo "== go test -race -shuffle=on"
# Shuffled, so a test that leans on state an earlier one left behind
# fails; the seed is printed, and -shuffle=SEED replays the order.
go test -race -shuffle=on ./...

echo "== bench smoke (compiled-schema, prepared-plan, audit-overhead and Figure 3 benchmarks, 1 iteration)"
# One iteration only — this proves the engine/phase, cold/warm and
# audit off/on benchmarks, and every Figure 3 benchmark (the 3.a
# passes are the ones the cold-path profiles are taken from), still
# compile and run. Measure one with
# `go test -run '^$' -bench <name> -benchmem <package>`;
# BENCH_compiledschema.json and BENCH_sentinel.json are the historical
# records of the first and last.
go test -run '^$' -bench 'BenchmarkCompiledVsReference|BenchmarkPreparedVsCold|BenchmarkAuditOverhead' -benchtime 1x .
# One run per Figure 3 benchmark: -bench applies its /-separated parts
# per level, so one benchmark's sub-benchmark filter must not reach
# another's. Each filter keeps a cheap sub-benchmark.
for filter in 'BenchmarkFigure3aChains/(UB2|UN1)$' 'BenchmarkFigure3aTypes/UB2$' \
  'BenchmarkFigure3bMatrix/paths$' 'BenchmarkFigure3cRefresh/factor=1$/chains$' \
  'BenchmarkFigure3dInference/d3$/e5$/k=5$'; do
  go test -run '^$' -bench "${filter}" -benchtime 1x ./internal/experiments
done

echo "== xqbench smoke under tight budgets (Figure 3.b stays sound; Figure 3.a's k ignores the budget; counts below 1 are refused)"
# xqbench counts a budget overrun as "not independent", so a 3 ms
# budget must still give a sound Figure 3.b: xqbench exits 1 on a
# SOUNDNESS VIOLATION. Under 20us every Figure 3.a analysis overruns
# (the budget reads its deadline at each engine phase), and the k
# column must still be Table 3's k of each pair, which is at least 2
# on XMark, never a range starting at 0.
xqbench_bin="$(mktemp -d)/xqbench"
go build -o "${xqbench_bin}" ./cmd/xqbench
"${xqbench_bin}" -fig 3b -truth-docs 1 -truth-factor 0.5 -timeout 3ms >/dev/null
# A count below 1 is a usage error (exit 2) with a message, not a panic
# inside the R-benchmark generator.
count_status=0
"${xqbench_bin}" -fig 3d -d-ns 0 >/dev/null 2>"${xqbench_bin}.err" || count_status=$?
if [ "${count_status}" -ne 2 ] || grep -q 'panic:' "${xqbench_bin}.err"; then
  echo "xqbench smoke: -fig 3d -d-ns 0 exited ${count_status}, want 2 without a panic:" >&2
  cat "${xqbench_bin}.err" >&2
  exit 1
fi
fig3a="$("${xqbench_bin}" -fig 3a -timeout 20us)"
fig3a_rows="$(grep -cE '^U[A-Z][0-9]+ ' <<<"${fig3a}" || true)"
if [ "${fig3a_rows}" -ne 31 ]; then
  echo "xqbench smoke: Figure 3.a printed ${fig3a_rows} update rows, want 31" >&2
  exit 1
fi
if grep -E '^U[A-Z][0-9]+ .*[[:space:]]0-[0-9]+$' <<<"${fig3a}" >&2; then
  echo "xqbench smoke: the Figure 3.a rows above give a k range starting at 0" >&2
  exit 1
fi

echo "== show-plan smoke (one pair key per logical pair, 32 hex characters)"
# xqindep -show-plan prints the plan cache key. //title and its
# unsugared spelling are one logical query, so their pair keys must be
# equal; //price is another, so its key must differ. A pair key is a
# 128-bit digest: 32 lowercase hex characters.
show_plan_dir="$(mktemp -d)"
go build -o "${show_plan_dir}/xqindep" ./cmd/xqindep
printf 'bib <- book*\nbook <- title, author*, price?\ntitle <- #PCDATA\nauthor <- #PCDATA\nprice <- #PCDATA\n' \
  > "${show_plan_dir}/bib.dtd"
pair_key() {
  local out
  # Exit status 1 (dependent) is a verdict, not a failure; a usage error
  # prints no key and fails the format check below.
  out="$("${show_plan_dir}/xqindep" -schema "${show_plan_dir}/bib.dtd" \
    -query "$1" -update 'delete //price' -show-plan)" || true
  awk '$1 == "pair" { print $2 }' <<<"${out}"
}
title_key="$(pair_key '//title')"
unsugared_key="$(pair_key '/descendant-or-self::node()/child::title')"
price_key="$(pair_key '//price')"
for key in "${title_key}" "${unsugared_key}" "${price_key}"; do
  if ! grep -qxE '[0-9a-f]{32}' <<<"${key}"; then
    echo "show-plan smoke: pair key '${key}' is not 32 lowercase hex characters" >&2
    exit 1
  fi
done
if [ "${title_key}" != "${unsugared_key}" ]; then
  echo "show-plan smoke: //title and its unsugared spelling have different pair keys" >&2
  exit 1
fi
if [ "${title_key}" = "${price_key}" ]; then
  echo "show-plan smoke: //title and //price share the pair key ${title_key}" >&2
  exit 1
fi

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

echo "== breaker, audit-queue and drain regressions (-race -count=10)"
# Healthy schemas must leave no breaker entry, Flush must not race a
# concurrent Observe, a full audit queue must drop exactly the audits
# beyond it without blocking, a hard-cancelled auditor must skip its
# queued audits instead of replaying the oracle for each, and Serve
# must drain a wedged pool under its DrainTimeout; all are concurrent,
# so run them repeatedly under the race detector.
go test ./internal/server -race -count=10 -run '^TestBreakerKeepsNoEntryForHealthySchemas$'
go test ./internal/sentinel -race -count=10 -run '^(TestFlushWhileObserving|TestQueueOverflowDropsNotBlocks|TestShutdownSkipsQueuedAuditsAfterHardCancel)$'
go test . -race -count=10 -run '^TestServeDrainsUnderPoolDrainTimeout$'

echo "== shared prepared sides and warm hits (-race -count=10)"
# The handler's parsed-expression tier hands one resident query or
# update side to every request that sends the same member, so
# concurrent requests read the same sides: rerun the check that shares
# them across goroutines under the race detector. A resident plan is
# answered outside the run slots, so rerun too the check in which warm
# hits race purges of the plan cache and the schema's quarantine.
go test ./internal/server -race -count=10 -run '^(TestConcurrentRequestsShareSides|TestWarmHitsRacePurgeAndQuarantine)$'

echo "== recycled sweep slabs and traces (-race -count=10)"
# A pooled sweep slab or trace must never be reachable from two
# requests at once: rerun the checks that share them across goroutines
# under the race detector, which also drops a quarter of what a
# sync.Pool is handed.
go test ./internal/cdag -race -count=10 -run '^TestRecycledScratchIsNotShared$'
go test ./internal/obs -race -count=10 -run '^(TestReleasedTraceComesBackEmpty|TestLargeTraceIsNotPooled)$'
go test ./internal/server -race -count=10 -run '^(TestConcurrentTracesAreTheirOwn|TestWarmAnalyzeBytesWithRing)$'

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
# And for the durable-state layer: the atomically replaced state file
# under injected short writes, failed fsyncs and kill-9, with the
# invariant that recovery reads the last acknowledged state or one
# attempted after it, never an older, torn or fabricated one (the
# default-seed 200-run suite already ran above).
CHAOS_SEED="${CHAOS_SEED:-424242}" CHAOS_RUNS="${CHAOS_RUNS:-60}" \
  go test ./internal/statefile -race -count=1 -run 'TestCrashChaos'

echo "== state-dir smoke (daemon on the real filesystem)"
# The crash chaos runs on MemFS; this drives xqindepd -state-dir on a
# real directory. Two batch lives on one directory both exit 0, the
# second boot line reports the state file loaded, and the directory
# then holds only the state file and the incident spool. A -state-dir
# that is a regular file, or a directory holding a non-empty
# journal.<gen> (acknowledged records of the release that kept a
# journal), must exit 2 rather than serve without durability.
state_tmp="$(mktemp -d)"
go build -o "${state_tmp}/xqindepd" ./cmd/xqindepd
state_dir="${state_tmp}/state"
for life in 1 2; do
  "${state_tmp}/xqindepd" -batch -state-dir "${state_dir}" </dev/null 2>"${state_tmp}/boot${life}.log"
done
if ! grep -qF "state ${state_dir}: restored 0 quarantined fingerprint(s) (snapshot=true)" "${state_tmp}/boot2.log"; then
  echo "state-dir smoke: the second boot did not report the state file loaded:" >&2
  cat "${state_tmp}/boot2.log" >&2
  exit 1
fi
state_left="$(ls -A "${state_dir}" | tr '\n' ' ')"
if [ "${state_left}" != "incidents.jsonl snapshot " ]; then
  echo "state-dir smoke: ${state_dir} holds '${state_left}', want only incidents.jsonl and snapshot" >&2
  exit 1
fi
expect_exit2() {
  local status=0
  "${state_tmp}/xqindepd" -batch -state-dir "$1" </dev/null 2>"${state_tmp}/refused.log" || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "state-dir smoke: -state-dir $1 exited ${status}, want 2 ($2)" >&2
    cat "${state_tmp}/refused.log" >&2
    exit 1
  fi
}
touch "${state_tmp}/regular-file"
expect_exit2 "${state_tmp}/regular-file" "a regular file"
printf 'x' >"${state_dir}/journal.7"
expect_exit2 "${state_dir}" "a non-empty journal.7"
if ! grep -qF "journal.7" "${state_tmp}/refused.log"; then
  echo "state-dir smoke: the refusal does not name journal.7:" >&2
  cat "${state_tmp}/refused.log" >&2
  exit 1
fi

echo "== audit-spool smoke (-audit-spool without -audit-rate is refused)"
# Only the audit lane writes incidents, so -audit-spool without
# -audit-rate would leave a spool that never receives one: the daemon
# (built by the state-dir smoke) must exit 2 before creating the file.
spool_status=0
"${state_tmp}/xqindepd" -batch -audit-spool "${state_tmp}/spool.jsonl" </dev/null \
  2>"${state_tmp}/refused.log" || spool_status=$?
if [ "${spool_status}" -ne 2 ]; then
  echo "audit-spool smoke: -audit-spool without -audit-rate exited ${spool_status}, want 2" >&2
  cat "${state_tmp}/refused.log" >&2
  exit 1
fi
if [ -e "${state_tmp}/spool.jsonl" ]; then
  echo "audit-spool smoke: the refused daemon created its spool file" >&2
  exit 1
fi
rm -rf "${state_tmp}"

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
for tier in compile plan update; do
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

# table_rows HEADER prints the sorted first cells (`name`) of the rows
# of the DESIGN.md §14 table whose header row starts with "| HEADER |".
table_rows() {
  awk -v h="| $1 |" '/^## 14\./ { sec = 1; next } /^## / { sec = 0 }
    sec && index($0, h) == 1 { tab = 1; next }
    tab && !/^\|/ { tab = 0 }
    sec && tab' DESIGN.md \
    | { grep -oE '^\| `[a-z0-9:._/-]+` \|' || true; } | tr -d '|` ' | sort -u
}

echo "== fault-point grep (listed points are fired; fired points and DESIGN.md §14's point table agree)"
# Every name in faultinject.Points and faultinject.PlanPoints must be
# fired by non-test Go outside testdata, through .Point("…"),
# .Phase("…") or guard.FirePoint(…, "…"): a listed point nothing fires
# makes every chaos draw of it test nothing. And the names fired there
# must be exactly the first cells of the rows of DESIGN.md §14's point
# table, which says where each fires.
listed="$(awk '/^var (Points|PlanPoints) = \[\]string\{/,/^\}/' internal/faultinject/faultinject.go \
  | grep -oE '^[[:space:]]*"[a-z0-9._/]+"' | tr -d ' \t"' | sort -u)"
fired="$(grep -rhoE --include='*.go' --exclude='*_test.go' \
  --exclude-dir=testdata --exclude-dir=.git --exclude-dir=.bench_build \
  '(\.(Point|Phase)\("[a-z0-9._/]+"\)|FirePoint\([^,]*, "[a-z0-9._/]+"\))' . \
  | grep -oE '"[a-z0-9._/]+"' | tr -d '"' | sort -u)"
if [ -z "${listed}" ] || [ -z "${fired}" ]; then
  echo "fault points: found no listed or no fired points; pattern stale?" >&2
  exit 1
fi
point_rows="$(table_rows point)"
missing=0
for name in ${listed}; do
  if ! grep -qxF -- "${name}" <<<"${fired}"; then
    echo "fault points: internal/faultinject lists ${name} but no code fires it" >&2
    missing=1
  fi
done
for name in ${fired}; do
  if ! grep -qxF -- "${name}" <<<"${point_rows}"; then
    echo "fault points: ${name} is fired but has no row in DESIGN.md §14's point table" >&2
    missing=1
  fi
done
for name in ${point_rows}; do
  if ! grep -qxF -- "${name}" <<<"${fired}"; then
    echo "fault points: DESIGN.md §14's point table has a row for ${name}, which no code fires" >&2
    missing=1
  fi
done
if [ "${missing}" -ne 0 ]; then
  exit 1
fi
echo "$(wc -w <<<"${listed}") listed points all fired; $(wc -w <<<"${fired}") fired points, one table row each"

echo "== span-name grep (opened spans and DESIGN.md §14's span table agree)"
# The spans the code opens are the string literals passed to .Start(
# in non-test Go outside testdata and bench/, plus the values of
# core.rungSpanNames, which the ladder opens by lookup. They must be
# exactly the first cells of the rows of DESIGN.md §14's span table,
# which says where each opens.
opened="$( {
  grep -rhoE --include='*.go' --exclude='*_test.go' \
    --exclude-dir=testdata --exclude-dir=bench --exclude-dir=.git \
    '\.Start\("[^"]+"\)' . | grep -oE '"[^"]+"'
  awk '/^var rungSpanNames = map\[Method\]string\{/,/^\}/' internal/core/core.go \
    | grep -oE ':[[:space:]]*"[^"]+"' | grep -oE '"[^"]+"'
} | tr -d '"' | sort -u)"
span_rows="$(table_rows span)"
if [ -z "${opened}" ]; then
  echo "span names: found no opened spans; pattern stale?" >&2
  exit 1
fi
missing=0
for name in ${opened}; do
  if ! grep -qxF -- "${name}" <<<"${span_rows}"; then
    echo "span names: ${name} is opened but has no row in DESIGN.md §14's span table" >&2
    missing=1
  fi
done
for name in ${span_rows}; do
  if ! grep -qxF -- "${name}" <<<"${opened}"; then
    echo "span names: DESIGN.md §14's span table has a row for ${name}, which no code opens" >&2
    missing=1
  fi
done
if [ "${missing}" -ne 0 ]; then
  exit 1
fi
echo "$(wc -w <<<"${opened}") opened spans, one table row each"

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
fuzz ./internal/server FuzzAnalyzeBody
fuzz . FuzzParseDocument
fuzz ./internal/cdag FuzzDenseMatchesReference

echo "== ok"
