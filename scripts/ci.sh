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

echo "== bench smoke (compiled-schema, prepared-plan, audit-overhead and Figure 3.a chain benchmarks, 1 iteration)"
# One iteration only — this proves the engine/phase, cold/warm and
# audit off/on benchmarks, and the Figure 3.a passes the cold-path
# profiles are taken from, still compile and run. Measure one with
# `go test -run '^$' -bench <name> -benchmem .`;
# BENCH_compiledschema.json and BENCH_sentinel.json are the historical
# records of the first and last.
go test -run '^$' -bench 'BenchmarkCompiledVsReference|BenchmarkPreparedVsCold|BenchmarkAuditOverhead' -benchtime 1x .
# A second run: -bench applies its /-separated parts per level, so the
# sub-benchmark filter must not reach the benchmarks above.
go test -run '^$' -bench 'BenchmarkFigure3aChains/(UB2|UN1)$' -benchtime 1x .

echo "== xqbench smoke under tight budgets (Figure 3.b stays sound; Figure 3.a's k ignores the budget)"
# xqbench counts a budget overrun as "not independent", so a 3 ms
# budget must still give a sound Figure 3.b: xqbench exits 1 on a
# SOUNDNESS VIOLATION. Under 20us most Figure 3.a analyses overrun, and
# the k column must still be Table 3's k of each pair, which is at
# least 2 on XMark, never a range starting at 0.
xqbench_bin="$(mktemp -d)/xqbench"
go build -o "${xqbench_bin}" ./cmd/xqbench
"${xqbench_bin}" -fig 3b -truth-docs 1 -truth-factor 0.5 -timeout 3ms >/dev/null
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
# fired by non-test Go outside testdata, through .Point("…") or
# guard.FirePoint(…, "…"): a listed point nothing fires makes every
# chaos draw of it test nothing. And the names fired there must be
# exactly the first cells of the rows of DESIGN.md §14's point table,
# which says where each fires.
listed="$(awk '/^var (Points|PlanPoints) = \[\]string\{/,/^\}/' internal/faultinject/faultinject.go \
  | grep -oE '^[[:space:]]*"[a-z0-9._/]+"' | tr -d ' \t"' | sort -u)"
fired="$(grep -rhoE --include='*.go' --exclude='*_test.go' \
  --exclude-dir=testdata --exclude-dir=.git --exclude-dir=.bench_build \
  '(\.Point\("[a-z0-9._/]+"\)|FirePoint\([^,]*, "[a-z0-9._/]+"\))' . \
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
fuzz . FuzzParseDocument

echo "== ok"
