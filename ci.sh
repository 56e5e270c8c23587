#!/usr/bin/env bash
# Local CI gate: formatting, lints (deny warnings), release build, full
# test suite. Run from the repository root before sending a change out.
#
# The workspace builds fully offline: serde/serde_json/proptest are
# local shim crates under crates/ (see DESIGN.md), so no registry access
# is needed.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Every intra-doc link resolves and no two crates write the same doc
# page.
echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The analysis-pipeline crates are panic-free by policy (see DESIGN.md):
# no unwrap()/expect() outside tests. Enforced both here and by
# crate-level deny attributes in each lib.rs.
# (maestro-serve carries the same denies as crate-level attributes in
# its lib.rs; it is omitted from this command-line pass because clippy's
# trailing flags leak onto workspace dependencies, and serve pulls in
# maestro-sim, which is exempt from the unwrap/expect policy.)
echo "== cargo clippy (panic-free library crates)"
cargo clippy -p maestro-core -p maestro-ir -p maestro-dse -p maestro-hw -p maestro-dnn -p maestro-obs --lib \
  -- -D warnings -D clippy::unwrap-used -D clippy::expect-used

# Library crates never write to stderr directly: diagnostics go through
# the maestro-obs leveled logger (MAESTRO_LOG, off by default), whose
# emit() is the one sanctioned egress point.
echo "== cargo clippy (no stray stderr prints in library crates)"
cargo clippy -p maestro-core -p maestro-ir -p maestro-dse -p maestro-hw -p maestro-dnn \
  -p maestro-sim -p maestro-obs -p maestro-serve --lib \
  -- -D warnings -D clippy::print-stderr

# No library code may call std::process::exit: every shutdown path goes
# through the CLI's single graceful-exit function (main's ExitCode), which
# flushes the observability sinks first. Enforced here and by the
# crate-level deny attributes in each lib.rs.
echo "== cargo clippy (no process::exit outside main)"
cargo clippy -p maestro-core -p maestro-ir -p maestro-dse -p maestro-hw -p maestro-dnn \
  -p maestro-sim -p maestro-obs -p maestro-serve --lib \
  -- -D warnings -D clippy::exit

# One seeded-draw function: fault injection, serve chaos, trace IDs and
# loadgen's request mix and backoff jitter all draw through
# maestro_obs::rng. A copied splitmix64 finalizer, or a generator of its
# own (an Rng type, xorshift steps, the splitmix increment) under
# crates/*/src, would let two seeded streams drift apart silently. The
# proptest shim keeps its own seeding: it stands in for an external crate.
echo "== one seeded draw (maestro_obs::rng)"
if grep -rni --include='*.rs' '0xbf58_\?476d_\?1ce4_\?e5b9' crates \
    | grep -v '^crates/obs/src/rng\.rs:\|^crates/proptest/'; then
  echo "splitmix64 finalizer copied outside crates/obs/src/rng.rs; call maestro_obs::rng" >&2
  exit 1
fi
if grep -rniE --include='*.rs' 'xorshift|x \^= x <<|struct [a-z_]*rng\b|fn splitmix|0x9e37_?79b9' crates/*/src \
    | grep -v '^crates/obs/src/rng\.rs:\|^crates/proptest/'; then
  echo "a PRNG defined outside crates/obs/src/rng.rs; draw with maestro_obs::rng::uniform" >&2
  exit 1
fi

# One fault-spec grammar: --inject and --chaos both parse their
# `kind[:duration]:rate` clauses with maestro_obs::rng::parse_spec, so a
# second duration parser would let the two flags drift apart.
echo "== one fault-spec grammar (maestro_obs::rng::parse_spec)"
if grep -rn --include='*.rs' 'fn parse_duration' crates/*/src \
    | grep -v '^crates/obs/src/rng\.rs:'; then
  echo "parse_duration defined outside crates/obs/src/rng.rs; call maestro_obs::rng::parse_spec" >&2
  exit 1
fi

# One trace model: maestro_obs::trace::Trace is the thread's one trace
# context, and it builds every TraceRecord. A second thread-local, or a
# record or phase list built by hand, would bring back a parallel timing
# model that spans and /debug/traces no longer agree with.
echo "== one trace model (maestro_obs::trace::Trace)"
if grep -rnE --include='*.rs' 'thread_local!|TraceRecord \{|Phase \{' crates/*/src \
    | grep -v '^crates/obs/src/'; then
  echo "thread-local state or a hand-built TraceRecord/Phase outside crates/obs/src; use maestro_obs::trace::Trace" >&2
  exit 1
fi

# One derivation per level: analyze_level_static computes each level's
# footprint table once, and everything else in the build reads its
# totals from the LevelStatic it returns. A second .footprints( call
# outside the test modules would derive the table again per level, the
# duplicate that once held a sixth of zoo_analyze's time.
echo "== one derivation per level (LevelViews::footprints)"
derivations=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { fn = "" }
  /^#\[cfg\(test\)\]/ { nextfile }
  match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) { fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn) }
  /\.footprints\(/ && !(FILENAME == "crates/core/src/engine.rs" && fn == "analyze_level_static") {
    print FILENAME ":" FNR ": " $0
  }')
if [ -n "${derivations}" ]; then
  printf '%s\n' "${derivations}"
  echo "LevelViews::footprints called outside analyze_level_static; read LevelStatic::footprint instead" >&2
  exit 1
fi

# One binding: maestro_core::level::bind resolves a dataflow onto a layer
# and derives every level's context, and the model, explain, lint and the
# simulator all bind through it. A resolve( or LevelCtx::build( call
# outside it and the test modules would be a second binding that could
# drift from the first. Comments, definitions and other crates' own
# resolve methods (client::resolve, Point::resolve) do not count.
echo "== one binding (maestro_core::level::bind)"
bindings=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { fn = "" }
  /^#\[cfg\(test\)\]/ { nextfile }
  /^ *\/\// { next }
  match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) { fn = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", fn) }
  (/LevelCtx::build\(/ || /(^|[^a-zA-Z_0-9:.])resolve\(/ || /maestro_ir::resolve\(/) && !/fn resolve\(/ \
    && !(FILENAME == "crates/core/src/level.rs" && fn == "bind") {
    print FILENAME ":" FNR ": " $0
  }')
if [ -n "${bindings}" ]; then
  printf '%s\n' "${bindings}"
  echo "a dataflow bound outside maestro_core::level::bind; call bind instead" >&2
  exit 1
fi

# One timer: perfbench (perfbench/, its own workspace) measures, with a
# median, an IQR and a host fingerprint per row. obs_overhead is the one
# bench target here, and it guards a budget rather than timing a
# workload. A second bench target, or the criterion crate, would bring
# back timings with no spread that nothing checks.
echo "== one timer (perfbench; obs_overhead the one guard bench)"
timers=$(awk 'FNR == 1 { bench = 0 }
              /^\[\[bench\]\]/ { bench = 1; next }
              /^\[/ { bench = 0 }
              bench && /^name *=/ && !/"obs_overhead"/ { print FILENAME ": [[bench]] " $0 }
              /^criterion *[.=]/ || /\.criterion\]/ { print FILENAME ": " $0 }' crates/*/Cargo.toml)
if [ -n "${timers}" ]; then
  printf '%s\n' "${timers}"
  echo "a bench target other than obs_overhead, or a criterion dependency; measure with perfbench" >&2
  exit 1
fi

# One thread per sweep: a sweep runs its units in index order on the
# calling thread, and parallelism lives across sweeps (the daemon's
# workers). On the 2-vCPU CI host an intra-sweep pool lost to one thread
# on every sweep a binary runs, so a thread spawned, scoped or sized
# under crates/dse/src would bring back a cost with no measured reason.
echo "== one thread per sweep (no std::thread under crates/dse/src)"
if grep -rnE --include='*.rs' 'thread::(scope|spawn|available_parallelism)|std::thread\b' crates/dse/src; then
  echo "std::thread use under crates/dse/src; a sweep runs on its caller's thread" >&2
  exit 1
fi

# One argv reader: every maestro command and figure, loadgen included,
# declares its flags in a table that one parser reads, so a typo exits 2
# instead of running with settings the caller did not ask for. A second
# std::env::args reader would bring back a parser that takes anything.
echo "== one argv reader (std::env::args only in the CLI's main)"
if grep -rn --include='*.rs' 'std::env::args' crates \
    | grep -v '^crates/cli/src/main\.rs:'; then
  echo "std::env::args read outside crates/cli/src/main.rs; declare the flag in a maestro flag table" >&2
  exit 1
fi

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

# The observability surface stays wired end to end: a real DSE run must
# expose the documented metrics in Prometheus text format. --max-seconds
# bounds the smoke so a regression hangs CI for minutes, not forever (a
# tripped deadline exits 7, which set -e turns into a failure).
echo "== observability smoke (dse --metrics -)"
metrics_out=$(target/release/maestro dse --model vgg16 --layer CONV5 --style KC-P --max-seconds 300 --metrics -)
for name in maestro_cache_hits maestro_cache_misses maestro_dse_unit_rate \
            maestro_dse_pareto_inserted maestro_dse_units_quarantined; do
  if ! grep -q "# TYPE ${name}" <<<"${metrics_out}"; then
    echo "missing metric ${name} in --metrics output" >&2
    exit 1
  fi
done

# Staged evaluation is a pure refactor of analyze(): the golden suite
# must prove the staged DSE bit-identical to full evaluation, with
# checkpoints and under fault injection, before any rate number is
# trusted.
echo "== staged-equivalence goldens"
cargo test -q --release -p maestro-dse --test staged_equivalence
cargo test -q --release -p maestro-sim --test staged_conform_smoke

# The disabled-tracing budget: the obs_overhead guard fails when the
# spans and metrics compiled into a real sweep reach 2% of its median
# wall time over 21 sweeps with no sink installed. A faster sweep
# shrinks the denominator, so the budget is re-checked on every change.
echo "== obs_overhead guard (disabled instrumentation < 2% of a sweep)"
cargo bench -q -p maestro-bench --bench obs_overhead

# The whole-model and Fig 13 sweep digests (the Fig 13 ones also pin
# the explored and valid counts and hold full evaluation to the staged
# default), the whole-model build counts, the session suites (interrupt/resume, staged and full
# evaluation and quarantine, all steered by the unit
# observer's cancel points and seeded fault plans), the capacity
# kernel's differential suite, the zoo analysis digest and allocation
# budget, the brownout table (whose cache-only answers read the daemon's
# one cache), the daemon's end-to-end suite (whose byte-for-byte pins
# hold the spliced answers to the uncached oracle) and its tracing tests
# run in release too: a sweep drift, a unit that rebuilds per bandwidth,
# a cancel point that lands differently when units run faster, a kernel
# that vectorizes or reorders differently, an analysis that allocates
# more in the build the benchmark measures, a splice that drifts from
# serde_json in the build the benchmark serves, or a release-only
# failure (timing premises, accept/pop races) fails CI, not just a
# debug run.
echo "== sweep digests + build counts + session suites + capacity kernel + zoo digest + alloc budget + serve e2e byte pins + serve (release)"
cargo test -q --release -p maestro-dse --test sweep_digests
cargo test -q --release -p maestro-dse --test interrupt_resume --test staged_equivalence --test parallel_equivalence
cargo test -q --release -p maestro-dse --test model_builds
cargo test -q --release -p maestro-dse --lib capacity_kernel
cargo test -q --release -p maestro-core --test zoo_digest --test alloc_budget
cargo test -q --release -p maestro-serve --test brownout --test server_e2e
cargo test -q --release -p maestro-cli --test serve_trace

smokedir=$(mktemp -d)
trap 'rm -rf "${smokedir}"' EXIT

# The closed-form model and the step simulator must agree on a fixed
# fuzz corpus: any divergence beyond the calibrated tolerances exits 6
# and prints a minimized, ready-to-paste reproducer.
echo "== differential conformance smoke (conform --seed 1)"
conform_out=$(target/release/maestro conform --seed 1 --cases 200 --max-seconds 300 --metrics -)
if ! grep -q "maestro_conform_diverged 0" <<<"${conform_out}"; then
  echo "conformance divergence (or missing counter) in conform output" >&2
  grep -m1 "diverged" <<<"${conform_out}" >&2 || true
  exit 1
fi

# Interruption-proofing smoke: SIGTERM a sweep mid-flight (stretched by
# injected delays so the signal reliably lands between units), expect a
# graceful exit 7 plus a checkpoint, resume it without injection, and
# demand the resumed frontier is bit-identical to an uninterrupted run
# (only the wall-clock `seconds`/`rate` stats and the `partial` marker
# may differ).
echo "== kill-and-resume smoke (dse SIGTERM + --resume)"
dse_args=(dse --model vgg16 --layer CONV5 --style KC-P --json)
target/release/maestro "${dse_args[@]}" --max-seconds 300 > "${smokedir}/golden.json"
target/release/maestro "${dse_args[@]}" \
  --checkpoint "${smokedir}/smoke.ckpt" --inject delay:300ms:1.0 \
  > "${smokedir}/partial.json" 2> "${smokedir}/partial.err" &
dse_pid=$!
sleep 0.8
kill -TERM "${dse_pid}" 2>/dev/null || true
rc=0; wait "${dse_pid}" || rc=$?
if [ "${rc}" -ne 7 ]; then
  echo "interrupted dse exited ${rc}, expected 7" >&2
  cat "${smokedir}/partial.err" >&2 || true
  exit 1
fi
if ! grep -q '"partial": true' "${smokedir}/partial.json"; then
  echo "interrupted dse output lacks the partial marker" >&2
  exit 1
fi
target/release/maestro "${dse_args[@]}" --max-seconds 300 \
  --resume "${smokedir}/smoke.ckpt" > "${smokedir}/resumed.json" 2>/dev/null
strip_clock() { grep -v '"seconds"\|"rate"' "$1"; }
if ! diff <(strip_clock "${smokedir}/golden.json") <(strip_clock "${smokedir}/resumed.json") >/dev/null; then
  echo "resumed frontier differs from the uninterrupted golden run" >&2
  exit 1
fi

# Serve smoke: boot the daemon on an ephemeral port, drive it over raw
# TCP (bash /dev/tcp — no curl dependency), check the typed responses
# and the Prometheus counters, provoke one queue-full 503, then SIGTERM
# and demand a clean exit 0 inside the drain deadline.
echo "== serve smoke (daemon: analyze + dse + /metrics + shed + drain)"
serve_log="${smokedir}/serve.log"
serve_request() { # serve_request <addr> <method> <path> [body]
  local host="${1%:*}" port="${1##*:}" method="$2" path="$3" body="${4:-}"
  exec 3<>"/dev/tcp/${host}/${port}"
  # The accept path is event-driven now: a shed 503 can be written and
  # the socket closed before this write lands, so run it in a subshell
  # with SIGPIPE ignored — a late write must not kill the script.
  (
    trap '' PIPE
    printf '%s %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s' \
      "${method}" "${path}" "${#body}" "${body}" >&3
  ) 2>/dev/null || true
  cat <&3 2>/dev/null || true
  exec 3>&- 2>/dev/null || true
}
wait_for_addr() { # wait_for_addr <logfile>; echoes host:port
  local addr="" i
  for i in $(seq 1 100); do
    addr=$(sed -n 's/^serving on //p' "$1" | head -1)
    [ -n "${addr}" ] && break
    sleep 0.1
  done
  [ -n "${addr}" ] || { echo "daemon never announced its address" >&2; return 1; }
  echo "${addr}"
}
target/release/maestro serve --addr 127.0.0.1:0 --workers 2 --drain-seconds 10 \
  --trace-sample 1 --access-log "${smokedir}/access.jsonl" \
  > "${serve_log}" 2> "${smokedir}/serve.err" &
serve_pid=$!
serve_addr=$(wait_for_addr "${serve_log}")
analyze_resp=$(serve_request "${serve_addr}" POST /v1/analyze \
  '{"model":"alexnet","layer":"CONV1","pes":64}')
grep -q "HTTP/1.1 200" <<<"${analyze_resp}" || { echo "analyze failed: ${analyze_resp}" >&2; exit 1; }
grep -q '"runtime"' <<<"${analyze_resp}" || { echo "analyze lacks runtime: ${analyze_resp}" >&2; exit 1; }
grep -qi "x-maestro-trace:" <<<"${analyze_resp}" || { echo "analyze lacks trace header: ${analyze_resp}" >&2; exit 1; }
dse_resp=$(serve_request "${serve_addr}" POST /v1/dse \
  '{"model":"alexnet","layer":"CONV3","style":"KC-P","space":"tiny"}')
grep -q "HTTP/1.1 200" <<<"${dse_resp}" || { echo "dse failed: ${dse_resp}" >&2; exit 1; }
grep -q '"pareto"' <<<"${dse_resp}" || { echo "dse lacks pareto front: ${dse_resp}" >&2; exit 1; }
# Batch: one request, many points, per-item error isolation — the bad
# middle point becomes an error element, the good points still analyze.
batch_resp=$(serve_request "${serve_addr}" POST /v1/batch \
  '{"points":[{"model":"alexnet","layer":"CONV1","pes":64},{"model":"alexnet","layer":"NOPE"},{"model":"alexnet","layer":"CONV2","pes":64}]}')
grep -q "HTTP/1.1 200" <<<"${batch_resp}" || { echo "batch failed: ${batch_resp}" >&2; exit 1; }
grep -q '"count":3' <<<"${batch_resp}" || { echo "batch lacks count: ${batch_resp}" >&2; exit 1; }
reports=$(grep -o '"report"' <<<"${batch_resp}" | wc -l)
[ "${reports}" -eq 2 ] || { echo "expected 2 batch reports, got ${reports}: ${batch_resp}" >&2; exit 1; }
grep -q 'no layer .NOPE' <<<"${batch_resp}" || { echo "batch lost the per-item error: ${batch_resp}" >&2; exit 1; }
# Streaming DSE: NDJSON with more than one line, the last line being the
# well-formed final result.
stream_resp=$(serve_request "${serve_addr}" POST /v1/dse \
  '{"model":"alexnet","layer":"CONV3","style":"KC-P","space":"tiny","stream":true}')
grep -q "application/x-ndjson" <<<"${stream_resp}" || { echo "stream lacks NDJSON content type: ${stream_resp}" >&2; exit 1; }
stream_body=$(sed '1,/^\r*$/d' <<<"${stream_resp}")
stream_lines=$(grep -c . <<<"${stream_body}")
[ "${stream_lines}" -gt 1 ] || { echo "expected >1 NDJSON lines, got ${stream_lines}: ${stream_resp}" >&2; exit 1; }
tail -1 <<<"${stream_body}" | grep -q '"final":true' \
  || { echo "stream final line malformed: ${stream_body}" >&2; exit 1; }
tail -1 <<<"${stream_body}" | grep -q '"partial":false' \
  || { echo "uninterrupted stream marked partial: ${stream_body}" >&2; exit 1; }
metrics_resp=$(serve_request "${serve_addr}" GET /metrics)
served=$(sed -n 's/^maestro_serve_requests_total \([0-9]*\).*/\1/p' <<<"${metrics_resp}" | head -1)
if [ -z "${served}" ] || [ "${served}" -lt 2 ]; then
  echo "expected maestro_serve_requests_total >= 2, got '${served}'" >&2
  exit 1
fi
# The batch's first point repeats the analyze request's point, so the
# release daemon's cache must have answered at least one lookup.
cache_hits=$(sed -n 's/^maestro_cache_hits \([0-9]*\).*/\1/p' <<<"${metrics_resp}" | head -1)
if [ -z "${cache_hits}" ] || [ "${cache_hits}" -lt 1 ]; then
  echo "expected maestro_cache_hits >= 1 after a repeated point, got '${cache_hits}'" >&2
  exit 1
fi
# Build/uptime identity gauges: one constant-1 info metric with
# version+git labels, one monotone uptime gauge, pinned here so a
# rename never silently breaks dashboards.
grep -q '^maestro_build_info{version="' <<<"${metrics_resp}" \
  || { echo "missing maestro_build_info in /metrics" >&2; exit 1; }
grep -Eq '^maestro_build_info\{.*git="[^"]+".*\} 1$' <<<"${metrics_resp}" \
  || { echo "maestro_build_info lacks a git label" >&2; exit 1; }
grep -q '^# TYPE maestro_serve_uptime_seconds gauge' <<<"${metrics_resp}" \
  || { echo "missing maestro_serve_uptime_seconds in /metrics" >&2; exit 1; }
grep -q '^# TYPE maestro_serve_queue_depth gauge' <<<"${metrics_resp}" \
  || { echo "missing maestro_serve_queue_depth in /metrics" >&2; exit 1; }
grep -q '^maestro_serve_write_failures ' <<<"${metrics_resp}" \
  || { echo "missing maestro_serve_write_failures in /metrics" >&2; exit 1; }
# Request traces: the analyze request above was kept (1-in-1 sampling)
# and is listed with phase attribution.
traces_resp=$(serve_request "${serve_addr}" GET /debug/traces)
grep -q '"name":"POST /v1/analyze"' <<<"${traces_resp}" \
  || { echo "analyze trace not in /debug/traces: ${traces_resp}" >&2; exit 1; }
grep -q '"name":"analyze"' <<<"${traces_resp}" \
  || { echo "trace lacks an analyze phase: ${traces_resp}" >&2; exit 1; }
kill -TERM "${serve_pid}"
rc=0; wait "${serve_pid}" || rc=$?
if [ "${rc}" -ne 0 ]; then
  echo "daemon drain exited ${rc}, expected 0" >&2
  cat "${smokedir}/serve.err" >&2 || true
  exit 1
fi
# The JSONL access log attributed every request it saw.
grep -q '"trace_id":"' "${smokedir}/access.jsonl" \
  || { echo "access log is missing trace ids" >&2; exit 1; }
grep -q '"analyze_us":' "${smokedir}/access.jsonl" \
  || { echo "access log is missing phase attribution" >&2; exit 1; }

# Queue-full shedding: one worker, queue depth one. Occupy the worker
# and the queue slot with two half-sent requests held open on fds 4/5;
# the third connection must be shed immediately with 503 + Retry-After.
echo "== serve smoke (queue-full 503)"
target/release/maestro serve --addr 127.0.0.1:0 --workers 1 --queue-depth 1 \
  --drain-seconds 10 > "${serve_log}.shed" 2>/dev/null &
serve_pid=$!
serve_addr=$(wait_for_addr "${serve_log}.shed")
shed_host="${serve_addr%:*}"; shed_port="${serve_addr##*:}"
exec 4<>"/dev/tcp/${shed_host}/${shed_port}"; printf 'POST /v1/analyze HTTP/1.1\r\n' >&4
sleep 0.3
exec 5<>"/dev/tcp/${shed_host}/${shed_port}"; printf 'GET /healthz HT' >&5
sleep 0.3
# Shedding is decided at accept, before any request bytes are read —
# connect and read without writing, so the server's immediate close
# cannot RST away the 503 mid-handshake.
shed_resp=$(exec 3<>"/dev/tcp/${shed_host}/${shed_port}"; cat <&3; exec 3>&-)
grep -q "HTTP/1.1 503" <<<"${shed_resp}" || { echo "expected a 503 shed: ${shed_resp}" >&2; exit 1; }
grep -q "Retry-After:" <<<"${shed_resp}" || { echo "503 lacks Retry-After: ${shed_resp}" >&2; exit 1; }
exec 4>&- 5>&-
# Tail sampling must have force-kept the shed 503 in the flight
# recorder, and the trace explorer renders it — waterfall and folded.
shed_trace=""
for i in $(seq 1 50); do
  shed_trace=$(serve_request "${serve_addr}" GET /debug/traces || true)
  grep -q '"name":"shed"' <<<"${shed_trace}" && break
  sleep 0.1
done
grep -q '"name":"shed"' <<<"${shed_trace}" || { echo "shed trace was not tail-kept: ${shed_trace}" >&2; exit 1; }
grep -q '"status":503' <<<"${shed_trace}" || { echo "shed trace lacks its 503: ${shed_trace}" >&2; exit 1; }
grep -q '"kept":"error"' <<<"${shed_trace}" || { echo "shed trace not kept as error: ${shed_trace}" >&2; exit 1; }
explorer_out=$(target/release/maestro trace --from "${serve_addr}")
grep -q "shed" <<<"${explorer_out}" || { echo "trace explorer missed the shed: ${explorer_out}" >&2; exit 1; }
folded_out=$(target/release/maestro trace --from "${serve_addr}" --folded)
grep -q "shed;" <<<"${folded_out}" || { echo "folded output missed the shed: ${folded_out}" >&2; exit 1; }
kill -TERM "${serve_pid}"
rc=0; wait "${serve_pid}" || rc=$?
[ "${rc}" -eq 0 ] || { echo "shed daemon drain exited ${rc}, expected 0" >&2; exit 1; }

# Chaos smoke: sustained mixed loadgen traffic — analyze, dse, conform,
# plus /v1/batch requests and NDJSON /v1/dse streams — SIGTERM mid-load.
# The drain guarantee is zero dropped (started-but-incomplete) responses
# — a truncated stream without its final line counts as dropped, and
# loadgen itself exits 1 on any drop — and the daemon exits 0.
echo "== serve chaos smoke (SIGTERM under mixed batch/stream traffic)"
target/release/maestro serve --addr 127.0.0.1:0 --workers 2 --drain-seconds 10 \
  > "${serve_log}.chaos" 2>/dev/null &
serve_pid=$!
serve_addr=$(wait_for_addr "${serve_log}.chaos")
target/release/maestro loadgen --addr "${serve_addr}" --seconds 3 --concurrency 4 \
  --mode mixed --retries 0 --json > "${smokedir}/chaos.json" &
loadgen_pid=$!
sleep 1
kill -TERM "${serve_pid}"
rc=0; wait "${serve_pid}" || rc=$?
[ "${rc}" -eq 0 ] || { echo "chaos daemon drain exited ${rc}, expected 0" >&2; exit 1; }
rc=0; wait "${loadgen_pid}" || rc=$?
if [ "${rc}" -ne 0 ]; then
  echo "loadgen reported dropped responses or zero successes under chaos" >&2
  cat "${smokedir}/chaos.json" >&2 || true
  exit 1
fi
grep -q '"dropped": 0' "${smokedir}/chaos.json" || { echo "chaos run dropped responses" >&2; exit 1; }

# Chaos-matrix smoke: the daemon injects its *own* seeded faults — socket
# read/write errors, delayed first writes, worker panics, handler stalls
# and handler panics — while mixed loadgen traffic (with retries,
# honoring the computed Retry-After) runs against it. Invariants: no
# started-but-incomplete response, at least one panicked worker
# restarted its loop (seed 42 first fires the worker-panic draw at index
# 77, well inside a 3 s mixed load), at least one /v1 handler panicked
# inside request isolation (seed 42 first fires the handler-panic draw
# at index 170; a 3 s mixed load sends thousands of /v1 requests),
# /readyz still answers 200 (the daemon answers and is not draining),
# and the drain still exits 0.
echo "== serve chaos-matrix smoke (seeded fault injection under load)"
target/release/maestro serve --addr 127.0.0.1:0 --workers 2 --drain-seconds 10 \
  --chaos 'read-err:0.02,write-err:0.02,write-delay:5ms:0.05,worker-panic:0.005,stall:5ms:0.05,handler-panic:0.01' \
  --chaos-seed 42 \
  > "${serve_log}.matrix" 2>/dev/null &
serve_pid=$!
serve_addr=$(wait_for_addr "${serve_log}.matrix")
target/release/maestro loadgen --addr "${serve_addr}" --seconds 3 --concurrency 4 \
  --mode mixed --retries 3 --json > "${smokedir}/matrix.json" \
  || { echo "loadgen failed under the chaos matrix" >&2; cat "${smokedir}/matrix.json" >&2; exit 1; }
grep -q '"dropped": 0' "${smokedir}/matrix.json" \
  || { echo "chaos matrix dropped responses" >&2; cat "${smokedir}/matrix.json" >&2; exit 1; }
# The daemon's own read-err and write-err faults also reset about 4% of
# these probe connections unanswered, so each probe retries an empty
# answer; a daemon that answers nothing still fails the checks below.
chaos_probe() { # chaos_probe <addr> <method> <path>
  local resp="" i
  for i in 1 2 3 4 5; do
    resp=$(serve_request "$@")
    [ -n "${resp}" ] && break
  done
  printf '%s' "${resp}"
}
matrix_metrics=$(chaos_probe "${serve_addr}" GET /metrics)
restarts=$(sed -n 's/^maestro_serve_worker_restarts \([0-9]*\).*/\1/p' <<<"${matrix_metrics}" | head -1)
if [ -z "${restarts}" ] || [ "${restarts}" -lt 1 ]; then
  echo "expected maestro_serve_worker_restarts >= 1 under panic chaos, got '${restarts}'" >&2
  exit 1
fi
panics=$(sed -n 's/^maestro_serve_panics \([0-9]*\).*/\1/p' <<<"${matrix_metrics}" | head -1)
if [ -z "${panics}" ] || [ "${panics}" -lt 1 ]; then
  echo "expected maestro_serve_panics >= 1 under handler-panic chaos, got '${panics}'" >&2
  exit 1
fi
injected=$(sed -n 's/^maestro_serve_chaos_injected \([0-9]*\).*/\1/p' <<<"${matrix_metrics}" | head -1)
if [ -z "${injected}" ] || [ "${injected}" -lt 1 ]; then
  echo "expected maestro_serve_chaos_injected >= 1, got '${injected}'" >&2
  exit 1
fi
readyz_resp=$(chaos_probe "${serve_addr}" GET /readyz)
grep -q "HTTP/1.1 200" <<<"${readyz_resp}" \
  || { echo "/readyz not 200 after chaos load: ${readyz_resp}" >&2; exit 1; }
kill -TERM "${serve_pid}"
rc=0; wait "${serve_pid}" || rc=$?
[ "${rc}" -eq 0 ] || { echo "chaos-matrix daemon drain exited ${rc}, expected 0" >&2; exit 1; }

# Serve latency baseline: short closed-loop loads at 4 clients in each
# serving shape — single analyze, 8-point batch, NDJSON stream, and the
# mixed traffic (analyze, batch, dse, stream, conform) — then an
# *overload* row: 128 mixed clients against 64 queue slots and 2
# workers, so the queue fills and both shed paths must fire. The
# rows (p50/p90/p99 + QPS + outcome census each) are combined into one
# record in the smoke scratch dir and printed. The committed
# BENCH_serve.json is a baseline re-recorded by hand, never here.
echo "== serve bench (analyze + batch + stream + mixed + overload rows)"
target/release/maestro serve --addr 127.0.0.1:0 --workers 2 \
  > "${serve_log}.bench" 2>/dev/null &
serve_pid=$!
serve_addr=$(wait_for_addr "${serve_log}.bench")
for mode in analyze batch stream mixed; do
  target/release/maestro loadgen --addr "${serve_addr}" --seconds 2 --concurrency 4 \
    --mode "${mode}" --retries 2 --out "${smokedir}/bench_${mode}.json" > /dev/null
done
target/release/maestro loadgen --addr "${serve_addr}" --seconds 3 --concurrency 128 \
  --mode mixed --retries 0 --out "${smokedir}/bench_overload.json" > /dev/null \
  || { echo "overload loadgen failed" >&2; cat "${smokedir}/bench_overload.json" >&2; exit 1; }
bench_metrics=$(serve_request "${serve_addr}" GET /metrics)
kill -TERM "${serve_pid}"
rc=0; wait "${serve_pid}" || rc=$?
[ "${rc}" -eq 0 ] || { echo "bench daemon drain exited ${rc}, expected 0" >&2; exit 1; }
for mode in analyze batch stream mixed overload; do
  for field in '"qps"' '"p50_ms"' '"p90_ms"' '"p99_ms"' '"ok"' '"shed"'; do
    grep -q "${field}" "${smokedir}/bench_${mode}.json" \
      || { echo "bench ${mode} row is missing ${field}" >&2; cat "${smokedir}/bench_${mode}.json" >&2; exit 1; }
  done
  grep -q '"dropped": 0' "${smokedir}/bench_${mode}.json" \
    || { echo "serve bench (${mode}) dropped responses" >&2; exit 1; }
done
# The accept path is event-driven now: a cached single analyze must land
# well under the former 2 ms accept-poll floor.
p50=$(sed -n 's/.*"p50_ms": \([0-9.]*\).*/\1/p' "${smokedir}/bench_analyze.json" | head -1)
awk "BEGIN{exit !(${p50} < 2.0)}" \
  || { echo "analyze p50 ${p50} ms is not below the former 2 ms accept-poll floor" >&2; exit 1; }
# The overload contract. Goodput stays >= 80% of the 1x mixed row, and
# the p99 of *admitted* requests stays under the 2 s request deadline;
# without brownout the queue bound alone holds about half the 1x row,
# so this gate fails if brownout goes. Both shed paths fired: the
# acceptor's queue-full 503 (`shed`) and the brownout preflight
# (`brownout_shed`); the 1x rows hold at most 4 connections, so neither
# count can come from them.
cap_qps=$(sed -n 's/.*"qps": \([0-9.]*\).*/\1/p' "${smokedir}/bench_mixed.json" | head -1)
over_qps=$(sed -n 's/.*"qps": \([0-9.]*\).*/\1/p' "${smokedir}/bench_overload.json" | head -1)
over_p99=$(sed -n 's/.*"p99_ms": \([0-9.]*\).*/\1/p' "${smokedir}/bench_overload.json" | head -1)
awk "BEGIN{exit !(${over_qps} >= 0.8 * ${cap_qps})}" \
  || { echo "overload goodput ${over_qps} qps fell below 80% of the 1x mixed ${cap_qps} qps" >&2; exit 1; }
awk "BEGIN{exit !(${over_p99} < 2000)}" \
  || { echo "overload p99 ${over_p99} ms breached the 2 s request deadline" >&2; exit 1; }
for counter in shed brownout_shed; do
  n=$(sed -n "s/^maestro_serve_${counter} \([0-9]*\).*/\1/p" <<<"${bench_metrics}" | head -1)
  if [ -z "${n}" ] || [ "${n}" -lt 1 ]; then
    echo "expected maestro_serve_${counter} >= 1 under 128 overload clients, got '${n}'" >&2
    exit 1
  fi
done
{
  printf '{\n'
  for mode in analyze batch stream mixed overload; do
    [ "${mode}" = analyze ] || printf ',\n'
    printf '"%s":\n' "${mode}"
    cat "${smokedir}/bench_${mode}.json"
  done
  printf '}\n'
} > "${smokedir}/serve_bench.json"
cat "${smokedir}/serve_bench.json"

echo "CI OK"
