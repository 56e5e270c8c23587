#!/usr/bin/env bash
# Flake hunt: run the whole workspace test suite many times and tally
# which tests failed. The suite is meant to be deterministic, so every
# test this names is a bug to fix, not a failure to retry.
#
# Usage: ./flake_hunt.sh [runs]    (default 20)
#
# Builds the tests once, then runs `cargo test -q --workspace
# --no-fail-fast` `runs` times. Prints how many times each failing test
# failed and exits 1 if any run failed (the run logs are then kept and
# their directory printed). One debug workspace run takes 20-45 s on a
# 2-core host, so the default takes 8-15 minutes; ci.sh does not call
# this script.
set -euo pipefail
cd "$(dirname "$0")"

runs="${1:-20}"
case "${runs}" in
  '' | *[!0-9]* | 0)
    echo "usage: $0 [runs]   (runs: a positive integer, default 20)" >&2
    exit 2
    ;;
esac

echo "== building the workspace tests"
cargo test -q --workspace --no-run

logdir=$(mktemp -d)
tally="${logdir}/failures"
: > "${tally}"
failed_runs=0
for i in $(seq 1 "${runs}"); do
  log="${logdir}/run${i}.log"
  if cargo test -q --workspace --no-fail-fast > "${log}" 2>&1; then
    echo "run ${i}/${runs}: ok"
    rm -f "${log}"
    continue
  fi
  failed_runs=$((failed_runs + 1))
  echo "run ${i}/${runs}: FAILED"
  # The test harness heads each failing test's output with
  # `---- <name> stdout ----`. A test binary that dies without one
  # (abort, signal) is named by cargo's `to rerun pass ...` hint instead.
  names=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "${log}")
  if [ -z "${names}" ]; then
    names=$(grep -o 'to rerun pass `[^`]*`' "${log}" | sed 's/^to rerun pass /test binary /' || true)
  fi
  [ -n "${names}" ] || names="unattributed failure (see run${i}.log)"
  printf '%s\n' "${names}" >> "${tally}"
done

echo "== ${failed_runs} of ${runs} runs failed"
if [ "${failed_runs}" -eq 0 ]; then
  rm -rf "${logdir}"
  exit 0
fi
echo "failures per test:"
sort "${tally}" | uniq -c | sort -rn
echo "logs of the failed runs: ${logdir}"
exit 1
