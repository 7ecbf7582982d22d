#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
# The run is pinned to the last CPU it may use, where taskset exists;
# every pass it starts inherits the pinning (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/bench.exe 1>&2
bench=./_build/default/perfbench/bench.exe
# The last CPU of this process's affinity list, e.g. 3 for "0-1,3".
cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null || true)
last=${cpus##*[,-]}
if [[ "$last" =~ ^[0-9]+$ ]] && command -v taskset >/dev/null 2>&1 \
  && taskset -c "$last" true 2>/dev/null; then
  exec taskset -c "$last" "$bench" "$@"
fi
exec "$bench" "$@"
