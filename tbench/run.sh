#!/bin/sh
# Build the benchmark from this checkout's sources, then run one workload:
#
#   sh tbench/run.sh --workload paper-mix|serve-oltp|reload-cycle \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr, so the last
# line on stdout is the result object.
#
# The run is pinned to one CPU where taskset exists: on a shared VM, the
# open-loop generator and the server it forks then hand requests to each
# other without cross-CPU wake-ups, which a busy host delays.
set -e
dune build --root . ./tbench/main.exe 1>&2
exe=./_build/default/tbench/main.exe
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$(($(nproc) - 1))" "$exe" "$@"
fi
exec "$exe" "$@"
