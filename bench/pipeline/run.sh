#!/usr/bin/env bash
# Build the pipeline benchmark and the memsched daemon from source, then run
# one benchmark invocation.  Run from the repository root, e.g.
#   bash bench/pipeline/run.sh --workload rand-sweep --seed 1 --seconds 10 --trace 0
# Build output goes to stderr so the last stdout line stays the result line.
# The shared dune cache is off so that the build writes only under _build.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . ./bench/pipeline/pipeline.exe ./bin/memsched_cli.exe 1>&2
exec ./_build/default/bench/pipeline/pipeline.exe "$@"
