TMP ?= /tmp/memsched-verify

.PHONY: all build test lint lint-json lint-debt bench-pipeline-smoke serve-smoke online-smoke fuzz-smoke verify clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis (lib/lint): the syntactic rules (determinism /
# float-discipline / domain-safety / io-purity / order-stability) plus the
# typed interprocedural pass (domain-race / poly-compare / effect-purity)
# over the .cmt artifacts of bench/ bin/ lib/ test/.  Exits non-zero on any
# finding outside lint.allowlist or an inline pragma.
lint: build
	dune build @check
	dune exec bin/memsched_cli.exe -- lint --typed --jobs 2

lint-json: build
	dune build @check
	dune exec bin/memsched_cli.exe -- lint --typed --jobs 2 --format json

# Suppression-debt census: every inline pragma and allowlist entry, so the
# grandfathered surface is visible (and reviewable) at a glance.  Always
# exits 0.
lint-debt: build
	dune exec bin/memsched_cli.exe -- lint --debt

# Smoke run of the pipeline benchmark (bench/pipeline, the BENCHMARK.json
# command) on the 1,005,720-task LU workload with the traced phase on: every
# correctness check must pass with no failed op, the 10^6-task verification
# pass (validate + trace + stats) must take under 10 s, MemHEFT must plan at
# under 10^5 ns per task (10^5 tasks in 10 s), building the DAG must
# allocate under 200 words per task, and HEFT and MemHEFT must each plan
# at under 240 words per task, so a per-probe allocation in the shared
# scheduling loops fails the gate (allocation counts repeat exactly from
# run to run).
bench-pipeline-smoke: build
	mkdir -p $(TMP)
	bash bench/pipeline/run.sh --workload lu-big --seed 1 --trace 1 > $(TMP)/pipeline_lu_big.out
	tail -n 1 $(TMP)/pipeline_lu_big.out | jq -e '.correct == true and .failed == 0 and ((.metrics["validate.ns_per_task"].value + .metrics["trace.ns_per_task"].value + .metrics["stats.ns_per_task"].value) * 1005720 < 1e10) and .metrics["memheft.ns_per_task"].value < 1e5 and .metrics["dag.alloc_words_per_task"].value < 200 and .metrics["heft.alloc_words_per_task"].value < 240 and .metrics["memheft.alloc_words_per_task"].value < 240' > /dev/null
	@echo "bench-pipeline-smoke OK"

# End-to-end smoke of the scheduling daemon: a fixed-seed DAG through every
# algorithm selector, piped through `serve` at --jobs 1 and 2 — the response
# streams must be byte-identical to each other, to a doubled (warm-cache)
# replay, and to the committed golden transcript.
serve-smoke: build
	mkdir -p $(TMP)
	dune exec bin/memsched_cli.exe -- generate daggen --size 20 --seed 2014 -o $(TMP)/serve_dag.txt 2> /dev/null
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo memheft --id 1 --m-blue 80 --m-red 80 -o $(TMP)/serve_req.bin
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo memminmin --id 2 --m-blue 80 --m-red 80 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo memmaxmin --id 3 --m-blue 80 --m-red 80 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo memsufferage --id 4 --m-blue 80 --m-red 80 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo heft --id 5 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo minmin --id 6 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo maxmin --id 7 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo sufferage --id 8 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo multistart --id 9 --seed 2014 --restarts 4 --m-blue 80 --m-red 80 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve-req $(TMP)/serve_dag.txt --algo exact --id 10 --node-limit 5000 --m-blue 80 --m-red 80 -o $(TMP)/serve_req.bin --append
	dune exec bin/memsched_cli.exe -- serve --jobs 1 -q < $(TMP)/serve_req.bin > $(TMP)/serve_out1.bin
	dune exec bin/memsched_cli.exe -- serve --jobs 2 -q < $(TMP)/serve_req.bin > $(TMP)/serve_out2.bin
	cmp $(TMP)/serve_out1.bin $(TMP)/serve_out2.bin
	cat $(TMP)/serve_req.bin $(TMP)/serve_req.bin | dune exec bin/memsched_cli.exe -- serve --jobs 2 -q > $(TMP)/serve_double.bin
	cat $(TMP)/serve_out1.bin $(TMP)/serve_out1.bin | cmp - $(TMP)/serve_double.bin
	cmp $(TMP)/serve_out1.bin test/golden/serve_smoke.bin
	dune exec bin/memsched_cli.exe -- serve-show test/golden/serve_smoke.bin > /dev/null
	@echo "serve-smoke OK"

# End-to-end smoke of the online scenario layer: a fixed-seed DAG planned
# under jittered arrivals and replayed under 6 noise seeds with both
# rescheduling policies, at --jobs 1 and 2 — the degradation CSVs must be
# byte-identical to each other and to the committed golden file.
online-smoke: build
	mkdir -p $(TMP)
	dune exec bin/memsched_cli.exe -- generate daggen --size 25 --seed 2014 -o $(TMP)/online_dag.txt 2> /dev/null
	dune exec bin/memsched_cli.exe -- online $(TMP)/online_dag.txt --arrival jittered --gap 1.5 --arrival-seed 5 --level 0.3 --seeds 6 --m-blue 90 --m-red 90 --jobs 1 -o $(TMP)/online_out1.csv 2> /dev/null
	dune exec bin/memsched_cli.exe -- online $(TMP)/online_dag.txt --arrival jittered --gap 1.5 --arrival-seed 5 --level 0.3 --seeds 6 --m-blue 90 --m-red 90 --jobs 2 -o $(TMP)/online_out2.csv 2> /dev/null
	cmp $(TMP)/online_out1.csv $(TMP)/online_out2.csv
	cmp $(TMP)/online_out1.csv test/golden/online_smoke.csv
	@echo "online-smoke OK"

# Fixed-seed differential-fuzzing smoke run: 500 cases through the whole
# oracle registry (lib/check), on the parallel runtime.  Any violation
# exits non-zero and serialises the shrunk instance into test/corpus/.
fuzz-smoke: build
	dune exec bin/memsched_cli.exe -- check --cases 500 --seed 42 --jobs 2

# Tier-1 verification plus a smoke run of the parallel runtime: the CLI is
# driven end-to-end with --jobs 2 (multistart over the domain pool, then a
# figure regeneration), so the parallel path is exercised on every run.
verify: build lint test bench-pipeline-smoke serve-smoke online-smoke fuzz-smoke
	mkdir -p $(TMP)
	dune exec bin/memsched_cli.exe -- generate daggen --size 30 --seed 2014 -o $(TMP)/dag.txt
	dune exec bin/memsched_cli.exe -- schedule $(TMP)/dag.txt -H memheft --restarts 8 --jobs 2
	dune exec bin/memsched_cli.exe -- experiment figure14 --jobs 2 --out-dir $(TMP)/results
	@echo "verify OK"

clean:
	dune clean
	rm -rf /tmp/memsched-verify
