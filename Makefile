GO ?= go

.PHONY: all build test race vet orphans surface check bench bench-build bench-allocs alloc-sites smoke-metrics chaos-smoke overload-smoke analyze-smoke elastic-smoke fuzz-smoke reach

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# orphans fails when the root module carries a function that no main
# under cmd/ or examples/ and nothing under benchmark/ reaches (so also a
# package without a non-test importer), an RPC with a handler and no
# caller outside tests, or an option field no non-test file sets: code
# only its own tests (or nothing) reach is deleted, not carried. It
# resolves every reference with go/types over the non-test files of both
# modules, so a function, RPC or field is reached only through the
# object itself, never through another of the same name; a call through
# an interface reaches every method that implements it. The rule, its
# allowlist and its self-test on testdata/orphans are orphans_test.go;
# plain `go test ./...` runs them too. -count=1: the packages it checks
# come from a `go list` the test cache does not see.
orphans:
	$(GO) test -count=1 -run '^TestNoOrphans' .

# surface prints the size numbers a re-anchor quotes: Go lines of the
# root module (benchmark/ is a module of its own) outside and inside
# tests, the same per package, the binaries under cmd/, DESIGN.md, the
# trace codec (core's trace, tracedump, sink and dump files), and
# what TestNoOrphans counts: the functions nothing reaches (0 when it
# passes), the option fields of the exported Config/Options/Policy/Plan/
# Opts structs under internal/ and the entries of its allowlist. It counts tracked files, so `git add` new ones first.
surface:
	@files=$$(git ls-files '*.go' | grep -v '^benchmark/'); \
	echo "non-test Go lines: $$(echo "$$files" | grep -v _test.go | xargs cat | wc -l)"; \
	echo "test Go lines:     $$(echo "$$files" | grep _test.go | xargs cat | wc -l)"; \
	echo "cmd/ binaries:     $$(git ls-files 'cmd/*/main.go' | wc -l)"; \
	echo "DESIGN.md bytes:   $$(wc -c < DESIGN.md)"; \
	echo "trace codec lines: $$(cat internal/core/trace.go internal/core/tracedump.go internal/core/sink.go internal/core/dump.go | wc -l)"; \
	$(GO) test -count=1 -run '^TestNoOrphans$$' -v . | sed -n 's/.*\(unreached functions: [0-9]*\), \(option fields: [0-9]*\), \(allowlist entries: [0-9]*\)/\1\n\2\n\3/p'; \
	echo "non-test lines per package:"; \
	echo "$$files" | grep -v _test.go | while read f; do echo "$$(dirname $$f) $$(wc -l < $$f)"; done | \
		awk '{n[$$1] += $$2} END {for (d in n) printf "%7d  %s\n", n[d], d}' | sort -k2

# Race-detector pass over the concurrency-heavy packages: the Profiler's
# sharded measurement store, the Margo instrumentation that records into
# it from many execution streams, the telemetry exposer that reads
# it live (margo's scrape test reads a server and a client from eight
# HTTP goroutines while forwards flow, through a drain and a shutdown),
# the fabric's completion-queue accessors, per-destination
# delivery chains, and fault-injection plane, Mercury's
# cancel-vs-response completion race,
# the work-stealing abt scheduler (SPMC ring deques, the evsem
# park/unpark handshake, ULT free-list recycling, and the lock-free
# pool-depth mirrors feeding admission control — stressed directly by
# the sched_test.go steal/park and lost-wakeup property tests), and
# the batch window/coalescer state machine, plus the elastic plane:
# the SSG membership host/agent churned from many ULTs, the rendezvous
# ring, and the elastic sdskv node's dual-write/dirty-set machinery (in
# the services, which run three times below).
# The four packages a recycled Mercury handle or frame crosses (na,
# mercury, margo, core) run three times (core also because one lock per
# shard guards both its callpath maps and its trace records, while
# readers decode snapshots outside it): their recycle tests race timers,
# cancellations, late fabric errors, duplicated and delayed
# deliveries and the last reference on every request, and which side
# wins differs from run to run. Under the race detector a recycled frame
# or arena is overwritten before it re-enters its pool, so these runs are
# also where a decoded view that outlived its rule fails its read-back.
# Every response frame is recycled with its handle, so the rule that a
# reply keeping bytes copies them lives in the service reply types (and
# the reads into caller buffers in kv, taken while the map store grows,
# replaces and clears chunk-table slots and rebuilds itself): the
# services and kv run three times too, and so does the data loader,
# whose put_packed frames cross from an issuer to its async flusher ULT
# and go back to the arena pool only after the target's pull: its tests
# read every stored event back.
race:
	$(GO) test -race -count=3 ./internal/na/... ./internal/mercury/... \
		./internal/margo/... ./internal/core/... \
		./internal/services/... ./internal/kv/... ./internal/workload/...
	$(GO) test -race \
		./internal/telemetry/... ./internal/abt/... ./internal/batch/... \
		./internal/ssg/... ./internal/analysis/...

# check is the pre-commit gate: static analysis, race tests on the
# measurement pipeline, the fault-path, overload-path, and analysis-
# plane smoke runs, ten seconds of fuzzing each parser of foreign bytes,
# the full tier-1 build + test sweep, then the benchmark harness's own vet
# + tests. Performance is judged by benchmark/ alone (`bash
# benchmark/run.sh -all`, `-compare`), not here.
check: vet orphans race chaos-smoke overload-smoke analyze-smoke elastic-smoke fuzz-smoke build test bench-build

# fuzz-smoke fuzzes the six parsers that take bytes from other
# processes, then the "map" store: core.ReadTrace (whatever the bytes,
# it returns an error or a dump that re-encodes to exactly those bytes,
# without a panic and without allocating more than a small multiple of
# the input),
# core.ReadEventsJSONL (an error, or events that a JSONL sink writes and
# the reader reads back equal, under the same two bounds),
# mercury's frame headers (request, response and vectored frames parse
# without reading past the frame and pack again, in place, to the same
# bytes), the five messages of sdskv's migration protocol (each decodes
# to views clipped inside the frame, or for a reply to a copy outside
# it, and encodes back to the bytes it consumed), the put_packed payload
# a target pulls over bulk (a count the input cannot hold fails before
# headers are sized for it, every pair is a view clipped inside the
# input, and a Frame of the pairs is the bytes consumed) and the sdskv list reply
# decoded into a Listing (a count the input cannot hold fails before
# anything is allocated, keys and values must pair up, every pair is a
# slice of the Listing's own buffer, and it encodes back to the bytes);
# then kv's FuzzMapBackend runs puts, deletes, gets and listings on the
# "map" B-tree against a sorted model and checks the tree's key order,
# separators and key abbreviations after each input.
# The seeds — files under internal/**/testdata/fuzz/, and for the
# JSONL reader the streams jsonlSeeds builds — are replayed by plain
# `go test` as well; this target mutates them. Both trace readers' seeds
# include the folds the span memo does not make (one that refers back
# past the first event, into an end, into a start already closed or
# pushed out of the memo by other requests' starts, past a newer start of
# its span, or across a ResetMeasurements), and the dump reader's a full
# record of an end the memo folds, which a dump may not spell. (Minimising a mutant of the
# JSONL reader's 64 KiB seed, or of the map store's 29,000-op height-3
# seed, would otherwise take the run's ten seconds.)
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzReadEventsJSONL$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/mercury -run '^$$' -fuzz '^FuzzFrameHeaders$$' -fuzztime 10s
	$(GO) test ./internal/services/sdskv -run '^$$' -fuzz '^FuzzMigrateWire$$' -fuzztime 10s
	$(GO) test ./internal/services/sdskv -run '^$$' -fuzz '^FuzzPackedBatch$$' -fuzztime 10s
	$(GO) test ./internal/services/sdskv -run '^$$' -fuzz '^FuzzListReply$$' -fuzztime 10s
	$(GO) test ./internal/kv -run '^$$' -fuzz '^FuzzMapBackend$$' -fuzztime 10s -fuzzminimizetime 1s

# bench-build vets and tests the benchmark harness. It is a module of
# its own (benchmark/go.mod), so `go build ./... && go test ./...` at
# the root does not notice when a change breaks one of the functions
# benchmark/README.md pins.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-allocs prints the four gated end-to-end metrics of the six
# workloads: the five that run RPCs (single forwards with a bulk pull,
# large packed batches, single forwards both ways, coalesced forwards,
# nested forwards) and the offline analysis of a C7 capture, one 15 s
# run each.
bench-allocs:
	@set -e; for w in hepnos_c7 hepnos_c4 sdskv_mixed sdskv_multi mobject_ior analyze_c7; do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --trace 0); \
		echo "$$out" | grep -E '^(# [a-z0-9_]+ seed=|(setup_s|allocs_per_op|alloc_bytes_per_op|trace_bytes_per_op) )'; \
	done

# alloc-sites prints where one root benchmark puts its bytes: every
# allocation of one pass sampled (memprofilerate=1), top 20 sites by
# allocated space. The default, one pass over the HEPnOS configurations
# of Table IV (C1..C7), regenerates the per-site table a payload-path
# change is argued from; ALLOC_SITES_BENCH=BenchmarkFig05MobjectWriteTrace
# does the same over a per-RPC shape (one composed mobject write: a dozen
# nested forwards), ALLOC_SITES_BENCH=BenchmarkAnalysisPass over one
# analyst's pass (read, merge, critical paths, flame, render) of the C7
# dumps under cmd/sym/testdata, and ALLOC_SITES_INDEX=alloc_objects
# ranks the sites by objects instead of bytes. Neither touches
# benchmark/.
ALLOC_SITES_DIR ?= .bench_build/alloc-sites
ALLOC_SITES_BENCH ?= BenchmarkTableIVConfigs
ALLOC_SITES_INDEX ?= alloc_space
alloc-sites:
	@mkdir -p $(ALLOC_SITES_DIR)
	$(GO) test -run '^$$' -bench '^$(ALLOC_SITES_BENCH)$$' -benchtime=1x \
		-memprofile mem.out -memprofilerate=1 -outputdir $(ALLOC_SITES_DIR) -o $(ALLOC_SITES_DIR)/root.test .
	$(GO) tool pprof -sample_index=$(ALLOC_SITES_INDEX) -top -nodecount=20 $(ALLOC_SITES_DIR)/root.test $(ALLOC_SITES_DIR)/mem.out

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# reach prints which internal/ code the entry points execute, where
# orphans only asks what they could reach. It builds every main under
# cmd/ and examples/ and the benchmark harness with coverage of every
# package of both modules (the mains included: a binary whose main
# package is not covered writes no counters). In a temporary directory
# it then runs the seven configurations and figures 5-13 at -scale 16,
# the chaos, overload, elastic and batch scenarios with their /metrics
# capture, every sym subcommand in each output form over their dumps,
# the five examples, and the six benchmark workloads for 2 s each,
# untraced and then traced (the traced run adds the per-layer probes).
# It prints the statement coverage of each internal/ package, then the
# internal/ functions no run executed. About two minutes on two cores;
# not part of check.
reach:
	@set -e; d=$$(mktemp -d); log=$$d/run.log; \
	trap 'st=$$?; [ $$st = 0 ] || { echo "reach: a run failed; the end of its log:"; tail -20 $$log; }; rm -rf "$$d"' EXIT; \
	mkdir -p $$d/bin $$d/cov $$d/run; \
	$(GO) build -cover -coverpkg=symbiosys/... -o $$d/bin/ ./cmd/... ./examples/...; \
	(cd benchmark && $(GO) build -cover -coverpkg=symbiosys/... -o $$d/bin/symbench .); \
	export GOCOVERDIR=$$d/cov; cd $$d/run; \
	hb="$$d/bin/hepnos-bench -scale 16 -out dumps"; sym=$$d/bin/sym; \
	for c in C1 C2 C3 C4 C5 C6 C7; do $$hb -config $$c; done >>$$log 2>&1; \
	for f in 5 6 7 9 10 11 12 13; do $$hb -figure $$f; done >figures.txt 2>>$$log; \
	for r in chaos overload elastic batch; do $$hb -run $$r -metrics 127.0.0.1:0; done >>$$log 2>&1; \
	for e in composed livemon quickstart saturation tracing; do $$d/bin/$$e; done >>$$log 2>&1; \
	req=$$(sed -n 's/.*-req \(0x[0-9a-f]*\).*/\1/p' figures.txt | head -1); \
	{ for o in cli tui html; do \
		$$sym prof -dir dumps/C1 -o $$o; \
		$$sym stats -dir dumps/C1 -o $$o; \
		$$sym trace -dir dumps/chaos-faulted -flame -o $$o; \
		$$sym diff -before dumps/chaos-clean -dir dumps/chaos-faulted -o $$o -out diff.$$o; \
	done; \
	$$sym stats -classes; $$sym stats -pvars; $$sym trace -dir dumps/mobject; \
	$$sym trace -dir dumps/mobject -req $$req -path -gantt -zipkin zipkin.json; \
	$$sym trace -dir .; } >>$$log 2>&1; \
	for w in hepnos_c7 hepnos_c4 sdskv_mixed sdskv_multi mobject_ior analyze_c7; do \
		$$d/bin/symbench --workload $$w --seed 1 --seconds 2 --trace 0; \
		$$d/bin/symbench --workload $$w --seed 1 --seconds 2 --trace 1; \
	done >>$$log 2>&1; \
	echo "statement coverage per internal/ package:"; \
	$(GO) tool covdata percent -i=$$d/cov | grep 'symbiosys/internal/' | sort; \
	echo "internal/ functions no run executed:"; \
	$(GO) tool covdata func -i=$$d/cov | awk '$$1 ~ /^symbiosys\/internal\// && $$NF == "0.0%"'

# smoke-metrics spins up a tiny HEPnOS cluster with live telemetry,
# scrapes /metrics mid-run, and asserts the exposition is well-formed
# and carries the promised signals (pool gauges, OFI PVARs, trace-drop
# counters, callpath latency histograms).
smoke-metrics:
	$(GO) test ./internal/experiments/ -run TestSmokeMetrics -count=1 -v

# chaos-smoke replays a short C2-shaped HEPnOS run under the seeded
# 1% drop + 5ms delay fault plan and asserts the failure-path bar:
# zero lost client operations, retries visible in the live /metrics
# exposition, and a clean shutdown.
chaos-smoke:
	$(GO) test ./internal/experiments/ -run TestChaosSmoke -count=1 -v

# analyze-smoke runs the from-run-to-report pipeline end to end: a
# small chaos campaign writes each run's dumps, and the reports come
# from those dumps, rendered as sym renders them: the faulted run's
# dominant-path flame, in all three output modes (cli, tui, html), and
# the clean-vs-chaos diff, which must localize the injected fault; read
# back, the dumps are the run's own and yield the same flame and report
# text. A batch sweep's window-1-vs-8 diff must show the batch-window
# segment. Then `sym` runs every subcommand over a dump directory, and
# hepnos-bench's command lines run in-process (bad ones exit 2, -run
# elastic passes its audit, -config C7 -out writes dumps sym reads).
analyze-smoke:
	$(GO) test ./internal/experiments/ -run 'TestAnalyzeSmoke|TestBatchSweepReports' -count=1 -v
	$(GO) test ./cmd/sym ./cmd/hepnos-bench -count=1

# elastic-smoke scales an elastic sdskv cluster out and back in under sustained
# load and asserts the elasticity bar: zero acked-then-lost ops, live
# shard migration visible in traces and /metrics, and a bounded
# churn-phase p99.
elastic-smoke:
	$(GO) test ./internal/experiments/ -run TestElasticSmoke -count=1 -v

# overload-smoke drives an undersized provider past saturation with
# deadline-stamped requests and asserts the overload-control bar: zero
# acked-then-lost ops, handler queue bounded by the admission cap,
# breaker trips during the storm, goodput recovery via half-open
# probes, and shed counters visible in /metrics and the profile dumps.
overload-smoke:
	$(GO) test ./internal/experiments/ -run TestOverloadSmoke -count=1 -v
