# Developer entry points. `make check` is the CI gate: vet plus the short
# test set under the race detector, keeping the parallel execution layer
# (internal/parallel and its call sites) provably race-clean.

GO ?= go

.PHONY: build test check vet race race-serve cover bench bench-parallel bench-serve bench-smoke bench-predict bench-micro experiments paper-check crossarch-smoke serve-smoke model-smoke monitor-smoke refute-smoke loadgen-smoke loadgen-smoke-race fuzz-short

build:
	$(GO) build ./...

# Full test suite (tier-1 verify).
test:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# Short test set under the race detector; includes the determinism
# regression tests, which drive every stage at Jobs=1 and Jobs=4.
race:
	$(GO) test -race -short ./...

# Full (not -short) race run of the serving hot path: the session table
# and its per-session locks, the atomic latency histogram, the
# prediction cache's stripe locks, and the stream/phase machinery
# behind them. These
# packages carry the concurrency added for multi-session serving, so
# they get a dedicated race gate beyond the -short sweep above.
race-serve:
	$(GO) test -race ./internal/serve/... ./internal/stream/...

check: vet race

# Per-package coverage gate for the library code. Every internal package
# must stay at or above COVER_FLOOR percent statement coverage;
# internal/experiments gets a lower floor because its bulk is end-to-end
# reproduction drivers exercised through `make experiments` rather than
# unit tests. Packages with no statements (pure interface/type packages)
# are skipped.
COVER_FLOOR            ?= 60
COVER_FLOOR_EXPERIMENTS ?= 30
# internal/refute is the counter-consistency gatekeeper: a relation it
# mis-evaluates silently turns refuted streams into "consistent", so it
# carries a floor well above the default.
COVER_FLOOR_REFUTE     ?= 85
cover:
	@set -e; out=$$(mktemp /tmp/cover.XXXXXX.txt); \
	trap 'rm -f $$out' EXIT; \
	$(GO) test -cover ./internal/... | tee $$out; \
	awk -v floor=$(COVER_FLOOR) -v expfloor=$(COVER_FLOOR_EXPERIMENTS) -v refloor=$(COVER_FLOOR_REFUTE) ' \
	/^ok/ && /coverage:/ { \
	  pkg=$$2; c=-1; \
	  for (i=1;i<=NF;i++) if ($$i ~ /%$$/) { gsub(/%/,"",$$i); c=$$i+0 } \
	  if (c < 0) next; \
	  f = (pkg=="repro/internal/experiments") ? expfloor : \
	      (pkg=="repro/internal/refute")      ? refloor  : floor; \
	  if (c < f) { printf "cover: %s at %.1f%% is below the %d%% floor\n", pkg, c, f; bad=1 } \
	} \
	END { if (bad) exit 1; print "cover: all internal packages at or above the floor" }' $$out

# Serial-vs-parallel speedup benchmarks (see EXPERIMENTS.md "Parallel
# execution").
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkParallel' -benchtime 2x .

bench:
	$(GO) test -run '^$$' -bench . .

# Served-prediction latency (see DESIGN.md §8): cache off, warm hits,
# and the all-miss live-traffic shape (tree-cached-miss). Then the
# concurrent predict and stream benchmarks at 1, 2, 4 and 8 cores, the
# repository's core-scaling run.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServePredict' -benchtime 50x ./internal/serve/
	$(GO) test -run '^$$' -bench 'BenchmarkServeConcurrent(Predict|Stream)$$' -benchtime 50x -cpu 1,2,4,8 ./internal/serve/

# Every serving, stream and JSON-scanner benchmark once, plus the
# training benchmarks (BenchmarkBuildServed, BenchmarkFitGreedy):
# `go test ./...` compiles benchmarks but never runs them, so one that
# fails its own status check would otherwise go unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/serve/ ./internal/stream/ ./internal/jsonscan/
	$(GO) test -run '^$$' -bench 'BenchmarkBuildServed|BenchmarkFitGreedy' -benchtime 1x ./internal/mtree/ ./internal/linreg/

# Compiled-evaluator micro-benchmarks (see DESIGN.md §12): pointer walk
# vs flat-array walk vs the batch kernel, plus the served batch
# endpoint. The compiled batch kernel's 0 allocs/op is enforced by
# TestCompiledBatchKernel (internal/mtree). Plus the predict/classify
# request codec (DESIGN.md §8, "Request codec") against the encoding/json path
# on the 21-column served schema, and the scanner's number parse on its
# exact and fallback paths.
bench-predict:
	$(GO) test -run '^$$' -bench 'BenchmarkPredictCompiled' -benchtime 2s ./internal/mtree/
	$(GO) test -run '^$$' -bench 'BenchmarkServePredictBatch' -benchtime 50x ./internal/serve/
	$(GO) test -run '^$$' -bench 'BenchmarkPredictDecode' -benchtime 2s ./internal/serve/
	$(GO) test -run '^$$' -bench 'BenchmarkFloat' -benchtime 2s ./internal/jsonscan/

# Simulator hot-loop micro-benchmarks (see DESIGN.md §10): cache/TLB
# probes, hierarchy walks, single-core Step and the per-section collect
# loop. All of them run at 0 allocs/op in steady state, which
# TestHotPathsAllocationFree (internal/sim/mem), TestStepAllocationFree
# (internal/sim/cpu) and TestSectionLoopAllocationFree
# (internal/counters) enforce in `make test`. Plus the
# stream wire decoder (DESIGN.md §9, "Wire codec"): the row decoder vs
# the encoding/json path on a served-schema line, ns and allocs per line;
# and stream ingestion (DESIGN.md §9, "Scoring"), whose nosamples variant
# shows the scoring path's own allocations per sample. Plus training
# (DESIGN.md §17): the served tree's serial build on the
# golden collection, and the greedy leaf search on its full feature set.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 2s ./internal/sim/... ./internal/counters/
	$(GO) test -run '^$$' -bench 'BenchmarkStreamDecode|BenchmarkStreamIngest' -benchtime 2s ./internal/stream/
	$(GO) test -run '^$$' -bench 'BenchmarkBuildServed|BenchmarkFitGreedy' -benchtime 2s ./internal/mtree/ ./internal/linreg/

# Brief runs of every fuzz target (NDJSON sample decoder and the
# predict/classify request codec — both differential against
# encoding/json — the JSON scanner they share, the sample line
# splitter, CSV dataset parser, persisted-tree loader, machine-spec
# loader, session-dump restore) — long enough to
# catch parser regressions in CI, short enough to not dominate it. Each
# target has a checked-in seed corpus under its package's testdata/fuzz/.
# Every target caps per-input minimization: the fuzzer minimizes each new
# coverage-expanding input before it resumes mutating, and with the
# default 60s minimize budget one minimization per worker stalls the
# whole run at "0/sec" for the rest of a short -fuzztime.
FUZZTIME ?= 10s
FUZZ = $(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x -fuzz
fuzz-short:
	$(FUZZ) 'FuzzDecodeSample' ./internal/stream/
	$(FUZZ) 'FuzzDecoderStream' ./internal/stream/
	$(FUZZ) 'FuzzDecodePredict' ./internal/serve/
	$(FUZZ) 'FuzzScan' ./internal/jsonscan/
	$(FUZZ) 'FuzzReadCSV' ./internal/dataset/
	$(FUZZ) 'FuzzTreeReadJSON' ./internal/mtree/
	$(FUZZ) 'FuzzMachineSpecReadJSON' ./internal/march/
	$(FUZZ) 'FuzzSessionsRestore' ./internal/serve/

experiments:
	$(GO) run ./cmd/experiments

# Paper-reproduction gate: run every experiment at the default full scale
# and require the report to equal the committed experiments_output.txt
# line for line, apart from the "completed in" timing lines. A change to
# the simulator, a learner or a claim's arithmetic shows up as a diff; a
# deliberate one re-records the file (go run ./cmd/experiments >
# experiments_output.txt) and says why in CHANGES.md.
paper-check:
	@set -e; out=$$(mktemp /tmp/paper-check.XXXXXX.txt); trap 'rm -f $$out $$out.want $$out.got' EXIT; \
	$(GO) run ./cmd/experiments > $$out; \
	grep -v 'completed in' experiments_output.txt > $$out.want; \
	grep -v 'completed in' $$out > $$out.got; \
	diff -u $$out.want $$out.got || { echo "paper-check: output differs from experiments_output.txt"; exit 1; }; \
	echo "paper-check: PASS ($$(grep -c '\[OK' $$out) [OK], $$(grep -c '\[DIV' $$out) [DIV], timing lines aside)"

# Determinism smoke test of the cross-architecture experiment: run the
# reduced-scale machine sweep twice at different worker counts and fail
# unless the two reports hash identically — the enforcement of the
# "byte-identical at any -jobs value" contract for the (machine,
# benchmark) fan-out. The report itself is printed for eyeballing the
# per-machine tree table and LOAO transfer numbers.
CROSSARCH_SCALE ?= 0.3
crossarch-smoke:
	@set -e; 	a=$$(mktemp /tmp/crossarch.a.XXXXXX.txt); b=$$(mktemp /tmp/crossarch.b.XXXXXX.txt); 	trap 'rm -f $$a $$b' EXIT; 	$(GO) run ./cmd/experiments -run crossarch -scale $(CROSSARCH_SCALE) -jobs 1 > $$a; 	$(GO) run ./cmd/experiments -run crossarch -scale $(CROSSARCH_SCALE) -jobs 0 > $$b; 	grep -v 'completed in' $$a > $$a.clean; grep -v 'completed in' $$b > $$b.clean; 	cmp $$a.clean $$b.clean || { echo "crossarch-smoke: report differs between -jobs 1 and -jobs 0"; rm -f $$a.clean $$b.clean; exit 1; }; 	cat $$a.clean; rm -f $$a.clean $$b.clean; 	echo "crossarch-smoke: PASS (reports byte-identical across worker counts)"

# End-to-end smoke test of the prediction service: build cmd/serve, start
# it with a self-trained demo model, wait for /healthz, POST the same
# contributions prediction twice, assert HTTP 200 both times and that the
# second hit the LRU cache (/metrics must read serve_cache_hits_total 1),
# and POST a body with trailing data after its JSON value, which must
# answer HTTP 400. Then hand a stream session off through the real binary:
# stream a short NDJSON chunk to session s, drain every session, restore
# the dump, and stream the next chunk to s, which must answer HTTP 200
# and end in a "summary" line that counts both chunks. The server runs
# with -timeout 2s, and a predict body uploaded at 1 byte/s must be cut
# off without HTTP 200 in under 10 s (curl's own limit is 30 s): the
# connection deadline bounds a stalled client. Every curl carries --max-time, so a
# wedged session fails the target instead of hanging it. Always kills
# the server on exit.
SMOKE_ADDR ?= 127.0.0.1:18466
SMOKE_BIN  ?= /tmp/repro-serve-smoke
SMOKE_CURL := curl -s --max-time 10

serve-smoke:
	@set -e; \
	$(GO) build -o $(SMOKE_BIN) ./cmd/serve; \
	$(SMOKE_BIN) -demo -demo-scale 0.05 -addr $(SMOKE_ADDR) -timeout 2s & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	ok=0; for i in $$(seq 1 150); do \
	  $(SMOKE_CURL) -f http://$(SMOKE_ADDR)/healthz >/dev/null 2>&1 && { ok=1; break; }; \
	  sleep 0.2; \
	done; \
	test $$ok -eq 1 || { echo "serve-smoke: server never became healthy"; exit 1; }; \
	for i in 1 2; do \
	  code=$$($(SMOKE_CURL) -o $(SMOKE_BIN).predict.json -w '%{http_code}' \
	    -X POST -H 'Content-Type: application/json' \
	    -d '{"model":"demo","events":[{"L2M":0.004,"L1IM":0.002}],"contributions":true}' \
	    http://$(SMOKE_ADDR)/v1/predict); \
	  test "$$code" = 200 || { echo "serve-smoke: predict returned HTTP $$code"; cat $(SMOKE_BIN).predict.json; exit 1; }; \
	done; \
	echo "serve-smoke: predict OK (2x HTTP 200):"; cat $(SMOKE_BIN).predict.json; \
	$(SMOKE_CURL) http://$(SMOKE_ADDR)/metrics | grep -qx 'serve_cache_hits_total 1' || \
	  { echo "serve-smoke: the repeated predict did not hit the cache:"; $(SMOKE_CURL) http://$(SMOKE_ADDR)/metrics | grep '^serve_cache'; exit 1; }; \
	code=$$($(SMOKE_CURL) -o $(SMOKE_BIN).trailing.json -w '%{http_code}' \
	  -X POST -H 'Content-Type: application/json' \
	  -d '{"model":"demo","events":[{"L2M":0.004}]} {"model":"nope"}' \
	  http://$(SMOKE_ADDR)/v1/predict); \
	test "$$code" = 400 || { echo "serve-smoke: predict with trailing data returned HTTP $$code, want 400"; cat $(SMOKE_BIN).trailing.json; exit 1; }; \
	echo "serve-smoke: cache hit and trailing-data rejection OK"; \
	for i in 0 1 2 3 4; do \
	  printf '{"section":%d,"events":{"L2M":0.00%d,"L1IM":0.002},"cpi":1.4}\n' $$i $$((i+1)); \
	done > $(SMOKE_BIN).chunk1.ndjson; \
	for i in 5 6 7 8 9; do \
	  printf '{"section":%d,"events":{"L2M":0.00%d,"L1IM":0.002},"cpi":1.4}\n' $$i $$((i-4)); \
	done > $(SMOKE_BIN).chunk2.ndjson; \
	step() { \
	  code=$$($(SMOKE_CURL) -o $(SMOKE_BIN).$$1.out -w '%{http_code}' -X POST --data-binary @$$2 "http://$(SMOKE_ADDR)$$3") || code=timeout; \
	  test "$$code" = 200 || { echo "serve-smoke: $$1 returned HTTP $$code"; cat $(SMOKE_BIN).$$1.out 2>/dev/null; exit 1; }; \
	}; \
	step stream1 $(SMOKE_BIN).chunk1.ndjson '/v1/stream?model=demo&session=s'; \
	: > $(SMOKE_BIN).empty; \
	step drain $(SMOKE_BIN).empty /v1/sessions/drain; \
	step restore $(SMOKE_BIN).drain.out /v1/sessions/restore; \
	step stream2 $(SMOKE_BIN).chunk2.ndjson '/v1/stream?model=demo&session=s'; \
	tail -n 1 $(SMOKE_BIN).stream2.out | grep -q '^{"type":"summary".*"accepted":10,' || \
	  { echo "serve-smoke: stream after restore did not end in a summary line counting both chunks:"; cat $(SMOKE_BIN).stream2.out; exit 1; }; \
	echo "serve-smoke: session handoff OK (stream, drain, restore, stream):"; tail -n 1 $(SMOKE_BIN).stream2.out; \
	t0=$$(date +%s); \
	code=$$(curl -s --max-time 30 --limit-rate 1 -o $(SMOKE_BIN).slow.out -w '%{http_code}' \
	  -X POST -H 'Content-Type: application/json' \
	  -d '{"model":"demo","events":[{"L2M":0.004,"L1IM":0.002}]}' \
	  http://$(SMOKE_ADDR)/v1/predict) && rc=0 || rc=$$?; \
	secs=$$(( $$(date +%s) - t0 )); \
	test "$$rc" != 28 && test "$$code" != 200 && test $$secs -lt 10 || \
	  { echo "serve-smoke: a predict body sent at 1 byte/s ended after $$secs s with HTTP $$code (curl exit $$rc); want -timeout 2s to cut it off"; exit 1; }; \
	echo "serve-smoke: slow-body client cut off after $$secs s (HTTP $$code, curl exit $$rc)"; \
	echo "serve-smoke: metrics:"; $(SMOKE_CURL) http://$(SMOKE_ADDR)/metrics; \
	echo "serve-smoke: PASS"

# End-to-end smoke test of the saved-model workflow, the paper's train
# once / analyze many: collect a reduced suite, train and save a tree
# as JSON, analyze a workload with the saved file, then serve it and
# require GET /v1/models/cpi to answer 200 without a "format" field and
# one /v1/predict to answer 200 with "n":1. Always kills the server on
# exit.
MODEL_SMOKE_ADDR ?= 127.0.0.1:18469
MODEL_SMOKE_DIR  ?= /tmp/repro-model-smoke

model-smoke:
	@set -e; rm -rf $(MODEL_SMOKE_DIR); mkdir -p $(MODEL_SMOKE_DIR); d=$(MODEL_SMOKE_DIR); \
	for c in collect train analyze serve; do $(GO) build -o $$d/$$c ./cmd/$$c; done; \
	$$d/collect -scale 0.05 -out $$d/data.csv; \
	$$d/train -in $$d/data.csv -minleaf 43 -out $$d/tree.json > $$d/train.out; tail -n 1 $$d/train.out; \
	$$d/analyze -tree $$d/tree.json -in $$d/data.csv > $$d/analyze.out; head -n 1 $$d/analyze.out; \
	$$d/serve -model cpi=$$d/tree.json -addr $(MODEL_SMOKE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	ok=0; for i in $$(seq 1 150); do \
	  $(SMOKE_CURL) -f http://$(MODEL_SMOKE_ADDR)/healthz >/dev/null 2>&1 && { ok=1; break; }; \
	  sleep 0.2; \
	done; \
	test $$ok -eq 1 || { echo "model-smoke: server never became healthy"; exit 1; }; \
	code=$$($(SMOKE_CURL) -o $$d/detail.json -w '%{http_code}' http://$(MODEL_SMOKE_ADDR)/v1/models/cpi); \
	test "$$code" = 200 || { echo "model-smoke: model detail returned HTTP $$code"; cat $$d/detail.json; exit 1; }; \
	if grep -q '"format"' $$d/detail.json; then echo "model-smoke: model detail carries a format field:"; cat $$d/detail.json; exit 1; fi; \
	code=$$($(SMOKE_CURL) -o $$d/predict.json -w '%{http_code}' \
	  -X POST -H 'Content-Type: application/json' \
	  -d '{"model":"cpi","events":[{"L2M":0.004,"L1IM":0.002}]}' \
	  http://$(MODEL_SMOKE_ADDR)/v1/predict); \
	test "$$code" = 200 || { echo "model-smoke: predict returned HTTP $$code"; cat $$d/predict.json; exit 1; }; \
	grep -q '"n":1,' $$d/predict.json || { echo "model-smoke: predict did not answer one row:"; cat $$d/predict.json; exit 1; }; \
	echo "model-smoke: predict OK:"; cat $$d/predict.json; \
	echo "model-smoke: PASS"

# End-to-end smoke test of the load-generation harness: start cmd/serve
# with a self-trained demo model, replay a short seeded mixed trace
# through cmd/loadgen, and fail unless the error budget is zero AND the
# client's counters match the server's /v1/metrics.json deltas exactly
# (the -max-error-budget 0 / validation gate inside loadgen). Always
# kills the server on exit.
LOADGEN_ADDR ?= 127.0.0.1:18467
LOADGEN_BIN  ?= /tmp/repro-loadgen-smoke
# Extra build flags for the server under test (loadgen-smoke-race sets
# -race). GORACE=halt_on_error=1 is inert without -race; with it, the
# first data race kills the server mid-replay and the smoke test fails.
LOADGEN_SERVE_BUILDFLAGS ?=

loadgen-smoke:
	@set -e; \
	$(GO) build $(LOADGEN_SERVE_BUILDFLAGS) -o $(LOADGEN_BIN).serve ./cmd/serve; \
	$(GO) build -o $(LOADGEN_BIN) ./cmd/loadgen; \
	GORACE=halt_on_error=1 $(LOADGEN_BIN).serve -demo -demo-scale 0.05 -addr $(LOADGEN_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	ok=0; for i in $$(seq 1 150); do \
	  curl -sf http://$(LOADGEN_ADDR)/healthz >/dev/null 2>&1 && { ok=1; break; }; \
	  sleep 0.2; \
	done; \
	test $$ok -eq 1 || { echo "loadgen-smoke: server never became healthy"; exit 1; }; \
	$(LOADGEN_BIN) -target http://$(LOADGEN_ADDR) -model demo \
	  -mode steady -duration 2s -rps 150 -seed 1 \
	  -out $(LOADGEN_BIN).report.json -max-error-budget 0; \
	echo "loadgen-smoke: PASS"

# loadgen-smoke with the server built under the race detector: a seeded
# mixed trace (predict/classify/stream across several sessions) is the
# closest thing to production concurrency the repo can generate, so any
# race the unit tests miss shows up here.
loadgen-smoke-race:
	@$(MAKE) --no-print-directory loadgen-smoke \
	  LOADGEN_SERVE_BUILDFLAGS=-race \
	  LOADGEN_ADDR=127.0.0.1:18468 \
	  LOADGEN_BIN=/tmp/repro-loadgen-smoke-race

# End-to-end smoke test of the streaming monitor: cmd/monitor -demo
# trains a model, streams a synthetic two-phase trace with an injected
# CPI regression through the full ingest/score/monitor path, and exits
# non-zero unless both the phase boundary and the drift alarm are caught.
monitor-smoke:
	$(GO) run ./cmd/monitor -demo -events ''

# End-to-end smoke test of the counter-consistency refutation layer:
# the clean demo trace must come out `consistent` (exit 0), and the
# same seeded trace with the DTLB counter readout negated mid-run must
# come out `refuted` (exit non-zero, relation table on stderr). A layer
# that fails either direction — flagging clean counters or passing
# corrupted ones — fails the target. The corrupted trace's one `refuted`
# event must also sit at section 63: refutation windows close every 32
# sections from session start, the corruption begins at section 30, so
# the windows ending at 31 and 63 are the two consecutive violated ones.
refute-smoke:
	@set -e; \
	$(GO) run ./cmd/monitor -demo -refute -render 0 -events ''; \
	if $(GO) run ./cmd/monitor -demo -demo-corrupt -refute -render 0 -events ''; then \
	  echo "refute-smoke: corrupted demo trace was NOT refuted"; exit 1; \
	fi; \
	at=$$($(GO) run ./cmd/monitor -demo -demo-corrupt -render 0 -quiet | \
	  grep '"type":"refute".*"verdict":"refuted"' | sed 's/.*"section":\([0-9]*\),.*/\1/' | tr '\n' ' '); \
	test "$$at" = "63 " || { echo "refute-smoke: refuted event at section(s) '$$at', want 63"; exit 1; }; \
	echo "refute-smoke: PASS (clean trace consistent, corrupted trace refuted at section 63)"
