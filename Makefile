# Tier-1 gate for the repository: `make check` is what CI (and every
# PR) must keep green. Individual targets:
#
#   make build        compile everything
#   make vet          go vet over all packages, and fail if gofmt -l
#                     lists any file
#   make test         full test suite; the concurrency-heavy packages
#                     (security, vm, events, netsim, audit, vfs,
#                     streams, objspace, remote, playground, classes,
#                     core, load) are rerun under the data-race detector,
#                     the vm thread-carrier tests run ten times under it
#                     (they race spawns against parking and halt), and
#                     the perfbench module (nested, so ./... never
#                     reaches it) runs its own tests
#   make bench-smoke  one fast pass over the E8 access-control, events,
#                     and netsim benchmarks
#   make bench-json   full mvmbench run, machine-readable, written to
#                     BENCH_PR10.json (the committed snapshot)
#   make bench-json-smoke  mvmbench at tiny iteration count, output
#                     discarded — CI uses this to keep the harness
#                     from rotting; the run fails outright if the
#                     §E-audit drain/proof rows go missing
#   make fuzz-smoke   each native fuzz target (internal/audit:
#                     FuzzSegment, FuzzVerifyProof) fuzzed for 10s in
#                     its own go test call; plain `make test` already
#                     replays their committed seed corpora
#   make load-smoke   mvmload's built-in smoke grid: a tiny open-loop
#                     sweep that asserts every cell completes work —
#                     CI's guard on the traffic harness
#   make load-grid    the reproducible mvmload grid behind
#                     EXPERIMENTS.md §E-load (slow); writes
#                     LOAD_GRID.csv and LOAD_GRID.json
#   make check        all of the above except bench-json,
#                     bench-json-smoke, fuzz-smoke and load-grid (CI
#                     runs bench-json-smoke and fuzz-smoke as steps of
#                     their own)
#   make bench        the full experiment harness (slow)

GO ?= go

.PHONY: build vet test bench-smoke bench bench-json bench-json-smoke \
	fuzz-smoke load-smoke load-grid check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...
	$(GO) test -race ./internal/security/ ./internal/vm/ ./internal/events/ ./internal/netsim/ ./internal/audit/ ./internal/vfs/ ./internal/streams/ ./internal/objspace/ ./internal/remote/ ./internal/playground/ ./internal/classes/ ./internal/core/ ./internal/load/
	$(GO) test -race -count=10 -run Carrier ./internal/vm/
	cd perfbench && $(GO) test .

bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkE8AccessControl|BenchmarkE8PolicyScale' -benchtime=100x .
	$(GO) test -run xxx -bench . -benchtime=100x ./internal/security/
	$(GO) test -run xxx -bench . -benchtime=100x ./internal/events/ ./internal/netsim/

bench-json:
	$(GO) run ./cmd/mvmbench -iters 400 -json > BENCH_PR10.json

bench-json-smoke:
	$(GO) run ./cmd/mvmbench -iters 20 -json > /dev/null

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSegment$$' -fuzztime 10s ./internal/audit/
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyProof$$' -fuzztime 10s ./internal/audit/

load-smoke:
	$(GO) run ./cmd/mvmload -smoke > /dev/null

load-grid:
	$(GO) run ./cmd/mvmload -duration 2s -warmup 500ms -repeats 3 \
		-csv LOAD_GRID.csv -json LOAD_GRID.json

bench:
	$(GO) test -bench=. -benchmem .

check: build vet test bench-smoke load-smoke
