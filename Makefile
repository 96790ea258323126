# Developer and CI entry points. `make ci` is exactly what the GitHub
# workflow runs; `make bench` records the paper's yardsticks in
# BENCH_conn.json and `make bench-store` the storage-tier kernels in
# BENCH_store.json. The end-to-end benchmark is perfbench/ (BENCHMARK.json).

GO ?= go

.PHONY: build fmt vet test short race chaos cover bench bench-store bench-dblp bench-smoke bench-selftest e2e-smoke fuzz serve docs-check ci

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; fi

# The nested perfbench module is not part of the root ./..., so vet it
# explicitly: an API change that breaks the benchmark fails here.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# Full suite, including the slow experiment reproductions and torture tests.
test:
	$(GO) test ./...

# The fast path CI runs on every push (< ~2 minutes).
short:
	$(GO) test -short ./...

# Race detector over the concurrency-bearing packages (the statistical
# conformance harness exercises server+shard+conn together, so it rides
# in this gate too).
race:
	$(GO) test -race -short ./internal/par ./internal/worldstore ./internal/conn ./internal/sampler ./internal/core ./internal/mcl ./internal/server ./internal/shard ./internal/stattest ./internal/faultinject ./internal/obs

# Seeded chaos suite under the race detector: fault-injection proxies
# (internal/faultinject) kill, delay and corrupt the coordinator-worker
# path while the suite asserts every query either fails loudly or
# answers bit-identically to a fault-free run. Each run logs its seed;
# replay any failure exactly with CHAOS_SEED=<seed> make chaos.
chaos:
	$(GO) test -race -v -count=1 ./internal/faultinject
	$(GO) test -race -v -count=1 ./internal/shard -run 'TestChaos|TestBreaker|TestFlapQuarantine|TestCorruptFrame|TestAudit|TestWorkerDrain'
	$(GO) test -race -v -count=1 ./internal/stattest -run 'TestAdaptiveSurvives|TestAdaptiveAllWorkersDead|TestDrainCompletes'

# Coverage floor on the packages the adaptive path runs through. Fails
# if either package's total statement coverage drops below $(COVER_MIN)%.
COVER_MIN ?= 70
cover:
	@for pkg in ./internal/conn ./internal/server; do \
		$(GO) test -short -coverprofile=cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_MIN)%)"; \
		awk -v p="$$pct" -v min="$(COVER_MIN)" 'BEGIN { exit !(p+0 < min+0) }' && \
			{ echo "FAIL: $$pkg below $(COVER_MIN)% statement coverage"; rm -f cover.out; exit 1; } || true; \
	done
	@rm -f cover.out

# Run the query daemon on a built-in dataset (see docs/SERVER.md).
serve:
	$(GO) run ./cmd/ucserve -synthetic collins

# Documentation gate: no broken relative links, and the runnable examples
# still print exactly what their pinned output says.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) test ./examples/...

# Estimator-level benchmarks -> BENCH_conn.json so later changes can
# compare runs.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . | tee bench.out
	$(GO) run ./cmd/benchjson -suite conn < bench.out > BENCH_conn.json
	@rm -f bench.out
	@echo "wrote BENCH_conn.json"

# Compile-and-run-once smoke over every benchmark, so bench code cannot
# rot between recorded runs. -benchtime=1x keeps it to seconds.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -short ./...

# Storage-tier benchmarks (cold vs spilled-warm vs recompute block
# materialization, the single-center connection count on the
# largest-component index next to the reference label scan and a
# 16-center batch on the same index, a 2-center tally whose every index
# block reloads from the disk tier, an unlimited-depth pair count warm
# and on a spilled DBLP store whose budget holds its index blocks, a
# fresh store's first 16-world label read, depth-limited counts on the
# bitmap blocks' lanes — one center on Krogan, one center and a
# 16-center batch on 8-world DBLP lanes — next to the reference
# per-world BFS, and the sampler's bit-sliced accumulate kernel at full
# and depth-2 reach, which no store path runs any more: its rows price
# the end-to-end benchmark's sampler rung) -> BENCH_store.json, merged
# in place.
bench-store:
	$(GO) test -bench='BlockMaterialize|CountConnectedFrom|CountPair|FirstLabelRead|CountWithinFrom' -benchmem -run='^$$' ./internal/worldstore | tee bench-store.out
	$(GO) test -bench='Accum' -benchmem -run='^$$' ./internal/sampler | tee -a bench-store.out
	$(GO) run ./cmd/benchjson -suite store -update BENCH_store.json < bench-store.out
	@rm -f bench-store.out
	@echo "merged store suite into BENCH_store.json"

# Paper-scale smoke: one pass of the full-size DBLP instance (636751
# authors) through the disk-backed store, merged into BENCH_store.json.
# Slow (graph generation alone takes several seconds).
bench-dblp:
	$(GO) test -bench='DBLPPaperScale' -benchmem -run='^$$' -benchtime=1x -timeout=30m ./internal/worldstore | tee bench-dblp.out
	$(GO) run ./cmd/benchjson -suite store -update BENCH_store.json < bench-dblp.out
	@rm -f bench-dblp.out
	@echo "merged paper-scale DBLP into BENCH_store.json"

# Fuzz the byte decoders beyond their checked-in corpora (each corpus
# itself runs as seeds in every plain `go test`): the shard wire codec,
# the world store's disk-tier directory log, the daemon's HTTP request
# bodies and the graph, clustering and ground-truth file parsers.
# FUZZTIME extends a run.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/shard -run='^$$' -fuzz=FuzzWireRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/shard -run='^$$' -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/worldstore -run='^$$' -fuzz=FuzzSpillReplay -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzRequestBodies -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gio -run='^$$' -fuzz=FuzzReadGraph -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gio -run='^$$' -fuzz=FuzzReadClusters -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gio -run='^$$' -fuzz=FuzzReadGroundTruth -fuzztime=$(FUZZTIME)

# The end-to-end benchmark's self-test: every perfbench workload runs
# briefly and its metrics are checked against BENCHMARK.json, including
# that no replayed layer's self time goes negative.
bench-selftest:
	bash perfbench/run.sh --selftest

# The per-push end-to-end smoke: one short seeded perfbench run of
# krogan-cluster (/v1/cluster on the local path), of krogan-sharded
# (the same requests through the shard coordinator), of krogan-conn
# (/v1/conn, a quarter of it adaptive and so on the conn adaptive round
# loop, each adaptive answer checked against the library) and of
# dblp-tiered on its brief fixture (the self-test's 40,000-author DBLP:
# 8-world blocks under a store budget of 35% of the working set, with a
# disk tier, so blocks spill and reload). perfbench exits 0 even when
# requests fail, so each run's last line must start {"correct":true,
# and report "failed":0.
e2e-smoke:
	@for w in krogan-cluster krogan-sharded krogan-conn 'dblp-tiered --brief'; do \
		last="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 3 | tail -n 1)"; \
		echo "$$w: $$last"; \
		case "$$last" in '{"correct":true,'*'"failed":0,'*) ;; *) echo "FAIL: $$w smoke"; exit 1;; esac; \
	done

ci: build fmt vet short race cover bench-smoke docs-check e2e-smoke
