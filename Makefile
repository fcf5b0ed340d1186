# Developer entry points. `make check` is the tier-1 gate plus formatting,
# vet, and the race detector; CI runs exactly that (.github/workflows/ci.yml).

GO ?= go

.PHONY: check fmt build vet test race fuzz bench benchgate allocgate campaign faultsmoke fuzzsmoke cachesmoke soaksmoke

check: fmt vet build allocgate race faultsmoke fuzzsmoke cachesmoke soaksmoke

# gofmt gate: fail listing any file that needs formatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The campaign engine is the repo's first real use of host parallelism;
# always exercise it (and the attack substrates under it) with -race.
race:
	$(GO) test -race -timeout 30m ./...

# Native fuzzing, 60 s per target: the parsers and decoders that read
# untrusted bytes (the record log's open and scan in internal/recordlog,
# the cminor parser, the fault-spec grammar shared by faultinject and
# netchaos, scenario-set loading with its save/load identity round trip,
# the campaign journal's record decoder, and the trace JSONL reader with
# its lossless round trip), sparse physical memory and the chunked struct
# pages under the page, slab and page_frag allocators against dense
# references (internal/mem), and the IOMMU, DMA API and device bus against
# a reference kept in plain maps and lists (internal/dma), and the /v1
# wire decoders: a submission's decode and resolution (internal/faultd),
# a lease delivery's verification (internal/fabric) and the fleet scrape's
# metrics snapshot decode, merge and render (internal/metrics). Their seed
# inputs already run under plain `go test`; this target searches past them
# and stays out of `make check` so CI time does not grow. FuzzLoadJournal's,
# FuzzSubmit's, FuzzDelivery's and FuzzSnapshotMerge's inputs carry
# results, scenario sets or metric snapshots of several KiB, and minimizing each new one for the default 60 s would spend
# the whole run there, so their minimization is capped at 5 s.
fuzz:
	$(GO) test ./internal/recordlog -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime 60s
	$(GO) test ./internal/cminor -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 60s
	$(GO) test ./internal/mem -run '^$$' -fuzz '^FuzzMemory$$' -fuzztime 60s
	$(GO) test ./internal/mem -run '^$$' -fuzz '^FuzzPageAllocator$$' -fuzztime 60s
	$(GO) test ./internal/faultinject -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 60s
	$(GO) test ./internal/campaign -run '^$$' -fuzz '^FuzzLoadScenarios$$' -fuzztime 60s
	$(GO) test ./internal/campaign -run '^$$' -fuzz '^FuzzLoadJournal$$' -fuzztime 60s -fuzzminimizetime 5s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 60s
	$(GO) test ./internal/dma -run '^$$' -fuzz '^FuzzIOMMU$$' -fuzztime 60s
	$(GO) test ./internal/faultd -run '^$$' -fuzz '^FuzzSubmit$$' -fuzztime 60s -fuzzminimizetime 5s
	$(GO) test ./internal/fabric -run '^$$' -fuzz '^FuzzDelivery$$' -fuzztime 60s -fuzzminimizetime 5s
	$(GO) test ./internal/metrics -run '^$$' -fuzz '^FuzzSnapshotMerge$$' -fuzztime 60s -fuzzminimizetime 5s

# One pass over every benchmark, teed through cmd/benchjson into a
# benchstat-comparable JSON artifact. -benchtime=3x keeps it minutes, not
# hours, while averaging enough iterations that benchgate compares means
# instead of single noisy draws (single-iteration artifacts on a loaded
# one-core host swing ±40% on identical code). BENCH_N numbers the
# committed snapshots: bump it and commit BENCH_N.json when the numbers
# move for a reason worth recording.
BENCH_N ?= 26
bench:
	$(GO) test -bench=. -benchmem -benchtime=3x -run=^$$ . | $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_N).json

# Regression gate over the two newest committed BENCH_*.json: >20% ns/op
# regression on the fabric-throughput or cache-hit benchmarks fails, and so
# does >10% more B/op or allocs/op on the boot, campaign-throughput, §5.3
# ring-flood, deferred map/unmap, NIC ring setup or IOTLB benchmarks. Advisory in CI
# (single-iteration runs are noisy) — a failure means re-run `make bench`
# and look, not an automatic veto.
benchgate:
	$(GO) run ./cmd/benchgate

# Allocation gate on the tree under review: run the six allocation-gated
# benchmarks once each and let benchgate compare their B/op and allocs/op
# against the committed BENCH_$(BENCH_N).json (+10%). Allocation counts are
# deterministic for a seed, so one iteration suffices; the ns/op families
# are not run, so only the allocation rows gate. Blocking in `make check`.
allocgate:
	@tmp=$$(mktemp -d); \
	$(GO) test -run '^$$' -bench '^Benchmark(BootOnce|CampaignThroughput|Sec53_RingFlood|MapUnmapDeferred|AddNIC|IOTLBInsertInvalidate)$$' \
		-benchmem -benchtime=1x . > $$tmp/bench.txt && \
	$(GO) run ./cmd/benchjson -out $$tmp/bench.json < $$tmp/bench.txt && \
	$(GO) run ./cmd/benchgate BENCH_$(BENCH_N).json $$tmp/bench.json; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# A quick §6-shaped mixed campaign; see EXPERIMENTS.md for the full runs.
campaign:
	$(GO) run ./cmd/campaign -preset mixed -n 24 -quiet

# Fault-injection smoke: a short mixed campaign with DMA corruption, allocator
# pressure, and scenario panics armed — proves the hardened execution layer
# (injection hooks, retries, panic isolation) end to end on every `make check`.
faultsmoke:
	$(GO) run ./cmd/campaign -preset mixed -n 8 -quiet \
		-fault "dma-corrupt:0.01,alloc-fail:0.002,scenario-panic:0.1" >/dev/null

# Coverage-guided fuzz smoke (~30s): a short seeded fuzz run over the full
# kind space (page-spray included) with minimization, proving the
# signature → corpus → energy-schedule loop end to end on every `make check`.
fuzzsmoke:
	$(GO) run ./cmd/campaign -fuzz -fuzz-attempts 24 -fuzz-batch 8 \
		-fuzz-minimize 2 -quiet >/dev/null

# Incremental-cache smoke: run a preset cold into a fresh result cache, then
# re-run it with -require-cached, which exits nonzero unless every scenario
# replayed from the store — proving digesting, persistence, and replay
# determinism end to end on every `make check`.
cachesmoke:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/campaign -preset ladder -n 8 -quiet -cache $$tmp/results.bin >/dev/null && \
	$(GO) run ./cmd/campaign -preset ladder -n 8 -quiet -cache $$tmp/results.bin -require-cached >/dev/null; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# Process-level soak (cmd/soaksmoke, ~15 s): what needs real processes.
# Daemon phase: fault-injected jobs through dmafaultd's bounded scheduler,
# random cancels, kill -9 mid-campaign, restart on the same journal dir, and
# boot recovery finishing the interrupted job. Fabric phase: a coordinator
# over 3 dmafaultd workers (one joined at runtime; GET /v1/fleet must then
# list 3 rows) with -fleetobs and a mild netchaos plan; kill -9 a worker
# once /v1/fleet shows it holding a lease, fabrictop -once lists every
# worker, kill -9 the coordinator after the re-lease is journaled, and
# -resume must reproduce the single-node summary byte for byte with
# fabric_releases_total > 0. Integrity rejection, torn event streams,
# per-phase fleet attribution and fabrictop's rendering need no process and
# are pinned by tier-1 tests instead (internal/fabric's
# TestByteIdenticalUnderChaos, TestTornEventStreamResubscribes and
# TestByteIdenticalWithFleetObs; cmd/fabrictop's TestRenderFleetGolden).
soaksmoke:
	$(GO) run ./cmd/soaksmoke
