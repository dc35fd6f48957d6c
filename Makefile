# Convenience targets for the twostep reproduction.

GO ?= go

.PHONY: all build test test-short test-flaky race benchmark-check bench bench-wan bench-wan-short microbench report examples vet lint cover fuzz crash chaos chaos-short size clean

all: build vet lint test

build:
	$(GO) build ./...

# go vet, and gofmt: fails when `gofmt -l` lists a file (.bench_build/ is
# the benchmark's scratch checkout, not this tree).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Custom static-analysis suite (determinism, quorumarith, lockguard,
# msgswitch, iolock, codecsym, atomicguard, golifecycle, errtaxonomy) —
# see docs/ANALYZERS.md.
lint:
	$(GO) run ./cmd/protolint ./...

test:
	$(GO) test ./... -timeout 600s

# Full suite under the race detector (CI runs this; local runs may take a
# few minutes).
race:
	$(GO) test ./... -race -timeout 1200s

# Skips the heavyweight exhaustive model-checking suites.
test-short:
	$(GO) test ./... -short -timeout 300s

# Flake hunt: the timing-sensitive suites repeated under the race detector.
# A test that passes here five times in a row is allowed to rely on its
# timing assumptions; one that doesn't gets converted to a fake clock
# (see TestLeaseExpiryUnderFsyncStall for the pattern).
test-flaky:
	$(GO) test ./internal/smr ./internal/shard ./internal/cluster ./internal/chaos ./internal/wan ./internal/transport ./internal/deadline \
		-race -count=5 -timeout 1200s

# benchmark/ is its own module, so `go build ./...` and `go test ./...`
# above never compile it: this is what notices a deleted smr/shard export
# it still uses.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -timeout 1200s .

# F10 WAN suite: per-region commit latency and slow-path rate for every
# protocol over real TCP with geo delays injected and fsync on —
# regenerates BENCH_F10.json, the one committed report outside benchmark/
# (~4–5 min: the delays are real); see docs/TESTING.md and
# docs/PERFORMANCE.md.
bench-wan:
	$(GO) run ./cmd/bench -exp F10 -json .

# CI-sized F10: Mesh fabric, two sweep cells, delays compressed 20×.
bench-wan-short:
	$(GO) run ./cmd/bench -exp F10 -f10-short

# Hot-path microbenchmarks (codec allocs out and in, WAL group commit, full
# replica pipeline) at a fixed iteration count so CI gets stable allocs/op
# without waiting for time-based calibration — see docs/PERFORMANCE.md.
# BenchmarkFrameDecode is a vote's way in: frame → group → slot → core.TwoB.
# BenchmarkReplicaPipeline also prints the write budget at n=3 and n=5:
# sends/op must read 3(n-1)+e (7, 14) and walrecs/op 2n (6, 10).
# BenchmarkBatcherDistance/warm is ten bursts of 256 writers a 20 ms round
# trip from their quorum: cmds/roundtrip above 64 means chunks overlapped.
# /cold is the first burst at ten fresh proposers: roundtrips/burst near 1
# means a proposer that has measured nothing assumes distance (2 if its
# first chunk has to commit before a second one goes). /closed32 is 32
# closed-loop writers a 50 ms round trip away, ten chunks: held_us/chunk well
# under 1000 means a released cohort is waited for, not held a blind 1 ms
# beat, and cmds/batch near 32 that it stayed one chunk.
# BenchmarkReadFallback is the lease-less GETL: ten bursts of 256 readers on
# the same fixture (roundtrips/burst near 1: barriers overlap like writes),
# then 1, 8 and 64 closed-loop callers, nine reads to one write, on durable
# loopback processes, 2000 operations each (ops/s, slots/op, and
# held_us/slot: the loopback gather beat, which stays blind).
# BenchmarkCatchup is one catch-up between two replicas, as a log suffix of
# 64 slots and as a snapshot of 8k keys: wire-B/op, frames/op and how long
# each side holds Replica.mu for it (send-lock-ns/op, recv-lock-ns/op).
# BenchmarkLinkDelay is the WAN shim's own error: late_us/frame is how late
# a frame arrives past its 37.5 ms injected delay (the release is a deadline
# of internal/deadline; the rest is the loopback write and the reader's wake).
# BenchmarkDeadline is the timer table: late_p50_us / late_p90_us and
# cpu_us/wait of a 100 us – 37.5 ms wait on an idle process, as a time.Timer
# (rounded to the netpoller's millisecond) and as a deadline (woken on time
# by its timerfd).
# BenchmarkTCPLinkHeap is what an idle TCP link keeps on the heap: heap_B/link
# is the live-heap growth (after runtime.GC) of opening 16 links with one
# frame each, both ends in the process. A link's queue follows its traffic,
# so this is its sockets and peer state (about 1.5 KB); a fixed 1024-slot
# queue would add 49,152 B.
microbench:
	$(GO) test -run=NONE -bench 'BenchmarkCommandEncode|BenchmarkCommandDecode|BenchmarkSlotWrap|BenchmarkFrameDecode|BenchmarkReplicaPipeline' \
		-benchmem -benchtime=100x -count=2 ./internal/smr ./internal/smr/slotlog
	$(GO) test -run=NONE -bench 'BenchmarkBatcherDistance|BenchmarkReadFallback/distance' -benchtime=10x -count=2 ./internal/smr
	$(GO) test -run=NONE -bench 'BenchmarkReadFallback/loopback' -benchtime=2000x -count=2 ./internal/smr
	$(GO) test -run=NONE -bench 'BenchmarkCatchup' -benchtime=20x -count=2 ./internal/smr
	$(GO) test -run=NONE -bench 'BenchmarkWALAppendGroup' \
		-benchmem -benchtime=100x -count=2 ./internal/wal
	$(GO) test -run=NONE -bench 'BenchmarkLinkDelay' -benchtime=40x -count=2 ./internal/transport
	$(GO) test -run=NONE -bench 'BenchmarkDeadline' -benchtime=40x -count=2 ./internal/deadline
	$(GO) test -run=NONE -bench 'BenchmarkTCPLinkHeap' -benchtime=5x -count=2 ./internal/transport

# Rewrites EXPERIMENTS.md below its "# Generated report" line (and prints
# it, plus CSVs under ./out): every registered experiment, F10 in short
# mode. Commit the result; on an unchanged tree only the stamp and the
# live-measured tables (T3b, T7, F10) differ.
report:
	$(GO) run ./cmd/bench -soak-runs 200 -f10-short -csv out -out EXPERIMENTS.md

examples:
	$(GO) run ./examples/lowerbound
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/wan

cover:
	$(GO) test ./internal/... -cover -short -timeout 300s

# Coverage-guided fuzzing, FUZZTIME (30s) on each fuzz target: the one list
# of them (CI runs `make fuzz FUZZTIME=10s`). Each new interesting input is
# minimized for at most 1 s: at go test's default of 60 s a target spends
# most of a short budget minimizing, at 0 execs/s.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/consensus -run=NONE -fuzz=FuzzCodecDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/core -run=NONE -fuzz=FuzzDeliverRobustness -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/wal -run=NONE -fuzz=FuzzRecordCodec -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/transport -run=NONE -fuzz=FuzzFrameRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/storage -run=NONE -fuzz=FuzzSnapshotRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/smr -run=NONE -fuzz=FuzzSessionFrameRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/smr -run=NONE -fuzz=FuzzCommandDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/smr -run=NONE -fuzz=FuzzWalEntryDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/smr -run=NONE -fuzz=FuzzDurableSnapshotDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/smr -run=NONE -fuzz=FuzzCatchupReplyDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/smr/slotlog -run=NONE -fuzz=FuzzSlotLog -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/linear -run=NONE -fuzz=FuzzCheckVsBrute -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s

# Crash-injection suite: torn writes, failpoints mid-record, kill-and-restart
# recovery through the runtime's shared-WAL abort/close, a torn log failing
# every group's writes, and a process rejoining a 50k-key store over TCP from
# below every peer's compaction floor — see docs/DURABILITY.md.
crash:
	$(GO) test -run '^TestCrash' -v -timeout 300s ./internal/wal/... ./internal/smr/...
	$(GO) test -run '^TestCrash|^TestRuntime(Crash|Graceful)|^TestLogFailurePoisonsEveryGroup$$' -v -timeout 300s ./internal/shard/... ./internal/cluster/...
	$(GO) test -run '^TestLargeStoreRejoinsOverTCP$$' -v -timeout 300s ./internal/cluster -rejoin.keys=50000

# Whole-stack chaos campaign: SEEDS consecutive seeded scenarios (live
# durable cluster + nemesis + linearizability check), starting at SEED.
# Rerun a reported failure with `make chaos SEED=N SEEDS=1` — see
# docs/TESTING.md.
SEED ?= 1
SEEDS ?= 20
chaos:
	$(GO) test -tags chaos ./internal/chaos -run TestChaosFull -v \
		-chaos.seed=$(SEED) -chaos.seeds=$(SEEDS) -timeout 1200s
	$(GO) test ./internal/chaos -run TestShardedChaosLinearizable -count=1 -v -timeout 300s
	$(GO) test ./internal/chaos -run 'TestLeaseChaosLinearizable|TestLeaseTeethZeroEpsilon' -count=1 -v -timeout 300s
	$(GO) test ./internal/chaos -run TestWANPartitionLinearizable -count=1 -v -timeout 300s

# Shrunk chaos campaign for per-push CI: fewer seeds, smaller scenarios,
# plus the multi-group scenario (partitions + crash-restart through the
# shared-WAL recovery demux — see docs/SHARDING.md), the lease scenario
# (crash/partition the leaseholder mid-lease — see docs/LEASES.md), and
# the geo scenario (region cut under injected WAN latency — see
# docs/TESTING.md).
chaos-short:
	$(GO) test -tags chaos ./internal/chaos -run TestChaosFull \
		-chaos.seed=$(SEED) -chaos.seeds=5 -chaos.short -timeout 600s
	$(GO) test ./internal/chaos -run TestShardedChaosLinearizable -count=1 -timeout 300s
	$(GO) test ./internal/chaos -run 'TestLeaseChaosLinearizable|TestLeaseTeethZeroEpsilon' -count=1 -timeout 300s
	$(GO) test ./internal/chaos -run TestWANPartitionLinearizable -count=1 -timeout 300s

# Non-test Go line counts: per package, the total outside benchmark/, and
# internal/smr + slotlog + internal/shard without comment and blank lines.
# The size figures in ROADMAP.md and CHANGES.md come from here; nothing
# gates on them.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*/*' | sort | xargs awk '\
		FNR == 1 { d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d) } \
		{ n[d]++; total++ } \
		d ~ /^internal\/(smr|smr\/slotlog|shard)$$/ && !/^[ \t]*(\/\/.*)?$$/ { code++ } \
		END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"; close("sort -k2"); \
			printf "%7d  non-test Go outside benchmark/\n", total; \
			printf "%7d  internal/smr + slotlog + internal/shard, code only\n", code }'

clean:
	rm -rf out
