package core

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/ocb"
)

// The golden determinism tests pin the simulation's observable outputs to
// hard-coded values captured from the seed run. Any refactor of the
// transaction pipeline (pooling, state machines, dense lock tables, buffer
// recycling) must reproduce these values bit for bit: floats are compared
// through their exact hex representation, so even a one-ulp drift in the
// Welford accumulators or a reordered event fails the test.

// hexF renders a float64 exactly (no rounding), so golden strings are
// bit-precise.
func hexF(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// fingerprintBatch folds every metric of one batch into a comparable string.
func fingerprintBatch(st BatchStats) string {
	return fmt.Sprintf("tx=%d ab=%d rd=%d wr=%d io=%d hit=%d miss=%d hr=%s el=%s mean=%s med=%s p95=%s tps=%s du=%s cu=%s mo=%s",
		st.Transactions, st.Aborts, st.Reads, st.Writes, st.IOs, st.Hits, st.Misses,
		hexF(st.HitRatio), hexF(st.ElapsedMs), hexF(st.MeanRespMs), hexF(st.MedianRespMs),
		hexF(st.P95RespMs), hexF(st.ThroughputTPS), hexF(st.DiskUtilization),
		hexF(st.CPUUtilization), hexF(st.MPLOccupancy))
}

// goldenBatch runs one batch, asserts the lock layer's conservation law
// once it has drained — no live transaction, no item entry and no queued
// request — and returns the batch's fingerprint.
func goldenBatch(t *testing.T, run *Run, txs []ocb.Transaction) string {
	t.Helper()
	st := run.ExecuteBatch(txs)
	if err := run.locks.Quiescent(); err != nil {
		t.Errorf("after the batch: %v", err)
	}
	return fingerprintBatch(st)
}

// fingerprintResult folds a replicated experiment's aggregate into a string.
func fingerprintResult(res *Result) string {
	return fmt.Sprintf("ios=%s/%s rd=%s wr=%s hr=%s resp=%s tp=%s",
		hexF(res.IOs.Mean()), hexF(res.IOs.Variance()),
		hexF(res.Reads.Mean()), hexF(res.Writes.Mean()),
		hexF(res.HitRatio.Mean()), hexF(res.RespMs.Mean()), hexF(res.Throughput.Mean()))
}

// goldenO2Config is a reduced Figure 6 point: O₂-style page server,
// read-only Table 5 mix.
func goldenO2Config() Config {
	cfg := DefaultConfig()
	cfg.System = PageServer
	cfg.BufferPages = 256
	cfg.MPL = 10
	cfg.GetLockMs = 0.5
	cfg.RelLockMs = 0.5
	cfg.ServerCPUs = 2
	cfg.StorageOverhead = 1.33
	return cfg
}

func goldenParams() ocb.Params {
	p := ocb.DefaultParams()
	p.NC = 10
	p.NO = 1500
	p.HotN = 120
	return p
}

// TestGoldenFig6Point pins a small Figure 6 point end to end: generate the
// base and workload, run one batch, and compare every BatchStats field to
// the seed run.
func TestGoldenFig6Point(t *testing.T) {
	const want = "tx=120 ab=0 rd=4391 wr=0 io=4391 hit=7951 miss=4391 hr=0x1.49d7981f87329p-01 el=0x1.c78c5f3b64c4bp+16 mean=0x1.e5eb103f5a6b6p+09 med=0x1.c75db22d0e88p+08 p95=0x1.79a12bd3c47acp+11 tps=0x1.076b37595cf16p+00 du=0x1.d5ddc4c56b011p-02 cu=0x0p+00 mo=0x1.9999999999999p-04"
	db, err := ocb.Generate(goldenParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(goldenO2Config(), db, 42)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 43)
	got := goldenBatch(t, run, w.Hot)
	if got != want {
		t.Errorf("golden Fig6 point diverged:\n got  %s\n want %s", got, want)
	}
}

// TestGoldenWriteContention pins a concurrent write mix: several users
// above MPL capacity, write locks, wait-die aborts and restarts. This is
// the path the pooled continuation and dense lock table must reproduce
// exactly, including the abort count and response-time quantiles.
func TestGoldenWriteContention(t *testing.T) {
	const want = "tx=100 ab=2003 rd=5384 wr=237 io=5621 hit=55899 miss=5384 hr=0x1.d304b5368b25bp-01 el=0x1.29c4d70a3d498p+16 mean=0x1.196710cb2937cp+11 med=0x1.001c7ae14782p+11 p95=0x1.3df5604188918p+12 tps=0x1.4fd4b5e9492f4p+00 du=0x1.cbbc5798057a1p-01 cu=0x1.076eeb835cdc8p-07 mo=0x1.fb434da743748p-01"
	cfg := goldenO2Config()
	cfg.System = Centralized
	cfg.Users = 3
	cfg.MPL = 2
	cfg.ThinkTimeMs = 2
	p := goldenParams()
	p.WriteProb = 0.02
	p.HotN = 100
	db, err := ocb.Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(cfg, db, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 8)
	got := goldenBatch(t, run, w.Hot)
	if got != want {
		t.Errorf("golden contention batch diverged:\n got  %s\n want %s", got, want)
	}
	if run.locks.Deaths() == 0 {
		t.Error("golden contention batch exercised no wait-die deaths; config no longer stresses the lock table")
	}
}

// TestGoldenTexasReserve pins the Texas emulation switches: reservation on
// load, swizzle-dirty swap-outs, and one-ahead prefetching — the buffer
// eviction/reservation states of the transaction pipeline.
func TestGoldenTexasReserve(t *testing.T) {
	const want = "tx=120 ab=0 rd=6454 wr=3918 io=10372 hit=1517 miss=6454 hr=0x1.85c3d056d7c21p-03 el=0x1.b835c28f5bf57p+16 mean=0x1.d58ead65b76c3p+09 med=0x1.907c28f5c23ap+09 p95=0x1.7418ac0831459p+11 tps=0x1.1098e01a3d567p+00 du=0x1.e6df82632106fp-01 cu=0x1.fb61eff075p-12 mo=0x1.999999999999ap-04"
	cfg := goldenO2Config()
	cfg.System = Centralized
	cfg.BufferPages = 128
	cfg.ReserveOnLoad = true
	cfg.SwizzleDirty = true
	cfg.Prefetch = OneAhead
	p := goldenParams()
	p.WriteProb = 0.05
	db, err := ocb.Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(cfg, db, 11)
	if err != nil {
		t.Fatal(err)
	}
	w := ocb.GenerateWorkload(db, 12)
	got := goldenBatch(t, run, w.Hot)
	if got != want {
		t.Errorf("golden Texas batch diverged:\n got  %s\n want %s", got, want)
	}
}

// TestGoldenExperimentAggregate pins the replicated aggregate (Welford
// accumulators folded in replication order) for a 3-replication experiment
// at both worker counts.
func TestGoldenExperimentAggregate(t *testing.T) {
	const want = "ios=0x1.f62p+11/0x1.bda44p+22 rd=0x1.f62p+11 wr=0x0p+00 hr=0x1.862f9735be7e5p-01 resp=0x1.126133791aefap+10 tp=0x1.f123990d173f9p-01"
	for _, workers := range []int{1, 4} {
		e := Experiment{
			Config:       goldenO2Config(),
			Params:       goldenParams(),
			Seed:         1999,
			Replications: 3,
			Workers:      workers,
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprintResult(res)
		if got != want {
			t.Errorf("golden aggregate diverged at Workers=%d:\n got  %s\n want %s", workers, got, want)
		}
	}
}
