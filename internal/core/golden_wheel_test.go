package core

import (
	"testing"

	"repro/internal/ocb"
	"repro/internal/sim"
)

// The wheel golden tests re-run the hex-pinned golden scenarios with the
// timing-wheel calendar forced on. The pinned strings are the SAME strings
// the heap tests use: the wheel's contract is bit-identical firing order,
// so every metric — Welford accumulators, response quantiles, elapsed
// times — must reproduce exactly, not approximately.

// onWheel returns cfg with the timing wheel forced on.
func onWheel(cfg Config) Config {
	cfg.Calendar = sim.WheelCalendar
	return cfg
}

// TestGoldenFig6PointWheel pins the reduced Figure 6 point on the wheel to
// the heap's exact fingerprint.
func TestGoldenFig6PointWheel(t *testing.T) {
	const want = "tx=120 ab=0 rd=4391 wr=0 io=4391 hit=7951 miss=4391 hr=0x1.49d7981f87329p-01 el=0x1.c78c5f3b64c4bp+16 mean=0x1.e5eb103f5a6b6p+09 med=0x1.c75db22d0e88p+08 p95=0x1.79a12bd3c47acp+11 tps=0x1.076b37595cf16p+00 du=0x1.d5ddc4c56b011p-02 cu=0x0p+00 mo=0x1.9999999999999p-04"
	db, err := ocb.Generate(goldenParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(onWheel(goldenO2Config()), db, 42)
	if err != nil {
		t.Fatal(err)
	}
	if run.Calendar() != sim.WheelCalendar {
		t.Fatal("wheel not engaged")
	}
	w := ocb.GenerateWorkload(db, 43)
	got := goldenBatch(t, run, w.Hot)
	if got != want {
		t.Errorf("wheel Fig6 point diverged from heap golden:\n got  %s\n want %s", got, want)
	}
}

// TestGoldenWriteContentionWheel pins the contention scenario — wait-die
// aborts, restarts, lock-timeout cancellations — on the wheel.
func TestGoldenWriteContentionWheel(t *testing.T) {
	const want = "tx=100 ab=2003 rd=5384 wr=237 io=5621 hit=55899 miss=5384 hr=0x1.d304b5368b25bp-01 el=0x1.29c4d70a3d498p+16 mean=0x1.196710cb2937cp+11 med=0x1.001c7ae14782p+11 p95=0x1.3df5604188918p+12 tps=0x1.4fd4b5e9492f4p+00 du=0x1.cbbc5798057a1p-01 cu=0x1.076eeb835cdc8p-07 mo=0x1.fb434da743748p-01"
	cfg := onWheel(goldenO2Config())
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
		t.Errorf("wheel contention batch diverged from heap golden:\n got  %s\n want %s", got, want)
	}
}

// TestGoldenExperimentAggregateWheel pins the replicated aggregate on the
// wheel at workers 1, 2, and 4 — the parallel engine must stay
// bit-identical with the wheel underneath every worker.
func TestGoldenExperimentAggregateWheel(t *testing.T) {
	const want = "ios=0x1.f62p+11/0x1.bda44p+22 rd=0x1.f62p+11 wr=0x0p+00 hr=0x1.862f9735be7e5p-01 resp=0x1.126133791aefap+10 tp=0x1.f123990d173f9p-01"
	for _, workers := range []int{1, 2, 4} {
		e := Experiment{
			Config:       onWheel(goldenO2Config()),
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
			t.Errorf("wheel aggregate diverged at Workers=%d:\n got  %s\n want %s", workers, got, want)
		}
	}
}

// TestWheelMatchesHeapAllArchitectures runs the four-architecture matrix
// (Centralized, Object Server, Page Server, DB Server) under a mixed
// read/write workload with failures enabled on both calendars and demands
// identical batch fingerprints — the full model surface, not just the
// golden configurations.
func TestWheelMatchesHeapAllArchitectures(t *testing.T) {
	for _, sys := range []SystemClass{Centralized, ObjectServer, PageServer, DBServer} {
		cfg := goldenO2Config()
		cfg.System = sys
		cfg.Users = 2
		cfg.ThinkTimeMs = 1
		cfg.Failures = FailureParams{Enabled: true, MTBFMs: 15000, MeanRepairMs: 150}
		p := goldenParams()
		p.WriteProb = 0.05
		db, err := ocb.Generate(p, 23)
		if err != nil {
			t.Fatal(err)
		}
		w := ocb.GenerateWorkload(db, 24)

		heapRun, err := NewRun(cfg, db, 23)
		if err != nil {
			t.Fatal(err)
		}
		heapFP := goldenBatch(t, heapRun, w.Hot)

		wheelRun, err := NewRun(onWheel(cfg), db, 23)
		if err != nil {
			t.Fatal(err)
		}
		wheelFP := goldenBatch(t, wheelRun, w.Hot)

		if heapFP != wheelFP {
			t.Errorf("%v: wheel diverged from heap:\n heap  %s\n wheel %s", sys, heapFP, wheelFP)
		}
		if heapRun.CalendarPeak() != wheelRun.CalendarPeak() {
			t.Errorf("%v: calendar peaks differ: heap=%d wheel=%d",
				sys, heapRun.CalendarPeak(), wheelRun.CalendarPeak())
		}
	}
}
