package core

import (
	"context"
	"testing"

	"repro/internal/ocb"
	"repro/internal/sim"
)

// zeroThinkBatch returns a 1-user, zero-think-time run and a batch of n
// transactions over a small base.
func zeroThinkBatch(t *testing.T, n int) (*Run, []ocb.Transaction) {
	t.Helper()
	cfg := smallConfig()
	cfg.ThinkTimeMs = 0
	r, db := mustRun(t, cfg, smallParams(), 11)
	g := ocb.NewGenerator(db, 12)
	txs := make([]ocb.Transaction, n)
	for i := range txs {
		txs[i] = g.Next()
	}
	return r, txs
}

// TestZeroThinkBatchNestingBounded: with zero think time every commit
// submits the next transaction inline, from inside its own step frame. The
// nested transaction must hand its first delay back to the kernel rather
// than advance the clock, or the whole batch would run nested on one
// stack. The kernel's Trace hook fires at every dispatch and every in-place
// advance, so the step depth it sees bounds the depth at which the clock
// moves. The batch must also equal, bit for bit, the same batch with the
// head-slot register — and so every in-place advance — switched off.
func TestZeroThinkBatchNestingBounded(t *testing.T) {
	const n = 2000
	batch := func() (BatchStats, int, uint64) {
		r, txs := zeroThinkBatch(t, n)
		maxDepth := 0
		r.sim.Trace = func(sim.Time) { maxDepth = max(maxDepth, r.depth) }
		st := r.ExecuteBatch(txs)
		return st, maxDepth, r.sim.Bypassed()
	}
	t.Setenv("VOODB_NO_HEADSLOT", "")
	st, maxDepth, bypassed := batch()
	if st.Transactions != n {
		t.Fatalf("committed %d/%d transactions", st.Transactions, n)
	}
	if maxDepth > 2 {
		t.Fatalf("clock moved at step depth %d, want ≤ 2 (nested frames advanced)", maxDepth)
	}
	if bypassed == 0 {
		t.Fatal("no event took the fast path")
	}

	t.Setenv("VOODB_NO_HEADSLOT", "1")
	off, _, _ := batch()
	st.BypassRate, off.BypassRate = 0, 0
	if st != off {
		t.Fatalf("in-place advance changed the batch:\n on  %+v\n off %+v", st, off)
	}
}

// TestCancelHaltsLongTransaction: a single transaction of tens of
// thousands of operations runs almost entirely as in-place advances inside
// one dispatched event, so only Advance's own stop-check poll can notice a
// cancelled context. Cancelling after 1000 events must halt the
// replication within StopCheckInterval events.
func TestCancelHaltsLongTransaction(t *testing.T) {
	r, txs := zeroThinkBatch(t, 1)
	g := ocb.NewGenerator(r.db, 13)
	long := ocb.Transaction{}
	for len(long.Ops) < 60000 {
		tx := g.Next()
		long.Ops = append(long.Ops, tx.Ops...)
	}
	txs[0] = long

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	installStopCheck(r, ctx)
	events := 0
	r.sim.Trace = func(sim.Time) {
		if events++; events == 1000 {
			cancel()
		}
	}
	r.ExecuteBatch(txs)
	if !r.Halted() {
		t.Fatalf("cancelled replication ran to completion (%d events)", r.sim.Executed())
	}
	if got, limit := r.sim.Executed(), uint64(1000+sim.StopCheckInterval); got > limit {
		t.Fatalf("halted after %d events, want ≤ %d", got, limit)
	}
}
