package lock

import "testing"

func grantFlag(flag *bool) func() { return func() { *flag = true } }

func mustGrant(t *testing.T, m *Manager, tx TxID, item Item, mode Mode) {
	t.Helper()
	granted := false
	m.Acquire(tx, item, mode, grantFlag(&granted), func() { t.Fatalf("tx %d died on %d", tx, item) })
	if !granted {
		t.Fatalf("tx %d not granted %v on %d", tx, mode, item)
	}
}

func TestSharedCompatible(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t1, 1, Shared)
	mustGrant(t, m, t2, 1, Shared)
	if m.Acquisitions() != 2 {
		t.Errorf("acquisitions = %d", m.Acquisitions())
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t1, 1, Exclusive)
	// t2 is younger → wait-die kills it.
	died := false
	m.Acquire(t2, 1, Shared, func() { t.Fatal("granted over X lock") }, grantFlag(&died))
	if !died {
		t.Fatal("younger conflicting transaction should die")
	}
	if m.Deaths() != 1 {
		t.Errorf("deaths = %d", m.Deaths())
	}
}

func TestOlderWaitsAndIsGranted(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t2, 1, Exclusive) // younger holds
	granted := false
	m.Acquire(t1, 1, Exclusive, grantFlag(&granted), func() { t.Fatal("older tx died") })
	if granted {
		t.Fatal("granted while conflicting holder exists")
	}
	if m.Waits() != 1 {
		t.Errorf("waits = %d", m.Waits())
	}
	m.ReleaseAll(t2)
	if !granted {
		t.Fatal("queued request not granted on release")
	}
}

func TestFIFOGrantOnRelease(t *testing.T) {
	m := NewManager()
	holder := m.Begin()
	mustGrant(t, m, holder, 1, Exclusive)
	// Two older… impossible: Begin order gives increasing IDs. Instead use
	// shared waiters queued behind an exclusive holder — they cannot die
	// only if older; so create waiters first. Rebuild scenario:
	m2 := NewManager()
	w1, w2, h := m2.Begin(), m2.Begin(), m2.Begin()
	mustGrant(t, m2, h, 5, Exclusive) // youngest holds
	var order []int
	m2.Acquire(w1, 5, Shared, func() { order = append(order, 1) }, func() { t.Fatal("w1 died") })
	m2.Acquire(w2, 5, Shared, func() { order = append(order, 2) }, func() { t.Fatal("w2 died") })
	m2.ReleaseAll(h)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order = %v, want [1 2]", order)
	}
}

func TestSharedBatchGranted(t *testing.T) {
	m := NewManager()
	w1, w2, h := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Exclusive)
	g1, g2 := false, false
	m.Acquire(w1, 1, Shared, grantFlag(&g1), func() { t.Fatal("died") })
	m.Acquire(w2, 1, Shared, grantFlag(&g2), func() { t.Fatal("died") })
	m.ReleaseAll(h)
	if !g1 || !g2 {
		t.Fatal("both shared waiters should be granted together")
	}
}

func TestQueuedExclusiveBlocksLaterShared(t *testing.T) {
	// S held; X queued; a later S must not jump the queue (no starvation
	// of writers). The late S must be older than the queued X, or wait-die
	// would kill it rather than let it wait behind a conflicting request.
	m := NewManager()
	sw, xw, h := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Shared)
	xGranted := false
	m.Acquire(xw, 1, Exclusive, grantFlag(&xGranted), func() { t.Fatal("xw died") })
	if xGranted {
		t.Fatal("X granted alongside S")
	}
	sGranted := false
	m.Acquire(sw, 1, Shared, grantFlag(&sGranted), func() { t.Fatal("sw died") })
	if sGranted {
		t.Fatal("S jumped over queued X")
	}
	m.ReleaseAll(h)
	if !xGranted {
		t.Fatal("X not granted after release")
	}
	if sGranted {
		t.Fatal("S granted alongside X")
	}
	m.ReleaseAll(xw)
	if !sGranted {
		t.Fatal("S not granted after X release")
	}
}

func TestReentrantAcquire(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	mustGrant(t, m, tx, 1, Shared)
	mustGrant(t, m, tx, 1, Shared)    // repeat S
	mustGrant(t, m, tx, 1, Exclusive) // sole-holder upgrade
	mustGrant(t, m, tx, 1, Shared)    // S under X
	if mode, ok := m.Holds(tx, 1); !ok || mode != Exclusive {
		t.Fatalf("Holds = %v %v, want X", mode, ok)
	}
}

func TestUpgradeConflictYoungerDies(t *testing.T) {
	m := NewManager()
	older, younger := m.Begin(), m.Begin()
	mustGrant(t, m, older, 1, Shared)
	mustGrant(t, m, younger, 1, Shared)
	died := false
	m.Acquire(younger, 1, Exclusive, func() { t.Fatal("upgrade granted over S holder") }, grantFlag(&died))
	if !died {
		t.Fatal("younger upgrade over older S holder should die")
	}
}

func TestUpgradeWaitsThenGranted(t *testing.T) {
	m := NewManager()
	older, younger := m.Begin(), m.Begin()
	mustGrant(t, m, older, 1, Shared)
	mustGrant(t, m, younger, 1, Shared)
	granted := false
	m.Acquire(older, 1, Exclusive, grantFlag(&granted), func() { t.Fatal("older died") })
	if granted {
		t.Fatal("upgrade granted while another S holder exists")
	}
	m.ReleaseAll(younger)
	if !granted {
		t.Fatal("upgrade not granted after other holder released")
	}
	if mode, _ := m.Holds(older, 1); mode != Exclusive {
		t.Fatalf("mode after upgrade = %v", mode)
	}
}

func TestReleaseAllFreesEverything(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	for i := Item(0); i < 10; i++ {
		mustGrant(t, m, tx, i, Exclusive)
	}
	if m.HeldCount(tx) != 10 {
		t.Fatalf("held = %d", m.HeldCount(tx))
	}
	m.ReleaseAll(tx)
	if m.HeldCount(tx) != 0 {
		t.Fatalf("held after release = %d", m.HeldCount(tx))
	}
	other := m.Begin()
	for i := Item(0); i < 10; i++ {
		mustGrant(t, m, other, i, Exclusive)
	}
}

func TestEndAbandonsQueuedRequests(t *testing.T) {
	m := NewManager()
	w, h := m.Begin(), m.Begin()
	mustGrant(t, m, h, 1, Exclusive)
	m.Acquire(w, 1, Exclusive, func() { t.Fatal("granted after End") }, func() { t.Fatal("died after End") })
	m.End(w)
	m.ReleaseAll(h) // must not fire w's callbacks
}

func TestWaitDiePreventsDeadlockCycle(t *testing.T) {
	// t1 holds A, t2 holds B; t1 wants B (older → waits), t2 wants A
	// (younger → dies). No deadlock possible.
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	mustGrant(t, m, t1, 'A', Exclusive)
	mustGrant(t, m, t2, 'B', Exclusive)
	t1got := false
	m.Acquire(t1, 'B', Exclusive, grantFlag(&t1got), func() { t.Fatal("older died") })
	died := false
	m.Acquire(t2, 'A', Exclusive, func() { t.Fatal("cycle closed") }, grantFlag(&died))
	if !died {
		t.Fatal("younger must die in the cycle")
	}
	// t2 aborts: releases B → t1 proceeds.
	m.End(t2)
	if !t1got {
		t.Fatal("t1 not granted after t2 aborted")
	}
}

func TestAcquireByUnknownTxPanics(t *testing.T) {
	m := NewManager()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.Acquire(999, 1, Shared, func() {}, func() {})
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("Mode.String wrong")
	}
}

// Property: under arbitrary interleavings of acquire/release by several
// transactions, the table never grants incompatible modes simultaneously
// and every request is answered exactly once.
func TestPropertyNoIncompatibleGrants(t *testing.T) {
	type key struct {
		tx   TxID
		item Item
	}
	for trial := 0; trial < 30; trial++ {
		m := NewManager()
		var txs []TxID
		for i := 0; i < 4; i++ {
			txs = append(txs, m.Begin())
		}
		held := map[key]Mode{}
		answered := 0
		requested := 0
		r := uint64(trial)*2654435761 + 12345
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			return int((r >> 33) % uint64(n))
		}
		for step := 0; step < 200; step++ {
			tx := txs[next(len(txs))]
			switch next(3) {
			case 0, 1:
				item := Item(next(6))
				mode := Shared
				if next(2) == 0 {
					mode = Exclusive
				}
				requested++
				m.Acquire(tx, item, mode,
					func() {
						answered++
						held[key{tx, item}] = mode
						// Validate compatibility against other holders.
						for k, hm := range held {
							if k.item != item || k.tx == tx {
								continue
							}
							if mode == Exclusive || hm == Exclusive {
								t.Fatalf("trial %d: incompatible grant %v with %v on %d",
									trial, mode, hm, item)
							}
						}
					},
					func() {
						answered++
						// Wait-die abort: release everything.
						for k := range held {
							if k.tx == tx {
								delete(held, k)
							}
						}
						m.ReleaseAll(tx)
					})
			case 2:
				for k := range held {
					if k.tx == tx {
						delete(held, k)
					}
				}
				m.ReleaseAll(tx)
			}
		}
		for _, tx := range txs {
			m.End(tx)
		}
		// Queued requests abandoned by End never fire; everything else must
		// have been answered exactly once.
		if answered > requested {
			t.Fatalf("trial %d: %d answers for %d requests", trial, answered, requested)
		}
	}
}

// Regression: wait-die must consider queued requests, not just holders.
// Without the queue check, a cycle H → A → (queue) B → H deadlocks: every
// edge is individually legal against the holders alone. The rule that
// fixes it: a requester younger than a conflicting queued request dies.
func TestYoungerDiesBehindQueuedConflict(t *testing.T) {
	m := NewManager()
	older, holder, younger := m.Begin(), m.Begin(), m.Begin()
	mustGrant(t, m, holder, 1, Exclusive)
	// The older transaction may wait behind the younger holder.
	queued := false
	m.Acquire(older, 1, Exclusive, grantFlag(&queued), func() { t.Fatal("older died") })
	// The youngest must die: it would otherwise wait behind `older`, an
	// old→old wait edge that can close a cycle.
	died := false
	m.Acquire(younger, 1, Exclusive, func() { t.Fatal("granted") }, grantFlag(&died))
	if !died {
		t.Fatal("younger must die behind a conflicting queued request")
	}
	// Shared requests behind shared requests stay batched, not killed.
	m2 := NewManager()
	sOld, sYoung, h2 := m2.Begin(), m2.Begin(), m2.Begin()
	mustGrant(t, m2, h2, 1, Exclusive)
	g1, g2 := false, false
	m2.Acquire(sOld, 1, Shared, grantFlag(&g1), func() { t.Fatal("sOld died") })
	m2.Acquire(sYoung, 1, Shared, grantFlag(&g2), func() { t.Fatal("sYoung died behind compatible S") })
	m2.ReleaseAll(h2)
	if !g1 || !g2 {
		t.Fatal("shared batch not granted")
	}
}

// Regression: the core model livelocked when wait-die admitted queue
// cycles; this drives the same hot-conflict pattern directly on the lock
// table and asserts global progress (bounded total deaths for a bounded
// workload).
func TestHotConflictProgress(t *testing.T) {
	m := NewManager()
	const txns = 200
	completed := 0
	deaths := 0
	for i := 0; i < txns; i++ {
		var runTx func()
		runTx = func() {
			tx := m.Begin()
			granted := 0
			for item := Item(0); item < 3; item++ {
				ok := false
				m.Acquire(tx, item, Exclusive,
					func() { ok = true },
					func() { ok = false })
				if !ok {
					deaths++
					m.End(tx)
					if deaths > 100000 {
						t.Fatal("livelock: unbounded deaths")
					}
					runTx() // retry as a fresh (younger) transaction
					return
				}
				granted++
			}
			if granted == 3 {
				completed++
			}
			m.End(tx)
		}
		runTx()
	}
	if completed != txns {
		t.Fatalf("completed %d of %d", completed, txns)
	}
}

// TestRequestOutcomes pins Request's contract: every immediate decision —
// fresh grant, re-entrant grant, sole-holder upgrade, wait-die death — is
// returned without invoking the callback, and a queued request's callback
// runs exactly once, when a release dispatches it.
func TestRequestOutcomes(t *testing.T) {
	m := NewManager()
	calls := 0
	count := func() { calls++ }
	old, young := m.Begin(), m.Begin()
	request := func(tx TxID, item Item, mode Mode, want Outcome, what string) {
		t.Helper()
		if got := m.Request(tx, item, mode, count); got != want {
			t.Fatalf("%s: outcome %v, want %v", what, got, want)
		}
		if calls != 0 {
			t.Fatalf("%s: callback ran %d times before any dispatch", what, calls)
		}
	}
	request(young, 1, Shared, Granted, "fresh grant")
	request(young, 1, Shared, Granted, "re-entrant shared")
	request(young, 1, Exclusive, Granted, "sole-holder upgrade")
	request(young, 1, Shared, Granted, "re-entrant under exclusive")
	if mode, ok := m.Holds(young, 1); !ok || mode != Exclusive {
		t.Fatalf("after upgrade young holds %v (held=%v), want X", mode, ok)
	}
	request(young, 2, Exclusive, Granted, "fresh exclusive")
	request(old, 3, Exclusive, Granted, "older fresh exclusive")
	request(young, 3, Shared, Died, "younger behind an older holder")
	request(old, 1, Shared, Queued, "older behind a younger holder")
	if m.Acquisitions() != 6 || m.Deaths() != 1 || m.Waits() != 1 {
		t.Fatalf("acquisitions/deaths/waits = %d/%d/%d, want 6/1/1", m.Acquisitions(), m.Deaths(), m.Waits())
	}

	m.ReleaseAll(young)
	if calls != 1 {
		t.Fatalf("queued callback ran %d times at dispatch, want 1", calls)
	}
	if _, ok := m.Holds(old, 1); !ok {
		t.Fatal("dispatched request does not hold its item")
	}
	m.End(young)
	m.End(old)
	if calls != 1 {
		t.Fatalf("queued callback ran %d times in total, want 1", calls)
	}
}

// TestRequestQueuedUpgrade: a conflicting S→X upgrade by the oldest
// holder queues, and is granted once at dispatch when it becomes the sole
// holder.
func TestRequestQueuedUpgrade(t *testing.T) {
	m := NewManager()
	old, young := m.Begin(), m.Begin()
	calls := 0
	mustGrant(t, m, old, 1, Shared)
	mustGrant(t, m, young, 1, Shared)
	if got := m.Request(old, 1, Exclusive, func() { calls++ }); got != Queued {
		t.Fatalf("contended upgrade by the oldest holder: %v, want queued", got)
	}
	if got := m.Request(young, 1, Exclusive, func() { t.Fatal("younger upgrade granted") }); got != Died {
		t.Fatalf("contended upgrade by the younger holder: %v, want died", got)
	}
	m.End(young)
	if calls != 1 {
		t.Fatalf("queued upgrade callback ran %d times, want 1", calls)
	}
	if mode, _ := m.Holds(old, 1); mode != Exclusive {
		t.Fatalf("after dispatch old holds %v, want X", mode)
	}
}

func TestRequestNilCallbackPanics(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("Request with a nil callback did not panic")
		}
	}()
	m.Request(tx, 1, Shared, nil)
}
