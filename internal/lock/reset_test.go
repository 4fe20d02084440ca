package lock

import "testing"

// TestManagerReset pins Manager.Reset: TxIDs restart from 1 (wait-die
// compares them, so this is behavior, not cosmetics), all items and
// transactions are forgotten, counters are zeroed, and leftover state —
// including queued requests from an unfinished transaction — is recycled
// rather than leaked into later behavior.
func TestManagerReset(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	m.Acquire(t1, 5, Exclusive, func() {}, func() { t.Fatal("t1 died") })
	m.Acquire(t2, 6, Exclusive, func() {}, func() { t.Fatal("t2 died") })
	// t1 is older than the holder t2, so wait-die queues it behind item 6.
	granted6 := false
	m.Acquire(t1, 6, Exclusive, func() { granted6 = true }, func() { t.Fatal("t1 died waiting") })
	if granted6 {
		t.Fatal("conflicting request granted")
	}
	if m.Waits() != 1 {
		t.Fatalf("waits = %d, want 1 queued request", m.Waits())
	}
	// Leave both transactions live, locks held, and a request queued:
	// Reset must clean it all up.
	m.Reset()

	if got := m.Begin(); got != 1 {
		t.Fatalf("first TxID after Reset = %d, want 1", got)
	}
	if m.Acquisitions() != 0 || m.Waits() != 0 || m.Deaths() != 0 {
		t.Fatal("counters survived Reset")
	}
	granted := false
	m.Acquire(1, 5, Exclusive, func() { granted = true }, func() { t.Fatal("died on an empty table") })
	if !granted {
		t.Fatal("item 5 still blocked after Reset")
	}
	if _, held := m.Holds(1, 5); !held {
		t.Fatal("grant not recorded after Reset")
	}
	m.End(1)
}

// TestManagerResetWhileSolo takes a Reset while the solo transaction is
// live and holding locks (re-entrant and upgraded ones too): its grants
// exist only in its own list, and none may survive into the next run —
// not through the recycled record, and not through a mark that the
// restarted TxIDs could match again.
func TestManagerResetWhileSolo(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	mustGrant(t, m, tx, 3, Shared)
	mustGrant(t, m, tx, 3, Exclusive)
	mustGrant(t, m, tx, 4, Shared)
	mustGrant(t, m, tx, 4, Shared)
	if m.HeldCount(tx) != 2 || m.Acquisitions() != 4 {
		t.Fatalf("held/acquisitions = %d/%d, want 2/4", m.HeldCount(tx), m.Acquisitions())
	}
	m.Reset()
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}

	again := m.Begin()
	if again != tx {
		t.Fatalf("first TxID after Reset = %d, want %d", again, tx)
	}
	if m.HeldCount(again) != 0 {
		t.Fatalf("held after Reset = %d, want 0", m.HeldCount(again))
	}
	if _, held := m.Holds(again, 3); held {
		t.Fatal("pre-Reset grant visible to the restarted TxID")
	}
	mustGrant(t, m, again, 3, Shared)
	if mode, _ := m.Holds(again, 3); mode != Shared || m.HeldCount(again) != 1 {
		t.Fatalf("after a fresh grant: mode %v, held %d; want S, 1", mode, m.HeldCount(again))
	}
	// A second transaction takes over the table: the fresh shared grant
	// must be there, not the exclusive one from before the Reset.
	other := m.Begin()
	mustGrant(t, m, other, 3, Shared)
	mustGrant(t, m, other, 4, Exclusive)
	m.End(other)
	m.End(again)
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}
}
