package lock

import "testing"

// BenchmarkAcquireReleaseCycle measures the uncontended hot path of the
// transaction pipeline: begin, take a batch of shared locks, commit. The
// lone transaction runs on the solo path, which is allocation-free in
// steady state.
func BenchmarkAcquireReleaseCycle(b *testing.B) {
	m := NewManager()
	granted := func() {}
	died := func() { b.Fatal("unexpected wait-die death") }
	cycle := func() {
		tx := m.Begin()
		for item := Item(0); item < 16; item++ {
			m.Acquire(tx, item, Shared, granted, died)
		}
		m.End(tx)
	}
	cycle() // warm the pools so even -benchtime 1x measures steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkAcquireConflictDispatch measures the contended path: an older
// transaction queues behind a younger exclusive holder (wait-die permits
// old-behind-young waits) and is granted at release, exercising the queue,
// dispatch, and the waits-purging End.
func BenchmarkAcquireConflictDispatch(b *testing.B) {
	m := NewManager()
	granted := func() {}
	died := func() { b.Fatal("unexpected wait-die death") }
	cycle := func() {
		older := m.Begin()
		younger := m.Begin()
		m.Acquire(younger, 1, Exclusive, granted, died)
		m.Acquire(older, 1, Exclusive, granted, died) // queues behind younger
		m.End(younger)                                // dispatch grants older
		m.End(older)
	}
	cycle() // warm the pools, ring and queue so -benchtime 1x is steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkSoloHandOver measures the hand-over from the solo path to the
// item table: a transaction takes 16 locks alone, a second one begins and
// forces its grants into the table, and both end through the table path.
func BenchmarkSoloHandOver(b *testing.B) {
	m := NewManager()
	granted := func() {}
	died := func() { b.Fatal("unexpected wait-die death") }
	cycle := func() {
		alone := m.Begin()
		for item := Item(0); item < 16; item++ {
			m.Acquire(alone, item, Shared, granted, died)
		}
		second := m.Begin() // hands alone's grants over to the table
		m.Acquire(second, 0, Shared, granted, died)
		m.End(second)
		m.End(alone)
	}
	cycle() // warm the pools and the item table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkReleaseAllWide measures a wide lock set (a set-oriented OCB
// transaction holds hundreds of objects) taken in scrambled order and
// released at commit. The lone transaction runs on the solo path: each
// grant is a mark lookup and an append, and the release truncates the
// list.
func BenchmarkReleaseAllWide(b *testing.B) {
	m := NewManager()
	granted := func() {}
	died := func() { b.Fatal("unexpected wait-die death") }
	wide := func() {
		tx := m.Begin()
		// Acquire in a scrambled order, so the marks are hit out of order.
		for k := 0; k < 256; k++ {
			m.Acquire(tx, Item((k*167)%256), Shared, granted, died)
		}
		m.End(tx)
	}
	// Warm the pools to the wide working set before measuring: the first
	// cycle grows the held list and the marks to 256 entries, and without
	// it a short -benchtime run reports those one-time growths as
	// steady-state B/op.
	wide()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wide()
	}
}
