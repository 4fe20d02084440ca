package lock

import (
	"runtime"
	"testing"
)

// TestSoloMarksGrowGeometrically first-touches items 0…2²⁰−1 in ascending
// order through one solo transaction, the order in which a traversal of a
// fresh object base meets its OIDs. The mark slice must grow
// geometrically: O(log N) allocations in all, and a capacity within twice
// the item range. Growing it to the exact size on every new high-water
// item would pass every functional test and still cost N allocations and
// quadratic copying on a large base.
func TestSoloMarksGrowGeometrically(t *testing.T) {
	const n = 1 << 20
	m := NewManager()
	tx := m.Begin()
	noop := func() {}
	// 21 mark growths plus the lock list's own appends (Go grows large
	// slices by ~1.25×, about 60 growths to 2²⁰) — a few dozen; per-item
	// growth would mean one allocation per item. The bound is checked as
	// the loop goes, so that failure shows within the first 4096 items
	// instead of after quadratic copying.
	const maxAllocs = 8 * 20
	var before, now runtime.MemStats
	runtime.ReadMemStats(&before)
	for item := Item(0); item < n; item++ {
		if got := m.Request(tx, item, Shared, noop); got != Granted {
			t.Fatalf("solo request on item %d: %v", item, got)
		}
		if item%4096 == 4095 {
			runtime.ReadMemStats(&now)
			if allocs := now.Mallocs - before.Mallocs; allocs > maxAllocs {
				t.Fatalf("%d allocations for %d first touches, want O(log N)", allocs, item+1)
			}
		}
	}
	if c := cap(m.marks); c < n || c > 2*n {
		t.Errorf("mark capacity %d, want within [%d, %d]", c, n, 2*n)
	}
	if m.HeldCount(tx) != n || m.Acquisitions() != n {
		t.Errorf("held/acquisitions = %d/%d, want %d", m.HeldCount(tx), m.Acquisitions(), n)
	}
	if len(m.dense) != 0 {
		t.Errorf("solo grants reached the item table (%d dense slots)", len(m.dense))
	}
	m.End(tx)
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}
}
