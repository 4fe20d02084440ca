package lock

import (
	"fmt"
	"slices"
	"testing"
)

// ghostPair drives one call sequence on two managers. plain starts empty,
// so a transaction that begins alone takes the solo path. ghosted first
// begins a ghost transaction that never locks anything and never ends, so
// it always has a second live transaction and serves every request from
// the item table. The ghost takes TxID 1, so every transaction of ghosted
// carries its plain twin's ID plus one; wait-die compares IDs only
// relative to each other, so the offset changes no decision.
type ghostPair struct {
	t       *testing.T
	plain   *Manager
	ghosted *Manager
	live    []TxID // plain IDs of the live transactions, in begin order
	// blocked marks the live transactions with a queued request. Such a
	// transaction waits for its grant, so it issues no further request
	// (the protocol core's transactions follow), though it may still
	// abort through ReleaseAll or End.
	blocked map[TxID]bool
	// grants logs each manager's dispatched grants as "tx:item", with the
	// ghosted manager's IDs shifted back to their plain twins.
	grants [2][]string
}

func newGhostPair(t *testing.T) *ghostPair {
	g := &ghostPair{t: t, plain: NewManager(), ghosted: NewManager(), blocked: map[TxID]bool{}}
	g.beginGhost()
	return g
}

func (g *ghostPair) beginGhost() {
	if ghost := g.ghosted.Begin(); ghost != 1 {
		g.t.Fatalf("ghost took TxID %d, want 1", ghost)
	}
}

// twin maps a plain TxID to its ghosted-manager twin.
func twin(tx TxID) TxID { return tx + 1 }

func (g *ghostPair) begin() {
	p, q := g.plain.Begin(), g.ghosted.Begin()
	if q != twin(p) {
		g.t.Fatalf("Begin: plain %d, ghosted %d, want %d", p, q, twin(p))
	}
	g.live = append(g.live, p)
}

func (g *ghostPair) request(tx TxID, item Item, mode Mode) {
	if g.blocked[tx] {
		return
	}
	log := func(side int) func() {
		return func() {
			g.grants[side] = append(g.grants[side], fmt.Sprintf("%d:%d", tx, item))
			if side == 0 {
				delete(g.blocked, tx)
			}
		}
	}
	p := g.plain.Request(tx, item, mode, log(0))
	q := g.ghosted.Request(twin(tx), item, mode, log(1))
	if p != q {
		g.t.Fatalf("Request(%d, %d, %v): plain %v, ghosted %v", tx, item, mode, p, q)
	}
	if p == Queued {
		g.blocked[tx] = true
	}
}

func (g *ghostPair) end(i int) {
	tx := g.live[i]
	g.plain.End(tx)
	g.ghosted.End(twin(tx))
	delete(g.blocked, tx)
	g.live = slices.Delete(g.live, i, i+1)
}

func (g *ghostPair) reset() {
	g.plain.Reset()
	g.ghosted.Reset()
	g.beginGhost()
	g.live = g.live[:0]
	clear(g.blocked)
}

// check compares everything a caller can observe after one call.
func (g *ghostPair) check(step int, items []Item) {
	t := g.t
	if !slices.Equal(g.grants[0], g.grants[1]) {
		t.Fatalf("step %d: grant order diverged:\n plain   %v\n ghosted %v", step, g.grants[0], g.grants[1])
	}
	p, q := g.plain, g.ghosted
	if p.Acquisitions() != q.Acquisitions() || p.Waits() != q.Waits() || p.Deaths() != q.Deaths() {
		t.Fatalf("step %d: acquisitions/waits/deaths plain %d/%d/%d, ghosted %d/%d/%d", step,
			p.Acquisitions(), p.Waits(), p.Deaths(), q.Acquisitions(), q.Waits(), q.Deaths())
	}
	for _, tx := range g.live {
		if a, b := p.HeldCount(tx), q.HeldCount(twin(tx)); a != b {
			t.Fatalf("step %d: HeldCount(%d) plain %d, ghosted %d", step, tx, a, b)
		}
		for _, item := range items {
			am, aok := p.Holds(tx, item)
			bm, bok := q.Holds(twin(tx), item)
			if am != bm || aok != bok {
				t.Fatalf("step %d: Holds(%d, %d) plain %v/%v, ghosted %v/%v", step, tx, item, am, aok, bm, bok)
			}
		}
	}
	if len(g.live) == 0 {
		// The solo path relies on this: with no live transaction the
		// item table is empty, so the next Begin may bypass it.
		if err := p.Quiescent(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// FuzzManagerGhostEquivalence checks that the solo path and the hand-over
// are invisible to callers: any sequence of Begin, Request (S/X),
// ReleaseAll, End and Reset on live transactions (a transaction with a
// queued request requests nothing more until its grant) yields the same
// outcomes, grant callbacks (in order), Holds, HeldCount and counters on a
// manager that can go solo as on one that never does.
//
// The input is read as instructions: a kind byte (mod 6: Begin, Request S,
// Request X, ReleaseAll, End, Reset), followed for all but Begin and Reset
// by an argument byte whose low three bits pick a live transaction and
// whose next three bits pick one of eight items; the last item lies
// outside the dense range, so a request on it forces a hand-over.
func FuzzManagerGhostEquivalence(f *testing.F) {
	items := []Item{0, 1, 2, 3, 4, 5, 6, denseItems + 6}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := newGhostPair(t)
		for i, step := 0, 0; i < len(data); step++ {
			kind := data[i] % 6
			i++
			if kind == 0 {
				if len(g.live) < 8 {
					g.begin()
				}
			} else if kind == 5 {
				g.reset()
			} else {
				if i >= len(data) {
					break
				}
				arg := data[i]
				i++
				if len(g.live) == 0 {
					continue
				}
				k := int(arg&7) % len(g.live)
				tx, item := g.live[k], items[arg>>3&7]
				switch kind {
				case 1:
					g.request(tx, item, Shared)
				case 2:
					g.request(tx, item, Exclusive)
				case 3:
					g.plain.ReleaseAll(tx)
					g.ghosted.ReleaseAll(twin(tx))
				case 4:
					g.end(k)
				}
			}
			g.check(step, items)
		}
		for len(g.live) > 0 {
			g.end(len(g.live) - 1)
		}
		g.check(-1, items)
	})
}
