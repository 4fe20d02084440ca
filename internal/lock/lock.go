// Package lock implements the Transaction Manager's concurrency-control
// substrate: a strict two-phase lock table with shared/exclusive modes,
// FIFO queuing, and wait-die deadlock prevention.
//
// The VOODB model charges fixed service times for acquisition and release
// (Table 3 GETLOCK/RELLOCK); this package provides the logical behaviour —
// who waits, who is granted, who must abort — while the core model turns
// those outcomes into simulated time. The paper's validation workloads are
// read-only, so conflicts never arise there, but the substrate is complete
// so that write mixes and MULTILVL > 1 behave correctly.
//
// The table is allocation-free in steady state, following the DESP-C++
// discipline of recycling rather than reallocating: each transaction's
// held locks live in a dense list recycled through a free list (no
// per-transaction maps), lock-table entries carry a small inline holder
// array (most items have at most two holders under wait-die) and are
// themselves recycled, and End visits only the items the transaction ever
// queued on instead of sweeping the whole table.
//
// It also pays for the item table only when a run can use it. A
// transaction that begins while no other is live becomes the solo
// transaction: nothing can conflict with it, so its grants are recorded
// only in its own lock list, deduplicated through a per-item mark (a
// generation stamp plus the index in that list), and its release merely
// truncates the list. When a second transaction begins, the solo
// transaction's holdings are handed over to the item table as ordinary
// holders, and the table path serves every request until a Begin again
// finds no live transaction (the table is then provably empty). The
// paper's single-user figures never leave the solo path; the hand-over
// makes the two paths indistinguishable to callers, outcome for outcome.
package lock

import (
	"fmt"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared locks are compatible with other shared locks.
	Shared Mode = iota
	// Exclusive locks conflict with everything.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// TxID identifies a transaction within the lock manager. Lower IDs are
// older (wait-die uses begin order as the timestamp).
type TxID int64

// Item is a lockable unit (the VOODB model locks objects by OID).
type Item int64

type request struct {
	tx      TxID
	mode    Mode
	granted func()
}

// Outcome is what the lock table decided about a request.
type Outcome uint8

const (
	// Granted: the lock is held on return.
	Granted Outcome = iota
	// Queued: the request waits; its granted callback runs when a
	// conflicting holder releases.
	Queued
	// Died: the transaction lost a wait-die conflict and must abort
	// (release everything and retry).
	Died
)

// String returns the outcome's name.
func (o Outcome) String() string {
	switch o {
	case Granted:
		return "granted"
	case Queued:
		return "queued"
	case Died:
		return "died"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// holderSlot records one holder of an item.
type holderSlot struct {
	tx   TxID
	mode Mode
}

// inlineHolders is the number of holders an entry stores without spilling
// to the overflow slice. Under wait-die most items have ≤ 2 holders.
const inlineHolders = 2

// entry is the per-item lock state: holders (inline array plus overflow)
// and a FIFO queue of waiting requests. Entries are recycled through the
// Manager's pool when their item becomes idle.
type entry struct {
	inline   [inlineHolders]holderSlot
	nInline  int32
	overflow []holderSlot
	queue    []request
}

// numHolders returns the number of transactions holding the item.
func (e *entry) numHolders() int { return int(e.nInline) + len(e.overflow) }

// findHolder returns the mode tx holds, and whether tx is a holder.
func (e *entry) findHolder(tx TxID) (Mode, bool) {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].tx == tx {
			return e.inline[i].mode, true
		}
	}
	for i := range e.overflow {
		if e.overflow[i].tx == tx {
			return e.overflow[i].mode, true
		}
	}
	return Shared, false
}

// setHolder records tx as holding in mode, updating an existing slot or
// appending a new one (inline first, spilling to overflow).
func (e *entry) setHolder(tx TxID, mode Mode) {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].tx == tx {
			e.inline[i].mode = mode
			return
		}
	}
	for i := range e.overflow {
		if e.overflow[i].tx == tx {
			e.overflow[i].mode = mode
			return
		}
	}
	if e.nInline < inlineHolders {
		e.inline[e.nInline] = holderSlot{tx: tx, mode: mode}
		e.nInline++
		return
	}
	e.overflow = append(e.overflow, holderSlot{tx: tx, mode: mode})
}

// delHolder removes tx from the holders if present. Holder order is not
// observable (compatibility and wait-die checks are order-independent), so
// the hole is filled by the last slot.
func (e *entry) delHolder(tx TxID) {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].tx != tx {
			continue
		}
		if n := len(e.overflow); n > 0 {
			e.inline[i] = e.overflow[n-1]
			e.overflow = e.overflow[:n-1]
		} else {
			e.nInline--
			e.inline[i] = e.inline[e.nInline]
		}
		return
	}
	for i := range e.overflow {
		if e.overflow[i].tx == tx {
			n := len(e.overflow)
			e.overflow[i] = e.overflow[n-1]
			e.overflow = e.overflow[:n-1]
			return
		}
	}
}

// anyExclusiveHolder reports whether any holder is exclusive.
func (e *entry) anyExclusiveHolder() bool {
	for i := int32(0); i < e.nInline; i++ {
		if e.inline[i].mode == Exclusive {
			return true
		}
	}
	for i := range e.overflow {
		if e.overflow[i].mode == Exclusive {
			return true
		}
	}
	return false
}

// anyOlderHolder reports whether some other holder began before tx.
func (e *entry) anyOlderHolder(tx TxID) bool {
	for i := int32(0); i < e.nInline; i++ {
		if h := e.inline[i].tx; h != tx && h < tx {
			return true
		}
	}
	for i := range e.overflow {
		if h := e.overflow[i].tx; h != tx && h < tx {
			return true
		}
	}
	return false
}

// reset clears the entry for reuse, keeping slice capacity.
func (e *entry) reset() {
	e.nInline = 0
	e.overflow = e.overflow[:0]
	e.queue = e.queue[:0]
}

// heldLock is one item a transaction holds.
type heldLock struct {
	item Item
	mode Mode
}

// txRec is a transaction's dense lock state: the owning TxID (validating
// its transaction-ring slot), the distinct items it holds (append order;
// sorted at release) and the items it ever queued on, so End can purge
// abandoned requests without sweeping the whole table. Records are
// recycled through the Manager's pool.
type txRec struct {
	owner TxID // 0 when the record is pooled (TxIDs start at 1)
	locks []heldLock
	waits []Item
}

// itemMark locates an item in the solo transaction's lock list: locks[idx]
// holds it when gen equals the Manager's current generation. Any other
// stamp means the solo transaction does not hold the item.
type itemMark struct {
	gen uint32
	idx uint32
}

// denseItems bounds the directly indexed item table. OCB object IDs are
// small dense non-negative integers, so in practice every item lands in
// the dense slice; anything outside [0, denseItems) falls back to a map.
const denseItems = 1 << 22

// ringInit is the transaction ring's initial size; it doubles whenever the
// window of concurrently active TxIDs no longer fits collision-free.
const ringInit = 64

// Manager is the lock table. Both index structures are map-free on the hot
// path: per-item state lives in a dense slice indexed by Item, and active
// transactions live in a power-of-two ring indexed by the TxID's low bits
// (validated against txRec.owner). Maps churn internal buckets under the
// steady begin/lock/commit cycle — a residual byte per operation that
// plain slices do not have.
type Manager struct {
	nextTx TxID
	dense  []*entry        // per-item state; index = Item (never shrinks)
	sparse map[Item]*entry // fallback for items outside the dense range
	ring   []*txRec        // active transactions; index = TxID & (len-1)

	entryPool []*entry
	recPool   []*txRec

	acquisitions uint64
	waits        uint64
	deaths       uint64

	// queued is the number of requests currently sitting in some entry's
	// queue (live count; waits above is cumulative). When it is zero no
	// release can dispatch a grant, so ReleaseAll may skip sorting the
	// held-lock list: the release order is unobservable.
	queued int

	// Solo path. live counts registered transactions. solo is the record
	// of the transaction that began while none was live, for as long as
	// it stays alone and its grants are not in the item table; marks
	// indexes its lock list by item under generation gen, which advances
	// whenever that list is emptied and survives Reset (the stamps, unlike
	// TxIDs, must never repeat while a stale mark can still match).
	live  int
	solo  *txRec
	marks []itemMark
	gen   uint32
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{}
}

// lookupItem returns item's entry, or nil when the item is idle.
func (m *Manager) lookupItem(item Item) *entry {
	if uint64(item) < uint64(len(m.dense)) {
		return m.dense[item]
	}
	return m.sparse[item]
}

// storeItem files e under item, growing the dense slice on first contact
// with a new high-water item (amortized; free once the table has seen the
// database's OID range).
func (m *Manager) storeItem(item Item, e *entry) {
	if item >= 0 && item < denseItems {
		if n := int(item) + 1; n > len(m.dense) {
			if n <= cap(m.dense) {
				m.dense = m.dense[:n]
			} else {
				grown := make([]*entry, n, max(n, 2*cap(m.dense)))
				copy(grown, m.dense)
				m.dense = grown
			}
		}
		m.dense[item] = e
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[Item]*entry)
	}
	m.sparse[item] = e
}

// clearItem forgets item's entry (the entry itself is recycled by the
// caller).
func (m *Manager) clearItem(item Item) {
	if uint64(item) < uint64(len(m.dense)) {
		m.dense[item] = nil
		return
	}
	delete(m.sparse, item)
}

// lookupTx returns tx's record, or nil for unknown/finished transactions.
func (m *Manager) lookupTx(tx TxID) *txRec {
	if len(m.ring) == 0 {
		return nil
	}
	rec := m.ring[uint64(tx)&uint64(len(m.ring)-1)]
	if rec == nil || rec.owner != tx {
		return nil
	}
	return rec
}

// storeTx files rec (owner already set) into the ring, doubling it until
// the active-TxID window fits collision-free. Active transactions are
// bounded by the admission scheduler, and their ID span by the batch, so
// the ring stays small and growth stops after the first batches.
func (m *Manager) storeTx(rec *txRec) {
	if m.ring == nil {
		m.ring = make([]*txRec, ringInit)
	}
	for {
		i := uint64(rec.owner) & uint64(len(m.ring)-1)
		if m.ring[i] == nil {
			m.ring[i] = rec
			return
		}
		m.growRing()
	}
}

// growRing rehashes the active transactions into a ring doubled until they
// place collision-free.
func (m *Manager) growRing() {
	size := 2 * len(m.ring)
retry:
	for {
		next := make([]*txRec, size)
		for _, r := range m.ring {
			if r == nil {
				continue
			}
			j := uint64(r.owner) & uint64(size-1)
			if next[j] != nil {
				size *= 2
				continue retry
			}
			next[j] = r
		}
		m.ring = next
		return
	}
}

// clearTx removes tx from the ring.
func (m *Manager) clearTx(tx TxID) {
	if len(m.ring) == 0 {
		return
	}
	i := uint64(tx) & uint64(len(m.ring)-1)
	if rec := m.ring[i]; rec != nil && rec.owner == tx {
		m.ring[i] = nil
	}
}

// putRec recycles a transaction record.
func (m *Manager) putRec(rec *txRec) {
	rec.owner = 0
	rec.locks = rec.locks[:0]
	rec.waits = rec.waits[:0]
	m.recPool = append(m.recPool, rec)
}

// Reset restores the table to its freshly-constructed state — no items, no
// transactions, TxIDs restarting from 1, zeroed counters — while keeping
// the entry and record pools, the dense item table, and the transaction
// ring, so a recycled table behaves bit-for-bit like a new one (wait-die
// compares TxIDs, so the ID restart matters) without reallocating. Any
// leftover entries and records are recycled into the pools rather than
// dropped.
func (m *Manager) Reset() {
	for i, e := range m.dense {
		if e != nil {
			m.dense[i] = nil
			m.putEntry(e)
		}
	}
	for item, e := range m.sparse {
		delete(m.sparse, item)
		m.putEntry(e)
	}
	for i, rec := range m.ring {
		if rec != nil {
			m.ring[i] = nil
			m.putRec(rec)
		}
	}
	m.nextTx = 0
	m.acquisitions, m.waits, m.deaths = 0, 0, 0
	m.queued = 0
	m.live = 0
	m.solo = nil
}

func (m *Manager) getEntry() *entry {
	if n := len(m.entryPool); n > 0 {
		e := m.entryPool[n-1]
		m.entryPool = m.entryPool[:n-1]
		return e
	}
	return &entry{}
}

func (m *Manager) putEntry(e *entry) {
	e.reset()
	m.entryPool = append(m.entryPool, e)
}

// Begin registers a new transaction and returns its ID; IDs are assigned in
// begin order and double as wait-die timestamps.
func (m *Manager) Begin() TxID {
	m.nextTx++
	tx := m.nextTx
	var rec *txRec
	if n := len(m.recPool); n > 0 {
		rec = m.recPool[n-1]
		m.recPool = m.recPool[:n-1]
	} else {
		rec = &txRec{}
	}
	rec.owner = tx
	rec.locks = rec.locks[:0]
	rec.waits = rec.waits[:0]
	m.storeTx(rec)
	switch {
	case m.live == 0:
		// No transaction is live, so the item table is empty and nothing
		// can conflict with tx until a second one begins.
		m.solo = rec
		m.nextGen()
	case m.solo != nil:
		m.handOver()
	}
	m.live++
	return tx
}

// nextGen advances the mark generation, invalidating every mark. On the
// (once per 2³² lists) wrap the marks are cleared so an ancient stamp
// cannot match the restarted counter.
func (m *Manager) nextGen() {
	m.gen++
	if m.gen == 0 {
		clear(m.marks)
		m.gen = 1
	}
}

// handOver installs the solo transaction's holdings in the item table as
// ordinary holders and leaves the solo path: from here on the table
// serves every request exactly as if it had recorded those grants itself.
func (m *Manager) handOver() {
	rec := m.solo
	m.solo = nil
	for _, h := range rec.locks {
		e := m.getEntry()
		e.setHolder(rec.owner, h.mode)
		m.storeItem(h.item, e)
	}
}

// requestSolo grants item to the solo transaction. It is always granted:
// re-entrant requests and S→X upgrades find the item through its mark and
// update the list in place, so the list holds each item once, exactly as
// the table path would have recorded it.
func (m *Manager) requestSolo(rec *txRec, item Item, mode Mode) Outcome {
	m.acquisitions++
	if int(item) >= len(m.marks) {
		m.growMarks(int(item) + 1)
	}
	mk := &m.marks[item]
	if mk.gen == m.gen {
		if mode == Exclusive {
			rec.locks[mk.idx].mode = Exclusive
		}
		return Granted
	}
	*mk = itemMark{gen: m.gen, idx: uint32(len(rec.locks))}
	rec.locks = append(rec.locks, heldLock{item: item, mode: mode})
	return Granted
}

// growMarks extends the mark slice to cover n items, at least doubling it
// so that a base touched in ascending item order costs O(log n) growths.
func (m *Manager) growMarks(n int) {
	grown := make([]itemMark, max(n, 2*len(m.marks)))
	copy(grown, m.marks)
	m.marks = grown
}

// Holds returns the mode tx holds on item, and whether it holds it at all.
func (m *Manager) Holds(tx TxID, item Item) (Mode, bool) {
	rec := m.lookupTx(tx)
	if rec == nil {
		return Shared, false
	}
	for i := range rec.locks {
		if rec.locks[i].item == item {
			return rec.locks[i].mode, true
		}
	}
	return Shared, false
}

// HeldCount returns the number of items tx currently holds.
func (m *Manager) HeldCount(tx TxID) int {
	rec := m.lookupTx(tx)
	if rec == nil {
		return 0
	}
	return len(rec.locks)
}

// updateHeld records item/mode in tx's held list, updating an existing
// entry or appending. Fresh grants (where the caller knows tx does not
// hold item) append directly instead; this path serves upgrades and
// queued grants, which are rare.
func (rec *txRec) updateHeld(item Item, mode Mode) {
	for i := range rec.locks {
		if rec.locks[i].item == item {
			rec.locks[i].mode = mode
			return
		}
	}
	rec.locks = append(rec.locks, heldLock{item: item, mode: mode})
}

// Acquire requests item in the given mode for tx. Exactly one of granted or
// died is invoked — possibly immediately (before Acquire returns), or later
// when a conflicting holder releases. died means the transaction lost a
// wait-die conflict and must abort (release everything and retry). It is
// Request with both outcomes delivered through callbacks.
func (m *Manager) Acquire(tx TxID, item Item, mode Mode, granted, died func()) {
	if granted == nil || died == nil {
		panic("lock: Acquire with nil callback")
	}
	switch m.Request(tx, item, mode, granted) {
	case Granted:
		granted()
	case Died:
		died()
	}
}

// Request asks for item in the given mode for tx and returns the decision:
// Granted (the lock is held), Died (wait-die abort), or Queued. granted
// runs only for a Queued request, exactly once, when a release dispatches
// it; an immediate decision invokes nothing, so the caller continues
// without re-entering itself through a callback. A transaction with a
// queued request is blocked: it may abort (ReleaseAll, End) but must not
// Request again before its grant.
func (m *Manager) Request(tx TxID, item Item, mode Mode, granted func()) Outcome {
	if granted == nil {
		panic("lock: Request with nil callback")
	}
	if rec := m.solo; rec != nil && rec.owner == tx {
		if item >= 0 && item < denseItems {
			return m.requestSolo(rec, item, mode)
		}
		m.handOver() // the marks cover the dense range only
	}
	rec := m.lookupTx(tx)
	if rec == nil {
		panic(fmt.Sprintf("lock: Request by unknown transaction %d", tx))
	}
	e := m.lookupItem(item)
	if e == nil {
		// A fresh entry has no holders and no queue: the request is
		// always granted immediately.
		e = m.getEntry()
		m.storeItem(item, e)
		e.setHolder(tx, mode)
		rec.locks = append(rec.locks, heldLock{item: item, mode: mode})
		m.acquisitions++
		return Granted
	}

	// Re-entrant cases.
	if have, ok := e.findHolder(tx); ok {
		if have == Exclusive || mode == Shared {
			m.acquisitions++
			return Granted
		}
		// Upgrade S → X: immediate if sole holder.
		if e.numHolders() == 1 {
			e.setHolder(tx, Exclusive)
			rec.updateHeld(item, Exclusive)
			m.acquisitions++
			return Granted
		}
		// Conflicting upgrade: wait-die against the other holders and the
		// queue.
		mode = Exclusive
	} else if m.compatible(e, tx, mode) && len(e.queue) == 0 {
		e.setHolder(tx, mode)
		rec.locks = append(rec.locks, heldLock{item: item, mode: mode})
		m.acquisitions++
		return Granted
	}
	// Wait-die: a transaction younger than anyone it would wait behind —
	// current holders AND conflicting queued requesters (FIFO queuing
	// makes those blockers too; checking holders alone admits wait cycles
	// through the queue) — dies.
	if m.youngerThanAnyBlocker(e, tx, mode) {
		m.deaths++
		return Died
	}
	m.waits++
	m.queued++
	e.queue = append(e.queue, request{tx: tx, mode: mode, granted: granted})
	rec.waits = append(rec.waits, item)
	return Queued
}

// compatible reports whether tx may take item in mode alongside the current
// holders.
func (m *Manager) compatible(e *entry, _ TxID, mode Mode) bool {
	if e.numHolders() == 0 {
		return true
	}
	if mode == Exclusive {
		return false
	}
	return !e.anyExclusiveHolder()
}

// youngerThanAnyBlocker reports whether tx began after at least one
// transaction it would wait behind: a current holder, or a queued
// requester whose mode conflicts with the new request (compatible shared
// requests are granted as a batch and never block each other). Waiting is
// only permitted behind strictly younger transactions, which makes every
// wait-for edge point old→young and rules out cycles — the wait-die
// guarantee, extended to FIFO queues.
func (m *Manager) youngerThanAnyBlocker(e *entry, tx TxID, mode Mode) bool {
	if e.anyOlderHolder(tx) {
		return true
	}
	for i := range e.queue {
		r := &e.queue[i]
		if r.tx == tx || r.tx >= tx {
			continue
		}
		if mode == Exclusive || r.mode == Exclusive {
			return true
		}
	}
	return false
}

// ReleaseAll drops every lock tx holds (strict 2PL commit/abort) and grants
// whatever queued requests become compatible, in FIFO order per item.
// Items are released in sorted order so the dispatch sequence — and hence
// the whole simulation — is deterministic.
func (m *Manager) ReleaseAll(tx TxID) {
	rec := m.lookupTx(tx)
	if rec == nil {
		return
	}
	if rec == m.solo {
		// The solo transaction's grants exist only in its list.
		if len(rec.locks) > 0 {
			rec.locks = rec.locks[:0]
			m.nextGen()
		}
		return
	}
	if m.queued > 0 {
		// With no queued request anywhere, no release can dispatch a grant,
		// so the release order is unobservable and the sort is skipped —
		// the common case in the paper's closed single-user figures.
		sortHeldLocks(rec.locks)
	}
	for i := range rec.locks {
		item := rec.locks[i].item
		e := m.lookupItem(item)
		e.delHolder(tx)
		m.dispatch(item, e)
	}
	rec.locks = rec.locks[:0]
}

// End forgets a finished transaction entirely. Any locks still held are
// released first; queued requests from tx are abandoned (they would never
// be answered otherwise). Only the items tx ever queued on are visited.
func (m *Manager) End(tx TxID) {
	m.ReleaseAll(tx)
	rec := m.lookupTx(tx)
	if rec == nil {
		return
	}
	for _, item := range rec.waits {
		e := m.lookupItem(item)
		if e == nil {
			continue
		}
		filtered := e.queue[:0]
		for _, r := range e.queue {
			if r.tx != tx {
				filtered = append(filtered, r)
			} else {
				m.queued--
			}
		}
		e.queue = filtered
		if e.numHolders() == 0 && len(e.queue) == 0 {
			m.clearItem(item)
			m.putEntry(e)
		}
	}
	if rec == m.solo {
		m.solo = nil
	}
	m.live--
	m.clearTx(tx)
	m.putRec(rec)
}

// dispatch grants queued compatible requests at the head of item's queue.
func (m *Manager) dispatch(item Item, e *entry) {
	for len(e.queue) > 0 {
		head := e.queue[0]
		if !m.compatible(e, head.tx, head.mode) {
			// An upgrade request whose owner is now the sole holder can
			// proceed even though "compatible" says no.
			if have, ok := e.findHolder(head.tx); ok && have == Shared &&
				head.mode == Exclusive && e.numHolders() == 1 {
				e.popHead()
				m.queued--
				e.setHolder(head.tx, Exclusive)
				m.lookupTx(head.tx).updateHeld(item, Exclusive)
				m.acquisitions++
				head.granted()
				continue
			}
			return
		}
		e.popHead()
		m.queued--
		e.setHolder(head.tx, head.mode)
		m.lookupTx(head.tx).updateHeld(item, head.mode)
		m.acquisitions++
		head.granted()
	}
	if e.numHolders() == 0 && len(e.queue) == 0 {
		m.clearItem(item)
		m.putEntry(e)
	}
}

// popHead removes the head request, compacting in place so the queue's
// backing array survives entry recycling.
func (e *entry) popHead() {
	copy(e.queue, e.queue[1:])
	e.queue[len(e.queue)-1] = request{}
	e.queue = e.queue[:len(e.queue)-1]
}

// sortHeldLocks orders locks ascending by item. Items are distinct, so any
// correct sort yields the same array and the release order stays
// deterministic. It is a hand-specialized hybrid — median-of-three Hoare
// quicksort recursing into the smaller half, insertion sort below 24
// entries — because the generic slices.SortFunc's per-comparison closure
// dispatch dominated commit cost in the transaction-pipeline profile
// (deep traversals hold hundreds of locks, released every commit).
func sortHeldLocks(a []heldLock) {
	for len(a) > 24 {
		m, hi := len(a)/2, len(a)-1
		if a[m].item < a[0].item {
			a[0], a[m] = a[m], a[0]
		}
		if a[hi].item < a[0].item {
			a[0], a[hi] = a[hi], a[0]
		}
		if a[hi].item < a[m].item {
			a[m], a[hi] = a[hi], a[m]
		}
		p := a[m].item
		i, j := 0, hi
		for {
			for a[i].item < p {
				i++
			}
			for a[j].item > p {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		if j+1 < len(a)-(j+1) {
			sortHeldLocks(a[:j+1])
			a = a[j+1:]
		} else {
			sortHeldLocks(a[j+1:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j].item > x.item {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// Quiescent returns an error unless the table is idle: no live
// transaction, no item entry and no queued request. It is the lock
// layer's conservation law at the end of a batch; it scans the item
// table, so it is meant for tests and checks, not the hot path.
func (m *Manager) Quiescent() error {
	if m.live != 0 {
		return fmt.Errorf("lock: %d live transactions at quiescence", m.live)
	}
	if m.queued != 0 {
		return fmt.Errorf("lock: %d queued requests at quiescence", m.queued)
	}
	for item, e := range m.dense {
		if e != nil {
			return fmt.Errorf("lock: item %d still has an entry at quiescence", item)
		}
	}
	if n := len(m.sparse); n != 0 {
		return fmt.Errorf("lock: %d sparse items still have entries at quiescence", n)
	}
	return nil
}

// Acquisitions returns the number of granted requests.
func (m *Manager) Acquisitions() uint64 { return m.acquisitions }

// Waits returns the number of requests that had to queue.
func (m *Manager) Waits() uint64 { return m.waits }

// Deaths returns the number of wait-die aborts.
func (m *Manager) Deaths() uint64 { return m.deaths }
