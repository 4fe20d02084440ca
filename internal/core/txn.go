package core

import (
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/ocb"
	"repro/internal/sim"
)

// txnState drives the Transaction Manager's per-transaction state machine.
// Each state corresponds to one activity of the knowledge model (acquire
// lock, extract object, extract pages, access disk, perform treatment
// related to clustering); step() dispatches on it, so the kernel schedules
// one reusable continuation per transaction instead of a fresh closure per
// activity.
type txnState uint8

const (
	stIdle txnState = iota
	// stAdmit takes a MULTILVL token from the database scheduler, queuing
	// until one is free.
	stAdmit
	// stBegin runs at admission grant: register with the lock manager and
	// start the first operation.
	stBegin
	// stNextOp decides between the next operation and commit, charging the
	// GETLOCK or RELLOCK service time.
	stNextOp
	// stGetLock runs after the GETLOCK service time: the lock table
	// decides grant, wait, or wait-die death.
	stGetLock
	// stFetchObject is the Object Manager: find the page(s) holding the
	// object.
	stFetchObject
	// stFetchPage drives the Buffering Manager for the next page of the
	// current object.
	stFetchPage
	// stEvict writes back the dirty victims of the pending
	// eviction list, one disk write at a time, then continues at evNext.
	stEvict
	// stReadFault performs the physical read of the faulted page.
	stReadFault
	// stFaultLoaded post-processes a completed fault: swizzle-dirty
	// marking and the prefetch decision.
	stFaultLoaded
	// stReadPrefetch performs the one-ahead prefetch read.
	stReadPrefetch
	// stPageDone is the per-page continuation: Texas reservations, then
	// page shipping.
	stPageDone
	// stReserve claims frames for the swizzled object's reference pages
	// (the Texas swap mechanism), paying evictions as it goes.
	stReserve
	// stShip charges the network for page-server page shipping, then loops
	// to the next page.
	stShip
	// stTreatment is the "Perform Transaction" step on one object: charge
	// the network for object/result shipping, then the CPU.
	stTreatment
	// stCPU requests the processing CPU.
	stCPU
	// stCPUGranted holds the CPU for the object processing time.
	stCPUGranted
	// stCPURelease releases the CPU after the hold.
	stCPURelease
	// stOpDone lets the Clustering Manager observe the access and advances
	// to the next operation.
	stOpDone
	// stCommit runs after the RELLOCK service time: release everything and
	// recycle the executor.
	stCommit
	// stRestart runs after the wait-die abort pause: re-register and
	// re-run from the first operation.
	stRestart
	// stDiskGrant computes the service time once the disk controller is
	// granted.
	stDiskGrant
	// stDiskRelease releases the controller after the transfer and
	// continues at afterDisk.
	stDiskRelease
)

// txnExec is the Transaction Manager's per-transaction state machine.
// Executors are recycled through the Run's freelist, and every kernel
// continuation is the single pre-bound step closure, so a steady-state
// transaction allocates nothing.
type txnExec struct {
	r    *Run
	tx   *ocb.Transaction
	txid lock.TxID

	opIdx   int
	prev    ocb.OID // previously accessed object (for clustering)
	submitT float64
	done    func()

	state txnState

	pages   []disk.PageID // pages of the current op (reused buffer)
	pageIdx int

	evs    []buffer.Eviction // pending evictions (reused buffer)
	evIdx  int
	evNext txnState // state to resume once evictions are written

	faultPage    disk.PageID
	prefetchPage disk.PageID
	loaded       bool // whether the current page required a physical read

	reserve []disk.PageID // Texas reservation set (reused buffer)
	resIdx  int

	diskPage  disk.PageID
	diskWrite bool
	afterDisk txnState // state to resume once the disk op completes

	cpuRes *sim.Resource

	// cont is the one reusable continuation scheduled on the kernel and
	// queued on passive resources; lockGranted is the pre-bound callback a
	// queued lock request runs at dispatch. Both are created once per
	// executor lifetime.
	cont        func()
	lockGranted func()
}

// getExec pops a recycled executor or builds one, binding its permanent
// continuations.
func (r *Run) getExec() *txnExec {
	if n := len(r.execPool); n > 0 {
		e := r.execPool[n-1]
		r.execPool = r.execPool[:n-1]
		return e
	}
	e := &txnExec{r: r}
	e.cont = e.step
	e.lockGranted = func() {
		e.state = stFetchObject
		e.step()
	}
	return e
}

// submit runs tx through admission and execution; done fires at commit.
func (r *Run) submit(tx *ocb.Transaction, done func()) {
	e := r.getExec()
	e.tx = tx
	e.submitT = r.sim.Now()
	e.done = done
	e.state = stAdmit
	e.step()
}

// acquire takes a token of res and moves to next. It reports true when a
// token was free, so the loop continues inline; otherwise the executor
// queues on res and resumes at next when a release hands the token over.
func (e *txnExec) acquire(res *sim.Resource, next txnState) bool {
	e.state = next
	if res.TryAcquire() {
		return true
	}
	res.Request(e.cont)
	return false
}

// wait charges d simulated ms before the current state runs. It reports
// true when the loop may run that state inline: d is zero, or this is the
// outermost step frame and the continuation is already the next event, so
// the kernel advances the clock in place. Otherwise it schedules the
// continuation and the caller returns to the kernel.
//
// Only the outermost frame may advance, because a nested one has work
// waiting beneath it at the current instant: a lock grant dispatched from
// another transaction's ReleaseAll runs while that release loop still has
// items to free, and a transaction submitted inline by a zero-think-time
// commit would otherwise run to its own commit, submit the next, and nest
// the whole batch on one stack.
func (e *txnExec) wait(d float64) bool {
	r := e.r
	if d <= 0 || r.depth == 1 && r.sim.Advance(d) {
		return true
	}
	r.sim.Schedule(d, e.cont)
	return false
}

// diskIO acquires the disk controller for one page op (the service time is
// computed at grant), releases it after the transfer, then resumes at next.
// It reports whether the loop may continue inline.
func (e *txnExec) diskIO(p disk.PageID, write bool, next txnState) bool {
	e.diskPage = p
	e.diskWrite = write
	e.afterDisk = next
	return e.acquire(e.r.diskRes, stDiskGrant)
}

// step runs the state machine until the transaction waits on the kernel: a
// queued lock request or resource token, or a delay that is not the next
// event. Everything else — immediate lock grants, free tokens, zero delays
// and, in the outermost frame, delays the kernel advances in place —
// continues the one loop, so no continuation re-enters step through a
// callback.
func (e *txnExec) step() {
	e.r.depth++
	e.loop()
	e.r.depth--
}

// loop is step's body: it dispatches on the state until the transaction
// waits on the kernel.
func (e *txnExec) loop() {
	r := e.r
	for {
		switch e.state {
		case stAdmit:
			// The database passive resource schedules transactions
			// according to the multiprogramming level (Table 1).
			if !e.acquire(r.admission, stBegin) {
				return
			}

		case stBegin:
			r.activeTx++
			e.txid = r.locks.Begin()
			e.opIdx = 0
			e.prev = ocb.NilRef
			e.state = stNextOp

		case stRestart:
			e.txid = r.locks.Begin()
			e.opIdx = 0
			e.prev = ocb.NilRef
			e.state = stNextOp

		case stNextOp:
			if e.opIdx >= len(e.tx.Ops) {
				// RELLOCK service time, then commit.
				e.state = stCommit
				if !e.wait(float64(r.locks.HeldCount(e.txid)) * r.cfg.RelLockMs) {
					return
				}
				continue
			}
			// GETLOCK service time, then the lock table decides.
			e.state = stGetLock
			if !e.wait(r.cfg.GetLockMs) {
				return
			}

		case stGetLock:
			op := e.tx.Ops[e.opIdx]
			mode := lock.Shared
			if op.Write() {
				mode = lock.Exclusive
			}
			switch r.locks.Request(e.txid, lock.Item(op.Object()), mode, e.lockGranted) {
			case lock.Granted:
				e.state = stFetchObject
			case lock.Queued:
				return
			case lock.Died:
				// Wait-die abort: release everything, pause briefly, and
				// re-run from the first operation.
				r.txAborted++
				r.locks.End(e.txid)
				e.state = stRestart
				if !e.wait(1.0) {
					return
				}
			}

		case stFetchObject:
			first, span := r.store.Pages(e.tx.Ops[e.opIdx].Object())
			e.pages = e.pages[:0]
			for i := 0; i < span; i++ {
				e.pages = append(e.pages, first+disk.PageID(i))
			}
			e.pageIdx = 0
			e.state = stFetchPage

		case stFetchPage:
			if e.pageIdx >= len(e.pages) {
				e.state = stTreatment
				continue
			}
			p := e.pages[e.pageIdx]
			e.pageIdx++
			res := r.buf.Access(p, e.tx.Ops[e.opIdx].Write())
			if res.Hit {
				e.loaded = false
				e.state = stPageDone
				continue
			}
			// Write back dirty victims, read the page, then post-process.
			e.loaded = true
			e.faultPage = p
			e.evs = append(e.evs[:0], res.Evicted...)
			e.evIdx = 0
			e.evNext = stReadFault
			e.state = stEvict

		case stEvict:
			for e.evIdx < len(e.evs) && !e.evs[e.evIdx].Dirty {
				e.evIdx++
			}
			if e.evIdx >= len(e.evs) {
				e.state = e.evNext
				continue
			}
			p := e.evs[e.evIdx].Page
			e.evIdx++
			if !e.diskIO(p, true, stEvict) {
				return
			}

		case stReadFault:
			if !e.diskIO(e.faultPage, false, stFaultLoaded) {
				return
			}

		case stFaultLoaded:
			if r.cfg.SwizzleDirty {
				r.buf.MarkDirty(e.faultPage)
			}
			// One-ahead prefetching: also fetch page p+1 on a miss of p.
			if r.cfg.Prefetch == OneAhead {
				next := e.faultPage + 1
				if int(next) < r.store.NumPages() && !r.buf.Contains(next) && !r.buf.IsReserved(next) {
					res := r.buf.Access(next, false)
					if res.Hit {
						e.state = stPageDone
						continue
					}
					e.prefetchPage = next
					e.evs = append(e.evs[:0], res.Evicted...)
					e.evIdx = 0
					e.evNext = stReadPrefetch
					e.state = stEvict
					continue
				}
			}
			e.state = stPageDone

		case stReadPrefetch:
			if !e.diskIO(e.prefetchPage, false, stPageDone) {
				return
			}

		case stPageDone:
			if e.loaded && r.cfg.ReserveOnLoad {
				// Texas swizzles the freshly faulted object's pointers,
				// reserving frames for every page it references.
				e.reserve = r.store.ObjectRefPagesInto(e.tx.Ops[e.opIdx].Object(), e.reserve[:0])
				e.resIdx = 0
				e.state = stReserve
				continue
			}
			e.state = stShip

		case stReserve:
			if e.resIdx >= len(e.reserve) {
				e.state = stShip
				continue
			}
			p := e.reserve[e.resIdx]
			e.resIdx++
			res := r.buf.Reserve(p)
			e.evs = append(e.evs[:0], res.Evicted...)
			e.evIdx = 0
			e.evNext = stReserve
			e.state = stEvict

		case stShip:
			// Page server systems ship the page to the client; object
			// servers ship the object once found (charged in stTreatment);
			// centralized and DB servers move nothing.
			e.state = stFetchPage
			if r.cfg.System == PageServer && !r.net.IsFree() && !e.wait(r.net.TransferTime(r.cfg.PageSize)) {
				return
			}

		case stTreatment:
			e.state = stCPU
			if r.cfg.System == ObjectServer && !r.net.IsFree() {
				size := int(r.db.SizeOf(e.tx.Ops[e.opIdx].Object()))
				if !e.wait(r.net.TransferTime(size)) {
					return
				}
			} else if r.cfg.System == DBServer && !r.net.IsFree() {
				// Ship a small per-operation result record.
				if !e.wait(r.net.TransferTime(64)) {
					return
				}
			}

		case stCPU:
			cpu := r.serverCPU
			if r.cfg.System == PageServer {
				cpu = r.clientCPU
			}
			e.cpuRes = cpu
			if !e.acquire(cpu, stCPUGranted) {
				return
			}

		case stCPUGranted:
			// Hold the CPU for the object processing time.
			e.state = stCPURelease
			if !e.wait(r.cfg.ObjectCPUMs) {
				return
			}

		case stCPURelease:
			e.cpuRes.Release()
			e.state = stOpDone

		case stOpDone:
			op := e.tx.Ops[e.opIdx]
			r.clusterer.Observe(op.Object(), e.prev, op.Write())
			e.prev = op.Object()
			e.opIdx++
			e.state = stNextOp

		case stDiskGrant:
			// The controller is granted: compute the service time now
			// (disk head position depends on the grant moment).
			var d float64
			if e.diskWrite {
				d = r.dsk.WriteTime(e.diskPage)
			} else {
				d = r.dsk.ReadTime(e.diskPage)
			}
			e.state = stDiskRelease
			if !e.wait(d) {
				return
			}

		case stDiskRelease:
			r.diskRes.Release()
			e.state = e.afterDisk

		case stCommit:
			r.locks.End(e.txid)
			r.clusterer.EndTransaction()
			r.activeTx--
			r.txDone++
			resp := r.sim.Now() - e.submitT
			r.respTotal += resp
			r.respDist.Add(resp)
			r.admission.Release()
			done := e.done
			e.done = nil
			e.tx = nil
			e.state = stIdle
			r.execPool = append(r.execPool, e)
			done()
			return

		default:
			panic("core: txnExec step in invalid state")
		}
	}
}
