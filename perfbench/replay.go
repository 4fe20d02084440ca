package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/ocb"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// cellPlan is one sweep cell resolved to what a replication needs: the
// specialized configuration and workload, and the cell seed. It mirrors
// sweep.Sweep.RunContext for the 1-D, override-free sweeps the benchmark
// runs.
type cellPlan struct {
	index  int // position on the axis, as in sweep.Result.Points
	label  string
	cfg    core.Config
	params ocb.Params
	seed   uint64
	proto  sweep.Protocol
	txns   int // DSTC phase length
	depth  int // DSTC traversal depth
}

// plan resolves every cell of s at seed, in the order the sweep runs them
// (largest-first for RunDescending sweeps).
func plan(s sweep.Sweep, seed uint64) ([]cellPlan, error) {
	if len(s.Axes) > 0 {
		return nil, fmt.Errorf("sweep %q: the replay handles 1-D sweeps only", s.Name)
	}
	txns, depth := s.Transactions, s.Depth
	if txns < 1 {
		txns = 1000 // sweep's DSTC protocol defaults (§4.4)
	}
	if depth < 1 {
		depth = 3
	}
	cells := make([]cellPlan, len(s.Axis.Points))
	for i, pt := range s.Axis.Points {
		cfg, params := s.Config, s.Params
		if pt.Apply != nil {
			pt.Apply(&cfg, &params)
		}
		label := pt.Label
		if label == "" {
			label = fmt.Sprintf("%g", pt.X)
		}
		j := i
		if s.RunDescending {
			j = len(cells) - 1 - i
		}
		cells[j] = cellPlan{index: i, label: label, cfg: cfg, params: params,
			seed: seed + pt.SeedDelta, proto: s.Protocol, txns: txns, depth: depth}
	}
	return cells, nil
}

// hotTxns is the number of measured transactions one replication of the
// cell commits when every transaction commits.
func (c *cellPlan) hotTxns() int {
	if c.proto == sweep.DSTCProtocol {
		return 2 * c.txns
	}
	return c.params.HotN
}

// layerCounts accumulates what the layers' public accessors report over
// the replications of one study.
type layerCounts struct {
	objects     uint64 // objects generated
	accesses    uint64 // ops in the measured batches
	commits     uint64
	aborts      uint64
	bufAccesses uint64 // hits+misses over every batch
	hits        uint64
	evictions   uint64
	writebacks  uint64
	diskIOs     uint64
	lockWaits   uint64
	reorgIOs    uint64
	clusters    uint64
	reorgs      uint64
	calPeak     int
	bypass      stats.Sample // per measured batch
	p95Resp     stats.Sample // simulated ms, per measured batch

	lockAcquires  uint64
	bufReplayed   uint64
	lockReplayNs  int64
	bufReplayNs   int64
	replayNs      int64   // both replays, excluded from the traced study time
	repNs         []int64 // per replication, replays excluded
	failedReps    int
	failedReasons []string
}

// cellSamples holds the replay's per-cell samples, folded in replication
// order exactly as core folds them, so their means compare bit for bit.
type cellSamples struct {
	std                                    bool
	ios, reads, writes, hit, resp, tps     stats.Sample
	netMsgs, netBytes, lockWaits, reorgIOs stats.Sample
	pre, overhead, post, gain              stats.Sample
	clusters, objPer                       stats.Sample
}

// replayer drives the layers' public functions directly, replication by
// replication, the way core.Experiment and core.DSTCExperiment do with one
// worker. Its buffers are reused across replications like a pooled
// replication context.
type replayer struct {
	tr   *tracer
	db   *ocb.Database
	run  *core.Run
	w    *ocb.Workload
	lk   *lock.Manager
	c    *layerCounts
	rep  string // replication id of the spans being recorded
	seed uint64 // replication seed
	fail func(reason string)
}

// replayStudy replays every cell of one study and returns each cell's
// samples, indexed by axis position. tr may be nil (no spans).
func replayStudy(tr *tracer, parent int, iter int, cells []cellPlan, reps int, c *layerCounts) []cellSamples {
	rp := &replayer{tr: tr, db: new(ocb.Database), w: new(ocb.Workload), lk: lock.NewManager(), c: c}
	out := make([]cellSamples, len(cells))
	for ci := range cells {
		cell := &cells[ci]
		cs := &out[cell.index]
		cs.std = cell.proto != sweep.DSTCProtocol
		for rep := 0; rep < reps; rep++ {
			rp.rep = fmt.Sprintf("i%d/c%d/r%d", iter, cell.index, rep)
			failed := false
			rp.fail = func(reason string) {
				if !failed {
					failed = true
					c.failedReps++
					c.failedReasons = append(c.failedReasons, fmt.Sprintf("%s %s: %s", rp.rep, cell.label, reason))
				}
			}
			span := tr.begin("rep", parent, rp.rep)
			replayNs := c.replayNs
			if err := rp.replicate(cell, rep, cs, span); err != nil {
				rp.fail(err.Error())
				rp.run = nil
			}
			d := tr.end(span)
			c.repNs = append(c.repNs, d-(c.replayNs-replayNs))
		}
	}
	return out
}

// replicate runs one replication of cell, recording its spans under
// parent. A panic in a layer is reported as an error.
func (rp *replayer) replicate(cell *cellPlan, rep int, out *cellSamples, parent int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	seed := rng.SubSeed(cell.seed, uint64(rep))
	rp.seed = seed

	s := rp.tr.begin("ocb.generate", parent, rp.rep)
	err = ocb.GenerateInto(rp.db, cell.params, seed)
	rp.tr.end(s)
	if err != nil {
		return err
	}
	rp.c.objects += uint64(rp.db.NumObjects())

	// Like a pooled replication context: reset the model while the
	// configuration is unchanged, rebuild it otherwise.
	s = rp.tr.begin("core.model", parent, rp.rep)
	if rp.run != nil && rp.run.Config() == cell.cfg {
		rp.run.Reset(rp.db, seed)
	} else {
		rp.run, err = core.NewRun(cell.cfg, rp.db, seed)
	}
	rp.tr.end(s)
	if err != nil {
		return err
	}

	var bufAccesses uint64
	batch := func(txs []ocb.Transaction, measured bool) core.BatchStats {
		s := rp.tr.begin("core.batch", parent, rp.rep)
		st := rp.run.ExecuteBatch(txs)
		rp.tr.end(s)
		bufAccesses += st.Hits + st.Misses
		if measured {
			rp.measured(txs, st, parent)
		}
		return st
	}

	if out.std {
		s = rp.tr.begin("ocb.workload", parent, rp.rep)
		rp.w.GenerateInto(rp.db, seed+1)
		rp.tr.end(s)
		if len(rp.w.Cold) > 0 {
			batch(rp.w.Cold, false)
		}
		st := batch(rp.w.Hot, true)
		rp.w.Release()
		out.ios.Add(float64(st.IOs))
		out.reads.Add(float64(st.Reads))
		out.writes.Add(float64(st.Writes))
		out.hit.Add(st.HitRatio)
		out.resp.Add(st.MeanRespMs)
		out.tps.Add(st.ThroughputTPS)
		out.netMsgs.Add(float64(st.NetMessages))
		out.netBytes.Add(float64(st.NetBytes))
		out.lockWaits.Add(float64(st.LockWaits))
		out.reorgIOs.Add(float64(st.ReorgIOs))
	} else {
		s = rp.tr.begin("ocb.workload", parent, rp.rep)
		rp.w.GenerateHierarchyInto(rp.db, seed+1, cell.txns, cell.depth)
		rp.tr.end(s)
		pre := batch(rp.w.Hot, true)
		rp.w.Release()

		s = rp.tr.begin("cluster.reorg", parent, rp.rep)
		rp.run.PerformClustering(func() {})
		drain := rp.run.ExecuteBatch(nil) // the reorganization's scheduled I/O
		rp.tr.end(s)
		bufAccesses += drain.Hits + drain.Misses
		reorg := rp.run.LastReorgReport()
		rp.c.reorgIOs += reorg.IOs()
		rp.c.clusters += uint64(reorg.Summary.Clusters)
		rp.c.reorgs++

		s = rp.tr.begin("ocb.workload", parent, rp.rep)
		rp.w.GenerateHierarchyInto(rp.db, seed+2, cell.txns, cell.depth)
		rp.tr.end(s)
		post := batch(rp.w.Hot, true)
		rp.w.Release()

		out.pre.Add(float64(pre.IOs))
		out.overhead.Add(float64(reorg.IOs()))
		out.post.Add(float64(post.IOs))
		if post.IOs > 0 {
			out.gain.Add(float64(pre.IOs) / float64(post.IOs))
		}
		out.clusters.Add(float64(reorg.Summary.Clusters))
		out.objPer.Add(reorg.Summary.MeanObjPerClus)
	}

	buf := rp.run.Buffer()
	if got := buf.Hits() + buf.Misses(); got != bufAccesses {
		rp.fail(fmt.Sprintf("batches report %d buffer accesses, buffer counters %d", bufAccesses, got))
	}
	rp.c.bufAccesses += bufAccesses
	rp.c.hits += buf.Hits()
	rp.c.evictions += buf.Evictions()
	rp.c.writebacks += buf.Writebacks()
	rp.c.diskIOs += rp.run.Disk().IOs()
	if p := rp.run.CalendarPeak(); p > rp.c.calPeak {
		rp.c.calPeak = p
	}
	return nil
}

// measured checks and counts one measured batch, then replays its access
// stream through a fresh lock table and buffer.
func (rp *replayer) measured(txs []ocb.Transaction, st core.BatchStats, parent int) {
	if st.Transactions != uint64(len(txs)) {
		rp.fail(fmt.Sprintf("batch committed %d of %d transactions", st.Transactions, len(txs)))
	}
	c := rp.c
	c.commits += st.Transactions
	c.aborts += st.Aborts
	c.lockWaits += st.LockWaits
	c.bypass.Add(st.BypassRate)
	c.p95Resp.Add(st.P95RespMs)
	for i := range txs {
		c.accesses += uint64(len(txs[i].Ops))
	}
	rp.replayLocks(txs, parent)
	rp.replayBuffer(txs, parent)
}

// replayLocks runs the batch's transactions one after another through the
// lock table's public protocol: Begin, one Acquire per op, ReleaseAll, End.
// Serial transactions never conflict, so every request is granted.
func (rp *replayer) replayLocks(txs []ocb.Transaction, parent int) {
	lk := rp.lk
	lk.Reset()
	granted, died := func() {}, func() { rp.fail("lock replay: serial transaction died") }
	s := rp.tr.begin("lock.replay", parent, rp.rep)
	t0 := time.Now()
	for i := range txs {
		tx := lk.Begin()
		for _, op := range txs[i].Ops {
			mode := lock.Shared
			if op.Write() {
				mode = lock.Exclusive
			}
			lk.Acquire(tx, lock.Item(op.Object()), mode, granted, died)
		}
		lk.ReleaseAll(tx)
		lk.End(tx)
	}
	d := time.Since(t0).Nanoseconds()
	rp.tr.end(s)
	rp.c.lockAcquires += lk.Acquisitions()
	rp.c.lockReplayNs += d
	rp.c.replayNs += d
}

// replayBuffer runs the batch's page references, resolved through the
// run's store, through a fresh buffer of the cell's capacity and policy.
func (rp *replayer) replayBuffer(txs []ocb.Transaction, parent int) {
	cfg := rp.run.Config()
	// The model's own policy stream (core.NewRun), so RANDOM replays too.
	pol, err := buffer.NewPolicySized(cfg.BufferPolicy, rng.NewStream(rp.seed, 20), cfg.BufferPages)
	if err != nil {
		rp.fail(fmt.Sprintf("buffer replay: %v", err))
		return
	}
	bm := buffer.New(cfg.BufferPages, pol)
	bm.SetReserveCold(cfg.ReserveCold)
	store := rp.run.Store()
	s := rp.tr.begin("buffer.replay", parent, rp.rep)
	t0 := time.Now()
	for i := range txs {
		for _, op := range txs[i].Ops {
			first, span := store.Pages(op.Object())
			for p := 0; p < span; p++ {
				bm.Access(first+buffer.PageID(p), op.Write())
			}
		}
	}
	d := time.Since(t0).Nanoseconds()
	rp.tr.end(s)
	rp.c.bufReplayed += bm.Hits() + bm.Misses()
	rp.c.bufReplayNs += d
	rp.c.replayNs += d
}

// compareCells checks that the replay reproduced every cell's simulated
// means bit for bit, and returns one message per mismatching cell.
func compareCells(res *sweep.Result, got []cellSamples) []string {
	var bad []string
	for i := range got {
		pr := &res.Points[i]
		g := &got[i]
		type pair struct {
			name      string
			want, got *stats.Sample
		}
		var pairs []pair
		switch {
		case g.std && pr.Result != nil:
			r := pr.Result
			pairs = []pair{{"ios", &r.IOs, &g.ios}, {"reads", &r.Reads, &g.reads},
				{"writes", &r.Writes, &g.writes}, {"hit", &r.HitRatio, &g.hit},
				{"resp", &r.RespMs, &g.resp}, {"tps", &r.Throughput, &g.tps},
				{"netmsgs", &r.NetMessages, &g.netMsgs}, {"netbytes", &r.NetBytes, &g.netBytes},
				{"lockwaits", &r.LockWaits, &g.lockWaits}, {"reorgios", &r.ReorgIOs, &g.reorgIOs}}
		case !g.std && pr.DSTC != nil:
			r := pr.DSTC
			pairs = []pair{{"pre", &r.PreIOs, &g.pre}, {"overhead", &r.OverheadIOs, &g.overhead},
				{"post", &r.PostIOs, &g.post}, {"gain", &r.Gain, &g.gain},
				{"clusters", &r.Clusters, &g.clusters}, {"objper", &r.ObjPerClus, &g.objPer}}
		default:
			bad = append(bad, fmt.Sprintf("cell %s: no result of the replayed protocol", pr.Label))
			continue
		}
		for _, p := range pairs {
			if p.want.N() != p.got.N() || math.Float64bits(p.want.Mean()) != math.Float64bits(p.got.Mean()) {
				bad = append(bad, fmt.Sprintf("cell %s %s: sweep mean %v (n=%d), replay %v (n=%d)",
					pr.Label, p.name, p.want.Mean(), p.want.N(), p.got.Mean(), p.got.N()))
			}
		}
	}
	return bad
}
