package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ocb"
	"repro/internal/paper"
	"repro/internal/sweep"
	"repro/internal/systems"
)

// defaultSeed is the workload seed when --seed is not given: the seed
// cmd/experiments uses by default, so iteration 0 of a run reproduces
// `experiments -run <id> -reps <reps>` exactly.
const defaultSeed = 1999

// heldOutSeed is never used while tuning a change; a claimed gain is
// confirmed by rerunning both commits with --seed heldOutSeed.
const heldOutSeed = 20261017

// fidelityIters is how many leading study iterations every run executes
// regardless of --seconds. Their cells are pooled for paper_logerr and
// hashed into the digest, so both depend on --seed alone.
const fidelityIters = 8

// workload is one benchmark input: a declarative sweep run the way
// cmd/experiments runs it, plus its error against the paper.
type workload struct {
	name string
	// reps is the replication count per cell of one study.
	reps int
	spec func() (sweep.Sweep, error)
	// logErr returns the mean |ln(ours/paper)| over the workload's
	// reference points, given each cell's pooled metric means.
	logErr func(cells []cellMeans) (float64, error)
}

// cellMeans holds one cell's metric means pooled over the fidelity
// iterations (equal replications each, so the pooled mean is the mean of
// the iterations' means).
type cellMeans map[sweep.Metric]float64

var workloads = []workload{
	{
		name: "fig6-o2",
		reps: 4,
		spec: func() (sweep.Sweep, error) { return experiments.Spec("fig6") },
		logErr: func(cells []cellMeans) (float64, error) {
			return seriesLogErr(cells, paper.Fig6)
		},
	},
	{
		name: "fig11-texas",
		reps: 4,
		spec: func() (sweep.Sweep, error) { return experiments.Spec("fig11") },
		logErr: func(cells []cellMeans) (float64, error) {
			return seriesLogErr(cells, paper.Fig11)
		},
	},
	{
		name:   "dstc-table6",
		reps:   8,
		spec:   func() (sweep.Sweep, error) { return experiments.Spec("table6") },
		logErr: table6LogErr,
	},
	{
		name: "contended-write",
		reps: 4,
		spec: contendedSpec,
		logErr: func(cells []cellMeans) (float64, error) {
			// Only the one-user anchor cell has a published counterpart:
			// Figure 7's largest base.
			last := len(paper.Fig7.X) - 1
			return meanLogErr([]float64{cells[0][sweep.IOs]}, paper.Fig7.Simulated[last:])
		},
	},
}

// contendedSpec is the multi-user write workload: the O₂ preset with 16
// users at MPL 10 and 5% updates over the Table 5 base (NC 50, NO 20000,
// HotN 1000). Its first cell is the same base at one read-only user —
// exactly Figure 7's 20000-instance cell, seed offset included — which
// anchors the workload's paper_logerr; the paper publishes no multi-user
// figure.
func contendedSpec() (sweep.Sweep, error) {
	fig7NO := paper.InstanceCounts[len(paper.InstanceCounts)-1]
	return sweep.Sweep{
		Name:   "contended-write",
		Title:  "O2, 16 users, MPL 10, 5% writes (cell 0: Fig. 7 anchor, 1 user)",
		Config: systems.O2(),
		Params: ocb.DefaultParams(),
		Axis: sweep.Axis{Name: "users", Points: []sweep.Point{
			{X: 1, Label: "fig7-anchor", SeedDelta: uint64(fig7NO)},
			{X: 16, Label: "contended", SeedDelta: 16, Apply: func(cfg *core.Config, p *ocb.Params) {
				cfg.Users = 16
				cfg.MPL = 10
				p.WriteProb = 0.05
			}},
		}},
	}, nil
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seriesLogErr scores a figure's cells against the paper's own simulated
// curve.
func seriesLogErr(cells []cellMeans, ref paper.Series) (float64, error) {
	ours := make([]float64, len(cells))
	for i, c := range cells {
		ours[i] = c[sweep.IOs]
	}
	return meanLogErr(ours, ref.Simulated)
}

// table6LogErr pairs the physical-OID cell with the paper's benchmark
// column and the logical-OID cell with its simulation column, as
// experiments.Table6 presents them.
func table6LogErr(cells []cellMeans) (float64, error) {
	rows := []sweep.Metric{sweep.PreIOs, sweep.OverheadIOs, sweep.PostIOs, sweep.Gain}
	var ours, ref []float64
	for k, m := range rows {
		ours = append(ours, cells[0][m], cells[1][m])
		ref = append(ref, paper.Table6[k].Benchmark, paper.Table6[k].Simulated)
	}
	return meanLogErr(ours, ref)
}

func meanLogErr(ours, ref []float64) (float64, error) {
	if len(ours) != len(ref) || len(ours) == 0 {
		return 0, fmt.Errorf("paper_logerr: %d values against %d references", len(ours), len(ref))
	}
	sum := 0.0
	for i := range ours {
		if !(ours[i] > 0) || !(ref[i] > 0) {
			return 0, fmt.Errorf("paper_logerr: non-positive value %g against %g", ours[i], ref[i])
		}
		sum += math.Abs(math.Log(ours[i] / ref[i]))
	}
	return sum / float64(len(ours)), nil
}
