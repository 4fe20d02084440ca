// Command perfbench is the repository's benchmark. It runs one named
// workload the way cmd/experiments runs it — experiments.Spec (or an
// equivalent sweep.Sweep) through sweep.Sweep.Run — repeatedly for
// --seconds, and prints the end-to-end metrics, with host times scaled to
// a reference host speed (probe.go). With --trace 1 it instead alternates
// the study with a replay of the same cells through the layers' public
// functions, timing a span around each call, and prints the per-layer
// metrics. Both run one worker. Build and run it through run.sh from the
// checkout root:
//
//	bash perfbench/run.sh --workload fig6-o2 --seed 1999 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it give
// the machine fingerprint, the cells' simulated results and their digest,
// and the raw host times behind the scaled ones.
// A record of the run (per-iteration times; traced, every span) is written
// to .bench_out/. --describe prints each per-layer metric with the
// end-to-end metric and workload it should move. The self-test, which runs
// every workload in --short mode, is `go test .` in this directory.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ocb"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// outDir receives run records and spans, relative to the checkout root.
const outDir = ".bench_out"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	// short runs one replication per cell and one fidelity iteration; the
	// self-test uses it to cover every workload quickly.
	short bool
}

func (o options) reps(w *workload) int {
	if o.short {
		return 1
	}
	return w.reps
}

func (o options) minIters() int {
	if o.short {
		return 1
	}
	return fidelityIters
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything a run measured, written to outDir.
type record struct {
	Machine     machine `json:"machine"`
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	HeldOutSeed uint64  `json:"held_out_seed"`
	Trace       int     `json:"trace"`
	Reps        int     `json:"reps"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	// StudySeconds is each timed study's host time, in iteration order.
	StudySeconds []float64 `json:"study_seconds,omitempty"`
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	// ProbeSeconds is the speed probe's mean time after each study
	// iteration; Scale = probeRefSeconds / the interquartile mean of
	// ProbeSeconds converts the raw host times above into the reported
	// ones.
	ProbeSeconds []float64 `json:"probe_seconds,omitempty"`
	Scale        float64   `json:"scale,omitempty"`
	Digest       string    `json:"digest"`
	Cells        []string  `json:"cells"`
	Failures     []string  `json:"failures"`
	Result       result    `json:"result"`
	// SelfMs is each span name's self time per traced iteration (median).
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (held out for confirming claims: %d)", heldOutSeed))
	fs.IntVar(&o.seconds, "seconds", 28, "measurement window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "one replication per cell and one fidelity iteration (self-test)")
	describe := fs.Bool("describe", false, "print the per-layer metrics with the change each should show, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		describeLayers(stdout)
		return 0
	}
	w, err := lookupWorkload(o.workload)
	if err != nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload <name> --seconds ≥1 --trace 0|1 (%v)\n", err)
		return 2
	}
	rec := &record{Machine: fingerprint(), Workload: w.name, Seed: o.seed, HeldOutSeed: heldOutSeed,
		Trace: o.trace, Reps: o.reps(w)}
	if o.trace == 0 {
		err = measureEndToEnd(w, o, rec)
	} else {
		err = measureLayers(w, o, rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeRecord(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	m := rec.Machine
	fmt.Fprintf(stdout, "machine cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		m.CPU, m.NProc, m.GOMAXPROCS, m.Go, orUnknown(m.Commit), m.Source)
	fmt.Fprintf(stdout, "workload %s seed=%d held_out_seed=%d reps=%d workers=%d iterations=%d trace=%d\n",
		w.name, o.seed, heldOutSeed, rec.Reps, rec.Workers, rec.Iterations, o.trace)
	for _, c := range rec.Cells {
		fmt.Fprintf(stdout, "cell %s\n", c)
	}
	fmt.Fprintf(stdout, "digest %s\n", rec.Digest)
	if rec.Scale != 0 {
		fmt.Fprintf(stdout, "host raw_wall_s=%.4f raw_setup_s=%.5f probe_s=%.4f reference_probe_s=%.3f scale=%.4f\n",
			trimmedMean(rec.StudySeconds, 0.25), median(rec.SetupSeconds), trimmedMean(rec.ProbeSeconds, 0.25), probeRefSeconds, rec.Scale)
	}
	for _, name := range sortedKeys(rec.SelfMs) {
		fmt.Fprintf(stdout, "self_ms %-14s %.3f\n", name, rec.SelfMs[name])
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// iterSeed is the sweep seed of study iteration k: the workload seed
// itself first, then decorrelated substreams.
func iterSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return rng.SubSeed(seed, uint64(k))
}

// studyCells returns the workload's spec and its cells at seed.
func studyCells(w *workload, seed uint64) (sweep.Sweep, []cellPlan, error) {
	s, err := w.spec()
	if err != nil {
		return s, nil, err
	}
	cells, err := plan(s, seed)
	return s, cells, err
}

// measureSetup times what a user pays before the study proper: spec
// construction, one generation of the largest cell's base and core.NewRun
// over it. It starts from a collected heap, and returns seconds.
func measureSetup(w *workload, seed uint64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	_, cells, err := studyCells(w, seed)
	if err != nil {
		return 0, err
	}
	big := &cells[0]
	for j := range cells {
		c := &cells[j]
		if c.params.NO > big.params.NO || (c.params.NO == big.params.NO && c.cfg.BufferPages > big.cfg.BufferPages) {
			big = c
		}
	}
	repSeed := rng.SubSeed(big.seed, 0)
	db, err := ocb.Generate(big.params, repSeed)
	if err != nil {
		return 0, err
	}
	if _, err := core.NewRun(big.cfg, db, repSeed); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// more reports whether a run that started at start and has completed
// iters iterations starts another: at least min iterations, then only
// while the next one, at the mean pace so far, ends within the window.
func more(start time.Time, window time.Duration, iters, min int) bool {
	if iters < min {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(iters) <= window
}

// checkResult reports why a completed sweep result is unusable, or "".
func checkResult(res *sweep.Result) string {
	if res.Completed() != len(res.Points) {
		return fmt.Sprintf("%d of %d cells completed", res.Completed(), len(res.Points))
	}
	for i := range res.Points {
		for _, v := range res.Points[i].Values {
			if math.IsNaN(v.Interval.Mean) || math.IsInf(v.Interval.Mean, 0) {
				return fmt.Sprintf("cell %s: %s is %v", res.Points[i].Label, v.Metric, v.Interval.Mean)
			}
		}
	}
	return ""
}

// digestCells hashes every cell's metric intervals, bit for bit.
func digestCells(h io.Writer, res *sweep.Result) {
	var b [8]byte
	for i := range res.Points {
		io.WriteString(h, res.Points[i].Label)
		for _, v := range res.Points[i].Values {
			io.WriteString(h, string(v.Metric))
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Interval.Mean))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Interval.HalfWidth))
			h.Write(b[:])
		}
	}
}

// describeCells renders each cell's simulated means, pooled over results.
func describeCells(results []*sweep.Result) ([]string, []cellMeans) {
	if len(results) == 0 {
		return nil, nil
	}
	first := results[0]
	lines := make([]string, len(first.Points))
	pooled := make([]cellMeans, len(first.Points))
	for i := range first.Points {
		pooled[i] = cellMeans{}
		var parts []string
		for _, v := range first.Points[i].Values {
			sum := 0.0
			for _, r := range results {
				iv, _ := r.Points[i].Get(v.Metric)
				sum += iv.Mean
			}
			mean := sum / float64(len(results))
			pooled[i][v.Metric] = mean
			parts = append(parts, fmt.Sprintf("%s=%.6g", v.Metric, mean))
		}
		lines[i] = fmt.Sprintf("%s=%s %s", first.XLabel, first.Points[i].Label, strings.Join(parts, " "))
	}
	return lines, pooled
}

// measureEndToEnd runs the study, iteration k at iterSeed(seed, k), until
// --seconds have passed and at least minIters iterations ran, timing the
// speed probe after each. The first minIters iterations feed paper_logerr
// and the digest; iteration 0 is then replayed through the layers to
// check it.
func measureEndToEnd(w *workload, o options, rec *record) error {
	_, cells, err := studyCells(w, o.seed)
	if err != nil {
		return err
	}
	reps := o.reps(w)
	committed := 0
	for i := range cells {
		committed += cells[i].hotTxns() * reps
	}
	// One worker: a second would share this host's two vCPUs with the
	// collector and the system, and the study's time would then depend on
	// how its replications happen to pair up across workers.
	rec.Workers = 1

	var walls, setups, probes []float64
	var fid []*sweep.Result
	probe, err := newSpeedProbe()
	if err != nil {
		return fmt.Errorf("speed probe: %w", err)
	}
	probe.run() // fault its memory in before the first sample

	attempted, failed := 0, 0
	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for k := 0; more(start, window, k, o.minIters()); k++ {
		// Set-up is sampled once per iteration, so its median spans the
		// whole window like the study's.
		setup, err := measureSetup(w, o.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, setup)
		t0 := time.Now()
		s, err := w.spec()
		var res *sweep.Result
		if err == nil {
			res, err = s.Run(sweep.Options{Replications: reps, Seed: iterSeed(o.seed, k), Workers: rec.Workers})
		}
		d := time.Since(t0).Seconds()
		probes = append(probes, probe.sample(d))
		attempted += len(cells) * reps
		if err == nil {
			if msg := checkResult(res); msg != "" {
				err = errors.New(msg)
			}
		}
		if err != nil {
			failed += len(cells) * reps
			rec.Failures = append(rec.Failures, fmt.Sprintf("iteration %d: %v", k, err))
			if k == 0 {
				break // nothing to check against or pool
			}
			continue
		}
		walls = append(walls, d)
		if k < o.minIters() {
			fid = append(fid, res)
		}
	}
	rec.Iterations = len(walls)
	rec.StudySeconds, rec.SetupSeconds, rec.ProbeSeconds = walls, setups, probes
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if len(fid) == 0 {
		rec.Result = result{Correct: false, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
		return nil
	}

	// Replay iteration 0 (seeded with o.seed itself, like cells) through
	// the layers and check it against the sweep.
	var counts layerCounts
	samples := replayStudy(nil, 0, 0, cells, reps, &counts)
	bad := counts.failedReps
	mismatch := compareCells(fid[0], samples)
	if len(mismatch) > 0 {
		bad = len(cells) * reps // the replay no longer reproduces the sweep
	}
	failed += bad
	rec.Failures = append(rec.Failures, counts.failedReasons...)
	rec.Failures = append(rec.Failures, mismatch...)

	h := sha256.New()
	for _, r := range fid {
		digestCells(h, r)
	}
	rec.Digest = fmt.Sprintf("sha256:%s over %d iterations", hex.EncodeToString(h.Sum(nil))[:32], len(fid))
	var pooled []cellMeans
	rec.Cells, pooled = describeCells(fid)
	logErr, err := w.logErr(pooled)
	if err != nil {
		rec.Failures = append(rec.Failures, err.Error())
		failed++
	}
	// Iterations draw different seeds, and a thrashing cell (Figure 6 at
	// 20k instances) makes study time bimodal, so the median jumps between
	// modes from run to run; the interquartile mean is steadier and still
	// ignores stalled iterations. Host times are reported at the reference
	// host speed (see probe.go).
	rec.Scale = probeRefSeconds / trimmedMean(probes, 0.25)
	wall := trimmedMean(walls, 0.25) * rec.Scale
	setup := median(setups) * rec.Scale
	rec.Result = result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metricValue{
			"wall_s":       {wall, "s"},
			"txn_per_s":    {float64(committed) / wall, "1/s"},
			"peak_rss_mb":  {rss, "MB"},
			"setup_s":      {setup, "s"},
			"paper_logerr": {logErr, "ln"},
		},
	}
	return nil
}

// measureLayers alternates, until --seconds have passed, the untraced study
// (sweep.Sweep.Run, one worker) with its traced replay, both at --seed.
// Every iteration checks the replay against the sweep bit for bit; counts
// must repeat exactly across iterations, and host times are reported as
// medians.
func measureLayers(w *workload, o options, rec *record) error {
	_, cells, err := studyCells(w, o.seed)
	if err != nil {
		return err
	}
	reps := o.reps(w)
	rec.Workers = 1
	tr := newTracer()
	var iters []*iterTrace
	var roots []int
	attempted, failed := 0, 0
	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for k := 0; more(start, window, k, 1); k++ {
		it := &iterTrace{c: &layerCounts{}}
		var res *sweep.Result
		var sweepErr error
		untraced := func() {
			t0 := time.Now()
			s, err := w.spec()
			if err == nil {
				res, err = s.Run(sweep.Options{Replications: reps, Seed: o.seed, Workers: 1})
			}
			it.untracedNs = time.Since(t0).Nanoseconds()
			sweepErr = err
		}
		var samples []cellSamples
		root := 0
		traced := func() {
			root = tr.begin("study", 0, fmt.Sprintf("i%d", k))
			samples = replayStudy(tr, root, k, cells, reps, it.c)
			it.tracedNs = tr.end(root) - it.c.replayNs
		}
		// Alternate which side runs first, so heap and cache state favour
		// neither.
		if k%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		attempted += len(cells) * reps
		if sweepErr == nil {
			if msg := checkResult(res); msg != "" {
				sweepErr = errors.New(msg)
			}
		}
		if sweepErr != nil {
			failed += len(cells) * reps
			rec.Failures = append(rec.Failures, fmt.Sprintf("iteration %d: %v", k, sweepErr))
			break
		}
		bad := it.c.failedReps
		mismatch := compareCells(res, samples)
		if len(mismatch) > 0 {
			bad = len(cells) * reps
		}
		failed += bad
		rec.Failures = append(rec.Failures, it.c.failedReasons...)
		rec.Failures = append(rec.Failures, mismatch...)
		if k == 0 {
			h := sha256.New()
			digestCells(h, res)
			rec.Digest = fmt.Sprintf("sha256:%s over 1 iteration", hex.EncodeToString(h.Sum(nil))[:32])
			rec.Cells, _ = describeCells([]*sweep.Result{res})
		}
		iters = append(iters, it)
		roots = append(roots, root)
	}
	rec.Iterations = len(iters)
	if len(iters) == 0 {
		rec.Result = result{Correct: false, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
		return nil
	}

	self := tr.selfTimes()
	perName := map[string][]float64{}
	for i, it := range iters {
		it.self = tr.selfByName(self, roots[i])
		for name, ns := range it.self {
			perName[name] = append(perName[name], float64(ns)/1e6)
		}
	}
	rec.SelfMs = map[string]float64{}
	for name, xs := range perName {
		rec.SelfMs[name] = median(xs)
	}

	metrics := map[string]metricValue{}
	for _, lm := range layerMetrics {
		vals := make([]float64, len(iters))
		for i, it := range iters {
			vals[i] = lm.value(it)
		}
		v := vals[0]
		if lm.timed {
			v = median(vals)
		} else {
			for i := range vals {
				if math.Float64bits(vals[i]) != math.Float64bits(v) {
					failed++
					rec.Failures = append(rec.Failures, fmt.Sprintf("%s: iteration %d counted %v, iteration 0 %v",
						lm.name, i, vals[i], v))
					break
				}
			}
		}
		metrics[lm.name] = metricValue{v, lm.unit}
	}
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	return tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed)))
}

func writeRecord(rec *record) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// describeLayers prints the per-layer metrics with their source and the
// change each should show.
func describeLayers(w io.Writer) {
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "%s [%s, %s is better]\n  source: %s\n  should move: %s\n  shows on: %s\n",
			lm.name, lm.unit, lm.better, lm.source, lm.moves, lm.shows)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
