package main

import (
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// its speed drifts by 15–30% over minutes as neighbours come and go: the same
// study at the same seed takes 1.0 s in one minute and 1.4 s in the next.
// A run therefore times a fixed speed probe after every study iteration,
// and reports host times scaled to the speed at which the probe takes
// probeRefSeconds. The probe is benchmark code that no change to the
// simulator touches, so a change that slows the simulator still shows in
// full; only the host's own drift cancels.

// probeRefSeconds is about the probe's duration on the reference host
// (2-vCPU Xeon VM, Go 1.24). It only fixes the scale of the reported
// times, which are host seconds on a host where the probe takes this long.
const probeRefSeconds = 0.040

// speedProbe is a fixed amount of work shaped like the simulator's hot
// loop: an event calendar (binary heap of (time, seq) pairs), a page table
// lookup (map over a fixed key set), random access to a table larger than
// the per-core caches, and exponential variates. All its memory is
// allocated once, so running it neither allocates nor triggers a
// collection, and its time does not depend on the heap the study left
// behind. The table is mapped outside the Go heap, so it does not raise
// the collector's heap goal for the study either.
type speedProbe struct {
	table []uint64
	pages map[uint32]uint32
	heap  []probeEvent
}

type probeEvent struct {
	at  float64
	seq uint64
}

const (
	probeTableWords = 1 << 18 // 2 MiB
	probePages      = 1 << 12
	probeEvents     = 1 << 10
	probeSteps      = 150_000
)

func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeTableWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &speedProbe{
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeTableWords),
		pages: make(map[uint32]uint32, probePages),
		heap:  make([]probeEvent, 0, probeEvents+1),
	}
	for i := uint32(0); i < probePages; i++ {
		p.pages[i] = i
	}
	return p, nil
}

// sample runs the probe repeatedly until it has taken a tenth of study
// seconds, at least once, and returns its mean duration in seconds.
// Probing in proportion to the study keeps the probe's own noise the same
// share of every workload's result.
func (p *speedProbe) sample(study float64) float64 {
	spent, n := 0.0, 0
	for n == 0 || spent < study/10 {
		spent += p.run()
		n++
	}
	return spent / float64(n)
}

// run performs the probe's fixed work and returns its duration in seconds.
func (p *speedProbe) run() float64 {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	p.heap = p.heap[:0]
	now := 0.0
	var seq uint64
	for i := 0; i < probeEvents; i++ {
		seq++
		p.push(probeEvent{at: now + float64(next()%1000), seq: seq})
	}
	var acc uint64
	for i := 0; i < probeSteps; i++ {
		ev := p.pop()
		now = ev.at
		r := next()
		page := uint32(r % probePages)
		frame := p.pages[page]
		p.pages[page] = frame + 1
		w := (r >> 20) & (probeTableWords - 1)
		p.table[w] += uint64(frame) ^ ev.seq
		acc += p.table[(w*0x9E37)&(probeTableWords-1)]
		u := float64(r>>11) / (1 << 53)
		seq++
		p.push(probeEvent{at: now - 10*math.Log(1-u), seq: seq})
	}
	probeSink += acc
	return time.Since(t0).Seconds()
}

// probeSink keeps the probe's result live.
var probeSink uint64

func (e probeEvent) before(f probeEvent) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

func (p *speedProbe) push(e probeEvent) {
	h := append(p.heap, e)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !h[i].before(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	p.heap = h
}

func (p *speedProbe) pop() probeEvent {
	h := p.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	p.heap = h
	return top
}
