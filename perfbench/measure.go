package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// phaseMeter accounts one measured phase: the process CPU time and the
// peak live heap around the timed calls, the garbage collector's work,
// and — when counting allocations — the heap objects the calls allocate.
// Allocations are counted with runtime.ReadMemStats, which counts tiny
// objects and flushes every per-P cache, so a pair of readings brackets
// one call exactly; but it stops the world and empties the allocation
// caches before the call, so only traced passes count them and untraced
// timings stay clean.
type phaseMeter struct {
	countAllocs bool

	ms       runtime.MemStats
	live     []rtmetrics.Sample
	mallocs0 uint64
	bytes0   uint64
	allocs   uint64
	bytes    uint64
	peakLive uint64
	gc0      debug.GCStats
	gcCycles int64
	gcPause  time.Duration
	began    time.Time
	wall     time.Duration
	metering time.Duration // spent reading the counters, left out of wall
	cpu0     time.Duration
}

// begin collects garbage left by set-up, so the live-heap peak and the
// GC counters cover the measured phase alone.
func (p *phaseMeter) begin(countAllocs bool) {
	p.countAllocs = countAllocs
	p.live = []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	debug.ReadGCStats(&p.gc0)
	p.peakLive = p.liveHeap()
	p.began = time.Now()
}

func (p *phaseMeter) liveHeap() uint64 {
	rtmetrics.Read(p.live)
	return p.live[0].Value.Uint64()
}

// enter and leave bracket one measured call; leave returns the process
// CPU time, all threads, the call used.
func (p *phaseMeter) enter() {
	if p.countAllocs {
		t := time.Now()
		runtime.ReadMemStats(&p.ms)
		p.mallocs0, p.bytes0 = p.ms.Mallocs, p.ms.TotalAlloc
		p.metering += time.Since(t)
	}
	p.cpu0 = processCPU()
}

func (p *phaseMeter) leave() time.Duration {
	cpu := processCPU() - p.cpu0
	t := time.Now()
	if p.countAllocs {
		runtime.ReadMemStats(&p.ms)
		p.allocs += p.ms.Mallocs - p.mallocs0
		p.bytes += p.ms.TotalAlloc - p.bytes0
	}
	if live := p.liveHeap(); live > p.peakLive {
		p.peakLive = live
	}
	p.metering += time.Since(t)
	return cpu
}

// end closes the phase; a final collection makes heap growth during the
// phase (the SLO workload's latency log) visible in the live peak.
func (p *phaseMeter) end() {
	p.wall = time.Since(p.began) - p.metering
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	p.gcCycles = gc1.NumGC - p.gc0.NumGC
	p.gcPause = gc1.PauseTotal - p.gc0.PauseTotal
	runtime.GC()
	if live := p.liveHeap(); live > p.peakLive {
		p.peakLive = live
	}
}

// processCPU reads the CPU time all of the process's threads have used.
func processCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_PROCESS_CPUTIME_ID cannot fail on Linux; a zero reading would
	// only zero the CPU figure.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// span is one benchmark-side trace record: a call into a layer, timed
// from outside it. Step is the control-interval or coordinator-round id
// the call belongs to; Parent links it to the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Step   uint64 `json:"step"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory, bounded, until the run writes them
// out. A nil log records nothing.
type spanLog struct {
	epoch   time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

const maxSpans = 400000

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newID reserves a span id, so a parent's id can be handed to children
// recorded before the parent itself ends.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

// at converts a wall time to the log's offset.
func (l *spanLog) at(t time.Time) int64 {
	if l == nil {
		return 0
	}
	return int64(t.Sub(l.epoch))
}

func (l *spanLog) record(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// add records a finished span and returns its id for children.
func (l *spanLog) add(parent uint64, name string, step uint64, start time.Time, dur time.Duration) uint64 {
	id := l.newID()
	l.record(span{ID: id, Parent: parent, Name: name, Step: step, Start: l.at(start), Dur: int64(dur)})
	return id
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if l.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", l.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
