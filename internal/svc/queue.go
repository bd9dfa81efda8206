package svc

import (
	"time"

	"repro/internal/stats"
)

// wakeHeap is a min-heap of closed-loop wake times. It reimplements
// container/heap's sift algorithms over a concrete []time.Duration so
// pushes never box values into interfaces (the tick path must not
// allocate), while moving elements exactly as container/heap does —
// the original websearch model used container/heap, and bit-identical
// replay of it depends on identical ordering among equal keys.
type wakeHeap []time.Duration

func (h wakeHeap) len() int { return len(h) }

// min returns the earliest wake time; the heap must be non-empty.
func (h wakeHeap) min() time.Duration { return h[0] }

func (h *wakeHeap) push(at time.Duration) {
	*h = append(*h, at)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *wakeHeap) pop() time.Duration {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2] < s[j1] {
			j = j2
		}
		if s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	x := s[n]
	*h = s[:n]
	return x
}

// reqRing is a FIFO of requests backed by a ring so steady-state
// push/pop cycles never reallocate (a plain slice queue slides its
// window forward and forces append to re-grow periodically).
type reqRing struct {
	buf  []*request
	head int
	n    int
}

func (r *reqRing) len() int { return r.n }

func (r *reqRing) push(q *request) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *reqRing) pop() *request {
	if r.n == 0 {
		return nil
	}
	q := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

func (r *reqRing) grow() {
	size := len(r.buf) * 2
	if size < 16 {
		size = 16
	}
	nb := make([]*request, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
}

// windowSlice is the span of one slice of the sliding latency window.
const windowSlice = time.Second

// latSlice holds the completions of one virtual second.
type latSlice struct {
	hist stats.LogHist
	sum  float64 // seconds
}

// latWindow is a sliding latency histogram made of whole 1 s slices: a
// ring holding the live slice and the ceil(span/1s) slices before it,
// plus their running total. Recording is O(1); rotation subtracts the
// expiring slice from the total once per virtual second, and a
// percentile read walks the total once. Memory is fixed at
// (slices + 1) histograms under any completion rate.
type latWindow struct {
	slices []latSlice
	sec    int64 // virtual second of the live slice
	total  stats.LogHist
}

func newLatWindow(span time.Duration) latWindow {
	n := int((span+windowSlice-1)/windowSlice) + 1
	return latWindow{slices: make([]latSlice, n)}
}

// advance rotates the ring so the live slice is the one holding now,
// dropping the slices that fell out of the window.
func (w *latWindow) advance(now time.Duration) {
	sec := int64(now / windowSlice)
	if sec <= w.sec {
		return
	}
	n := int64(len(w.slices))
	for s := max(w.sec+1, sec-n+1); s <= sec; s++ {
		sl := &w.slices[s%n]
		w.total.Sub(&sl.hist)
		sl.hist.Reset()
		sl.sum = 0
	}
	w.sec = sec
}

func (w *latWindow) record(at time.Duration, lat float64) {
	w.advance(at)
	sl := &w.slices[w.sec%int64(len(w.slices))]
	sl.hist.Record(lat)
	sl.sum += lat
	w.total.Record(lat)
}

// covered reports the span of virtual time the live slices cover,
// ending at now (the first slices of a run start at zero).
func (w *latWindow) covered(now time.Duration) time.Duration {
	start := time.Duration(w.sec-int64(len(w.slices))+1) * windowSlice
	return now - max(start, 0)
}

func (w *latWindow) mean() float64 {
	n := w.total.Count()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := range w.slices {
		sum += w.slices[i].sum
	}
	return sum / float64(n)
}
