package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

var histPercentiles = []float64{0, 1, 25, 50, 90, 99, 99.9, 100}

// checkHistQuantiles records xs into a LogHist and checks every answer
// against the exact PercentileSorted one: it must lie within
// [0.99·x_lo, 1.01·x_hi], where x_lo and x_hi are the samples at the
// two ranks the exact answer interpolates between. Values outside the
// histogram's range are compared as the value it clamps them to.
func checkHistQuantiles(t *testing.T, xs []float64) {
	t.Helper()
	var h LogHist
	sorted := make([]float64, len(xs))
	for i, x := range xs {
		h.Record(x)
		sorted[i] = math.Min(math.Max(x, LogHistMin), LogHistMax)
		if math.IsNaN(x) {
			sorted[i] = LogHistMin
		}
	}
	sort.Float64s(sorted)
	if h.Count() != uint64(len(xs)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(xs))
	}
	got := h.Quantiles(histPercentiles, nil)
	if len(got) != len(histPercentiles) {
		t.Fatalf("Quantiles returned %d answers for %d percentiles", len(got), len(histPercentiles))
	}
	for i, p := range histPercentiles {
		if len(xs) == 0 {
			if got[i] != 0 {
				t.Errorf("p%g of an empty histogram = %g, want 0", p, got[i])
			}
			continue
		}
		rank := p / 100 * float64(len(sorted)-1)
		xlo, xhi := sorted[int(math.Floor(rank))], sorted[int(math.Ceil(rank))]
		if got[i] < 0.99*xlo || got[i] > 1.01*xhi {
			t.Errorf("n=%d p%g = %g, exact %g outside [0.99·%g, 1.01·%g]",
				len(xs), p, got[i], PercentileSorted(sorted, p), xlo, xhi)
		}
	}
}

func TestLogHistQuantilesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int, f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	cases := []struct {
		name string
		xs   []float64
	}{
		{"empty", nil},
		{"single", []float64{0.0123}},
		{"all-equal", gen(1000, func() float64 { return 0.05 })},
		{"uniform", gen(5000, func() float64 { return 0.001 + 0.2*rng.Float64() })},
		{"lognormal", gen(5000, func() float64 { return math.Exp(rng.NormFloat64()*1.5 - 4) })},
		{"heavy-tail", gen(5000, func() float64 { return 0.002 / math.Pow(1-rng.Float64(), 1/1.2) })},
		{"two-samples", []float64{0.01, 0.5}},
		{"out-of-range", []float64{0, -1, 1e-9, math.NaN(), 1e3, math.Inf(1), 0.02, 0.03}},
		{"range-edges", []float64{LogHistMin, math.Nextafter(LogHistMax, 0), LogHistMax}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkHistQuantiles(t, c.xs) })
	}
}

func TestLogHistBucketMidpoints(t *testing.T) {
	// Every bucket's midpoint maps back to that bucket.
	for i := 0; i < logHistBuckets; i++ {
		if got := logHistBucket(logHistMid(i)); got != i {
			t.Fatalf("bucket %d midpoint %g maps to bucket %d", i, logHistMid(i), got)
		}
	}
}

func TestLogHistAddSubRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, sum LogHist
	for i := 0; i < 3000; i++ {
		a.Record(math.Exp(rng.NormFloat64() - 3))
		b.Record(rng.Float64())
	}
	sum.Add(&a)
	sum.Add(&b)
	if sum.Count() != a.Count()+b.Count() {
		t.Fatalf("Count after Add = %d, want %d", sum.Count(), a.Count()+b.Count())
	}
	sum.Sub(&b)
	if sum != a {
		t.Fatal("Add then Sub of b did not return to a")
	}
	sum.Sub(&a)
	if sum != (LogHist{}) {
		t.Fatal("Add followed by Sub did not return to all-zero")
	}
	a.Reset()
	if a != (LogHist{}) {
		t.Fatal("Reset left counts behind")
	}
}

func TestLogHistUnorderedPercentiles(t *testing.T) {
	var h LogHist
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i) * 1e-3)
	}
	asc := h.Quantiles([]float64{10, 50, 99}, nil)
	mixed := h.Quantiles([]float64{99, 10, 50}, nil)
	if mixed[0] != asc[2] || mixed[1] != asc[0] || mixed[2] != asc[1] {
		t.Errorf("unordered percentiles %v disagree with ordered %v", mixed, asc)
	}
}

func TestLogHistQuantilesZeroAlloc(t *testing.T) {
	var h LogHist
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i) * 1e-4)
	}
	ps := []float64{50, 90, 99}
	dst := make([]float64, 0, len(ps))
	if n := testing.AllocsPerRun(100, func() {
		h.Record(0.01)
		dst = h.Quantiles(ps, dst[:0])
	}); n != 0 {
		t.Errorf("Record+Quantiles allocs = %v, want 0", n)
	}
}

// FuzzLogHistQuantiles checks the accuracy bound on arbitrary samples:
// the input bytes are read as little-endian float64 values.
func FuzzLogHistQuantiles(f *testing.F) {
	enc := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc())
	f.Add(enc(0.05))
	f.Add(enc(0.001, 0.002, 0.004, 0.5, 3))
	f.Add(enc(0, -2, math.NaN(), math.Inf(1), 1e-12, 1e12))
	f.Add(enc(LogHistMin, LogHistMax, 1, 1, 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, 0, len(b)/8)
		for ; len(b) >= 8; b = b[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		checkHistQuantiles(t, xs)
	})
}

// BenchmarkLogHistQuantiles reads p50/p90/p99 from a window-sized
// histogram of millisecond-scale latencies.
func BenchmarkLogHistQuantiles(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var h LogHist
	for i := 0; i < 10000; i++ {
		h.Record(math.Exp(rng.NormFloat64() - 4.5))
	}
	ps := []float64{50, 90, 99}
	dst := make([]float64, 0, len(ps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = h.Quantiles(ps, dst[:0])
	}
}
