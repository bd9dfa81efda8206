package stats

import "math"

// LogHist layout: 64 sub-buckets per power-of-two octave, taken from
// the exponent and the top logHistSubBits mantissa bits of a float64,
// over the octaves [2^logHistMinExp, 2^logHistMaxExp).
const (
	logHistSubBits = 6
	logHistSub     = 1 << logHistSubBits
	logHistMinExp  = -20 // 2^-20 ≈ 0.95e-6
	logHistMaxExp  = 8   // 2^8 = 256
	logHistOctaves = logHistMaxExp - logHistMinExp
	logHistBuckets = logHistOctaves * logHistSub
)

// LogHistMin and LogHistMax bound the range a LogHist resolves: with
// values in seconds, roughly 1 µs to 256 s. Values below LogHistMin
// (including zero, negatives and NaN) count in the first bucket and
// values at or above LogHistMax in the last.
const (
	LogHistMin = 1.0 / (1 << -logHistMinExp)
	LogHistMax = 1 << logHistMaxExp
)

// LogHist is a fixed-layout log-bucketed histogram of positive values:
// 64 buckets per octave from LogHistMin to LogHistMax, uint32 counts,
// about 7 KB with no pointers. Recording is O(1); histograms with the
// same layout add and subtract exactly, so a sliding window is a ring
// of slices plus a running total, and a fleet view is a sum. Quantiles
// answer several percentiles in one walk, each within 1/128 (half a
// bucket's width over its lower edge) of the exact sample percentile
// for in-range values; per-octave totals let the walk skip whole
// octaves and scan buckets only inside the octave it stops in. A
// bucket or octave holding 2^32 values wraps; a latency window never
// comes near that.
type LogHist struct {
	counts [logHistBuckets]uint32
	octs   [logHistOctaves]uint32 // per-octave sums of counts
	n      uint64
}

// logHistBucket maps x to its bucket, clamping out-of-range values.
func logHistBucket(x float64) int {
	if !(x >= LogHistMin) {
		return 0
	}
	if x >= LogHistMax {
		return logHistBuckets - 1
	}
	b := math.Float64bits(x)
	exp := int(b>>52&0x7ff) - 1023
	return (exp-logHistMinExp)<<logHistSubBits | int(b>>(52-logHistSubBits)&(logHistSub-1))
}

// logHistMid returns the midpoint of bucket i.
func logHistMid(i int) float64 {
	m := float64(i&(logHistSub-1)) + 0.5
	return math.Ldexp(1+m/logHistSub, i>>logHistSubBits+logHistMinExp)
}

// Record counts one value.
func (h *LogHist) Record(x float64) {
	i := logHistBucket(x)
	h.counts[i]++
	h.octs[i>>logHistSubBits]++
	h.n++
}

// Count reports the number of values recorded.
func (h *LogHist) Count() uint64 { return h.n }

// Reset empties the histogram.
func (h *LogHist) Reset() { *h = LogHist{} }

// Add folds o's counts into h, touching only o's occupied octaves.
func (h *LogHist) Add(o *LogHist) {
	for j, c := range &o.octs {
		if c == 0 {
			continue
		}
		h.octs[j] += c
		for i := j << logHistSubBits; i < (j+1)<<logHistSubBits; i++ {
			h.counts[i] += o.counts[i]
		}
	}
	h.n += o.n
}

// Sub removes o's counts from h; o must be part of what h counted.
func (h *LogHist) Sub(o *LogHist) {
	for j, c := range &o.octs {
		if c == 0 {
			continue
		}
		h.octs[j] -= c
		for i := j << logHistSubBits; i < (j+1)<<logHistSubBits; i++ {
			h.counts[i] -= o.counts[i]
		}
	}
	h.n -= o.n
}

// Quantiles appends the ps-th percentiles (0 <= p <= 100) of the
// recorded values to dst and returns it. Each is PercentileSorted's
// linear interpolation between the two bracketing ranks, with each
// rank's value read as its bucket's midpoint. An empty histogram
// answers zeros. Ascending ps are answered in one walk over the
// octaves; the call never allocates beyond growing dst.
func (h *LogHist) Quantiles(ps, dst []float64) []float64 {
	var c histCursor
	for _, p := range ps {
		if h.n == 0 {
			dst = append(dst, 0)
			continue
		}
		if !(p > 0) {
			p = 0
		} else if p > 100 {
			p = 100
		}
		rank := p / 100 * float64(h.n-1)
		lo := math.Floor(rank)
		v := h.seek(&c, uint64(lo))
		if frac := rank - lo; frac > 0 {
			if hi := h.seek(&c, uint64(lo)+1); hi != v {
				v = v*(1-frac) + hi*frac
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// histCursor is a position in a walk over the octaves: octave o, with
// below values counted in the octaves before it.
type histCursor struct {
	o     int
	below uint64
}

// seek moves c to the octave holding the k-th smallest value (0-based,
// k < h.n) and returns the midpoint of that value's bucket. A rank
// behind the cursor restarts the walk from the first octave.
func (h *LogHist) seek(c *histCursor, k uint64) float64 {
	if k < c.below {
		*c = histCursor{}
	}
	for c.below+uint64(h.octs[c.o]) <= k {
		c.below += uint64(h.octs[c.o])
		c.o++
	}
	i, below := c.o<<logHistSubBits, c.below
	for below+uint64(h.counts[i]) <= k {
		below += uint64(h.counts[i])
		i++
	}
	return logHistMid(i)
}
