package stats

// HistogramBuckets is the fixed bucket count of Histogram. Fixing the
// count (rather than the range) keeps the type a plain value — no slice,
// no allocation — so the simulator can embed histograms in its
// per-store metrics, copy them when publishing snapshots, and merge
// per-store partials with plain integer adds, all without touching the
// heap.
const HistogramBuckets = 64

// Histogram is a fixed-bucket, mergeable histogram of float64 samples.
// Bucket i counts samples in [i*Width, (i+1)*Width); samples at or past
// HistogramBuckets*Width land in the Over bucket (Max still records the
// exact largest sample). The zero value is inert: it merges as an
// identity element and adopts the width of the first non-zero histogram
// merged into it, which is what lets a zero Metrics accumulator fold
// per-store partials without knowing the widths up front.
//
// Histogram is a value type. Observe and Merge mutate through a
// pointer; copying a Histogram snapshots it.
type Histogram struct {
	// Width is the bucket width. It is fixed at construction
	// (NewHistogram) and must match across merged histograms.
	Width  float64
	Counts [HistogramBuckets]uint64
	// Over counts samples >= HistogramBuckets*Width.
	Over uint64
	// N, Sum and Max summarize all samples, including overflowed ones.
	N   uint64
	Sum float64
	Max float64
}

// NewHistogram returns an empty histogram with the given bucket width.
func NewHistogram(width float64) Histogram {
	if width <= 0 {
		panic("stats: histogram width must be positive")
	}
	return Histogram{Width: width}
}

// Observe records one sample. Negative samples clamp into bucket 0.
func (h *Histogram) Observe(v float64) {
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	if v < 0 {
		v = 0
	}
	i := int(v / h.Width)
	if i >= HistogramBuckets {
		h.Over++
		return
	}
	h.Counts[i]++
}

// Merge folds o into h. An empty zero-width operand is a no-op; a
// zero-width receiver adopts o's width. Merging two configured
// histograms of different widths panics — their buckets are not
// commensurable.
func (h *Histogram) Merge(o Histogram) {
	if o.Width == 0 && o.N == 0 {
		return
	}
	if h.Width == 0 {
		h.Width = o.Width
	} else if o.Width != 0 && o.Width != h.Width {
		panic("stats: merging histograms with different bucket widths")
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	h.Over += o.Over
	h.N += o.N
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// Mean returns the mean of all observed samples (0 when empty).
func (h Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// upper edge of the bucket holding the sample of that rank, or Max when
// the rank falls in the overflow region. Quantile(1) of a non-empty
// histogram with no overflow therefore bounds the largest sample from
// above, while Max is exact.
func (h Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.N))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			return float64(i+1) * h.Width
		}
	}
	return h.Max
}
