package obs

import "testing"

func TestSeriesWraparound(t *testing.T) {
	s := NewSeries(4)
	if s.Cap() != 4 || s.Len() != 0 {
		t.Fatalf("fresh ring: cap %d len %d", s.Cap(), s.Len())
	}
	// Partial fill preserves order.
	for i := 0; i < 3; i++ {
		s.Add(SeriesPoint{Interval: i})
	}
	pts := s.Points()
	if len(pts) != 3 || pts[0].Interval != 0 || pts[2].Interval != 2 {
		t.Fatalf("partial ring = %v", pts)
	}
	// Overfill: the ring keeps the most recent Cap() samples,
	// oldest-first.
	for i := 3; i < 10; i++ {
		s.Add(SeriesPoint{Interval: i})
	}
	pts = s.Points()
	if len(pts) != 4 {
		t.Fatalf("wrapped ring length = %d, want 4", len(pts))
	}
	for i, p := range pts {
		if p.Interval != 6+i {
			t.Fatalf("wrapped ring = %v, want intervals 6..9 in order", pts)
		}
	}
	if s.Len() != 4 {
		t.Errorf("Len after wrap = %d", s.Len())
	}
}

func TestSeriesExactBoundary(t *testing.T) {
	// Filling to exactly Cap() flips the ring to full without losing
	// or reordering anything.
	s := NewSeries(3)
	for i := 0; i < 3; i++ {
		s.Add(SeriesPoint{Interval: i})
	}
	pts := s.Points()
	if len(pts) != 3 || pts[0].Interval != 0 || pts[2].Interval != 2 {
		t.Fatalf("boundary ring = %v", pts)
	}
	s.Add(SeriesPoint{Interval: 3})
	pts = s.Points()
	if len(pts) != 3 || pts[0].Interval != 1 || pts[2].Interval != 3 {
		t.Fatalf("post-boundary ring = %v", pts)
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	s.Add(SeriesPoint{})
	if s.Points() != nil || s.Len() != 0 || s.Cap() != 0 {
		t.Error("nil series not inert")
	}
}

func TestSeriesDefaultCap(t *testing.T) {
	if got := NewSeries(0).Cap(); got != DefaultSeriesCap {
		t.Errorf("default cap = %d, want %d", got, DefaultSeriesCap)
	}
	if got := NewSeries(-5).Cap(); got != DefaultSeriesCap {
		t.Errorf("negative cap = %d, want %d", got, DefaultSeriesCap)
	}
}

// TestObserverSamplesSeriesAtIntervalEnd checks every interval lands in
// the shared ring whether or not a tracer is attached: -status and
// -metrics serve the ring without -trace.
func TestObserverSamplesSeriesAtIntervalEnd(t *testing.T) {
	for name, opts := range map[string]Options{
		"traced":      {Tracer: NewJSONLTracer(discardWriter{}), Now: fakeClock()},
		"metricsOnly": {Now: fakeClock()},
	} {
		t.Run(name, func(t *testing.T) {
			o := New(opts)
			o.CampaignStart(0, 0)
			o.IntervalStart(0, 0)
			o.IntervalEnd(100, 5, 1000)
			w := o.ForWorker(2)
			w.IntervalStart(100, 5)
			w.IntervalEnd(250, 9, 1000)
			o.CampaignEnd(250, 9)

			pts := o.Series().Points()
			if len(pts) != 2 {
				t.Fatalf("series samples = %d, want 2 (lanes share the ring)", len(pts))
			}
			if pts[0].Worker != 0 || pts[0].Vectors != 100 || pts[0].Points != 5 {
				t.Errorf("sample 0 = %+v", pts[0])
			}
			if pts[1].Worker != 2 || pts[1].Vectors != 250 || pts[1].Interval != 0 {
				t.Errorf("sample 1 = %+v", pts[1])
			}
			if snap := o.Snapshot(); len(snap.Series) != 2 {
				t.Errorf("snapshot series = %d samples, want 2", len(snap.Series))
			}
		})
	}
}

// discardWriter is an io.Writer that drops everything (avoids an
// io.Discard import dance in tests that only need a live tracer).
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestQuantileEdges(t *testing.T) {
	// Empty histogram: every quantile is 0.
	h := NewHistogram(nil)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram q=%v = %d, want 0", q, got)
		}
	}

	// Single sample: every quantile is exactly that sample.
	h = NewHistogram(nil)
	h.Observe(1234)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 1234 {
			t.Errorf("single-sample q=%v = %d, want 1234", q, got)
		}
	}

	// All-equal samples: quantiles collapse to the common value even
	// though the bucket bound is coarser.
	h = NewHistogram(nil)
	for i := 0; i < 100; i++ {
		h.Observe(7_777)
	}
	for _, q := range []float64{0.01, 0.5, 0.999} {
		if got := h.Quantile(q); got != 7_777 {
			t.Errorf("all-equal q=%v = %d, want 7777", q, got)
		}
	}

	// Out-of-range q clamps instead of panicking.
	if h.Quantile(-1) != 7_777 || h.Quantile(2) != 7_777 {
		t.Error("out-of-range q did not clamp")
	}

	// Two well-separated values: the median lands in the lower
	// bucket's bound, p99 in the upper value's bucket (clamped to max).
	h = NewHistogram(nil)
	for i := 0; i < 90; i++ {
		h.Observe(900) // below the first bound (1µs)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3_000_000) // 3ms
	}
	if got := h.Quantile(0.5); got != 1_000 {
		t.Errorf("p50 = %d, want 1000 (first bucket bound)", got)
	}
	if got := h.Quantile(0.99); got != 3_000_000 {
		t.Errorf("p99 = %d, want 3000000 (clamped to max)", got)
	}

	// Overflow bucket: observations beyond the last bound report max.
	h = NewHistogram([]int64{10})
	h.Observe(5)
	h.Observe(50_000)
	if got := h.Quantile(1); got != 50_000 {
		t.Errorf("overflow q=1 = %d, want 50000", got)
	}
}
