// Package metrics is the repo's dependency-free instrumentation core:
// atomic counters, gauges, and fixed-bucket histograms behind a Registry
// that exposes everything in the Prometheus text format.
//
// The package is built to the repo's standing performance bar: the hot
// path — Counter.Inc, Gauge.Set/Max, Histogram.Observe — performs ZERO
// heap allocations per call (locked by TestHotPathAllocFree and priced by
// BenchmarkMetricsHotPath). Everything that could allocate is paid once,
// at registration: series are pre-registered with their label sets
// rendered to a string up front, so recording a sample is a couple of
// atomic operations with no map lookups, no interface boxing, and no
// label formatting. Exposition (WritePrometheus) is the cold path and may
// allocate freely; it reads the same atomics the writers bump, so a
// scrape never blocks a recording site.
//
// All native values are int64 in the unit the caller measures in
// (nanoseconds, bytes, bits, counts). A histogram may carry an exposition
// scale — 1e-9 turns nanosecond observations into the seconds Prometheus
// conventions expect — applied only when rendering, so the hot path never
// touches floating point.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use; counters handed out by a Registry are pre-registered for
// exposition.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative to keep the counter monotone; this
// is not checked on the hot path).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Max raises the gauge to v if v exceeds the current value — the
// high-water-mark idiom (e.g. largest message seen). Safe under
// concurrent Max and Set.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is wait-free — a bounded binary search over the
// bucket bounds plus two atomic adds — and performs zero heap
// allocations, so it can sit on the engine and serving hot paths.
//
// Bounds are upper bucket edges in the native unit, strictly ascending;
// an implicit +Inf bucket catches everything past the last bound. A
// sample equal to a bound lands in that bound's bucket (Prometheus "le"
// semantics).
type Histogram struct {
	bounds []int64
	scale  float64 // exposition multiplier (0 treated as 1)
	counts []atomic.Int64
	sum    atomic.Int64
}

// newHistogram validates bounds and builds the bucket array.
func newHistogram(bounds []int64, scale float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %d <= %d",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: bounds,
		scale:  scale,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the time elapsed since start, in nanoseconds —
// sugar for the dominant duration-histogram call site.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values, in the native unit.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (q in [0,1]) in the native unit by
// linear interpolation within the bucket holding the target rank; samples
// in the +Inf bucket clamp to the last finite bound. It returns 0 before
// the first observation, so callers can gate decisions on "do we know
// anything yet". Allocation-free, so admission-control paths may call it
// per request.
func (h *Histogram) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			var lo int64
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + int64(frac*float64(h.bounds[i]-lo))
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n log-spaced upper bounds starting at start, each
// subsequent bound the previous times factor (at least +1, so bounds stay
// strictly ascending even for factors near 1).
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start < 1 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start >= 1, factor > 1, n >= 1")
	}
	b := make([]int64, n)
	v := start
	for i := range b {
		b[i] = v
		next := int64(math.Round(float64(v) * factor))
		if next <= v {
			next = v + 1
		}
		v = next
	}
	return b
}

// Pow2Buckets returns n power-of-two upper bounds: start, 2·start,
// 4·start, ... — the size-bucket convention (bytes, bits, message
// counts).
func Pow2Buckets(start int64, n int) []int64 {
	if start < 1 || n < 1 {
		panic("metrics: Pow2Buckets needs start >= 1, n >= 1")
	}
	b := make([]int64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// DurationBounds is the standard latency bucket ladder: log-spaced from
// 100µs to ~26s (factor 2, 19 buckets), covering everything from a warm
// cache-hit query to a default 30s deadline. Histograms registered with
// it should use DurationScale so exposition is in seconds.
var DurationBounds = ExpBuckets(int64(100*time.Microsecond), 2, 19)

// DurationScale converts nanosecond observations to seconds at
// exposition.
const DurationScale = 1e-9

// Label is one name="value" pair attached to a series at registration.
type Label struct{ Name, Value string }

// L is shorthand for Label{Name: n, Value: v}.
func L(n, v string) Label { return Label{Name: n, Value: v} }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// series is one label combination of a family. Exactly one of the value
// fields is set, matching the family kind; fn-backed series are read at
// scrape time (for values whose truth already lives elsewhere, e.g. a
// server's mutex-guarded cache size).
type series struct {
	labels string // pre-rendered `{a="b",c="d"}`, or ""
	c      *Counter
	g      *Gauge
	fn     func() int64
	h      *Histogram
}

// family is all series sharing one metric name (and therefore one
// HELP/TYPE block).
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// Registry holds pre-registered series and renders them in the
// Prometheus text format. Register everything up front (registration
// takes a lock and allocates; recording does neither). All methods are
// safe for concurrent use. Registering the same (name, labels) twice, or
// the same name with a different kind or help, panics: both are
// programming errors a test catches on first scrape anyway.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(name, help string, k kind, s *series) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else {
		if f.kind != k {
			panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.kind, k))
		}
		if f.help != help {
			panic(fmt.Sprintf("metrics: %s registered with two help strings", name))
		}
	}
	for _, existing := range f.series {
		if existing.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), c: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counts whose source of truth already exists elsewhere. fn
// must be safe for concurrent use and monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: renderLabels(labels), fn: fn})
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), g: g})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time. fn must be
// safe for concurrent use; it may take locks (a scrape tolerates brief
// blocking; recording sites never call it).
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: renderLabels(labels), fn: fn})
}

// Histogram registers and returns a histogram series with the given
// upper bucket bounds (native unit, strictly ascending; +Inf is
// implicit). scale multiplies values and bounds at exposition only (0
// means 1); use DurationScale for nanosecond-native latency histograms
// so the rendered unit is seconds.
func (r *Registry) Histogram(name, help string, bounds []int64, scale float64, labels ...Label) *Histogram {
	h := newHistogram(bounds, scale)
	r.register(name, help, kindHistogram, &series{labels: renderLabels(labels), h: h})
	return h
}

// renderLabels renders a label set once, at registration, with
// Prometheus escaping — the hot path never formats labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format, in registration order: a HELP and TYPE line per
// family, then one sample line per series (bucket/sum/count triples for
// histograms, with cumulative buckets and a trailing +Inf). Values are
// read from the live atomics, so concurrent recording skews a scrape by
// at most the samples that land mid-write — never blocks it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := make([]byte, 0, 4096)
	for _, f := range r.families {
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(f.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind.String()...)
		buf = append(buf, '\n')
		for _, s := range f.series {
			switch f.kind {
			case kindCounter, kindGauge:
				var v int64
				switch {
				case s.c != nil:
					v = s.c.Value()
				case s.g != nil:
					v = s.g.Value()
				default:
					v = s.fn()
				}
				buf = append(buf, f.name...)
				buf = append(buf, s.labels...)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, v, 10)
				buf = append(buf, '\n')
			case kindHistogram:
				buf = appendHistogram(buf, f.name, s)
			}
		}
		if len(buf) > 1<<15 {
			if _, err := w.Write(buf); err != nil { //ckvet:ignore scrape path; r.mu guards registration, not the atomic hot ops
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf) //ckvet:ignore scrape path; r.mu guards registration, not the atomic hot ops
	return err
}

// appendHistogram renders one histogram series: cumulative _bucket lines
// (le in the scaled unit), then _sum (scaled) and _count.
func appendHistogram(buf []byte, name string, s *series) []byte {
	h := s.h
	scale := h.scale
	if scale == 0 {
		scale = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		buf = appendLeLabel(buf, s.labels, i, h.bounds, scale)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, s.labels...)
	buf = append(buf, ' ')
	buf = appendScaled(buf, h.sum.Load(), scale)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = append(buf, s.labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, cum, 10)
	buf = append(buf, '\n')
	return buf
}

// appendLeLabel merges the series labels with the bucket's le label:
// `{a="b",le="0.25"}` (or `{le="+Inf"}` for the overflow bucket).
func appendLeLabel(buf []byte, labels string, i int, bounds []int64, scale float64) []byte {
	if labels == "" {
		buf = append(buf, `{le="`...)
	} else {
		buf = append(buf, labels[:len(labels)-1]...) // strip the closing brace
		buf = append(buf, `,le="`...)
	}
	if i == len(bounds) {
		buf = append(buf, "+Inf"...)
	} else {
		buf = appendScaled(buf, bounds[i], scale)
	}
	return append(buf, `"}`...)
}

// appendScaled formats a native value in the exposition unit: integers
// stay integers when the scale is 1, scaled values use the shortest
// float form.
func appendScaled(buf []byte, v int64, scale float64) []byte {
	if scale == 1 {
		return strconv.AppendInt(buf, v, 10)
	}
	return strconv.AppendFloat(buf, float64(v)*scale, 'g', -1, 64)
}
