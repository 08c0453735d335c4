package metrics

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with every feature the exposition
// format exercises: plain and labeled counters, fn-backed series, a
// high-water gauge, an unscaled power-of-two histogram, a scaled
// duration histogram, and escaping-hostile help text and label values.
func goldenRegistry() *Registry {
	r := NewRegistry()

	reqs := r.Counter("test_requests_total", "Total requests.", L("endpoint", "query"))
	reqs.Add(41)
	reqs.Inc()
	r.Counter("test_requests_total", "Total requests.", L("endpoint", "sweep")).Add(7)

	r.CounterFunc("test_compiles_total", "Cores compiled.", func() int64 { return 3 })

	g := r.Gauge("test_in_flight", "Requests currently executing.")
	g.Set(5)
	g.Add(-2)

	hw := r.Gauge("test_max_message_bits", "Largest message seen, bits.",
		L("engine", "bsp"))
	hw.Max(96)
	hw.Max(64) // must not lower the mark

	bw := r.Gauge("test_batch_width", "Widest batched pass seen, lanes.",
		L("engine", "bsp"))
	bw.Max(1)
	bw.Max(16)
	bw.Max(4) // narrower later passes must not lower the mark

	esc := r.Gauge("test_escaping", "Help with a \\ backslash\nand a newline.",
		L("path", "a\\b"), L("quote", `say "hi"`), L("nl", "line1\nline2"))
	esc.Set(1)

	sizes := r.Histogram("test_message_bits", "Per-run message sizes, bits.",
		Pow2Buckets(8, 5), 0, L("engine", "bsp"))
	for _, v := range []int64{1, 8, 9, 64, 200} {
		sizes.Observe(v)
	}

	lat := r.Histogram("test_run_seconds", "Run latency.",
		ExpBuckets(int64(time.Millisecond), 4, 4), DurationScale)
	lat.Observe(int64(500 * time.Microsecond))
	lat.Observe(int64(3 * time.Millisecond))
	lat.Observe(int64(10 * time.Millisecond))
	lat.Observe(int64(time.Second))

	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestBucketCumulativity checks the invariant scrapers rely on: bucket
// counts are non-decreasing in le, and the +Inf bucket equals _count.
func TestBucketCumulativity(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var prev int64
	var lastBucket, count int64
	inHist := false
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.Contains(line, "_bucket{"):
			if !inHist {
				prev = 0
				inHist = true
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("bucket counts decreased: %q after %d", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				lastBucket = v
			}
		case strings.Contains(line, "_count"):
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			count = v
			if count != lastBucket {
				t.Errorf("_count %d != +Inf bucket %d (line %q)", count, lastBucket, line)
			}
			inHist = false
		}
	}
	if lastBucket == 0 {
		t.Fatal("no histogram buckets found in exposition")
	}
}

func TestHistogramObserveBoundaries(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000}, 0)
	cases := []struct {
		v    int64
		want int // bucket index
	}{
		{-5, 0}, {0, 0}, {10, 0}, // le semantics: v == bound stays in that bucket
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3}, // +Inf overflow
	}
	for _, c := range cases {
		before := h.counts[c.want].Load()
		h.Observe(c.v)
		if got := h.counts[c.want].Load(); got != before+1 {
			t.Errorf("Observe(%d): bucket %d not incremented", c.v, c.want)
		}
	}
	if got, want := h.Count(), int64(len(cases)); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(ExpBuckets(1, 2, 12), 0) // 1,2,4,...,2048
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", got)
	}
	// 100 observations uniform in [1,100]: p50 should land near 50.
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.5)
	if p50 < 32 || p50 > 64 {
		t.Errorf("p50 = %d, want within the [32,64] bucket span", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Errorf("p99 %d < p50 %d", p99, p50)
	}
	// Overflow samples clamp to the last finite bound.
	for i := 0; i < 1000; i++ {
		h.Observe(1 << 30)
	}
	if got, want := h.Quantile(0.99), int64(2048); got != want {
		t.Errorf("overflow-dominated p99 = %d, want clamp to %d", got, want)
	}
	// Out-of-range q clamps instead of panicking.
	if got := h.Quantile(-1); got < 0 {
		t.Errorf("Quantile(-1) = %d", got)
	}
	if got := h.Quantile(2); got != 2048 {
		t.Errorf("Quantile(2) = %d, want 2048", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	got := Pow2Buckets(8, 4)
	want := []int64{8, 16, 32, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pow2Buckets = %v, want %v", got, want)
		}
	}
	exp := ExpBuckets(100, 2, 5)
	for i := 1; i < len(exp); i++ {
		if exp[i] <= exp[i-1] {
			t.Fatalf("ExpBuckets not ascending: %v", exp)
		}
	}
	// Factor close to 1 must still ascend strictly.
	tight := ExpBuckets(1, 1.01, 10)
	for i := 1; i < len(tight); i++ {
		if tight[i] <= tight[i-1] {
			t.Fatalf("ExpBuckets(1, 1.01, 10) not strictly ascending: %v", tight)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "help")
	mustPanic("duplicate series", func() { r.Counter("a_total", "help") })
	mustPanic("kind mismatch", func() { r.Gauge("a_total", "help") })
	mustPanic("help mismatch", func() { r.Counter("a_total", "other help", L("x", "y")) })
	mustPanic("empty name", func() { r.Counter("", "help") })
	mustPanic("empty bounds", func() { r.Histogram("h", "help", nil, 0) })
	mustPanic("unsorted bounds", func() { r.Histogram("h", "help", []int64{5, 5}, 0) })
	// Distinct labels under one family are fine.
	r.Counter("a_total", "help", L("x", "z"))
}

// TestConcurrentScrape hammers counters and a histogram from many
// goroutines while scraping continuously; run under -race this pins the
// lock-free recording claim, and the totals must add up afterwards.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "h")
	h := r.Histogram("hot_seconds", "h", DurationBounds, DurationScale)
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(int64(w*perWriter+i) * 1000)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got, want := c.Value(), int64(writers*perWriter); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := h.Count(), int64(writers*perWriter); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}

// TestHotPathAllocFree pins the tentpole invariant: recording a sample
// into any pre-registered series, and reading one back, allocates nothing.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h", L("endpoint", "query"))
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", DurationBounds, DurationScale)
	hp := r.Histogram("h_bits", "h", Pow2Buckets(8, 20), 0)
	var v, read int64
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-1)
		g.Max(v)
		h.Observe(v)
		h.ObserveSince(start)
		hp.Observe(v)
		v += 1009
	})
	if allocs != 0 {
		t.Errorf("hot path allocates %.1f/op, want 0", allocs)
	}
	q := testing.AllocsPerRun(1000, func() {
		read = h.Quantile(0.5) + c.Value() + g.Value() + h.Count() + h.Sum() + hp.Count()
	})
	if q != 0 {
		t.Errorf("reads allocate %.1f/op, want 0", q)
	}
	if read == 0 {
		t.Error("reads saw no samples")
	}
}

func TestGaugeMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Max(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), int64(7999); got != want {
		t.Errorf("Max high-water = %d, want %d", got, want)
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`back\slash`:   `back\\slash`,
		`qu"ote`:       `qu\"ote`,
		"new\nline":    `new\nline`,
		`all\"` + "\n": `all\\\"\n`,
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Errorf("escapeHelp = %q", got)
	}
}

func BenchmarkMetricsHotPath(b *testing.B) {
	// All series are registered here, in the parent: the sub-benchmark
	// closures are re-invoked by the harness with growing b.N, and a
	// re-registration would (correctly) panic as a duplicate series.
	r := NewRegistry()
	c := r.Counter("bench_c_total", "h")
	h := r.Histogram("bench_h_seconds", "h", DurationBounds, DurationScale)
	q := r.Histogram("bench_q_seconds", "h", DurationBounds, DurationScale)
	for i := 0; i < 10000; i++ {
		q.Observe(int64(i) * 99991)
	}
	sr := NewRegistry()
	for i := 0; i < 20; i++ {
		sr.Counter(fmt.Sprintf("bench_s%d_total", i), "h").Add(int64(i))
	}
	for i := 0; i < 6; i++ {
		sh := sr.Histogram(fmt.Sprintf("bench_s%d_seconds", i), "h", DurationBounds, DurationScale)
		sh.Observe(int64(i) * 1e6)
	}

	b.Run("counter-inc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i) * 777)
		}
	})
	b.Run("histogram-quantile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = q.Quantile(0.5)
		}
	})
	b.Run("scrape", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := sr.WritePrometheus(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
