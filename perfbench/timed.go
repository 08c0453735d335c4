package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
	"cycledetect/internal/xrand"
)

// clients is the closed-loop load generator: `clients` callers, each
// sending its next request only after its previous answer arrived, over at
// most that many keep-alive connections.
const clients = 2

// server is an in-process serve.Server behind a loopback listener, with the
// client transport that talks to it.
type server struct {
	s    *serve.Server
	hs   *http.Server
	done chan error
	url  string
	tr   *http.Transport
	hc   *http.Client
}

func startServer(opts serve.Options) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opts.Logf = func(string, ...any) {}
	sv := &server{
		s:    serve.NewServer(opts),
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/query",
		tr: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		},
	}
	sv.hs = &http.Server{Handler: sv.s.Handler()}
	sv.hc = &http.Client{Transport: sv.tr}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	return sv, nil
}

// close stops the listener, waits for the serving goroutine, and releases
// the server's store.
func (sv *server) close() error {
	sv.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	if serr := <-sv.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sv.s.Close()
	return err
}

// sample is one answered request.
type sample struct {
	lat     time.Duration
	elapsed float64 // the server's own elapsed_ms
	factor  float64 // host factor of its block (calib.go)
}

// refMS is the sample's latency in reference milliseconds.
func (s sample) refMS() float64 { return float64(s.lat) / float64(time.Millisecond) * s.factor }

// post sends one request and checks its answer. buf is the caller's
// reusable response buffer. The latency covers the request and the whole
// response body; decoding and checking happen after the clock stops.
func (sv *server) post(ld *queryLoad, in *queryInput, buf *bytes.Buffer, checkCache bool) (sample, error) {
	t0 := time.Now()
	resp, err := sv.hc.Post(sv.url, "application/json", bytes.NewReader(in.body))
	if err != nil {
		return sample{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return sample{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return sample{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	var got serve.QueryResponse
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		return sample{}, fmt.Errorf("decoding answer: %w", err)
	}
	if err := ld.checkAnswer(&got, in, checkCache); err != nil {
		return sample{}, err
	}
	return sample{lat: lat, elapsed: got.ElapsedMS}, nil
}

// loadResult is what the closed loop saw.
type loadResult struct {
	samples []sample
	failed  int
	errs    []error // the first few failures, for the log
	wall    time.Duration
}

// timedLoop runs the timed phase: blocks of the closed loop, each between
// two host measurements, from the first request after set-up until
// p.seconds of load or p.maxOps requests have run. Every sample carries its
// block's host factor; refWall is the load's wall time scaled the same way.
func (sv *server) timedLoop(ld *queryLoad, cal *calibrator, p params) (res loadResult, refWall time.Duration) {
	from := ld.setupOps
	before := cal.measure()
	for {
		secs, left := 0.0, 0
		if p.seconds > 0 {
			secs = min(blockSeconds, p.seconds-res.wall.Seconds())
		}
		if p.maxOps > 0 {
			left = p.maxOps - (from - ld.setupOps)
		}
		r := sv.closedLoop(ld, from, secs, left, true)
		after := cal.measure()
		f := factor(before, after)
		for i := range r.samples {
			r.samples[i].factor = f
		}
		res.samples = append(res.samples, r.samples...)
		res.failed += r.failed
		res.errs = append(res.errs, r.errs...)
		res.wall += r.wall
		refWall += time.Duration(float64(r.wall) * f)
		from += len(r.samples) + r.failed
		before = after
		if p.seconds <= 0 || res.wall.Seconds() >= p.seconds || (p.maxOps > 0 && from-ld.setupOps >= p.maxOps) {
			return res, refWall
		}
	}
}

// closedLoop runs the clients from request index `from` until the deadline
// or maxOps requests, whichever comes first; request i is input i mod
// len(inputs). seconds <= 0 means no deadline, maxOps <= 0 no limit.
func (sv *server) closedLoop(ld *queryLoad, from int, seconds float64, maxOps int, checkCache bool) loadResult {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		res      loadResult
		wg       sync.WaitGroup
		deadline time.Time
	)
	next.Store(int64(from))
	t0 := time.Now()
	if seconds > 0 {
		deadline = t0.Add(time.Duration(seconds * float64(time.Second)))
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var local []sample
			var failed int
			var errs []error
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					break
				}
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i-from >= maxOps {
					break
				}
				in := &ld.inputs[i%len(ld.inputs)]
				s, err := sv.post(ld, in, &buf, checkCache)
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Errorf("request %d: %w", i, err))
					}
					continue
				}
				local = append(local, s)
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// warmCPU keeps every core busy for d. On this class of host an idle
// second vCPU takes over a second to come back, so nothing is timed until
// both cores have been busy for a while.
func warmCPU(seconds float64) {
	if seconds <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	var sink atomic.Uint64
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<14; j++ {
					x = xrand.Mix64(x)
				}
			}
			sink.Add(x)
		}(uint64(w))
	}
	wg.Wait()
}

// sweepPass runs one sweep.RunCtx over spec on the standalone provider and
// returns its rows and wall time.
func sweepPass(ctx context.Context, spec *sweep.Spec) ([]sweep.Result, time.Duration, error) {
	var rows []sweep.Result
	sink := sweep.FuncSink(func(r *sweep.Result) error {
		rows = append(rows, *r)
		return nil
	})
	t0 := time.Now()
	_, err := sweep.RunCtx(ctx, spec, nil, sink)
	return rows, time.Since(t0), err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it — the 11th-largest sample — with that percentile. With ten
// samples or fewer there is none; the maximum stands in, at percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memDelta is the Go runtime's view of a timed phase.
type memDelta struct {
	allocMB float64 // bytes allocated during the phase, MiB
	gcs     uint32  // garbage collections during the phase
	liveMB  float64 // heap in use after a forced GC at the end, MiB
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// endMem closes a timed phase that started at before: it forces a GC (so
// the live heap is what the system under test keeps, not garbage) and
// returns the deltas.
func endMem(before runtime.MemStats) memDelta {
	after := readMem()
	runtime.GC()
	live := readMem()
	return memDelta{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcs:     after.NumGC - before.NumGC,
		liveMB:  float64(live.HeapAlloc) / (1 << 20),
	}
}

// hostInfo describes the machine a result was taken on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		b, _ := io.ReadAll(io.LimitReader(f, 1<<16)) // only the first core's lines are needed
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}
