package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call: the layer function's name, the span that made
// the call (-1 for an operation's root), and its start and end in
// nanoseconds since the recorder was created. Est marks a span whose
// duration was measured by timing the inner public call again, on the same
// input, outside its caller (see recorder.timeEst).
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Est    bool   `json:"est,omitempty"`
}

// recorder keeps every span of a traced replay in memory; dump writes them
// out once the replay is over, so no file IO happens while spans are open.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int32) int32 {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) { r.spans[id].End = r.now() }

// add records a span whose boundaries the caller already read.
func (r *recorder) add(name string, parent int32, start, end int64) {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: start, End: end})
}

// timeEst runs fn outside any open span and charges its duration to an
// inner layer of parent. Some layers call another layer's public function
// internally (corestore.Store.Checkout compiles on a miss); the replay times
// that inner call again on the same input and records it here, so the
// parent's self time is its span minus this estimate.
func (r *recorder) timeEst(name string, parent int32, fn func()) {
	t0 := time.Now()
	fn()
	start := r.spans[parent].Start
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: start, End: start + int64(time.Since(t0)), Est: true})
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover. An estimated child can exceed what it stands in
// for by noise; self time is clamped at zero.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		d := s.End - s.Start - child[i]
		if d < 0 {
			d = 0
		}
		self[s.Name] += time.Duration(d)
	}
	return self
}

// opTimes returns the duration of every operation's root span, in order.
func (r *recorder) opTimes() []time.Duration {
	var ds []time.Duration
	for _, s := range r.spans {
		if s.Parent < 0 {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// dump writes the spans as JSON lines, after one header line describing
// the run, to path.
func (r *recorder) dump(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i, s := range r.spans {
		if _, err := fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d,"est":%t}`+"\n",
			i, s.Name, s.Parent, s.Start, s.End, s.Est); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
