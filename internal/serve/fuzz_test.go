package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cycledetect/internal/sweep"
)

// FuzzEdgeList is a differential test of EdgeList's hand-written decoder
// against encoding/json's reflection-based decoding into [][2]int. When the
// input is null or an array whose every element is an array of exactly two
// integers in int's range, both must produce the same list. On any other
// input EdgeList must return an error, where [][2]int may silently pad or
// truncate. Arbitrary bytes handed to UnmarshalJSON directly, without
// encoding/json's syntax check in front, must not panic.
func FuzzEdgeList(f *testing.F) {
	for _, s := range []string{
		`[[0,1],[1,2]]`, `[]`, `null`, ` [ [ -3 , 4 ] , [0,-0] ] `,
		`[[5]]`, `[[1,2,3]]`, `[[]]`, `[[1.5,2]]`, `[["1",2]]`, `[[1e2,3]]`,
		`[[9223372036854775807,-9223372036854775808]]`, `[[1,9223372036854775808]]`,
		`[[0,1],null]`, `[[0,null]]`, `[[[0,1]]]`, `{}`, `"edges"`, `7`, `[[0,1]`,
		`["[[[[[[[[[[[[[[[["]`, `[[0,1],"[[[[[[[["]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw EdgeList
		_ = raw.UnmarshalJSON(data)

		var got EdgeList
		err := json.Unmarshal(data, &got)
		if !pairsOfInts(data) {
			if err == nil {
				t.Fatalf("accepted %q as %v", data, got)
			}
			return
		}
		var want [][2]int
		if werr := json.Unmarshal(data, &want); werr != nil {
			t.Fatalf("[][2]int rejected %q (%v), the oracle accepted it", data, werr)
		}
		if err != nil {
			t.Fatalf("rejected %q: %v", data, err)
		}
		if !reflect.DeepEqual([][2]int(got), want) {
			t.Fatalf("%q: decoded %v, [][2]int gives %v", data, got, want)
		}
	})
}

// TestEdgeListBadBodyBounded checks that a rejected edge list costs no more
// memory than its own size. Brackets inside a JSON string are not edges, so
// nothing about the list's length may be inferred from counting them: a
// 1 MB string of '[' must not reserve 16 bytes of edge per bracket before
// the first element is refused.
func TestEdgeListBadBodyBounded(t *testing.T) {
	const n = 1 << 20
	body := []byte(`{"graph":{"n":2,"edges":["` + strings.Repeat("[", n) + `"]},"k":3}`)
	least := uint64(math.MaxUint64)
	for range 3 { // the minimum discards allocations by other goroutines
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err == nil {
			t.Fatal("an edge list holding a string was accepted")
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > n {
		t.Errorf("rejecting a %d-byte body allocated %d bytes, want at most %d", len(body), least, n)
	}
}

// pairsOfInts is FuzzEdgeList's oracle: whether data is one JSON value that
// is null or an array of at most sweep.MaxFamilyEdges arrays of exactly two
// integer literals within int's range.
func pairsOfInts(data []byte) bool {
	if !json.Valid(data) {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if dec.Decode(&v) != nil {
		return false
	}
	if v == nil {
		return true
	}
	list, ok := v.([]any)
	if !ok || len(list) > sweep.MaxFamilyEdges {
		return false
	}
	for _, el := range list {
		pair, ok := el.([]any)
		if !ok || len(pair) != 2 {
			return false
		}
		for _, x := range pair {
			n, ok := x.(json.Number)
			if !ok {
				return false
			}
			if _, err := strconv.ParseInt(string(n), 10, strconv.IntSize); err != nil {
				return false
			}
		}
	}
	return true
}

// endlessEdges is a request body that never ends: the head of a query
// whose edge list then repeats [0,1] forever.
type endlessEdges struct{ n int }

func (e *endlessEdges) Read(p []byte) (int, error) {
	const head, unit = `{"graph":{"n":2,"edges":[`, `[0,1],`
	for i := range p {
		if e.n < len(head) {
			p[i] = head[e.n]
		} else {
			p[i] = unit[(e.n-len(head))%len(unit)]
		}
		e.n++
	}
	return len(p), nil
}

// leastAlloc returns the fewest bytes f allocated over three calls; the
// minimum discards allocations by other goroutines.
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestQueryBodyLimits checks the two size refusals of /query, each with
// bounded allocation: a body over maxQueryBytes is a 413, and an edge list
// longer than sweep.MaxFamilyEdges is a 400.
func TestQueryBodyLimits(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()

	t.Run("declared-length", func(t *testing.T) {
		// Refused from the header: nothing of the endless body is read.
		var code int
		got := leastAlloc(func() {
			req := httptest.NewRequest(http.MethodPost, "/query", &endlessEdges{})
			req.ContentLength = maxQueryBytes + 1
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			code = rec.Code
		})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("HTTP %d, want 413", code)
		}
		if got > 1<<20 {
			t.Errorf("refusing a declared %d-byte body allocated %d bytes", maxQueryBytes+1, got)
		}
	})

	t.Run("streamed", func(t *testing.T) {
		// A body of unknown length is cut off once it passes the limit, so
		// the decoder buffers at most that much; its buffer doubles as it
		// grows, which makes about four times the limit in all. A 1 MB
		// limit stands in for maxQueryBytes, which the handler passes.
		const limit = 1 << 20
		var code int
		got := leastAlloc(func() {
			req := httptest.NewRequest(http.MethodPost, "/query", &endlessEdges{})
			req.ContentLength = -1
			rec := httptest.NewRecorder()
			var q QueryRequest
			if decodeJSON(rec, req, &q, limit) {
				t.Error("an endless body decoded")
			}
			code = rec.Code
		})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("HTTP %d, want 413", code)
		}
		if got > 6*limit {
			t.Errorf("refusing an endless body at a %d-byte limit allocated %d bytes", limit, got)
		}
	})

	t.Run("edge-count", func(t *testing.T) {
		// Decoding stops at the limit, so a list of twice the limit costs
		// what a list at the limit costs (16 bytes an edge plus append's
		// growth), not what its body holds.
		list := func(n int) []byte {
			return []byte("[" + strings.Repeat("[0,1],", n-1) + "[0,1]]")
		}
		atLimit, over := list(sweep.MaxFamilyEdges), list(2*sweep.MaxFamilyEdges)
		var l EdgeList
		var err error
		accepted := leastAlloc(func() { err = l.UnmarshalJSON(atLimit) })
		if err != nil || len(l) != sweep.MaxFamilyEdges {
			t.Fatalf("a list at the limit: %d edges, %v", len(l), err)
		}
		refused := leastAlloc(func() { err = l.UnmarshalJSON(over) })
		if err == nil || !strings.Contains(err.Error(), "limit of 1048576 edges") {
			t.Fatalf("a list of twice the limit: want the limit named, got %v", err)
		}
		if refused > accepted+accepted/8 {
			t.Errorf("refusing %d edges allocated %d bytes, decoding %d took %d",
				2*sweep.MaxFamilyEdges, refused, sweep.MaxFamilyEdges, accepted)
		}

		l, atLimit = nil, nil
		rec := httptest.NewRecorder()
		body := `{"graph":{"n":2,"edges":` + string(over) + `},"k":3,"eps":0.1}`
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit of 1048576 edges") {
			t.Fatalf("HTTP %d %s, want 400 naming the edge limit", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	})
}
