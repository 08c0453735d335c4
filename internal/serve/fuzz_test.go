package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// FuzzDecodeQuery is a differential test of the /query body decoder
// against encoding/json: the oracle is json.Decoder with
// DisallowUnknownFields, plus the rule that only whitespace may follow the
// value. decodeQuery must accept exactly what the oracle accepts and decode
// it to the same QueryRequest. The edge list is the one part both sides
// hand to the same parser; FuzzEdgeList checks that one against [][2]int.
func FuzzDecodeQuery(f *testing.F) {
	hit := QueryRequest{ // perfbench's query-hit shape
		Graph: GraphRequest{Family: "gnm", N: 256, M: 1024, Seed: 7},
		K:     7, Eps: 0.1, Seed: 1 << 52,
	}
	miss := QueryRequest{ // perfbench's query-miss shape, on a smaller graph
		Graph: GraphRequest{N: 6, Edges: EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}},
		Op:    OpDetect, K: 7, Edge: &[2]int64{2, 3},
	}
	every := QueryRequest{ // every field set, so a field the decoder lacks fails here
		Graph: GraphRequest{Family: "far", N: 9, M: 12, Seed: 3, Edges: EdgeList{{0, 1}}},
		Op:    OpTest, K: 5, Eps: 0.25, Reps: 2, Seed: 11, Engine: "bsp", Edge: &[2]int64{4, 5},
	}
	for _, req := range []QueryRequest{hit, miss, every} {
		body, err := json.Marshal(&req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, s := range []string{
		`{"K":3}`, "{\"\u212a\":3}", `{"\u212a":3}`, `{"\u006b":3}`, `{"S\u0065ED":3}`,
		`{"gr\u0061ph":{"\u0065dges":[[0,1]],"N":2}}`, "{\"\u017feed\":1}", `{"GRAPH":{"EDGES":null}}`,
		`{"k":3,"k":4}`, `{"graph":{"n":5},"graph":{"family":"cycle"}}`, `{"graph":{"n":5},"graph":null}`,
		`{"edge":[1,2],"edge":[3]}`, `{"graph":{"edges":[[0,1]],"edges":null}}`, `{"graph":{"edges":[[0,1]],"edges":[]}}`,
		`null`, ` {} `, `[]`, `"k"`, `{"graph":null,"op":null,"k":null,"eps":null,"reps":null,"seed":null,"engine":null,"edge":null}`,
		`{"graph":{"family":null,"n":null,"m":null,"seed":null,"edges":null}}`,
		`{"k":7.0}`, `{"k":1e1}`, `{"k":-0}`, `{"eps":1e1}`, `{"eps":-0}`, `{"seed":-0}`, `{"reps":01}`,
		`{"seed":18446744073709551615}`, `{"seed":18446744073709551616}`, `{"graph":{"seed":18446744073709551616}}`,
		`{"k":9223372036854775808}`, `{"edge":[1]}`, `{"edge":[1,2,3]}`, `{"edge":[1,[2]]}`, `{"edge":"x"}`,
		"\xef\xbb\xbf{\"k\":3}", `{"k":3}garbage`, `{"k":3}{"k":99}`, "{\"k\":3} \t\r\n", `{"k":3},`,
		`{"naive":true}`, `{"graph":{"bogus":1}}`, `{"graph":5}`, `{"graph":[]}`, `{"k":3,}`, `{"k" 3}`, `{"k":}`,
		`{"k":"3"}`, `{"op":"t\u0065st","engine":"\ud800"}`, `{"graph":{"edges":[[0,1],[1,2]` + "\n" + `]}}`, `{`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got QueryRequest
		err := decodeQuery(data, &got)
		var want QueryRequest
		werr := oracleDecode(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: decodeQuery error %v, the oracle's %v", data, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, the oracle %+v", data, got, want)
		}
	})
}

// oracleDecode is FuzzDecodeQuery's oracle: json.Decoder with
// DisallowUnknownFields, and nothing but whitespace after the value.
func oracleDecode(data []byte, req *QueryRequest) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\n\r"); len(rest) > 0 {
		return fmt.Errorf("%d bytes after the value", len(rest))
	}
	return nil
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

// TestQueryDeclaredLengthNotReserved checks that a body's declared length
// is reserved only up to bodyReserve: a client that declares the largest
// body the server takes and then sends a few bytes gets a 400, having cost
// about 1 MiB, not 64 MiB.
func TestQueryDeclaredLengthNotReserved(t *testing.T) {
	var code int
	got := leastAlloc(func() {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"k":3}`))
		req.ContentLength = maxQueryBytes
		rec := httptest.NewRecorder()
		var q QueryRequest
		decodeJSON(rec, req, &q, maxQueryBytes)
		code = rec.Code
	})
	if code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400 for a body shorter than declared", code)
	}
	if got > 2*bodyReserve {
		t.Errorf("a %d-byte body declared as %d bytes allocated %d bytes, want at most %d",
			len(`{"k":3}`), maxQueryBytes, got, 2*bodyReserve)
	}
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

	t.Run("upload-at-limit", func(t *testing.T) {
		// The largest list a graph may have, 2^20 pairs [i,i+1] in a
		// 16.7 MB body, through the handler's decoder: the body is read
		// into one buffer and the list is sized from it, so decoding costs
		// at most 5x the list's 16 MiB (encoding/json's decoder took 7.2x).
		body := []byte(`{"graph":{"n":1048577,"edges":[`)
		for i := range sweep.MaxFamilyEdges {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, '[')
			body = strconv.AppendInt(body, int64(i), 10)
			body = append(body, ',')
			body = strconv.AppendInt(body, int64(i+1), 10)
			body = append(body, ']')
		}
		body = append(body, `]},"k":3,"reps":1}`...)
		var q QueryRequest
		ok := false
		got := leastAlloc(func() {
			q = QueryRequest{}
			rec := httptest.NewRecorder()
			ok = decodeJSON(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)), &q, maxQueryBytes)
		})
		if !ok || len(q.Graph.Edges) != sweep.MaxFamilyEdges || q.Graph.Edges[12345] != [2]int{12345, 12346} {
			t.Fatalf("decoded %v, %d edges", ok, len(q.Graph.Edges))
		}
		if list := uint64(16 * sweep.MaxFamilyEdges); got > 5*list {
			t.Errorf("decoding a %d-byte body of %d edges allocated %d bytes, want at most %d",
				len(body), sweep.MaxFamilyEdges, got, 5*list)
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
