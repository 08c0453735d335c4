package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
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
// is null or an array of arrays of exactly two integer literals within
// int's range.
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
	if !ok {
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
