package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"cycledetect/internal/core"
	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/sweep"
	"cycledetect/internal/xrand"
)

// BenchmarkServeConcurrent measures the serving layer's per-query overhead
// against the floor it is built on: a warm reused RunProgram plus the same
// verdict summary (what any query must do, with zero serving machinery —
// on the accepting workload that is just Summarize, ~3 allocations). The
// acceptance bar for the Compiled/Instance + warm-pool design is that a
// cache-hit query — cache lookup, instance checkout, deadline bookkeeping,
// context plumbing, run, summary, response — adds only a bounded constant
// (~12 allocations) on top and never re-pays graph compilation or node
// construction.
//
// Two workloads, because their floors differ by orders of magnitude:
//
//	accept-* — a 256-node tree (Ck-free): the run itself is 0-alloc
//	           steady state, so the serving overhead is fully exposed
//	           (floor ≈ Summarize only, single-digit allocs).
//	reject-* — a 256-node G(n,4n): every query finds C7s, so witness
//	           assembly dominates both sides and serving overhead
//	           disappears in the noise.
//
// cached-query-parallel drives the reject workload from concurrent client
// goroutines through the instance pool.
//
// miss-upload is the other end: every query misses. It is the repository
// benchmark's query-miss shape in-process: 24 uploaded G(2048, 8192) edge
// lists cycled through a 16-graph cache, each decoded by the handler's
// decodeJSON and answered by the k=7 detector on one of its edges. An op
// pays the decode, the graph build, the fingerprint, the compile, an
// instance and an eviction.
func BenchmarkServeConcurrent(b *testing.B) {
	const n, k, reps = 256, 7, 8
	tree, err := sweep.BuildGraph(sweep.GraphSpec{Family: "tree", N: n}, 0, 0, 7)
	if err != nil {
		b.Fatal(err)
	}
	gnm, err := sweep.BuildGraph(sweep.GraphSpec{Family: "gnm", N: n, M: 4 * n}, 0, 0, 7)
	if err != nil {
		b.Fatal(err)
	}

	floor := func(b *testing.B, g *graph.Graph) {
		nw, err := network.New(g, network.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer nw.Close()
		prog := &core.Tester{K: k, Reps: reps}
		if _, err := nw.RunProgram(prog, 1); err != nil {
			b.Fatal(err) // warm the node cache and arenas, like the served variants do
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := nw.RunProgram(prog, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			dec := core.Summarize(res.Outputs, res.IDs)
			_ = dec
		}
	}
	served := func(b *testing.B, family string, m int) {
		s := NewServer(Options{})
		defer s.Close()
		req := func(seed uint64) *QueryRequest {
			return &QueryRequest{
				Graph: GraphRequest{Family: family, N: n, M: m, Seed: 7},
				K:     k, Reps: reps, Seed: seed,
			}
		}
		if _, err := s.Query(context.Background(), req(1)); err != nil {
			b.Fatal(err) // warm the cache and the instance pool
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(ctx, req(uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("accept-floor", func(b *testing.B) { floor(b, tree) })
	// accept-query runs with the full metrics catalog armed — every query
	// bumps the per-stage histograms and the collector records every engine
	// run — and must hold its 15-alloc bar (BENCH_19; bench-gate vs the
	// committed snapshots enforces this).
	b.Run("accept-query", func(b *testing.B) { served(b, "tree", 0) })
	// accept-query-traced adds a run-ID to the context, so the query also
	// registers in the in-flight table: the full HTTP-path bookkeeping.
	b.Run("accept-query-traced", func(b *testing.B) {
		s := NewServer(Options{})
		defer s.Close()
		req := func(seed uint64) *QueryRequest {
			return &QueryRequest{
				Graph: GraphRequest{Family: "tree", N: n},
				K:     k, Reps: reps, Seed: seed,
			}
		}
		if _, err := s.Query(context.Background(), req(1)); err != nil {
			b.Fatal(err)
		}
		ctx := WithRunID(context.Background(), "bench-trace")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(ctx, req(uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reject-floor", func(b *testing.B) { floor(b, gnm) })
	b.Run("reject-query", func(b *testing.B) { served(b, "gnm", 4*n) })

	b.Run("cached-query-parallel", func(b *testing.B) {
		s := NewServer(Options{MaxInstances: 4})
		defer s.Close()
		req := func(seed uint64) *QueryRequest {
			return &QueryRequest{
				Graph: GraphRequest{Family: "gnm", N: n, M: 4 * n, Seed: 7},
				K:     k, Reps: reps, Seed: seed,
			}
		}
		if _, err := s.Query(context.Background(), req(1)); err != nil {
			b.Fatal(err)
		}
		var seq atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ctx := context.Background()
			for pb.Next() {
				if _, err := s.Query(ctx, req(uint64(seq.Add(1)))); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	b.Run("miss-upload", func(b *testing.B) {
		const pool, poolN, poolM = 24, 2048, 8192
		rng := xrand.New(1)
		bodies := make([][]byte, pool)
		for i := range bodies {
			g := graph.ConnectedGNM(poolN, poolM, rng)
			edges := g.Edges()
			e := edges[rng.Intn(len(edges))]
			req := QueryRequest{
				Graph: GraphRequest{N: poolN, Edges: make(EdgeList, len(edges))},
				Op:    OpDetect, K: k, Edge: &[2]int64{int64(e.U), int64(e.V)},
			}
			for j, ed := range edges {
				req.Graph.Edges[j] = [2]int{ed.U, ed.V}
			}
			body, err := json.Marshal(&req)
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = body
		}
		s := NewServer(Options{MaxGraphs: 16})
		defer s.Close()
		ctx := context.Background()
		query := func(body []byte) {
			var req QueryRequest
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
			if !decodeJSON(rec, r, &req, maxQueryBytes) {
				b.Fatalf("decoding an upload: %s", rec.Body)
			}
			resp, err := s.Query(ctx, &req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Cache != "miss" {
				b.Fatalf("cache %q, want every query to miss", resp.Cache)
			}
		}
		for _, body := range bodies {
			query(body) // one pass fills the cache and the instance pools
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(bodies[i%pool])
		}
	})
}
