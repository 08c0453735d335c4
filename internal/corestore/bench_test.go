package corestore

import (
	"context"
	"testing"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
)

// BenchmarkCorestoreCheckout measures the warm checkout/release cycle —
// the store-side cost every served query pays on a cache hit. The loop
// never compiles, never spawns: it is the lookup, the pool pop, and the
// release broadcast.
func BenchmarkCorestoreCheckout(b *testing.B) {
	s := New(Options{})
	defer s.Close()
	build := func() (*graph.Graph, error) { return graph.Cycle(256), nil }
	h, _, err := s.Checkout(context.Background(), "g", build, network.EngineBSP, 1)
	if err != nil {
		b.Fatal(err)
	}
	s.Release(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, _, err := s.Checkout(context.Background(), "g", build, network.EngineBSP, 1)
		if err != nil {
			b.Fatal(err)
		}
		s.Release(h)
	}
}
