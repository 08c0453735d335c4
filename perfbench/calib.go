package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The reference host is shared, and the speed it gives this process swings
// by up to 2x over seconds to minutes as other tenants' load comes and goes
// (README.md, "Reference host"). A 30 s run cannot average that out, so raw
// wall times of the same code differ between runs by more than any useful
// bound. The timed phase therefore runs in blocks, and before and after
// every block both cores run a fixed reference kernel for a fixed number of
// rounds. A block's host factor is refNominalMS divided by the kernel's
// mean time per round around it, and the block's times are multiplied by
// it: every time metric is in reference milliseconds, the time the program
// would have taken had the host run the kernel at refNominalMS per round.
// Raw times are printed beside them.
//
// The kernel is a small synchronous message-passing loop, the same kind of
// work as the engine's, so the two slow down together; it is written here,
// not taken from the program, so that no change to the program changes it.
// Do not change refKernel or refNominalMS: either one redefines every time
// metric.

// refNominalMS is the kernel's time per round, on each of two cores at
// once, that defines reference speed: about its speed on the reference
// host when other tenants leave it alone.
const refNominalMS = 0.25

// blockSeconds is the least load time between two host measurements.
const blockSeconds = 2

// refRounds is how many kernel rounds one measurement runs per core:
// 0.12 to 0.2 s on the reference host.
const refRounds = 500

// refKernel is the reference kernel: a fixed random graph of 256 vertices
// and up to 1024 edges, in compressed rows, with one message buffer per
// directed edge. A round is a send phase, in which every vertex writes a
// hash-derived message of 4 to 19 words to each neighbour, and a receive
// phase, in which every vertex folds its incoming messages into its state
// and keeps a sorted set of some of the words. It allocates nothing after
// construction.
type refKernel struct {
	off, adj []int32
	buf      [][]uint64
	state    []uint64
	seen     [][]uint64
	round    uint64
}

func refMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func newRefKernel() *refKernel {
	const n, m = 256, 1024
	nbrs := make([][]int32, n)
	x := uint64(3)
	for e := 0; e < m; e++ {
		x = refMix(x)
		u, v := int32(x%n), int32((x>>32)%n)
		if u != v {
			nbrs[u] = append(nbrs[u], v)
			nbrs[v] = append(nbrs[v], u)
		}
	}
	k := &refKernel{off: make([]int32, n+1), state: make([]uint64, n), seen: make([][]uint64, n)}
	for v := 0; v < n; v++ {
		k.off[v+1] = k.off[v] + int32(len(nbrs[v]))
		k.adj = append(k.adj, nbrs[v]...)
		k.seen[v] = make([]uint64, 0, 64)
		k.state[v] = uint64(v)
	}
	k.buf = make([][]uint64, len(k.adj))
	for i := range k.buf {
		k.buf[i] = make([]uint64, 0, 20)
	}
	return k
}

// step runs one round.
func (k *refKernel) step() {
	r := k.round
	k.round++
	for v := range k.state {
		s := k.state[v]
		for i := k.off[v]; i < k.off[v+1]; i++ {
			b := k.buf[i][:0]
			words := 4 + s>>60
			for j := uint64(0); j < words; j++ {
				s = refMix(s + j + r)
				b = append(b, s)
			}
			k.buf[i] = b
		}
		k.state[v] = s
	}
	for v := range k.state {
		s := k.state[v]
		seen := k.seen[v][:0]
		for i := k.off[v]; i < k.off[v+1]; i++ {
			for _, w := range k.buf[i] {
				s ^= refMix(w)
				if w&7 != 0 || len(seen) == cap(seen) {
					continue
				}
				lo, hi := 0, len(seen)
				for lo < hi {
					if mid := (lo + hi) / 2; seen[mid] < w {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				seen = append(seen, 0)
				copy(seen[lo+1:], seen[lo:])
				seen[lo] = w
			}
		}
		k.seen[v] = seen
		k.state[v] = s
	}
}

// calibrator measures the host's current speed with one kernel per load
// goroutine: the clients of the query workloads, which are as many as the
// sweep's workers and the cores.
type calibrator struct {
	kernels []*refKernel
	rounds  int
	ms      []float64 // every measurement, ms per round
}

func newCalibrator(rounds int) *calibrator {
	c := &calibrator{rounds: rounds}
	for i := 0; i < clients; i++ {
		c.kernels = append(c.kernels, newRefKernel())
	}
	return c
}

// measure runs the kernels concurrently for c.rounds rounds each and returns
// their mean time per round in ms. With no rounds configured it returns
// refNominalMS, which makes every factor 1.
func (c *calibrator) measure() float64 {
	if c.rounds <= 0 {
		return refNominalMS
	}
	per := make([]time.Duration, len(c.kernels))
	var wg sync.WaitGroup
	for i, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for j := 0; j < c.rounds; j++ {
				k.step()
			}
			per[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range per {
		sum += d
	}
	ms := float64(sum) / float64(time.Millisecond) / float64(len(per)*c.rounds)
	c.ms = append(c.ms, ms)
	return ms
}

// summary describes the host's speed over the run.
func (c *calibrator) summary() string {
	if len(c.ms) == 0 {
		return "host: not measured"
	}
	return fmt.Sprintf("host: reference kernel %.4f ms/round median (%.4f to %.4f) over %d measurements, host factor %.3f",
		median(c.ms), slices.Min(c.ms), slices.Max(c.ms), len(c.ms), refNominalMS/median(c.ms))
}

// factor is the host factor of a block the kernel measured before and after.
func factor(before, after float64) float64 {
	return refNominalMS / ((before + after) / 2)
}
