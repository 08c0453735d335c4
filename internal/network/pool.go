package network

import "sync"

// workerPool is a persistent worker pool for BSP-style execution: workers
// are spawned once and execute one phase function per barrier, each over a
// static contiguous shard of the vertex range. The seed implementation
// re-created goroutines and a work channel for every phase (3× per round);
// the pool replaces that with one channel send per worker per phase. A
// workerPool outlives individual runs — an Instance keeps one alive across
// many RunProgram calls — so close must be called when done.
type workerPool struct {
	workers int
	lo, hi  []int           // shard bounds per worker
	start   []chan struct{} // one wake-up channel per worker
	wg      sync.WaitGroup
	fn      func(w, lo, hi int) // current phase; written before wake-up
}

// newWorkerPool spawns workers goroutines sharding the range [0, n).
func newWorkerPool(workers, n int) *workerPool {
	p := &workerPool{
		workers: workers,
		lo:      make([]int, workers),
		hi:      make([]int, workers),
		start:   make([]chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		p.lo[w] = w * n / workers
		p.hi[w] = (w + 1) * n / workers
		p.start[w] = make(chan struct{}, 1)
		go func(w int) {
			for range p.start[w] {
				p.fn(w, p.lo[w], p.hi[w])
				p.wg.Done()
			}
		}(w)
	}
	return p
}

// run executes fn(w, lo, hi) on every worker's shard and waits for all of
// them (the BSP barrier). The channel sends order p.fn's write before each
// worker's read.
func (p *workerPool) run(fn func(w, lo, hi int)) {
	p.fn = fn
	p.wg.Add(p.workers)
	for _, c := range p.start {
		c <- struct{}{}
	}
	p.wg.Wait()
}

// close terminates the workers.
func (p *workerPool) close() {
	for _, c := range p.start {
		close(c)
	}
}
