package network

// Run metrics collection: an InstanceOptions-provided RunCollector receives
// one RunMetrics record per completed RunProgram/RunProgramCtx call —
// rounds executed, messages delivered, bandwidth high-water, and the run's
// disposition (success / canceled / failed). The paper's
// own cost measures for the distributed Ck-freeness tester are rounds and
// messages, so these are first-class observables rather than something
// scraped out of Result.Stats by each caller.
//
// The hook is priced for the serving hot path: a nil Collector costs one
// pointer load per run, and an armed collector adds no heap allocations —
// RunMetrics is passed BY VALUE (a pointer would escape into the interface
// call and hit the heap every run), so the reused-run 0 allocs/op invariant
// holds with collection on (locked by TestRunCollectorAllocFree).

// RunMetrics is one run's cost and disposition, in the engine's native
// units (counts and bits). Exactly one of the success path (the count
// fields filled from the run's Stats) or the Canceled/Failed flags
// describes the outcome.
type RunMetrics struct {
	// Rounds executed: the program's full round count on success, the
	// abort round for a canceled run, 0 for a failed one (a failed run's
	// partial stats are not meaningful — the engine aborts mid-round).
	Rounds int
	// Messages delivered (non-nil payloads), success only.
	Messages int64
	// Bits is the total payload volume in bits, success only.
	Bits int64
	// MaxMessageBits is the largest single payload seen, success only —
	// the bandwidth high-water mark against the CONGEST budget.
	MaxMessageBits int
	// Canceled marks a run aborted by its context (*ErrCanceled).
	Canceled bool
	// Failed marks a run aborted by a node failure (panic or bandwidth
	// violation).
	Failed bool
}

// RunCollector receives one record per run. Implementations must be safe
// for concurrent use (a server registers one collector across all its
// instances) and must not retain references into the Instance. RecordRun
// is called on the run's own goroutine, synchronously, so it must be
// cheap — atomic bumps, not I/O.
type RunCollector interface {
	RecordRun(m RunMetrics)
}

// recordRun assembles the run's RunMetrics and hands it to the collector.
// res is the run's Result on success and ignored otherwise.
func (nw *Instance) recordRun(c RunCollector, res *Result, err error) {
	var m RunMetrics
	switch e := err.(type) {
	case nil:
		m.Rounds = res.Stats.Rounds
		m.Messages = res.Stats.MessagesSent
		m.Bits = res.Stats.TotalBits
		m.MaxMessageBits = res.Stats.MaxMessageBits
	case *ErrCanceled:
		m.Canceled = true
		m.Rounds = e.Round
	default:
		m.Failed = true
	}
	c.RecordRun(m)
}
