package cycledetect

import (
	"context"
	"testing"

	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
)

// TestOneContract: every front end accepts or refuses the same parameters,
// because each one calls core's Validate. Each row runs through the
// library (Test or DetectThroughEdge), serve.Server.Query and sweep.Run,
// wherever the front end can express it: a sweep runs no detector.
// cmd/ckfree and cmd/sweep are checked on their binaries in CI.
func TestOneContract(t *testing.T) {
	type row struct {
		name   string
		k      int
		eps    float64
		reps   int
		detect bool
		u, v   int64
		accept bool
	}
	rows := []row{
		{name: "k=2", k: 2, eps: 0.1},
		{name: "k=3", k: 3, eps: 0.1, accept: true},
		{name: "k=9", k: 9, eps: 0.1, accept: true},
		{name: "k=10", k: 10, eps: 0.1},
		{name: "eps=0", k: 5, eps: 0},
		{name: "eps=0.1", k: 5, eps: 0.1, accept: true},
		{name: "eps=1", k: 5, eps: 1},
		{name: "eps=0 with reps=1", k: 5, eps: 0, reps: 1, accept: true},
		{name: "reps=-1", k: 5, eps: 0.1, reps: -1},
		{name: "reps=0", k: 5, eps: 0.1, reps: 0, accept: true},
		{name: "reps=1", k: 5, eps: 0.1, reps: 1, accept: true},
		{name: "detect", k: 5, detect: true, u: 0, v: 1, accept: true},
		{name: "detect k=10", k: 10, detect: true, u: 0, v: 1},
		{name: "detect with equal endpoints", k: 5, detect: true, u: 3, v: 3},
	}
	const n = 12
	g := ring(n)
	srv := serve.NewServer(serve.Options{})
	defer srv.Close()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			opts := Options{K: r.k, Epsilon: r.eps, Reps: r.reps, Seed: 1}
			req := serve.QueryRequest{
				Graph: serve.GraphRequest{Family: "cycle", N: n},
				K:     r.k, Eps: r.eps, Reps: r.reps, Seed: 1,
			}
			var libErr error
			if r.detect {
				_, libErr = DetectThroughEdge(g, r.u, r.v, opts)
				req.Op, req.Edge = serve.OpDetect, &[2]int64{r.u, r.v}
			} else {
				_, libErr = Test(g, opts)
			}
			_, queryErr := srv.Query(context.Background(), &req)
			errs := map[string]error{"library": libErr, "/query": queryErr}
			if !r.detect {
				_, errs["sweep"] = sweep.Run(&sweep.Spec{
					Graphs: []sweep.GraphSpec{{Family: "cycle", N: n}},
					K:      []int{r.k}, Eps: []float64{r.eps}, Reps: r.reps, Trials: 1,
				})
			}
			for front, err := range errs {
				if (err == nil) != r.accept {
					t.Errorf("%s: err = %v, want accept = %v", front, err, r.accept)
				}
			}
		})
	}
}
