// Model-semantics tests: delivery along ports, traffic accounting, ID
// validation, per-node coins, engine dispatch, and degenerate networks, run
// on fresh single-use instances (runOnce).
package network_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"cycledetect/internal/graph"
	"cycledetect/internal/network"
	"cycledetect/internal/xrand"
)

// echoProgram floods each node's ID for a fixed number of rounds; outputs
// the multiset of (round, port, value) receipts as a deterministic string.
// It exercises delivery, port symmetry and round alignment.
type echoProgram struct {
	rounds int
}

func (p *echoProgram) Rounds(n, m int) int { return p.rounds }

func (p *echoProgram) NewNode(info network.NodeInfo) network.Node {
	return &echoNode{info: info}
}

type echoNode struct {
	info network.NodeInfo
	log  string
}

func (e *echoNode) Send(round int, out [][]byte) {
	for pt := range out {
		buf := make([]byte, 0, 16)
		buf = binary.AppendVarint(buf, e.info.ID)
		buf = binary.AppendVarint(buf, int64(round))
		out[pt] = buf
	}
}

func (e *echoNode) Receive(round int, in [][]byte) {
	for pt, payload := range in {
		if payload == nil {
			e.log += fmt.Sprintf("r%d p%d nil;", round, pt)
			continue
		}
		id, n := binary.Varint(payload)
		r, _ := binary.Varint(payload[n:])
		e.log += fmt.Sprintf("r%d p%d id=%d sr=%d;", round, pt, id, r)
	}
}

func (e *echoNode) Output() any { return e.log }

func TestDeliveryMatchesTopology(t *testing.T) {
	g := graph.Cycle(5)
	res, err := runOnce(g, &echoProgram{rounds: 3}, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Node v's neighbors are sorted; for C5 node 0 neighbors are 1 and 4.
	got := res.Outputs[0].(string)
	want := "r1 p0 id=1 sr=1;r1 p1 id=4 sr=1;" +
		"r2 p0 id=1 sr=2;r2 p1 id=4 sr=2;" +
		"r3 p0 id=1 sr=3;r3 p1 id=4 sr=3;"
	if got != want {
		t.Fatalf("node 0 log:\n got %q\nwant %q", got, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := graph.Complete(4) // 6 edges, 12 directed
	res, err := runOnce(g, &echoProgram{rounds: 2}, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds=%d", res.Stats.Rounds)
	}
	if res.Stats.MessagesSent != 24 { // 12 directed edges * 2 rounds
		t.Fatalf("messages=%d want 24", res.Stats.MessagesSent)
	}
	if res.Stats.MaxMessageBits <= 0 || res.Stats.TotalBits <= 0 {
		t.Fatalf("degenerate stats %+v", res.Stats)
	}
	if len(res.Stats.PerRoundMaxBits) != 2 {
		t.Fatalf("per-round slice %v", res.Stats.PerRoundMaxBits)
	}
	if res.Stats.AvgMessageBits*float64(res.Stats.MessagesSent) != float64(res.Stats.TotalBits) {
		t.Fatalf("avg inconsistent: %+v", res.Stats)
	}
}

// bigTalker sends an oversized payload at round 2 from node 0.
type bigTalker struct{ size int }

func (p *bigTalker) Rounds(n, m int) int { return 3 }
func (p *bigTalker) NewNode(info network.NodeInfo) network.Node {
	return &bigTalkerNode{info: info, size: p.size}
}

type bigTalkerNode struct {
	info network.NodeInfo
	size int
}

func (b *bigTalkerNode) Send(round int, out [][]byte) {
	if b.info.ID == 0 && round == 2 {
		for pt := range out {
			out[pt] = make([]byte, b.size)
		}
	}
}
func (b *bigTalkerNode) Receive(int, [][]byte) {}
func (b *bigTalkerNode) Output() any           { return nil }

func TestBandwidthEnforcement(t *testing.T) {
	g := graph.Path(3)
	opts := network.Options{BandwidthBits: 64}
	_, err := runOnce(g, &bigTalker{size: 100}, opts, 0)
	if err == nil {
		t.Fatal("expected bandwidth error")
	}
	be, ok := err.(*network.ErrBandwidth)
	if !ok {
		t.Fatalf("wrong error type %T: %v", err, err)
	}
	if be.Round != 2 || be.From != 0 || be.Bits != 800 {
		t.Fatalf("bad error detail %+v", be)
	}
	// Under the budget: must succeed.
	if _, err := runOnce(g, &bigTalker{size: 4}, opts, 0); err != nil {
		t.Fatalf("under-budget run failed: %v", err)
	}
}

func TestIDValidation(t *testing.T) {
	g := graph.Path(3)
	cases := map[string][]network.ID{
		"short":    {1, 2},
		"dup":      {1, 1, 2},
		"negative": {-1, 0, 1},
	}
	for name, ids := range cases {
		if _, err := runOnce(g, &echoProgram{rounds: 1}, network.Options{IDs: ids}, 0); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := runOnce(g, &echoProgram{rounds: 1}, network.Options{IDs: []network.ID{10, 5, 99}}, 0); err != nil {
		t.Errorf("valid custom IDs rejected: %v", err)
	}
}

func TestNodeInfoContents(t *testing.T) {
	g := graph.Star(4) // center 0
	var captured []network.NodeInfo
	probe := &probeProgram{capture: &captured}
	if _, err := runOnce(g, probe, network.Options{IDs: []network.ID{100, 200, 300, 400}}, 9); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 4 {
		t.Fatalf("captured %d infos", len(captured))
	}
	for _, info := range captured {
		if info.N != 4 {
			t.Fatalf("N=%d", info.N)
		}
		if info.ID == 100 {
			if info.Degree() != 3 {
				t.Fatalf("center degree %d", info.Degree())
			}
			want := map[network.ID]bool{200: true, 300: true, 400: true}
			for _, nb := range info.NeighborIDs {
				if !want[nb] {
					t.Fatalf("unexpected neighbor %d", nb)
				}
			}
		} else if info.Degree() != 1 || info.NeighborIDs[0] != 100 {
			t.Fatalf("leaf %d sees %v", info.ID, info.NeighborIDs)
		}
		if info.Rand == nil {
			t.Fatal("nil RNG")
		}
	}
}

type probeProgram struct{ capture *[]network.NodeInfo }

func (p *probeProgram) Rounds(n, m int) int { return 1 }
func (p *probeProgram) NewNode(info network.NodeInfo) network.Node {
	*p.capture = append(*p.capture, info)
	return &silentNode{}
}

type silentNode struct{}

func (*silentNode) Send(int, [][]byte)    {}
func (*silentNode) Receive(int, [][]byte) {}
func (*silentNode) Output() any           { return nil }

// TestPerNodeRandomnessDeterministic: same seed -> same coins; different
// seeds -> (overwhelmingly) different coins; coins depend on ID.
func TestPerNodeRandomnessDeterministic(t *testing.T) {
	draw := func(seed uint64, ids []network.ID) []uint64 {
		g := graph.Path(3)
		var vals []uint64
		p := &coinProgram{out: &vals}
		if _, err := runOnce(g, p, network.Options{IDs: ids}, seed); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a := draw(1, nil)
	b := draw(1, nil)
	c := draw(2, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different coins")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical coins")
	}
}

type coinProgram struct{ out *[]uint64 }

func (p *coinProgram) Rounds(n, m int) int { return 1 }
func (p *coinProgram) NewNode(info network.NodeInfo) network.Node {
	*p.out = append(*p.out, info.Rand.Uint64())
	return &silentNode{}
}

// TestEngineDispatch: NewInstance accepts the engine's name and the empty
// name and refuses any other.
func TestEngineDispatch(t *testing.T) {
	c, err := network.Compile(graph.Path(2), network.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []network.Engine{network.EngineBSP, ""} {
		inst, err := c.NewInstance(network.InstanceOptions{Engine: engine})
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if _, err := inst.RunProgram(&echoProgram{rounds: 1}, 0); err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		inst.Close()
	}
	for _, engine := range []network.Engine{"channels", "bogus"} {
		_, err := c.NewInstance(network.InstanceOptions{Engine: engine})
		if want := fmt.Sprintf("network: unknown engine %q", engine); err == nil || err.Error() != want {
			t.Fatalf("engine %q: err = %v, want %s", engine, err, want)
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS: outputs must not depend on scheduling —
// the engine parallelizes node calls, but nodes are independent within
// a round, so any worker count must give identical results.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	rng := xrand.New(123)
	g := graph.ConnectedGNM(30, 90, rng)
	runWith := func(procs int) []any {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := runOnce(g, &echoProgram{rounds: 5}, network.Options{}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a := runWith(1)
	b := runWith(8)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d output depends on GOMAXPROCS", v)
		}
	}
}

// TestZeroRoundProgram: a program that declares zero rounds still produces
// outputs and empty stats.
type zeroProgram struct{}

func (zeroProgram) Rounds(n, m int) int                        { return 0 }
func (zeroProgram) NewNode(info network.NodeInfo) network.Node { return constNode{info.ID} }

type constNode struct{ id network.ID }

func (c constNode) Send(int, [][]byte)    {}
func (c constNode) Receive(int, [][]byte) {}
func (c constNode) Output() any           { return c.id }

func TestZeroRoundProgram(t *testing.T) {
	g := graph.Path(4)
	res, err := runOnce(g, zeroProgram{}, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MessagesSent != 0 || res.Stats.Rounds != 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
	for v, o := range res.Outputs {
		if o.(network.ID) != network.ID(v) {
			t.Fatalf("output %v at vertex %d", o, v)
		}
	}
}

// TestSingleNodeGraph: a 1-vertex network (no edges) runs without issue.
func TestSingleNodeGraph(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	res, err := runOnce(g, &echoProgram{rounds: 3}, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].(string) != "" {
		t.Fatalf("phantom receipts: %v", res.Outputs[0])
	}
}

// TestPerRoundStatsConsistency: per-round traffic must sum to the totals.
func TestPerRoundStatsConsistency(t *testing.T) {
	rng := xrand.New(55)
	g := graph.ConnectedGNM(12, 30, rng)
	res, err := runOnce(g, &echoProgram{rounds: 4}, network.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bits, msgs int64
	maxBits := 0
	for r := 0; r < res.Stats.Rounds; r++ {
		bits += res.Stats.PerRoundBits[r]
		msgs += res.Stats.PerRoundMessages[r]
		if res.Stats.PerRoundMaxBits[r] > maxBits {
			maxBits = res.Stats.PerRoundMaxBits[r]
		}
	}
	if bits != res.Stats.TotalBits || msgs != res.Stats.MessagesSent || maxBits != res.Stats.MaxMessageBits {
		t.Fatalf("per-round stats inconsistent: %+v", res.Stats)
	}
	// Echo sends on every directed edge every round.
	for r := 0; r < res.Stats.Rounds; r++ {
		if res.Stats.PerRoundMessages[r] != int64(2*g.M()) {
			t.Fatalf("round %d: %d messages want %d", r+1, res.Stats.PerRoundMessages[r], 2*g.M())
		}
	}
}
