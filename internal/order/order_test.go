package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/testutil"
)

var allOrderers = []Orderer{MADFS{}, DFS{Seed: 1}, Kahn{}, SA{Seed: 1, Iterations: 500}, Separator{}}

func TestAllOrderersProduceTopologicalOrders(t *testing.T) {
	for _, o := range allOrderers {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				p := testutil.RandomProblem(rng, 20)
				fl := testutil.RandomFlagged(rng, p)
				ord, err := o.Order(p, fl)
				if err != nil {
					return false
				}
				return p.G.IsTopological(ord)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMADFSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := testutil.RandomProblem(rng, 25)
	fl := testutil.RandomFlagged(rng, p)
	a, err := MADFS{}.Order(p, fl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MADFS{}.Order(p, fl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("MA-DFS not deterministic: %v vs %v", a, b)
		}
	}
}

// TestMADFSSchedulesLargeFlaggedBranchLast exercises the Figure 8 intuition
// on a diamond: r→{a,b}→c with a flagged and huge. MA-DFS must execute b
// before a so a's output is released one step after creation.
func TestMADFSSchedulesLargeFlaggedBranchLast(t *testing.T) {
	p := testutil.Diamond()
	fl := []bool{false, true, false, false} // flag only a (node 1)
	ord, err := MADFS{}.Order(p, fl)
	if err != nil {
		t.Fatal(err)
	}
	pos := core.Positions(ord)
	if pos[2] > pos[1] {
		t.Fatalf("order %v: b (unflagged) should run before a (flagged, 100GB)", ord)
	}
	pl := &core.Plan{Order: ord, Flagged: fl}
	// a must be resident exactly one unit step: created at pos[a],
	// released at pos[c] = pos[a]+1.
	if got := core.AverageMemoryUsage(p, pl); got != float64(100*testutil.GB)/4 {
		t.Fatalf("avg mem = %v, want %v", got, float64(100*testutil.GB)/4)
	}
}

func TestMADFSTieBreakFlaggedVsUnflagged(t *testing.T) {
	// Unflagged 100GB node vs flagged 80GB node as sibling branches:
	// actual memory consumption of the unflagged node is 0, so it goes
	// first even though it is physically larger (Figure 8's v2 vs v3).
	g := dag.New()
	r := g.AddNode("r")
	big := g.AddNode("big-unflagged")
	med := g.AddNode("med-flagged")
	sink := g.AddNode("sink")
	g.MustAddEdge(r, big)
	g.MustAddEdge(r, med)
	g.MustAddEdge(big, sink)
	g.MustAddEdge(med, sink)
	p := &core.Problem{
		G:      g,
		Sizes:  []int64{1, 100 * testutil.GB, 80 * testutil.GB, 1},
		Scores: []float64{1, 0, 80, 1},
		Memory: 100 * testutil.GB,
	}
	fl := []bool{false, false, true, false}
	ord, err := MADFS{}.Order(p, fl)
	if err != nil {
		t.Fatal(err)
	}
	pos := core.Positions(ord)
	if pos[1] > pos[2] {
		t.Fatalf("order %v: unflagged big node should run before flagged one", ord)
	}
}

func TestSANeverWorseThanInitialOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 20)
		fl := testutil.RandomFlagged(rng, p)
		init, err := p.G.TopoSort()
		if err != nil {
			return false
		}
		initCost := core.AverageMemoryUsage(p, &core.Plan{Order: init, Flagged: fl})
		got, err := SA{Seed: seed, Iterations: 300}.Order(p, fl)
		if err != nil {
			return false
		}
		gotCost := core.AverageMemoryUsage(p, &core.Plan{Order: got, Flagged: fl})
		return gotCost <= initCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapValidPreservesTopology(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 15)
		ord, err := p.G.TopoSort()
		if err != nil {
			return false
		}
		n := len(ord)
		if n < 2 {
			return true
		}
		for try := 0; try < 20; try++ {
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-1-i)
			if swapValid(p.G, ord, i, j) {
				ord[i], ord[j] = ord[j], ord[i]
				if !p.G.IsTopological(ord) {
					return false
				}
				ord[i], ord[j] = ord[j], ord[i]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapValidRejectsDependentPairs(t *testing.T) {
	p := testutil.Figure7()
	ord := testutil.Tau1
	// v1 (pos 0) → v2 (pos 1): direct edge.
	if swapValid(p.G, ord, 0, 1) {
		t.Fatal("swap across a direct edge accepted")
	}
	// v1 (pos 0) and v3 (pos 2): path v1→v2→v3 via between node.
	if swapValid(p.G, ord, 0, 2) {
		t.Fatal("swap across a path accepted")
	}
}

func TestSeparatorHandlesSingletonAndChain(t *testing.T) {
	g := dag.New()
	g.AddNode("only")
	p := &core.Problem{G: g, Sizes: []int64{5}, Scores: []float64{1}, Memory: 10}
	ord, err := Separator{}.Order(p, nil)
	if err != nil || len(ord) != 1 {
		t.Fatalf("singleton: %v, %v", ord, err)
	}

	g2 := dag.New()
	for i := 0; i < 6; i++ {
		g2.AddNode("c")
		if i > 0 {
			g2.MustAddEdge(dag.NodeID(i-1), dag.NodeID(i))
		}
	}
	p2 := &core.Problem{G: g2, Sizes: make([]int64, 6), Scores: make([]float64, 6), Memory: 10}
	ord2, err := Separator{}.Order(p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A chain has exactly one topological order.
	for i, id := range ord2 {
		if int(id) != i {
			t.Fatalf("chain order = %v", ord2)
		}
	}
}

func TestKahnMatchesGraphTopoSort(t *testing.T) {
	p := testutil.Figure7()
	a, err := Kahn{}.Order(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.G.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Kahn = %v, TopoSort = %v", a, b)
		}
	}
}

func TestNewResolvesRegisteredNames(t *testing.T) {
	for _, name := range []string{"ma-dfs", "dfs", "kahn", "sa", "separator"} {
		if _, err := New(name, 1); err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	if _, err := New("nope", 1); err == nil {
		t.Error("unknown orderer accepted")
	}
}

func TestMADFSOnFigure7ReleasesFlaggedQuickly(t *testing.T) {
	p := testutil.Figure7()
	// Flag v3 only: MA-DFS should still produce a valid order where v3's
	// branch completes promptly after v3 executes.
	fl := make([]bool, 6)
	fl[2] = true
	ord, err := MADFS{}.Order(p, fl)
	if err != nil {
		t.Fatal(err)
	}
	if !p.G.IsTopological(ord) {
		t.Fatalf("order %v not topological", ord)
	}
	pos := core.Positions(ord)
	// v5 (v3's only child) must execute immediately after v3: depth-first
	// descent with nothing cheaper available.
	if pos[4] != pos[2]+1 {
		t.Fatalf("order %v: v5 should directly follow v3", ord)
	}
}
