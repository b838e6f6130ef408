package exec

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/leakcheck"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
)

// readGate holds every storage read until the first wave of nodes has
// started. Each node reads its inputs only after NodeStart, so no node can
// finish — and free a token for a later one — before the whole first wave
// is dispatched: the first `wave` NodeStart events are exactly the nodes
// the dispatcher chose first, whatever the goroutine interleaving.
type readGate struct {
	storage.Store
	wave int

	mu      sync.Mutex
	started []string
	open    chan struct{}
}

func (g *readGate) Read(name string) ([]byte, error) {
	<-g.open
	return g.Store.Read(name)
}

func (g *readGate) OnEvent(e obs.Event) {
	if e.Kind != obs.NodeStart {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.started = append(g.started, e.Node)
	if len(g.started) == g.wave {
		close(g.open)
	}
}

// dispatchNodes is a two-branch DAG whose plan order lists the short
// branch (two cheap roots) first, while the long branch is the chain
// long1 → long2 → long3:
//
//	t ─→ short_a
//	t ─→ short_b
//	t ─→ long1 ─→ long2 ─→ long3
var dispatchNodes = []NodeSpec{
	{Name: "short_a", SQL: `SELECT k, v FROM t WHERE k < 5`},
	{Name: "short_b", SQL: `SELECT k FROM t WHERE k >= 5`},
	{Name: "long1", SQL: `SELECT k, SUM(v) AS sv FROM t GROUP BY k`},
	{Name: "long2", SQL: `SELECT k, sv FROM long1 WHERE sv > 0`},
	{Name: "long3", SQL: `SELECT COUNT(*) AS n FROM long2`},
}

// learnedHistory records the costs past runs would have taught: the short
// roots take 1 ms, every long-branch node 50 ms, each output 1 KiB.
func learnedHistory() *metrics.Store {
	md := metrics.NewStore()
	for _, n := range dispatchNodes {
		wall := 50 * time.Millisecond
		if n.Name == "short_a" || n.Name == "short_b" {
			wall = time.Millisecond
		}
		md.Record(metrics.Observation{Name: n.Name, WallTime: wall, OutputBytes: 1 << 10})
	}
	return md
}

// runDispatch runs the DAG once with the given worker count, history and
// catalog, and returns the NodeStart sequence plus every MV's stored bytes.
func runDispatch(t *testing.T, workers int, md *metrics.Store, mem *memcat.Catalog, flagged ...string) ([]string, map[string][]byte) {
	t.Helper()
	inner := storage.NewMemStore()
	tb := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "v", Type: table.Float},
	))
	for i := 0; i < 10; i++ {
		if err := tb.AppendRow(table.IntValue(int64(i)), table.FloatValue(float64(i)+0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveTable(inner, "t", tb); err != nil {
		t.Fatal(err)
	}
	w := &Workload{Nodes: dispatchNodes}
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan([]dag.NodeID{0, 1, 2, 3, 4}) // dispatchNodes order
	for _, name := range flagged {
		plan.Flagged[g.Lookup(name)] = true
	}
	wave := min(workers, 2)
	gate := &readGate{Store: inner, wave: wave, open: make(chan struct{})}
	tok := sched.New(max(workers, 1), 0)
	ctl := &Controller{
		Store: gate, Mem: mem, Obs: gate,
		Concurrency: workers, Sched: tok, History: md,
	}
	if _, err := ctl.Run(context.Background(), w, g, plan); err != nil {
		t.Fatal(err)
	}
	if st := tok.Stats(); st.Idle != st.Tokens {
		t.Fatalf("scheduler tokens leaked: %+v", st)
	}
	out := make(map[string][]byte)
	for _, n := range dispatchNodes {
		data, err := inner.Read(tableObject(n.Name))
		if err != nil {
			t.Fatal(err)
		}
		out[n.Name] = data
	}
	return gate.started, out
}

// TestDispatchFollowsLearnedCriticalPath checks when the dispatcher
// reorders: with two workers and a learned history the long branch's root
// is in the first wave, displacing the second short root; one worker, no
// history, a partly observed workload or a binding budget keep plan order.
// Every case writes byte-identical MVs and returns every token and
// goroutine.
func TestDispatchFollowsLearnedCriticalPath(t *testing.T) {
	defer leakcheck.Check(t)

	planOrder := []string{"short_a", "short_b", "long1", "long2", "long3"}
	partial := metrics.NewStore()
	partial.Record(metrics.Observation{Name: "long1", WallTime: 50 * time.Millisecond})

	refStarts, ref := runDispatch(t, 1, nil, memcat.New(1<<20))
	if !slices.Equal(refStarts, planOrder) {
		t.Fatalf("serial reference started %v, want plan order", refStarts)
	}
	cases := []struct {
		name      string
		workers   int
		md        *metrics.Store
		capacity  int64
		flagged   []string
		wantFirst []string // the first wave, as a set
	}{
		{"two workers, learned", 2, learnedHistory(), 1 << 20, nil, []string{"long1", "short_a"}},
		{"two workers, learned, flags fit", 2, learnedHistory(), 1 << 20, []string{"long1", "short_a"}, []string{"long1", "short_a"}},
		{"one worker, learned", 1, learnedHistory(), 1 << 20, nil, planOrder},
		{"two workers, no history", 2, nil, 1 << 20, nil, []string{"short_a", "short_b"}},
		{"two workers, partly observed", 2, partial, 1 << 20, nil, []string{"short_a", "short_b"}},
		// Two flagged 1 KiB outputs do not fit a 1.5 KiB catalog together.
		{"two workers, budget binds", 2, learnedHistory(), 3 << 9, []string{"long1", "short_a"}, []string{"short_a", "short_b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			starts, got := runDispatch(t, tc.workers, tc.md, memcat.New(tc.capacity), tc.flagged...)
			if len(starts) != len(planOrder) {
				t.Fatalf("started %v, want all %d nodes", starts, len(planOrder))
			}
			first := starts[:len(tc.wantFirst)]
			if tc.workers > 1 {
				first = slices.Clone(first)
				slices.Sort(first)
				want := slices.Clone(tc.wantFirst)
				slices.Sort(want)
				if !slices.Equal(first, want) {
					t.Fatalf("first wave %v, want %v (all starts %v)", first, want, starts)
				}
			} else if !slices.Equal(first, tc.wantFirst) {
				t.Fatalf("started %v, want exact plan order %v", starts, tc.wantFirst)
			}
			for name, data := range ref {
				if !bytes.Equal(got[name], data) {
					t.Errorf("%s differs from the serial plan-order run", name)
				}
			}
		})
	}
}

// TestCriticalRankBottomLevels pins the rank arithmetic: bottom level is a
// node's wall time plus the longest path below it, descending, with plan
// position breaking ties.
func TestCriticalRankBottomLevels(t *testing.T) {
	g := dag.New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.MustAddEdge(a, c) // a → c: 1 + 5 = 6
	g.MustAddEdge(b, d) // b → d: 3 + 3 = 6, ties with a
	md := metrics.NewStore()
	for name, ms := range map[string]int{"a": 1, "b": 3, "c": 5, "d": 3} {
		md.Record(metrics.Observation{Name: name, WallTime: time.Duration(ms) * time.Millisecond})
	}
	plan := core.NewPlan([]dag.NodeID{b, a, c, d})
	rank := (&Controller{History: md}).criticalRank(g, plan)
	// Levels: a 6, b 6, c 5, d 3; a and b tie, b is earlier in the plan.
	want := make([]int, 4)
	want[a], want[b], want[c], want[d] = 1, 0, 2, 3
	if !slices.Equal(rank, want) {
		t.Fatalf("rank = %v, want %v", rank, want)
	}
}
