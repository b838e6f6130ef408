package flagsel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/testutil"
)

var allSelectors = []Selector{MKP{}, Greedy{}, Random{Seed: 1}, Ratio{}}

func TestAllSelectorsFeasibleProperty(t *testing.T) {
	for _, s := range allSelectors {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				p := testutil.RandomProblem(rng, 20)
				ord, err := p.G.TopoSort()
				if err != nil {
					return false
				}
				pl, err := s.Select(p, ord)
				if err != nil {
					return false
				}
				return core.Feasible(p, pl) && p.G.IsTopological(pl.Order)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMKPDominatesBaselinesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testutil.RandomProblem(rng, 20)
		ord, err := p.G.TopoSort()
		if err != nil {
			return false
		}
		mkp, err := MKP{}.Select(p, ord)
		if err != nil {
			return false
		}
		for _, base := range []Selector{Greedy{}, Random{Seed: seed}, Ratio{}} {
			bl, err := base.Select(p, ord)
			if err != nil {
				return false
			}
			// MKP is exact over the same feasible region, so with
			// non-negative scores it can never lose. Allow for the
			// millisecond rounding of profits.
			if mkp.TotalScore(p)+0.001 < bl.TotalScore(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMKPFigure7UnderBothOrders(t *testing.T) {
	p := testutil.Figure7()

	pl1, err := MKP{}.Select(p, testutil.Tau1)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl1.TotalScore(p); got != 120 {
		t.Fatalf("τ1 score = %v, want 120 (flagged %v)", got, pl1.FlaggedIDs())
	}

	pl2, err := MKP{}.Select(p, testutil.Tau2)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl2.TotalScore(p); got != 210 {
		t.Fatalf("τ2 score = %v, want 210 (flagged %v)", got, pl2.FlaggedIDs())
	}
	if !pl2.Flagged[0] || !pl2.Flagged[2] || !pl2.Flagged[5] {
		t.Fatalf("τ2 flagged = %v, want v1,v3,v6", pl2.FlaggedIDs())
	}
}

func TestMKPNeverFlagsOversizedOrZeroScore(t *testing.T) {
	p := testutil.Figure7()
	p.Sizes[1] = 500 * testutil.GB // v2 larger than M
	p.Scores[3] = 0                // v4 worthless
	pl, err := MKP{}.Select(p, testutil.Tau2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Flagged[1] {
		t.Fatal("flagged node larger than Memory Catalog")
	}
	if pl.Flagged[3] {
		t.Fatal("flagged zero-score node")
	}
}

func TestGreedyFlagsEverythingWhenMemoryHuge(t *testing.T) {
	p := testutil.Figure7()
	p.Memory = 1000 * testutil.GB
	pl, err := Greedy{}.Select(p, testutil.Tau1)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range pl.Flagged {
		if !f {
			t.Fatalf("node %d not flagged despite huge memory", i)
		}
	}
}

func TestGreedySkipsOversizedNodes(t *testing.T) {
	p := testutil.Figure7()
	p.Memory = 50 * testutil.GB
	pl, err := Greedy{}.Select(p, testutil.Tau1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Flagged[0] || pl.Flagged[2] {
		t.Fatalf("flagged 100GB node with 50GB catalog: %v", pl.FlaggedIDs())
	}
	// The 10GB nodes all fit one at a time.
	for _, id := range []int{1, 3, 4, 5} {
		if !pl.Flagged[id] {
			t.Fatalf("node %d should be flagged: %v", id, pl.FlaggedIDs())
		}
	}
}

func TestRandomIsSeedDeterministic(t *testing.T) {
	p := testutil.Figure7()
	a, err := Random{Seed: 7}.Select(p, testutil.Tau1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random{Seed: 7}.Select(p, testutil.Tau1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flagged {
		if a.Flagged[i] != b.Flagged[i] {
			t.Fatal("Random selector not deterministic for fixed seed")
		}
	}
}

func TestRatioPrefersDenseNodes(t *testing.T) {
	p := testutil.Figure7()
	// Make v5 enormously dense: tiny size, huge score.
	p.Sizes[4] = 1
	p.Scores[4] = 1000
	pl, err := Ratio{}.Select(p, testutil.Tau1)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Flagged[4] {
		t.Fatalf("densest node not flagged: %v", pl.FlaggedIDs())
	}
}

func TestZeroMemoryFlagsOnlyZeroSizedNodes(t *testing.T) {
	p := testutil.Figure7()
	p.Memory = 0
	for _, s := range allSelectors {
		pl, err := s.Select(p, testutil.Tau1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for i, f := range pl.Flagged {
			if f && p.Sizes[i] > 0 {
				t.Fatalf("%s flagged node %d with zero memory", s.Name(), i)
			}
		}
	}
}

func TestIntScore(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{0, 0}, {1.0, 1000}, {0.0004, 0}, {0.0006, 1}, {-3, 0}, {2.5, 2500},
	}
	for _, c := range cases {
		if got := intScore(c.in); got != c.want {
			t.Errorf("intScore(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNewResolvesRegisteredNames(t *testing.T) {
	for _, name := range []string{"mkp", "greedy", "random", "ratio"} {
		if _, err := New(name, 1); err != nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	if _, err := New("nope", 1); err == nil {
		t.Error("unknown selector accepted")
	}
}
