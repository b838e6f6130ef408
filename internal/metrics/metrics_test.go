package metrics

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/obs"
)

func chain() *dag.Graph {
	g := dag.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	return g
}

func TestRecordAndLatest(t *testing.T) {
	s := NewStore()
	if _, ok := s.Latest("a"); ok {
		t.Fatal("empty store returned an observation")
	}
	s.Record(Observation{Name: "a", OutputBytes: 100})
	s.Record(Observation{Name: "a", OutputBytes: 200})
	o, ok := s.Latest("a")
	if !ok || o.OutputBytes != 200 {
		t.Fatalf("Latest = %+v, %v", o, ok)
	}
	if len(s.History("a")) != 2 {
		t.Fatalf("History = %d entries", len(s.History("a")))
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestHistoryIsBounded(t *testing.T) {
	s := NewStore()
	for i := 1; i <= maxHistory+5; i++ {
		s.Record(Observation{Name: "a", OutputBytes: int64(i)})
	}
	h := s.History("a")
	if len(h) != maxHistory || h[0].OutputBytes != 6 {
		t.Fatalf("History = %d entries starting at %d, want %d starting at 6", len(h), h[0].OutputBytes, maxHistory)
	}
	if o, _ := s.Latest("a"); o.OutputBytes != maxHistory+5 {
		t.Fatalf("Latest = %d", o.OutputBytes)
	}
}

func TestRecorderLearnsMeanWall(t *testing.T) {
	s := NewStore()
	rec := NewRecorder(s)
	if _, ok := s.MeanWall("a"); ok {
		t.Fatal("empty store claims a wall time")
	}
	rec.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Elapsed: 10 * time.Millisecond})
	rec.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Elapsed: 30 * time.Millisecond})
	rec.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Elapsed: time.Second, Err: errors.New("boom")})
	s.Record(Observation{Name: "a"}) // recorded without a wall time
	if got, ok := s.MeanWall("a"); !ok || got != 20*time.Millisecond {
		t.Fatalf("MeanWall = %v, %v; want 20ms", got, ok)
	}
}

func TestMeanCompute(t *testing.T) {
	s := NewStore()
	if _, ok := s.MeanCompute("a"); ok {
		t.Fatal("empty store claims a compute time")
	}
	s.Record(Observation{Name: "a", ComputeTime: 30 * time.Millisecond})
	s.Record(Observation{Name: "a"}) // a run that computed for no measurable time
	s.Record(Observation{Name: "a", ComputeTime: 60 * time.Millisecond})
	if got, ok := s.MeanCompute("a"); !ok || got != 30*time.Millisecond {
		t.Fatalf("MeanCompute = %v, %v; want 30ms", got, ok)
	}
}

func TestSizesUsesFallback(t *testing.T) {
	g := chain()
	s := NewStore()
	s.Record(Observation{Name: "b", OutputBytes: 777})
	sizes := s.Sizes(g, 42)
	if sizes[0] != 42 || sizes[1] != 777 || sizes[2] != 42 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func TestScoresPreferObservedWriteTime(t *testing.T) {
	g := chain()
	d := costmodel.PaperProfile()
	s := NewStore()
	sizes := []int64{1 << 30, 1 << 30, 1 << 30}
	modelOnly := s.Scores(g, sizes, d)
	// Record a write 10x slower than the model predicts for node a.
	s.Record(Observation{Name: "a", WriteTime: 10 * d.DiskWrite(sizes[0])})
	observed := s.Scores(g, sizes, d)
	if observed[0] <= modelOnly[0] {
		t.Fatalf("observed slow write did not raise score: %v vs %v", observed[0], modelOnly[0])
	}
	if observed[1] != modelOnly[1] {
		t.Fatal("unobserved node score changed")
	}
}

func TestScoresNonNegative(t *testing.T) {
	g := chain()
	s := NewStore()
	for _, sc := range s.Scores(g, []int64{0, 0, 0}, costmodel.PaperProfile()) {
		if sc < 0 {
			t.Fatalf("negative score %v", sc)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	s.Record(Observation{
		Name: "mv1", OutputBytes: 123,
		ReadTime: time.Second, WriteTime: 2 * time.Second, ComputeTime: 3 * time.Second,
		When: time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC),
	})
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := got.Latest("mv1")
	if !ok || o.OutputBytes != 123 || o.WriteTime != 2*time.Second {
		t.Fatalf("round trip lost data: %+v", o)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}
