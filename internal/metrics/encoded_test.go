package metrics

import (
	"reflect"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/obs"
)

func pair(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEncodedSizesPrefersEncodedThenRawThenFallback(t *testing.T) {
	g := pair(t)
	s := NewStore()
	// "a" observed with an encoded size; "b" observed without one.
	s.Record(Observation{Name: "a", OutputBytes: 1000, EncodedBytes: 120, When: time.Now()})
	s.Record(Observation{Name: "b", OutputBytes: 500, When: time.Now()})
	got := s.EncodedSizes(g, 9999)
	if got[0] != 120 || got[1] != 500 {
		t.Fatalf("EncodedSizes = %v, want [120 500]", got)
	}
	// Unobserved graph: everything falls back.
	empty := NewStore()
	got = empty.EncodedSizes(g, 9999)
	if got[0] != 9999 || got[1] != 9999 {
		t.Fatalf("fallback EncodedSizes = %v", got)
	}
}

func TestRecorderCapturesEncodedBytes(t *testing.T) {
	s := NewStore()
	r := NewRecorder(s)
	r.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Bytes: 1000, Encoded: 130})
	o, ok := s.Latest("a")
	if !ok || o.EncodedBytes != 130 || o.OutputBytes != 1000 {
		t.Fatalf("observation = %+v", o)
	}
	// EncodeDone/DecodeDone events are telemetry, not observations.
	r.OnEvent(obs.Event{Kind: obs.EncodeDone, Node: "enc", Bytes: 1, Encoded: 1})
	if _, ok := s.Latest("enc"); ok {
		t.Fatal("EncodeDone recorded as an observation")
	}
}

func TestRecorderStampsRunID(t *testing.T) {
	s := NewStore()
	r := NewRecorder(s)
	r.OnEvent(obs.Event{Kind: obs.NodeDone, Node: "a", Bytes: 10, RunID: "run-000007"})
	o, ok := s.Latest("a")
	if !ok || o.RunID != "run-000007" {
		t.Fatalf("observation = %+v", o)
	}
}

func TestScoresSizedUsesDiskSizes(t *testing.T) {
	g := pair(t)
	s := NewStore()
	d := costmodel.PaperProfile()
	raw := []int64{10 << 20, 1 << 20}
	enc := []int64{1 << 20, 1 << 20}
	plain := s.ScoresSized(g, raw, raw, d)
	comp := s.ScoresSized(g, raw, enc, d)
	if comp[0] >= plain[0] {
		t.Fatalf("compressed disk sizes should shrink node a's score: %f vs %f", comp[0], plain[0])
	}
	// Observed write times still win over the model, either way.
	s.Record(Observation{Name: "a", OutputBytes: 10 << 20, WriteTime: 3 * time.Second, When: time.Now()})
	withObs := s.ScoresSized(g, raw, enc, d)
	if withObs[0] <= comp[0] {
		t.Fatalf("observed 3s write should dominate: %f vs %f", withObs[0], comp[0])
	}
}

func TestProblemWeighsEncodedFootprints(t *testing.T) {
	g := pair(t)
	s := NewStore()
	d := costmodel.PaperProfile()
	s.Record(Observation{Name: "a", OutputBytes: 10 << 20, EncodedBytes: 1 << 20, When: time.Now()})
	plain, raw := s.Problem(g, 5<<20, 1<<10, d, false)
	if !reflect.DeepEqual(plain.Sizes, raw) || !reflect.DeepEqual(plain.Scores, s.Scores(g, raw, d)) || plain.Memory != 5<<20 {
		t.Fatalf("uncompressed problem = %+v, raw %v", plain, raw)
	}
	comp, raw2 := s.Problem(g, 5<<20, 1<<10, d, true)
	enc := s.EncodedSizes(g, 1<<10)
	if !reflect.DeepEqual(raw2, raw) || !reflect.DeepEqual(comp.Sizes, enc) ||
		!reflect.DeepEqual(comp.Scores, s.ScoresSized(g, raw, enc, d)) {
		t.Fatalf("compressed problem = %+v, want sizes %v", comp, enc)
	}
}
