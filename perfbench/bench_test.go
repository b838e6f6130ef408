package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

func TestSummarizeCountsAndPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 100 || s.Max != 100 || s.P50 != 50.5 {
		t.Fatalf("N/max/p50 = %d/%v/%v", s.N, s.Max, s.P50)
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.25); q != 1.75 {
		t.Fatalf("q1 of 1..4 = %v, want 1.75", q)
	}
	// p90 is the highest percentile with at least ten samples beyond it.
	if s.TailPct != 90 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Fatalf("tail = p%d %v", s.TailPct, s.Tail)
	}
	if xs[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
}

func TestSummarizeSmallAndEmpty(t *testing.T) {
	if s := summarize(nil); s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.P50 != 2 || s.TailPct != 100 || s.Tail != 3 {
		t.Fatalf("three samples: %+v", s)
	}
	if s := summarize(make([]float64, 1000)); s.TailPct != 99 {
		t.Fatalf("1000 samples: tail p%d, want p99", s.TailPct)
	}
	if s := summarize(make([]float64, 25)); s.TailPct != 50 {
		t.Fatalf("25 samples: tail p%d, want p50", s.TailPct)
	}
	if median([]float64{7}) != 7 || median(nil) != 0 {
		t.Fatal("median of one or none")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first: [10,50] counts once
		{Start: 60, End: 70},  // disjoint
		{Start: 65, End: 68},  // inside the previous one
		{Start: 90, End: 120}, // clipped to the parent's end
		{Start: -5, End: 0},   // outside the parent
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("self time = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestRefreshLayersSplitsWrites(t *testing.T) {
	root := span{Layer: "refresh", Start: 0, End: 1000, Attrs: map[string]float64{"memcat.peak_bytes": 5}}
	spans := []span{
		{Name: "node", Layer: "exec", Object: "a", Start: 0, End: 400, Attrs: map[string]float64{"compute_s": 1e-7}},
		{Name: "node", Layer: "exec", Object: "b", Start: 400, End: 800},
		{Name: "read", Layer: "storage", Object: "base.sct", Start: 10, End: 110},
		{Name: "write", Layer: "storage", Object: "a.sct", Start: 300, End: 400}, // blocking: inside a
		{Name: "write", Layer: "storage", Object: "b.sct", Start: 700, End: 900}, // background: outlives b
		{Name: "write", Layer: "storage", Object: "c.sct", Start: 750, End: 950}, // background, overlapping
		{Name: "read", Layer: "storage", Object: "a.sct", Start: 500, End: 600},  // inside b
		{Name: "encode", Layer: "encoding", Start: 380, End: 390, Attrs: map[string]float64{"raw_bytes": 8, "encoded_bytes": 2}},
	}
	m := refreshLayers(root, spans)
	want := map[string]float64{
		"memcat.peak_bytes":       5,
		"storage.read_calls":      2,
		"storage.write_calls":     3,
		"exec.node_s":             800e-9,
		"exec.node_self_s":        500e-9, // a: 400-100-100, b: 400-100
		"exec.blocking_write_s":   100e-9,
		"exec.background_write_s": 250e-9, // [700,950] once
		"exec.tail_s":             200e-9,
		"exec.parallelism":        1,
		"engine.compute_s":        1e-7,
		"encoding.raw_bytes":      8,
		"encoding.encoded_bytes":  2,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	t.Chdir(t.TempDir())
	rec := newRecorder()
	rec.on.Store(true)
	tr := rec.newTrace()
	rec.add(span{Name: "refresh", Layer: "refresh", Start: 1, End: 9, Attrs: map[string]float64{"x": 2}})
	spans, err := saveSpans(options{workload: "w", seed: 3}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Trace != tr || spans[0].Attrs["x"] != 2 || spans[0].dur() != 8 {
		t.Fatalf("spans = %+v", spans)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must honour.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestEveryDeclaredMetricIsPrintedWithItsUnit(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	declared := make(map[string]metricDef)
	for _, m := range bf.EndToEnd {
		declared[m.Name] = metricDef{m.Name, m.Unit, m.Better, true}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = metricDef{m.Name, m.Unit, m.Better, false}
	}
	if len(declared) != len(metricDefs) {
		t.Errorf("%d metrics declared, %d defined", len(declared), len(metricDefs))
	}
	res := newResult()
	res.attempted = 1
	for i, d := range metricDefs {
		if declared[d.Name] != d {
			t.Errorf("metric %+v is declared as %+v", d, declared[d.Name])
		}
		res.set(d.Name, float64(i+1)/3, i)
	}

	t.Chdir(t.TempDir())
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		o := options{workload: "tpcds-io", seed: 1, seconds: 1, trace: trace}
		if _, err := report(o, workloads[o.workload], res, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last finalLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		for _, d := range metricDefs {
			if !printedWithUnit(lines, d) {
				t.Errorf("trace %v: %s not printed with unit %s", trace, d.Name, d.Unit)
			}
			got, ok := last.Metrics[d.Name]
			if ok != (d.EndToEnd != trace) {
				t.Errorf("trace %v: %s in the final line = %v", trace, d.Name, ok)
			}
			if ok && got.Unit != d.Unit {
				t.Errorf("trace %v: %s unit %q, want %q", trace, d.Name, got.Unit, d.Unit)
			}
		}
	}
}

func printedWithUnit(lines []string, d metricDef) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == d.Name && f[2] == d.Unit && strings.HasPrefix(f[3], "n=") {
			return true
		}
	}
	return false
}

func TestUnmeasuredEndToEndMetricIsAnError(t *testing.T) {
	res := newResult()
	res.set("refresh_s", 1, 1)
	if _, err := selectMetrics(res, false); err == nil {
		t.Fatal("missing setup_s and peak_heap_bytes accepted")
	}
	res.set("setup_s", 1, 1)
	res.set("peak_heap_bytes", 0, 1)
	if _, err := selectMetrics(res, false); err == nil {
		t.Fatal("zero peak_heap_bytes accepted")
	}
}

func TestTableDigestSeesEveryRow(t *testing.T) {
	a := intTable(t, [][]int64{{1, 2}, {3, 4}})
	if tableDigest(a) == tableDigest(intTable(t, [][]int64{{1, 2}, {3, 5}})) {
		t.Fatal("tables differing in one value share a digest")
	}
	if tableDigest(a) != tableDigest(intTable(t, [][]int64{{1, 2}, {3, 4}})) {
		t.Fatal("equal tables differ")
	}
}

func intTable(t *testing.T, rows [][]int64) *table.Table {
	tb := table.New(table.NewSchema(table.Column{Name: "x", Type: table.Int}, table.Column{Name: "y", Type: table.Int}))
	for _, r := range rows {
		if err := tb.AppendRow(table.IntValue(r[0]), table.IntValue(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}
