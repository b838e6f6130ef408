package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

func TestOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ledger.OutcomeSucceeded},
		{context.Canceled, ledger.OutcomeCanceled},
		{fmt.Errorf("node m2: %w", context.DeadlineExceeded), ledger.OutcomeCanceled},
		{errors.New("boom"), ledger.OutcomeFailed},
	}
	for _, c := range cases {
		if got := Outcome(c.err); got != c.want {
			t.Errorf("Outcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestRunAndFinish drives the whole loop on a two-node chain: plan from
// the problem, run, finish into the ledger under tail sampling, and link
// the next run's spans through the remembered node spans.
func TestRunAndFinish(t *testing.T) {
	store := storage.NewMemStore()
	sales := table.New(table.NewSchema(
		table.Column{Name: "day", Type: table.Int},
		table.Column{Name: "amount", Type: table.Float},
	))
	for i := 0; i < 20; i++ {
		if err := sales.AppendRow(table.IntValue(int64(i%4)), table.FloatValue(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := exec.SaveTable(store, "sales", sales); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Name: "p", Store: store, MVs: []exec.NodeSpec{
		{Name: "daily", SQL: `SELECT day, SUM(amount) AS total FROM sales GROUP BY day`},
		{Name: "top", SQL: `SELECT day, total FROM daily WHERE total > 40`},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string][]string{"top": {"daily"}}; !reflect.DeepEqual(p.Parents, want) {
		t.Fatalf("Parents = %v, want %v", p.Parents, want)
	}

	var exported bytes.Buffer
	f := Finisher{Exporter: telemetry.NewWriterExporter(&exported, ""), TailSample: true}
	if f.Ledger, err = ledger.New(ledger.Config{}); err != nil {
		t.Fatal(err)
	}
	type finished struct {
		spans   []telemetry.Span
		sum     ledger.RunSummary
		sampled string
	}
	run := func(id string, meta ledger.Meta) finished {
		t.Helper()
		prob, _ := p.Problem(1<<20, 1<<10, costmodel.PaperProfile())
		plan, _, err := opt.Solve(context.Background(), prob, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		col := telemetry.NewCollector(telemetry.CollectorConfig{RunID: id, LinkResolver: p.LastNodeSpan})
		_, err = p.Run(context.Background(), plan, RunOptions{
			Mem: memcat.New(1 << 20), RunID: id, Observers: []obs.Observer{col.Observer()},
		})
		meta.RunID, meta.Pipeline = id, p.Name
		if meta.Outcome == "" {
			meta.Outcome = Outcome(err)
		}
		spans, sum, sampled := f.Finish(p, col, time.Time{}, meta)
		return finished{spans, sum, sampled}
	}

	first := run("r1", ledger.Meta{})
	if first.sum.Outcome != ledger.OutcomeSucceeded || len(first.sum.Nodes) != 2 {
		t.Fatalf("summary = %+v", first.sum)
	}
	if first.sampled != "dropped" || exported.Len() != 0 {
		t.Fatalf("healthy run sampled %q, exported %d bytes; want dropped", first.sampled, exported.Len())
	}
	sc, ok := p.LastNodeSpan("daily")
	if !ok || sc.TraceID != first.spans[0].TraceID {
		t.Fatalf("LastNodeSpan(daily) = %+v, %v; want a span of the first trace", sc, ok)
	}

	second := run("r2", ledger.Meta{Outcome: ledger.OutcomeFailed, Err: "injected"})
	if second.sampled != "kept" || exported.Len() == 0 {
		t.Fatalf("failed run sampled %q; want kept and exported", second.sampled)
	}
	if root := second.spans[0]; root.Err != "injected" {
		t.Fatalf("root status %q, want the run error", root.Err)
	}
	if got := f.Ledger.Runs(ledger.Filter{}); len(got) != 2 || got[0].Error != "injected" {
		t.Fatalf("ledger = %+v", got)
	}
}
