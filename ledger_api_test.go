package sc_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/leakcheck"
	"github.com/shortcircuit-db/sc/internal/storage"
)

// TestWithLedgerRecordsHistory pins the library facade: WithLedger records
// every Refresh into the run ledger, History returns them newest first,
// Baselines exposes the learned per-node means, and the NDJSON file is
// replayed by a fresh session.
func TestWithLedgerRecordsHistory(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	path := filepath.Join(t.TempDir(), "runs.ndjson")
	ref, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20), sc.WithLedger(path))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	hist := ref.History(sc.RunFilter{})
	if len(hist) != 3 {
		t.Fatalf("history = %d runs, want 3", len(hist))
	}
	latest := hist[0]
	if latest.Outcome != "succeeded" || len(latest.Nodes) != 4 {
		t.Fatalf("latest run: %+v", latest)
	}
	if latest.WallSeconds <= 0 || latest.TraceID == "" {
		t.Fatalf("summary missing trace-derived fields: %+v", latest)
	}
	bs := ref.Baselines()
	if len(bs) != 4 {
		t.Fatalf("baselines = %+v, want all 4 nodes", bs)
	}
	for _, b := range bs {
		if b.Samples != 3 {
			t.Fatalf("baseline %s samples = %d, want 3", b.Node, b.Samples)
		}
	}
	// Limit filter narrows the view.
	if got := ref.History(sc.RunFilter{Limit: 1}); len(got) != 1 || got[0].RunID != latest.RunID {
		t.Fatalf("limit filter: %+v", got)
	}

	// A fresh session over the same file replays the history.
	ref2, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20), sc.WithLedger(path))
	if err != nil {
		t.Fatal(err)
	}
	if got := ref2.History(sc.RunFilter{}); len(got) != 3 {
		t.Fatalf("replayed history = %d runs, want 3", len(got))
	}
	if bs := ref2.Baselines(); len(bs) != 4 || bs[0].Samples != 3 {
		t.Fatalf("replayed baselines: %+v", bs)
	}

	// Without the option, history is simply absent.
	ref3, err := sc.New(chainMVs(), store, sc.WithMemory(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref3.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ref3.History(sc.RunFilter{}); got != nil {
		t.Fatalf("no-ledger session returned history: %+v", got)
	}
}

// TestWithLedgerRecordsCanceledRun pins the session's cancel outcome: a
// refresh cancelled mid-run lands exactly one "canceled" summary.
func TestWithLedgerRecordsCanceledRun(t *testing.T) {
	store := sc.NewMemStore()
	baseTables(t, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	watch := sc.ObserverFunc(func(e sc.Event) {
		if e.Kind == sc.NodeDone {
			once.Do(cancel)
		}
	})
	ref, err := sc.New(chainMVs(), store, sc.WithLedger(""), sc.WithObserver(watch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	hist := ref.History(sc.RunFilter{})
	if len(hist) != 1 || hist[0].Outcome != "canceled" {
		t.Fatalf("history = %+v, want one canceled run", hist)
	}
}

// TestWithLedgerRecordsFailedRun pins the session's failure outcome: a
// refresh whose store write fails lands exactly one "failed" summary that
// carries the error.
func TestWithLedgerRecordsFailedRun(t *testing.T) {
	inner := sc.NewMemStore()
	baseTables(t, inner)
	faulty := storage.NewFaulty(inner)
	faulty.FailWriteAfter = 1 // the first MV lands, the second does not
	ref, err := sc.New(chainMVs(), faulty, sc.WithLedger(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(context.Background()); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want an injected storage fault", err)
	}
	hist := ref.History(sc.RunFilter{})
	if len(hist) != 1 || hist[0].Outcome != "failed" || !strings.Contains(hist[0].Error, "injected fault") {
		t.Fatalf("history = %+v, want one failed run carrying the error", hist)
	}
}

// TestRefresherCloseNoGoroutineLeak asserts a session with every push
// surface on — tracing, the ledger and the alert webhook — leaves no
// goroutine behind once Close returns.
func TestRefresherCloseNoGoroutineLeak(t *testing.T) {
	defer leakcheck.Check(t)
	hook := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer hook.Close()

	store := sc.NewMemStore()
	baseTables(t, store)
	ref, err := sc.New(chainMVs(), store,
		sc.WithMemory(1<<20),
		sc.WithTelemetry(nil),
		sc.WithAlerts(hook.URL, time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ref.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}
