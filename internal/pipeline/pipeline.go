// Package pipeline is S/C's one run core (§III-A/B): the state one refresh
// DAG carries from run to run — its workload and graph, the learned
// execution metadata, the session dictionary cache, the node spans of its
// last trace — and the loop around a Controller run: derive the
// optimization problem from what was observed, execute a plan, then close
// the run's trace, summarize it into the ledger, push alerts and export
// spans. The library session (sc.Refresher) and the multi-tenant gateway
// both refresh through it.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/chunkio"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// Config declares a pipeline.
type Config struct {
	Name       string // ledger and alert identity
	MVs        []exec.NodeSpec
	Store      storage.Store
	Encoding   *encoding.Options // nil keeps the uncompressed path
	Vectorized bool
	// DictCache keeps a session dictionary cache across runs; it only
	// takes effect with Vectorized.
	DictCache bool
}

// Pipeline is one refresh DAG and the state its runs share. The exported
// fields are fixed at New; the metrics store and the session cache are
// safe for concurrent use.
type Pipeline struct {
	Name       string
	Workload   *exec.Workload
	Graph      *dag.Graph
	Base       [][]string          // per node, the base tables its statement scans
	Parents    map[string][]string // node name -> DAG parent names
	Store      storage.Store
	MD         *metrics.Store
	Encoding   *encoding.Options
	Vectorized bool

	session *chunkio.Session // nil without the dictionary cache

	mu          sync.Mutex // guards the cross-run state below
	lastSpans   map[string]telemetry.SpanContext
	lastVerdict string // previous health verdict, for transition alerts
}

// New extracts the dependency graph from the MVs' SQL and returns the
// pipeline with an empty metrics store.
func New(cfg Config) (*Pipeline, error) {
	w := &exec.Workload{Nodes: cfg.MVs}
	g, base, err := w.BuildGraph()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		Name:       cfg.Name,
		Workload:   w,
		Graph:      g,
		Base:       base,
		Parents:    g.ParentNames(),
		Store:      cfg.Store,
		MD:         metrics.NewStore(),
		Encoding:   cfg.Encoding,
		Vectorized: cfg.Vectorized,
		lastSpans:  make(map[string]telemetry.SpanContext),
	}
	if cfg.Vectorized && cfg.DictCache {
		p.session = chunkio.NewSession()
	}
	return p, nil
}

// Problem derives the pipeline's current optimization problem from its
// execution metadata against a Memory Catalog of the given size, weighing
// nodes at their EWMA-predicted compressed footprint when the pipeline
// encodes; sizeGuess stands in for never-observed nodes. raw is the
// uncompressed footprint vector.
func (p *Pipeline) Problem(memory, sizeGuess int64, d costmodel.DeviceProfile) (prob *core.Problem, raw []int64) {
	return p.MD.Problem(p.Graph, memory, sizeGuess, d, p.Encoding != nil)
}

// ExplainInput assembles the flag-decision explanation of plan under prob
// (as returned by Problem, with its raw sizes).
func (p *Pipeline) ExplainInput(prob *core.Problem, raw []int64, plan *core.Plan, d costmodel.DeviceProfile) introspect.ExplainInput {
	names := make([]string, p.Graph.Len())
	for i := range names {
		names[i] = p.Graph.Name(dag.NodeID(i))
	}
	in := introspect.ExplainInput{
		Problem:  prob,
		Plan:     plan,
		Names:    names,
		RawBytes: raw,
		Encoding: p.Encoding != nil,
		Device:   d,
	}
	if p.Encoding != nil {
		in.PredictedBytes = make([]int64, len(names))
		for i, name := range names {
			in.PredictedBytes[i] = p.MD.PredictEncoded(name, raw[i])
		}
	}
	return in
}

// RunOptions are what differ between the callers of Run.
type RunOptions struct {
	Mem          *memcat.Catalog  // the run's Memory Catalog
	Sched        *sched.Scheduler // shared token pool; nil for a private one
	Concurrency  int
	ParallelScan bool
	RunID        string
	Observers    []obs.Observer // beside the metrics recorder; nils are skipped
}

// Run executes one refresh of plan on the real engine, recording execution
// metadata into the pipeline's metrics store. When ctx is cancelled
// mid-run the partial result is returned with ctx.Err().
func (p *Pipeline) Run(ctx context.Context, plan *core.Plan, o RunOptions) (*exec.RunResult, error) {
	ctl := &exec.Controller{
		Store:        p.Store,
		Mem:          o.Mem,
		Obs:          obs.Multi(append([]obs.Observer{metrics.NewRecorder(p.MD)}, o.Observers...)...),
		RunID:        o.RunID,
		Concurrency:  o.Concurrency,
		History:      p.MD,
		Sched:        o.Sched,
		ParallelScan: o.ParallelScan,
		Encoding:     p.Encoding,
		Vectorized:   p.Vectorized,
		Chunked:      p.session,
	}
	return ctl.Run(ctx, p.Workload, p.Graph, plan)
}

// Outcome maps a run's error to its ledger outcome: cancellation and
// deadlines end a run canceled, any other error failed.
func Outcome(err error) string {
	switch {
	case err == nil:
		return ledger.OutcomeSucceeded
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ledger.OutcomeCanceled
	}
	return ledger.OutcomeFailed
}

// LastNodeSpan resolves a node to the span that produced its output in the
// pipeline's previous traced run — the collector's cross-run LinkResolver.
func (p *Pipeline) LastNodeSpan(node string) (telemetry.SpanContext, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sc, ok := p.lastSpans[node]
	return sc, ok
}

func (p *Pipeline) rememberNodeSpans(spans []telemetry.Span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sp := range spans {
		if node := sp.StrAttr(telemetry.AttrNode); node != "" {
			p.lastSpans[node] = telemetry.SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID, Sampled: true}
		}
	}
}

// Finisher closes finished runs' observability: trace, ledger, alerts and
// export. Its zero value only finishes traces.
type Finisher struct {
	Ledger     *ledger.Ledger     // nil: no summaries and no alerts
	Alerts     *alert.Notifier    // nil: nothing pushed
	Exporter   telemetry.Exporter // nil: nothing exported
	TailSample bool               // export only runs the ledger decides to keep
	Health     ledger.HealthConfig
}

// Finish ends one run of p: it closes the trace at end (zero means now)
// with meta's error or non-success outcome as the root status, remembers
// the node spans for the next run's links, summarizes the run into the
// ledger, pushes its anomalies and any health-verdict transition as
// alerts, and exports the spans. col is nil for an untraced run, and then
// spans is nil. sampled is "kept" or "dropped" when the trace went to an
// exporter under the tail-sampling decision, "" when there was none.
func (f *Finisher) Finish(p *Pipeline, col *telemetry.Collector, end time.Time, meta ledger.Meta) (spans []telemetry.Span, sum ledger.RunSummary, sampled string) {
	if col != nil {
		msg := meta.Err
		if msg == "" && meta.Outcome != ledger.OutcomeSucceeded {
			msg = meta.Outcome
		}
		col.Finish(end, msg)
		spans = col.Spans()
		p.rememberNodeSpans(spans)
	}
	keep := !f.TailSample
	if f.Ledger != nil {
		var dec ledger.Decision
		sum, dec = f.Ledger.Append(ledger.Summarize(spans, p.Parents, meta))
		keep = keep || dec.Keep
		f.alert(p, sum)
	}
	if col != nil && f.Exporter != nil {
		sampled = "dropped"
		if keep {
			f.Exporter.Export(spans)
			sampled = "kept"
		}
	}
	return spans, sum, sampled
}

// alert pushes one event per ledger anomaly, plus the pipeline's
// health-verdict transition when this run changed it. The first observed
// verdict establishes the baseline silently, so a fresh pipeline does not
// alert "unknown became healthy".
func (f *Finisher) alert(p *Pipeline, sum ledger.RunSummary) {
	if f.Alerts == nil {
		return
	}
	for _, a := range sum.Anomalies {
		msg := fmt.Sprintf("pipeline %s: %s", p.Name, a.Kind)
		if a.Node != "" {
			msg += " at node " + a.Node
		}
		if a.Detail != "" {
			msg += ": " + a.Detail
		}
		f.Alerts.Notify(alert.Event{
			Pipeline: p.Name,
			Kind:     a.Kind,
			Severity: "warning",
			Summary:  msg,
			RunID:    sum.RunID,
			Node:     a.Node,
			Observed: a.Observed,
			Baseline: a.Baseline,
			Sigma:    a.Score,
		})
	}
	h := f.Ledger.Health(p.Name, f.Health)
	p.mu.Lock()
	prev := p.lastVerdict
	p.lastVerdict = h.Verdict
	p.mu.Unlock()
	if prev == "" || prev == h.Verdict {
		return
	}
	sev := "info"
	switch h.Verdict {
	case ledger.VerdictFailing:
		sev = "critical"
	case ledger.VerdictDegraded:
		sev = "warning"
	}
	f.Alerts.Notify(alert.Event{
		Pipeline:    p.Name,
		Kind:        "health_transition",
		Severity:    sev,
		Summary:     fmt.Sprintf("pipeline %s went %s (was %s)", p.Name, h.Verdict, prev),
		RunID:       sum.RunID,
		FromVerdict: prev,
		ToVerdict:   h.Verdict,
	})
}
