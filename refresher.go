package sc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shortcircuit-db/sc/internal/chunkio"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// Refresher is a long-lived MV refresh session: it executes refresh runs on
// the real engine, records execution metadata (§III-A), and re-optimizes
// the plan from what it observed, so recurring pipelines improve run over
// run. All methods honor context cancellation and deadlines, and a
// Refresher is safe for concurrent use (runs are serialized internally at
// the planning level; the Controller parallelizes within a run when
// WithConcurrency is set).
type Refresher struct {
	workload *exec.Workload
	graph    *dag.Graph
	base     [][]string // per node, the base tables its statement scans
	store    Store
	cfg      *config
	md       *metrics.Store
	chunked  *chunkio.Session // session dictionary cache; nil when disabled

	runSeq atomic.Int64 // run counter feeding telemetry run IDs

	led *ledger.Ledger // run history + baselines; nil without WithLedger

	alerts      *alert.Notifier // webhook notifier; nil without WithAlerts
	verMu       sync.Mutex
	lastVerdict string // previous health verdict, for transition alerts

	// linkMu guards lastNodeSpans separately from mu: the collector's link
	// resolver fires during run execution, outside any mu critical section.
	linkMu        sync.Mutex
	lastNodeSpans map[string]telemetry.SpanContext

	mu        sync.Mutex
	plan      *Plan
	stats     *Stats
	lastTrace *RunTrace
}

// New builds a refresh session for the given MVs over a store holding the
// base tables. Dependencies are extracted from the SQL statements. See the
// With* options for memory budget, strategies, observation and concurrency.
func New(mvs []MV, store Store, opts ...Option) (*Refresher, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("sc: nil store")
	}
	if len(mvs) == 0 {
		return nil, errors.New("sc: no MVs declared")
	}
	w := &exec.Workload{}
	for _, mv := range mvs {
		w.Nodes = append(w.Nodes, exec.NodeSpec{Name: mv.Name, SQL: mv.SQL})
	}
	g, base, err := w.BuildGraph()
	if err != nil {
		return nil, err
	}
	r := &Refresher{
		workload: w,
		graph:    g,
		base:     base,
		store:    store,
		cfg:      cfg,
		md:       metrics.NewStore(),
	}
	if cfg.vectorized && cfg.dictCache {
		// The session dictionary cache lives with the Refresher, so each
		// Refresh reuses the dictionaries the previous run derived.
		r.chunked = chunkio.NewSession()
	}
	if cfg.ledger {
		led, err := ledger.New(ledger.Config{Path: cfg.ledgerPath})
		if err != nil {
			return nil, err
		}
		r.led = led
	}
	if cfg.alertURL != "" {
		r.alerts = alert.New(alert.Config{URL: cfg.alertURL, Cooldown: cfg.alertCooldown})
	}
	return r, nil
}

// Close drains the session's push surfaces: pending alert webhook
// deliveries are flushed and the ledger (and its NDJSON file, if any) is
// closed. A Refresher without WithAlerts/WithLedger needs no Close.
func (r *Refresher) Close() error {
	if r.alerts != nil {
		r.alerts.Close()
	}
	if r.led != nil {
		return r.led.Close()
	}
	return nil
}

// Graph exposes the extracted dependency graph.
func (r *Refresher) Graph() *dag.Graph { return r.graph }

// Metrics exposes the execution-metadata store accumulated across runs.
func (r *Refresher) Metrics() *metrics.Store { return r.md }

// Plan returns the current refresh plan, or nil before the first
// optimization.
func (r *Refresher) Plan() *Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.plan == nil {
		return nil
	}
	return r.plan.Clone()
}

// Stats returns the optimizer stats of the current plan, or nil before the
// first optimization.
func (r *Refresher) Stats() *Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stats == nil {
		return nil
	}
	st := *r.stats
	return &st
}

// Problem derives the session's current optimization problem: sizes from
// the latest observations (WithSizeGuess for never-observed nodes), scores
// from the §IV model under the session's device profile. With WithEncoding
// the knapsack weighs nodes at their compressed footprint and the disk
// terms of the score model move encoded bytes, so compression genuinely
// changes which nodes get flagged and in which order the DAG runs.
func (r *Refresher) Problem() *Problem {
	raw := r.md.Sizes(r.graph, r.cfg.sizeGuess)
	if r.cfg.encoding == nil {
		return &Problem{
			G:      r.graph,
			Sizes:  raw,
			Scores: r.md.Scores(r.graph, raw, r.cfg.device),
			Memory: r.cfg.memory,
		}
	}
	enc := r.md.EncodedSizes(r.graph, r.cfg.sizeGuess)
	return &Problem{
		G:      r.graph,
		Sizes:  enc, // Memory Catalog holds compressed entries
		Scores: r.md.ScoresSized(r.graph, raw, enc, r.cfg.device),
		Memory: r.cfg.memory,
	}
}

// Optimize re-plans the session from the observed execution metadata and
// returns the new plan, which subsequent Run/Refresh calls execute.
func (r *Refresher) Optimize(ctx context.Context) (*Plan, *Stats, error) {
	plan, stats, err := Solve(ctx, r.Problem(),
		WithFlagSelector(r.cfg.selector),
		WithOrderer(r.cfg.orderer),
		WithSeed(r.cfg.seed),
		WithMaxIterations(r.cfg.maxIterations),
		WithObserver(r.cfg.observer),
	)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	r.plan = plan.Clone()
	st := *stats
	r.stats = &st
	r.mu.Unlock()
	return plan, stats, nil
}

// Run executes one refresh with the session's current plan (the
// unoptimized topological baseline before the first Optimize), recording
// execution metadata for future planning. When ctx is cancelled mid-run the
// partial result of the completed nodes is returned with ctx.Err().
func (r *Refresher) Run(ctx context.Context) (*RunResult, error) {
	return r.RunPlan(ctx, r.Plan())
}

// baselinePlan is the unoptimized default: topological order, nothing kept
// in memory.
func (r *Refresher) baselinePlan() (*Plan, error) {
	topo, err := r.graph.TopoSort()
	if err != nil {
		return nil, err
	}
	return &Plan{Order: topo, Flagged: make([]bool, r.graph.Len())}, nil
}

// RunPlan executes one refresh following an explicit plan. A nil plan means
// the unoptimized baseline: topological order, nothing kept in memory.
func (r *Refresher) RunPlan(ctx context.Context, plan *Plan) (*RunResult, error) {
	if plan == nil {
		var err error
		if plan, err = r.baselinePlan(); err != nil {
			return nil, err
		}
	}
	var col *telemetry.Collector
	var runID string
	if r.cfg.tracing {
		runID = telemetry.RunID(r.runSeq.Add(1))
		col = telemetry.NewCollector(telemetry.CollectorConfig{
			RunID:        runID,
			RootName:     "refresh",
			Profile:      true,
			LinkResolver: r.nodeSpanResolver(),
		})
	}
	ctl := &exec.Controller{
		Store:        r.store,
		Mem:          memcat.New(r.cfg.memory),
		Obs:          obs.Multi(metrics.NewRecorder(r.md), r.cfg.observer, col.Observer()),
		RunID:        runID,
		Concurrency:  r.cfg.concurrency,
		History:      r.md,
		Encoding:     r.cfg.encoding,
		Vectorized:   r.cfg.vectorized,
		ParallelScan: r.cfg.parallelScan,
		Chunked:      r.chunked,
	}
	res, err := ctl.Run(ctx, r.workload, r.graph, plan)
	if col != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		col.Finish(time.Time{}, msg)
		spans := col.Spans()
		tr := &RunTrace{
			RunID:        runID,
			Spans:        spans,
			CriticalPath: telemetry.CriticalPath(spans, r.parentNames()),
		}
		r.mu.Lock()
		r.lastTrace = tr
		r.mu.Unlock()
		r.rememberNodeSpans(spans)
		if r.led != nil {
			meta := ledger.Meta{
				RunID:         runID,
				Pipeline:      "session",
				Outcome:       ledger.OutcomeSucceeded,
				ReservedBytes: r.cfg.memory,
			}
			if err != nil {
				meta.Outcome = ledger.OutcomeFailed
				meta.Err = msg
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					meta.Outcome = ledger.OutcomeCanceled
				}
			}
			if res != nil {
				meta.ActualPeakBytes = res.PeakMemory
				meta.FallbackWrites = res.FallbackWrites
			}
			sum, _ := r.led.Append(ledger.Summarize(spans, r.parentNames(), meta))
			r.notifyRun(sum)
		}
		if r.cfg.traceExporter != nil {
			r.cfg.traceExporter.Export(spans)
		}
	}
	return res, err
}

// notifyRun pushes the run's ledger anomalies — and the session's
// health-verdict transition, when this run changed it — to the WithAlerts
// webhook. The first observed verdict establishes the baseline silently.
func (r *Refresher) notifyRun(sum ledger.RunSummary) {
	if r.alerts == nil {
		return
	}
	for _, a := range sum.Anomalies {
		r.alerts.Notify(alert.Event{
			Pipeline: sum.Pipeline,
			Kind:     a.Kind,
			Severity: "warning",
			Summary:  "session refresh: " + a.Kind + " " + a.Detail,
			RunID:    sum.RunID,
			Node:     a.Node,
			Observed: a.Observed,
			Baseline: a.Baseline,
			Sigma:    a.Score,
		})
	}
	h := r.led.Health(sum.Pipeline, ledger.HealthConfig{})
	r.verMu.Lock()
	prev := r.lastVerdict
	r.lastVerdict = h.Verdict
	r.verMu.Unlock()
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
	r.alerts.Notify(alert.Event{
		Pipeline:    sum.Pipeline,
		Kind:        "health_transition",
		Severity:    sev,
		Summary:     "session went " + h.Verdict + " (was " + prev + ")",
		RunID:       sum.RunID,
		FromVerdict: prev,
		ToVerdict:   h.Verdict,
	})
}

// AlertStats reports the WithAlerts notifier's lifetime delivery counters
// (delivered, dropped, deduped, retried), or zeros without WithAlerts.
func (r *Refresher) AlertStats() AlertStats {
	if r.alerts == nil {
		return AlertStats{}
	}
	return r.alerts.Stats()
}

// Explain reconstructs, for every MV of the session, why the current plan
// flags or skips it under the bounded Memory Catalog budget: the sized
// speedup score (split into read and write savings), raw vs
// EWMA-predicted encoded bytes, the marginal byte cost at the node's
// residency window that decided the flag, and what would flip the
// decision. It explains the plan subsequent Run/Refresh calls would
// execute — solving one first when the session has not optimized yet —
// and re-decides nothing.
func (r *Refresher) Explain(ctx context.Context) (*ExplainReport, error) {
	prob := r.Problem()
	plan := r.Plan()
	if plan == nil {
		var err error
		plan, _, err = Solve(ctx, prob,
			WithFlagSelector(r.cfg.selector),
			WithOrderer(r.cfg.orderer),
			WithSeed(r.cfg.seed),
			WithMaxIterations(r.cfg.maxIterations),
		)
		if err != nil {
			return nil, err
		}
	}
	n := r.graph.Len()
	names := make([]string, n)
	for i := range names {
		names[i] = r.graph.Name(dag.NodeID(i))
	}
	raw := r.md.Sizes(r.graph, r.cfg.sizeGuess)
	in := introspect.ExplainInput{
		Problem:  prob,
		Plan:     plan,
		Names:    names,
		RawBytes: raw,
		Encoding: r.cfg.encoding != nil,
		Device:   r.cfg.device,
	}
	if r.cfg.encoding != nil {
		in.PredictedBytes = make([]int64, n)
		for i, name := range names {
			in.PredictedBytes[i] = r.md.PredictEncoded(name, raw[i])
		}
	}
	return introspect.Explain(in), nil
}

// History returns the session run ledger's summaries, newest first, or nil
// without WithLedger. An empty filter returns everything retained.
func (r *Refresher) History(f RunFilter) []RunSummary {
	if r.led == nil {
		return nil
	}
	return r.led.Runs(f)
}

// Baselines returns the ledger's learned per-node baselines, or nil without
// WithLedger.
func (r *Refresher) Baselines() []NodeBaseline {
	if r.led == nil {
		return nil
	}
	return r.led.Baselines("session")
}

// rememberNodeSpans records each node's span context so the next run's
// cache hits can link back to the producing span.
func (r *Refresher) rememberNodeSpans(spans []telemetry.Span) {
	r.linkMu.Lock()
	defer r.linkMu.Unlock()
	if r.lastNodeSpans == nil {
		r.lastNodeSpans = make(map[string]telemetry.SpanContext)
	}
	for _, s := range spans {
		for _, a := range s.Attrs {
			if a.Key == telemetry.AttrNode && a.Type == telemetry.AttrString {
				r.lastNodeSpans[a.Str] = telemetry.SpanContext{
					TraceID: s.TraceID, SpanID: s.SpanID, Sampled: true,
				}
			}
		}
	}
}

// nodeSpanResolver resolves a node name to the span that produced its
// output in a previous run — the cross-run half of span linking.
func (r *Refresher) nodeSpanResolver() func(string) (telemetry.SpanContext, bool) {
	return func(node string) (telemetry.SpanContext, bool) {
		r.linkMu.Lock()
		defer r.linkMu.Unlock()
		sc, ok := r.lastNodeSpans[node]
		return sc, ok
	}
}

// parentNames maps each node to its upstream MVs by name, the shape the
// critical-path analysis consumes.
func (r *Refresher) parentNames() map[string][]string {
	parents := make(map[string][]string, r.graph.Len())
	for i := 0; i < r.graph.Len(); i++ {
		id := dag.NodeID(i)
		name := r.graph.Name(id)
		for _, par := range r.graph.Parents(id) {
			parents[name] = append(parents[name], r.graph.Name(par))
		}
	}
	return parents
}

// Refresh is the adaptive loop of §III-A in one call: execute a refresh
// with the current plan, feed the observed metadata back, and re-optimize
// for the next call. The returned result is the run that just executed; the
// improved plan takes effect on the next Refresh/Run.
func (r *Refresher) Refresh(ctx context.Context) (*RunResult, error) {
	res, err := r.Run(ctx)
	if err != nil {
		return res, err
	}
	if _, _, err := r.Optimize(ctx); err != nil {
		return res, err
	}
	return res, nil
}

// Simulate predicts a refresh run with the session's current plan on the
// calibrated discrete-event simulator, parameterized by the observed
// execution metadata (run at least once first for meaningful numbers) and
// the session's device profile. No real bytes move.
func (r *Refresher) Simulate(ctx context.Context) (*SimResult, error) {
	w := &sim.Workload{G: r.graph}
	for i := 0; i < r.graph.Len(); i++ {
		name := r.graph.Name(dag.NodeID(i))
		node := sim.Node{Name: name, OutputBytes: r.cfg.sizeGuess}
		if o, ok := r.md.Latest(name); ok {
			node.OutputBytes = o.OutputBytes
			node.ComputeSeconds = o.ComputeTime.Seconds()
		}
		// Base tables are always read from external storage; their encoded
		// sizes are what a refresh actually moves.
		for _, bt := range r.base[i] {
			if sz, err := exec.TableSize(r.store, bt); err == nil {
				node.BaseReadBytes += sz
			}
		}
		w.Nodes = append(w.Nodes, node)
	}
	plan := r.Plan()
	if plan == nil {
		var err error
		if plan, err = r.baselinePlan(); err != nil {
			return nil, err
		}
	}
	return sim.Run(ctx, w, plan, sim.Config{
		Device:   r.cfg.device,
		Memory:   r.cfg.memory,
		Observer: r.cfg.observer,
	})
}
