// Package gateway is the multi-tenant refresh gateway: a server hosting
// many named MV pipelines over ONE shared Memory Catalog budget. Each
// registered pipeline is a run core (internal/pipeline) with its own
// metrics store, session dictionary cache and storage namespace; the
// gateway adds HTTP, admission, cron, Prometheus and the run state
// machine around it. Every refresh trigger is re-planned from
// the pipeline's observed execution metadata, its predicted peak catalog
// footprint is reserved against the tenant's slice and the global pool by
// the admission controller, and only then does the refresh run. Triggers
// that do not fit queue in a bounded FIFO with a deadline; cancellation —
// explicit or by client disconnect — releases reservations and evicts
// partial state, so the shared budget can never leak.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/introspect/alert"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/pipeline"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// Errors the HTTP layer maps to status codes.
var (
	ErrNotFound      = errors.New("gateway: not found")
	ErrAlreadyExists = errors.New("gateway: pipeline already exists")
)

// Config configures a Server. The zero value of every field but
// GlobalBudget has a sensible default.
type Config struct {
	// GlobalBudget is the shared Memory Catalog capacity in bytes across
	// all tenants; required.
	GlobalBudget int64
	// DefaultSlice bounds a tenant's share of the budget when its
	// registration does not say; 0 means the whole budget.
	DefaultSlice int64
	// QueueLimit bounds the refresh trigger queue; beyond it triggers are
	// rejected with ErrQueueFull (HTTP 429). Default 64.
	QueueLimit int
	// QueueTimeout is how long a queued trigger may wait for admission
	// before it expires. Default 30s.
	QueueTimeout time.Duration
	// Headroom multiplies the predicted peak footprint when sizing a
	// reservation, absorbing estimation error. Default 1.25, min 1.
	Headroom float64
	// SizeGuess is the per-node output-size assumption before any
	// observation. Default 1MB.
	SizeGuess int64
	// Concurrency is each run's scheduler-token budget — up to this many
	// DAG nodes of one refresh execute at a time. Default 2.
	Concurrency int
	// SchedTokens is the server-wide scheduler token budget (one token ≈
	// one core) that every run's node pool and — with ParallelScan —
	// intra-node chunk walks draw from. Admission soft-commits each run's
	// Concurrency against it, so the planned width across all tenants
	// never exceeds the machine's budget. Default 4×Concurrency.
	SchedTokens int
	// ParallelScan lets the compressed-execution kernels split a node's
	// chunk walk across idle scheduler tokens; outputs stay byte-identical
	// to the serial walk. Off by default.
	ParallelScan bool
	// NewStore creates a pipeline's storage backend; default is an
	// in-memory store per pipeline.
	NewStore func(pipeline string) storage.Store
	// Clock injects time for tests; default time.Now.
	Clock func() time.Time
	// DisableTracing turns off per-run trace collection. By default every
	// refresh assembles a trace — a root span covering enqueue to finish, a
	// queue-admission child span, and one span per executed node — served
	// at GET /v1/runs/{id}/trace with critical-path analysis.
	DisableTracing bool
	// TraceExporter receives each finished run's spans (OTLP or file
	// exporter from internal/telemetry). Nil exports nothing; traces are
	// still collected and served over HTTP unless DisableTracing is set.
	TraceExporter telemetry.Exporter
	// TailSample keeps exported traces only for runs worth keeping —
	// anomalous, slow against the pipeline's learned baseline, or not
	// succeeded — and drops the rest. Off by default (every trace exports).
	TailSample bool
	// LedgerPath persists per-run summaries as NDJSON and replays them on
	// startup, so baselines survive restarts. "" keeps the run ledger in
	// memory only.
	LedgerPath string
	// LedgerCapacity bounds the in-memory run-history ring, and with it the
	// finished runs the gateway keeps addressable by ID. Default 512.
	LedgerCapacity int
	// SLOSeconds is the refresh-latency objective /v1/pipelines/{p}/health
	// reports attainment against. Default 60.
	SLOSeconds float64
	// AlertWebhook, when set, pushes ledger anomalies and health-verdict
	// transitions to this URL as JSON POSTs instead of waiting to be
	// scraped: bounded queue, exponential-backoff retry, per-(pipeline,
	// kind) dedup. "" disables alerting.
	AlertWebhook string
	// AlertCooldown is the dedup window per (pipeline, kind). Default 5m.
	AlertCooldown time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.GlobalBudget <= 0 {
		return c, errors.New("gateway: GlobalBudget must be positive")
	}
	if c.DefaultSlice <= 0 || c.DefaultSlice > c.GlobalBudget {
		c.DefaultSlice = c.GlobalBudget
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 30 * time.Second
	}
	if c.Headroom < 1 {
		c.Headroom = 1.25
	}
	if c.SizeGuess <= 0 {
		c.SizeGuess = 1 << 20
	}
	if c.Concurrency < 1 {
		c.Concurrency = 2
	}
	if c.SchedTokens < 1 {
		c.SchedTokens = 4 * c.Concurrency
	}
	if c.SchedTokens < c.Concurrency {
		c.SchedTokens = c.Concurrency
	}
	if c.NewStore == nil {
		c.NewStore = func(string) storage.Store { return storage.NewMemStore() }
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.LedgerCapacity <= 0 {
		c.LedgerCapacity = 512
	}
	if c.SLOSeconds <= 0 {
		c.SLOSeconds = 60
	}
	return c, nil
}

// MVSpec declares one MV of a pipeline registration.
type MVSpec struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

// PipelineSpec registers a pipeline.
type PipelineSpec struct {
	Name        string
	Tenant      string        // defaults to "default"
	TenantSlice int64         // tenant budget slice; first registration wins
	MVs         []MVSpec      // the refresh DAG, dependencies implied by table names
	Every       time.Duration // cron interval; 0 = manual triggers only
	Encoding    bool          // compressed catalog entries and chunked storage
	Vectorized  bool          // compressed-execution kernels

	// SeedTPCDS seeds the pipeline's store with the TPC-DS-like dataset at
	// this scale factor (0 = none).
	SeedTPCDS float64
	// Tables seeds explicit base tables.
	Tables map[string]*table.Table
}

// TPCDSSpec builds a registration for the repo's TPC-DS-like real
// workload (the 12-node store_sales pipeline), seeded at the given scale
// factor with the compressed path enabled — what the CI smoke job and the
// gateway bench register.
func TPCDSSpec(name, tenant string, sf float64) PipelineSpec {
	w := tpcds.RealWorkload()
	spec := PipelineSpec{
		Name: name, Tenant: tenant,
		SeedTPCDS: sf,
		Encoding:  true, Vectorized: true,
	}
	for _, n := range w.Nodes {
		spec.MVs = append(spec.MVs, MVSpec{Name: n.Name, SQL: n.SQL})
	}
	return spec
}

// hosted is one registered pipeline: the shared run core plus what the
// gateway schedules it by.
type hosted struct {
	*pipeline.Pipeline
	tenant string
	every  time.Duration

	mu        sync.Mutex
	nextFire  time.Time
	lastRunID string
	runsTotal int64
}

// Run states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
	StateExpired   = "expired"
	// StateCanceling is reported, never stored: a running refresh whose
	// cancellation was requested but which has not reached its terminal
	// state yet (the Controller stops at its next read or write boundary
	// and awaits background writes already handed to the store).
	StateCanceling = "canceling"
)

// Run is one refresh trigger through its lifecycle: queued by admission,
// running, then terminal. Wait on Done and read Status.
type Run struct {
	id       string
	pipeline string
	tenant   string
	need     int64 // reserved catalog bytes
	tokens   int   // scheduler tokens committed at admission

	// admission predictions, for the trace and status surfaces
	predictedWall float64 // ledger-learned wall seconds, 0 without history
	learnedNeed   bool    // need came from observed peaks, not the planner

	events *eventBuf
	done   chan struct{} // closed on any terminal state
	tkt    *ticket
	trace  *telemetry.Collector // nil when tracing is disabled
	pipe   *pipeline.Pipeline   // the run core it refreshes

	mu         sync.Mutex
	state      string
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	cancelRun  context.CancelFunc // set while running
	canceling  bool               // CancelRun was called while running
	cat        *memcat.Catalog    // live catalog while running
	errMsg     string
	nodes      int
	flagged    int
	fallbacks  int
	leftover   int64 // bytes the detach sweep had to credit back
	actualPeak int64 // run catalog high-water mark, vs the reservation
}

// RunStatus is a run's externally visible snapshot.
type RunStatus struct {
	ID               string    `json:"id"`
	Pipeline         string    `json:"pipeline"`
	Tenant           string    `json:"tenant"`
	State            string    `json:"state"`
	ReservedBytes    int64     `json:"reserved_bytes"`
	ReservedTokens   int       `json:"reserved_tokens,omitempty"`
	LearnedReserve   bool      `json:"learned_reserve,omitempty"`
	PredictedSeconds float64   `json:"predicted_seconds,omitempty"`
	ActualPeakBytes  int64     `json:"actual_peak_bytes,omitempty"`
	EnqueuedAt       time.Time `json:"enqueued_at"`
	StartedAt        time.Time `json:"started_at,omitzero"`
	FinishedAt       time.Time `json:"finished_at,omitzero"`
	QueueWaitSeconds float64   `json:"queue_wait_seconds,omitempty"`
	ElapsedSeconds   float64   `json:"elapsed_seconds,omitempty"`
	Nodes            int       `json:"nodes,omitempty"`
	Flagged          int       `json:"flagged,omitempty"`
	FallbackWrites   int       `json:"fallback_writes,omitempty"`
	Error            string    `json:"error,omitempty"`
	EventsDropped    int64     `json:"events_dropped,omitempty"`
}

// ID returns the run's identifier.
func (r *Run) ID() string { return r.id }

// Done is closed when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Traceparent returns the run's root span as a W3C traceparent value, or
// "" when tracing is disabled.
func (r *Run) Traceparent() string {
	if r.trace == nil {
		return ""
	}
	return r.trace.Context().Traceparent()
}

// Status snapshots the run.
func (r *Run) Status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID: r.id, Pipeline: r.pipeline, Tenant: r.tenant, State: r.state,
		ReservedBytes: r.need, ReservedTokens: r.tokens,
		LearnedReserve: r.learnedNeed, PredictedSeconds: r.predictedWall,
		ActualPeakBytes: r.actualPeak, EnqueuedAt: r.enqueuedAt,
		StartedAt: r.startedAt, FinishedAt: r.finishedAt,
		Nodes: r.nodes, Flagged: r.flagged, FallbackWrites: r.fallbacks,
		Error: r.errMsg, EventsDropped: r.events.droppedCount(),
	}
	if r.state == StateRunning && r.canceling {
		st.State = StateCanceling
	}
	if !r.startedAt.IsZero() {
		st.QueueWaitSeconds = r.startedAt.Sub(r.enqueuedAt).Seconds()
	}
	if !r.finishedAt.IsZero() {
		st.ElapsedSeconds = r.finishedAt.Sub(r.enqueuedAt).Seconds()
	}
	return st
}

// Stats is the server-wide snapshot backing /healthz and the bench report.
type Stats struct {
	Pipelines     int   `json:"pipelines"`
	QueueDepth    int   `json:"queue_depth"`
	Admitted      int64 `json:"admitted"`
	Enqueued      int64 `json:"enqueued"`
	Rejected      int64 `json:"rejected"`
	Expired       int64 `json:"expired"`
	BudgetBytes   int64 `json:"budget_bytes"`
	ReservedBytes int64 `json:"reserved_bytes"`
	UsedBytes     int64 `json:"used_bytes"`
	PeakUsedBytes int64 `json:"peak_used_bytes"`
	PeakReserved  int64 `json:"peak_reserved_bytes"`
	// Scheduler token budget: total pool size, tokens idle right now,
	// tokens soft-committed by admitted runs, and lifetime chunk-parallel
	// borrows by the kernels.
	SchedTokens    int   `json:"sched_tokens"`
	SchedIdle      int   `json:"sched_tokens_idle"`
	SchedCommitted int   `json:"sched_tokens_committed"`
	SchedBorrows   int64 `json:"sched_borrows"`
}

// Server hosts the pipelines and schedules their refreshes against the
// shared budget.
type Server struct {
	cfg    Config
	pool   *memcat.Pool
	sched  *sched.Scheduler
	adm    *admitter
	prom   *prom
	device costmodel.DeviceProfile
	fin    pipeline.Finisher // the ledger every run lands in, alerts, export

	// evlog is the server-wide eviction timeline, harvested from run
	// catalogs as they detach (bounded at serverEvLogCap, oldest dropped).
	evMu   sync.Mutex
	evlog  []introspect.EvictionEvent
	evSeen int64

	mu        sync.Mutex
	pipelines map[string]*hosted
	runs      map[string]*Run
	// finished lists terminal runs oldest first. It never outgrows the
	// ledger ring, so a finished run stays addressable exactly while the
	// ring holds its summary.
	finished []string
	runSeq   int64

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
	runWG    sync.WaitGroup
}

// NewServer validates the config and starts the scheduler loop (cron fires
// and queue-deadline reaping). Close releases it.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	led, err := ledger.New(ledger.Config{
		Capacity: cfg.LedgerCapacity,
		Path:     cfg.LedgerPath,
		Detector: ledger.DetectorConfig{SlowSeconds: cfg.SLOSeconds},
	})
	if err != nil {
		return nil, err
	}
	pool := memcat.NewPool(cfg.GlobalBudget)
	// One scheduler-wide token budget for every run's node pool and
	// chunk-parallel scans; its byte ceiling (in-flight decoded partition
	// bytes) rides the same global budget the catalog pool enforces.
	tok := sched.New(cfg.SchedTokens, cfg.GlobalBudget)
	s := &Server{
		cfg:    cfg,
		pool:   pool,
		sched:  tok,
		adm:    newAdmitter(pool, tok, cfg.QueueLimit, cfg.Clock),
		prom:   newProm(),
		device: costmodel.PaperProfile(),
		fin: pipeline.Finisher{
			Ledger:     led,
			Exporter:   cfg.TraceExporter,
			TailSample: cfg.TailSample,
			Health:     ledger.HealthConfig{SLOSeconds: cfg.SLOSeconds},
		},
		pipelines: make(map[string]*hosted),
		runs:      make(map[string]*Run),
		stopCh:    make(chan struct{}),
	}
	if cfg.AlertWebhook != "" {
		s.fin.Alerts = alert.New(alert.Config{
			URL:      cfg.AlertWebhook,
			Cooldown: cfg.AlertCooldown,
			Now:      cfg.Clock,
		})
	}
	s.registerGauges()
	s.wg.Add(1)
	go s.schedulerLoop()
	return s, nil
}

// Close stops the scheduler, cancels running refreshes and waits for them.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	// Snapshot first: canceling a queued run retires it, which takes s.mu.
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		r.mu.Lock()
		if r.state == StateRunning && r.cancelRun != nil {
			r.cancelRun()
		}
		tkt := r.tkt
		r.mu.Unlock()
		if tkt != nil {
			s.cancelIfQueued(r, tkt)
		}
	}
	s.runWG.Wait()
	if s.fin.Alerts != nil {
		s.fin.Alerts.Close() // after runWG: every finish path has notified
	}
	_ = s.fin.Ledger.Close()
}

// schedulerLoop reaps queue deadlines and fires cron triggers.
func (s *Server) schedulerLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick.C:
			s.adm.reap()
			s.fireCron()
		}
	}
}

// fireCron triggers every pipeline whose interval elapsed.
func (s *Server) fireCron() {
	now := s.cfg.Clock()
	var due []string
	s.mu.Lock()
	for name, p := range s.pipelines {
		p.mu.Lock()
		if p.every > 0 && !p.nextFire.After(now) {
			p.nextFire = now.Add(p.every)
			due = append(due, name)
		}
		p.mu.Unlock()
	}
	s.mu.Unlock()
	for _, name := range due {
		// Cron fires best-effort: a full queue drops the tick, the next one
		// tries again.
		_, _ = s.Trigger(name)
	}
}

// Register adds a pipeline. The spec's base tables are written to the
// pipeline's store before the first trigger can run.
func (s *Server) Register(spec PipelineSpec) error {
	if spec.Name == "" {
		return errors.New("gateway: pipeline name required")
	}
	if len(spec.MVs) == 0 {
		return errors.New("gateway: pipeline needs at least one MV")
	}
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	cfg := pipeline.Config{
		Name:       spec.Name,
		Store:      s.cfg.NewStore(spec.Name),
		Vectorized: spec.Vectorized,
		DictCache:  true,
	}
	for _, mv := range spec.MVs {
		cfg.MVs = append(cfg.MVs, exec.NodeSpec{Name: mv.Name, SQL: mv.SQL})
	}
	if spec.Encoding {
		cfg.Encoding = &encoding.Options{}
	}
	pipe, err := pipeline.New(cfg)
	if err != nil {
		return err
	}
	p := &hosted{
		Pipeline: pipe,
		tenant:   spec.Tenant,
		every:    spec.Every,
	}
	if p.every > 0 {
		p.nextFire = s.cfg.Clock().Add(p.every)
	}
	if err := s.seed(p, spec); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pipelines[spec.Name]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyExists, spec.Name)
	}
	s.pipelines[spec.Name] = p
	slice := spec.TenantSlice
	if slice <= 0 {
		slice = s.cfg.DefaultSlice
	}
	s.adm.addTenant(spec.Tenant, slice)
	return nil
}

// seed writes the spec's base tables into the pipeline's store, chunked
// when the pipeline runs with encoding so the kernels can engage.
func (s *Server) seed(p *hosted, spec PipelineSpec) error {
	save := func(st storage.Store, name string, t *table.Table) error {
		if p.Encoding != nil {
			return exec.SaveTableChunked(st, name, t, *p.Encoding)
		}
		return exec.SaveTable(st, name, t)
	}
	if spec.SeedTPCDS > 0 {
		ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: spec.SeedTPCDS, Seed: 1})
		if err != nil {
			return err
		}
		if err := ds.Save(p.Store, save); err != nil {
			return err
		}
	}
	for name, t := range spec.Tables {
		if err := save(p.Store, name, t); err != nil {
			return err
		}
	}
	return nil
}

// Unregister removes a pipeline. In-flight runs keep their store and
// finish normally.
func (s *Server) Unregister(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pipelines[name]; !ok {
		return fmt.Errorf("%w: pipeline %q", ErrNotFound, name)
	}
	delete(s.pipelines, name)
	return nil
}

// PipelineInfo is a pipeline's externally visible snapshot.
type PipelineInfo struct {
	Name         string   `json:"name"`
	Tenant       string   `json:"tenant"`
	MVs          []string `json:"mvs"`
	EverySeconds float64  `json:"every_seconds,omitempty"`
	Encoding     bool     `json:"encoding"`
	Vectorized   bool     `json:"vectorized"`
	Runs         int64    `json:"runs"`
	LastRunID    string   `json:"last_run_id,omitempty"`
	SliceBytes   int64    `json:"tenant_slice_bytes"`
}

func (s *Server) info(p *hosted) PipelineInfo {
	mvs := make([]string, 0, len(p.Workload.Nodes))
	for _, n := range p.Workload.Nodes {
		mvs = append(mvs, n.Name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PipelineInfo{
		Name: p.Name, Tenant: p.tenant, MVs: mvs,
		EverySeconds: p.every.Seconds(),
		Encoding:     p.Encoding != nil, Vectorized: p.Vectorized,
		Runs: p.runsTotal, LastRunID: p.lastRunID,
		SliceBytes: s.adm.tenantSlice(p.tenant),
	}
}

// Pipeline returns one pipeline's snapshot.
func (s *Server) Pipeline(name string) (PipelineInfo, error) {
	p, err := s.lookup(name)
	if err != nil {
		return PipelineInfo{}, err
	}
	return s.info(p), nil
}

// lookup returns a registered pipeline, or ErrNotFound.
func (s *Server) lookup(name string) (*hosted, error) {
	s.mu.Lock()
	p, ok := s.pipelines[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: pipeline %q", ErrNotFound, name)
	}
	return p, nil
}

// Pipelines lists all pipeline snapshots.
func (s *Server) Pipelines() []PipelineInfo {
	s.mu.Lock()
	ps := make([]*hosted, 0, len(s.pipelines))
	for _, p := range s.pipelines {
		ps = append(ps, p)
	}
	s.mu.Unlock()
	infos := make([]PipelineInfo, 0, len(ps))
	for _, p := range ps {
		infos = append(infos, s.info(p))
	}
	return infos
}

// planned is a trigger's plan and predicted reservation.
type planned struct {
	plan *core.Plan
	need int64
	// predictedWall is the ledger's learned run wall time, 0 before enough
	// succeeded runs exist to trust it.
	predictedWall float64
	// learnedNeed reports whether need came from the ledger's observed
	// peaks rather than the planner's static estimate.
	learnedNeed bool
}

// planTrigger re-plans the pipeline from its current execution metadata
// and predicts the refresh's catalog footprint: encoded sizes via the
// learned compression ratios (EWMA), scores under the device profile, the
// knapsack solved against the tenant slice, and the plan's peak usage
// inflated by the headroom factor. Every trigger replans, so the gateway
// IS the paper's observe → re-optimize loop.
func (s *Server) planTrigger(ctx context.Context, p *hosted) (planned, error) {
	slice := s.adm.tenantSlice(p.tenant)
	prob, _ := p.Problem(slice, s.cfg.SizeGuess, s.device)
	plan, _, err := opt.Solve(ctx, prob, opt.Options{})
	if err != nil {
		return planned{}, err
	}
	peak := core.PeakMemoryUsage(prob, plan)
	need := int64(float64(peak) * s.cfg.Headroom)
	if need > slice {
		need = slice
	}
	if need < peak {
		need = peak
	}
	pl := planned{plan: plan, need: need}
	// Once enough succeeded runs exist, the ledger's observed peaks beat
	// the planner's static size guesses. Shrink-only: the learned estimate
	// (mean + sigma, inflated by the same headroom) may trim an
	// over-reservation so more tenants fit, but never grows the ask beyond
	// what the planner proved admissible — and a miss merely degrades to
	// blocking writes, which the mispredict detector flags and the next
	// runs' learning corrects.
	if hint, ok := s.fin.Ledger.AdmissionHint(p.Name); ok {
		learned := int64((hint.PeakBytesMean + hint.PeakBytesSigma) * s.cfg.Headroom)
		if learned > 0 && learned < pl.need {
			pl.need = learned
			pl.learnedNeed = true
		}
		pl.predictedWall = hint.WallMeanSeconds
		// The learned per-node wall baselines give a structural estimate —
		// the DAG's critical path through EWMA node means — that tracks the
		// workload's shape where the run-level mean only tracks its history.
		// Prefer it whenever enough per-node history exists.
		if cp := s.fin.Ledger.CriticalPathSeconds(p.Name, p.Parents); cp > 0 {
			pl.predictedWall = cp
		}
	}
	return pl, nil
}

// Trigger requests a refresh of the named pipeline. It returns the run in
// state queued or running; ErrQueueFull when the queue is at capacity.
func (s *Server) Trigger(name string) (*Run, error) {
	return s.TriggerTrace(name, telemetry.SpanContext{})
}

// TriggerTrace is Trigger with trace-context propagation: when parent is
// valid (a client's W3C traceparent), the run's root span joins that trace
// instead of starting a new one.
func (s *Server) TriggerTrace(name string, parent telemetry.SpanContext) (*Run, error) {
	p, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	pl, err := s.planTrigger(context.Background(), p)
	if err != nil {
		return nil, err
	}
	now := s.cfg.Clock()
	s.mu.Lock()
	s.runSeq++
	r := &Run{
		id:            fmt.Sprintf("run-%06d", s.runSeq),
		pipeline:      p.Name,
		tenant:        p.tenant,
		need:          pl.need,
		tokens:        s.cfg.Concurrency,
		predictedWall: pl.predictedWall,
		learnedNeed:   pl.learnedNeed,
		events:        newEventBuf(),
		done:          make(chan struct{}),
		pipe:          p.Pipeline,
		state:         StateQueued,
		enqueuedAt:    now,
	}
	if !s.cfg.DisableTracing {
		// The root span opens at enqueue, so queue wait is on the trace.
		r.trace = telemetry.NewCollector(telemetry.CollectorConfig{
			RunID:        r.id,
			Parent:       parent,
			Start:        now,
			Profile:      true,
			LinkResolver: p.LastNodeSpan,
		})
		attrs := []telemetry.Attr{
			telemetry.Str("sc.pipeline", p.Name),
			telemetry.Str("sc.tenant", p.tenant),
			telemetry.Int("sc.reserved_bytes", pl.need),
			telemetry.Int("sc.reserved_tokens", int64(r.tokens)),
		}
		if pl.predictedWall > 0 {
			attrs = append(attrs, telemetry.Float("sc.predicted_seconds", pl.predictedWall))
		}
		r.trace.SetRootAttrs(attrs...)
	}
	s.runs[r.id] = r
	s.mu.Unlock()

	r.tkt = &ticket{
		tenant:   p.tenant,
		pipeline: p.Name,
		need:     pl.need,
		tokens:   r.tokens,
		deadline: now.Add(s.cfg.QueueTimeout),
		start:    func(*ticket) { s.startRun(r, p, pl.plan) },
		expire:   func(*ticket) { s.expireRun(r) },
	}
	admittedNow, err := s.adm.submit(r.tkt)
	if err != nil {
		s.mu.Lock()
		delete(s.runs, r.id)
		s.mu.Unlock()
		s.prom.triggers.add(1, "rejected")
		return nil, err
	}
	if admittedNow {
		s.prom.triggers.add(1, "admitted")
	} else {
		s.prom.triggers.add(1, "queued")
	}
	return r, nil
}

// startRun is the admitter's start callback: the reservation is held; move
// the run to running and execute it on its own goroutine.
func (s *Server) startRun(r *Run, p *hosted, plan *core.Plan) {
	now := s.cfg.Clock()
	r.mu.Lock()
	if r.state != StateQueued {
		// Canceled between pump and callback; give the reservation back.
		r.mu.Unlock()
		s.adm.finish(r.tenant, r.pipeline, r.need, r.tokens)
		return
	}
	r.state = StateRunning
	r.startedAt = now
	ctx, cancel := context.WithCancel(context.Background())
	r.cancelRun = cancel
	r.mu.Unlock()
	if r.trace != nil {
		attrs := []telemetry.Attr{
			telemetry.Str("sc.tenant", r.tenant),
			telemetry.Int("sc.reserved_bytes", r.need),
			telemetry.Int("sc.reserved_tokens", int64(r.tokens)),
		}
		// Attribute the queue wait: what the pump last saw holding this
		// trigger at the head — catalog bytes, scheduler tokens, the
		// tenant's slice, or its own pipeline still running.
		if b := r.tkt.blockedOn(); b != "" {
			attrs = append(attrs, telemetry.Str("sc.blocked_on", b))
		}
		r.trace.AddChildSpan("queue admission", r.enqueuedAt, now, attrs...)
	}
	s.prom.queueWait.observe(now.Sub(r.enqueuedAt).Seconds())
	s.runWG.Add(1)
	go func() {
		defer s.runWG.Done()
		s.execute(ctx, r, p, plan)
	}()
}

// execute runs one admitted refresh: a per-run catalog attached to the
// shared pool, capacity exactly the reservation, so the pool-wide bound
// holds byte-for-byte no matter what the run does.
func (s *Server) execute(ctx context.Context, r *Run, p *hosted, plan *core.Plan) {
	cat := s.pool.NewCatalog(r.need)
	r.mu.Lock()
	r.cat = cat
	r.mu.Unlock()

	res, runErr := p.Run(ctx, plan, pipeline.RunOptions{
		Mem:          cat,
		Sched:        s.sched,
		Concurrency:  s.cfg.Concurrency,
		ParallelScan: s.cfg.ParallelScan,
		RunID:        r.id,
		Observers:    []obs.Observer{r.events, s.prom.runObserver(r.tenant, r.pipeline), r.trace.Observer()},
	})

	actualPeak := cat.Peak() // before Detach zeroes the accounting
	s.harvestEvictions(r, cat)
	leftover := cat.Detach()
	s.adm.finish(r.tenant, r.pipeline, r.need, r.tokens)

	now := s.cfg.Clock()
	state := pipeline.Outcome(runErr)
	r.mu.Lock()
	r.state = state
	r.finishedAt = now
	r.cat = nil
	r.cancelRun = nil
	r.leftover = leftover
	r.actualPeak = actualPeak
	if runErr != nil {
		r.errMsg = runErr.Error()
	}
	if res != nil {
		r.nodes = len(res.Nodes)
		r.fallbacks = res.FallbackWrites
		for _, n := range res.Nodes {
			if n.Flagged {
				r.flagged++
			}
		}
	}
	r.mu.Unlock()

	p.mu.Lock()
	p.lastRunID = r.id
	p.runsTotal++
	p.mu.Unlock()

	exemplar := ""
	if r.trace != nil {
		exemplar = fmt.Sprintf("trace_id=%q", r.trace.Context().TraceID.String())
	}
	s.prom.refreshSeconds.observeExemplar(now.Sub(r.enqueuedAt).Seconds(), exemplar, r.tenant, r.pipeline)
	s.finish(r, now, state)
}

// finish ends a run that reached its terminal state: the run core's
// finisher closes the trace, judges the ledger summary against the
// pipeline's baselines, alerts and tail-samples the export; then the run
// is retired — it stays addressable only while the ledger ring holds its
// summary — and its waiters wake.
func (s *Server) finish(r *Run, now time.Time, state string) {
	st := r.Status()
	if r.trace != nil {
		r.trace.SetRootAttrs(
			telemetry.Str("sc.state", state),
			telemetry.Int("sc.actual_peak_bytes", st.ActualPeakBytes),
		)
	}
	_, sum, sampled := s.fin.Finish(r.pipe, r.trace, now, ledger.Meta{
		RunID: r.id, Pipeline: r.pipeline, Tenant: r.tenant, Outcome: state,
		Start:       st.EnqueuedAt,
		WallSeconds: st.ElapsedSeconds, QueueWaitSeconds: st.QueueWaitSeconds,
		ReservedBytes: st.ReservedBytes, ActualPeakBytes: st.ActualPeakBytes,
		FallbackWrites: st.FallbackWrites,
		EventsDropped:  st.EventsDropped, Err: st.Error,
	})
	for _, a := range sum.Anomalies {
		s.prom.anomalies.add(1, r.pipeline, a.Kind)
	}
	if st.EventsDropped > 0 {
		s.prom.eventsDropped.add(float64(st.EventsDropped), r.tenant, r.pipeline)
	}
	if sampled != "" {
		s.prom.traceSampled.add(1, sampled)
	}
	s.prom.refreshes.add(1, r.tenant, r.pipeline, state)
	s.mu.Lock()
	s.finished = append(s.finished, r.id)
	for len(s.finished) > s.cfg.LedgerCapacity {
		delete(s.runs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	r.events.close()
	close(r.done)
}

// Ledger exposes the run-history store (history endpoints, the bench).
func (s *Server) Ledger() *ledger.Ledger { return s.fin.Ledger }

// RunHistory returns retained run summaries, newest first.
func (s *Server) RunHistory(f ledger.Filter) []ledger.RunSummary {
	return s.fin.Ledger.Runs(f)
}

// PipelineHealth reports SLO attainment, baseline-vs-latest per node and
// regressions for one registered pipeline over the ledger window.
func (s *Server) PipelineHealth(name string) (ledger.Health, error) {
	if _, err := s.lookup(name); err != nil {
		return ledger.Health{}, err
	}
	return s.fin.Ledger.Health(name, s.fin.Health), nil
}

// expireRun is the admitter's expire callback: the queue deadline passed.
func (s *Server) expireRun(r *Run) {
	now := s.cfg.Clock()
	r.mu.Lock()
	if r.state != StateQueued {
		r.mu.Unlock()
		return
	}
	r.state = StateExpired
	r.finishedAt = now
	r.mu.Unlock()
	s.prom.triggers.add(1, "expired")
	s.finish(r, now, StateExpired)
}

// cancelIfQueued finalizes a still-queued run as canceled. Returns whether
// it took effect.
func (s *Server) cancelIfQueued(r *Run, tkt *ticket) bool {
	r.mu.Lock()
	if r.state != StateQueued {
		r.mu.Unlock()
		return false
	}
	now := s.cfg.Clock()
	r.state = StateCanceled
	r.finishedAt = now
	r.mu.Unlock()
	tkt.markCanceled()
	s.finish(r, now, StateCanceled)
	return true
}

// CancelRun cancels a run and returns its status without waiting: a queued
// trigger is dropped from the queue and reports "canceled"; a running
// refresh has its context canceled and reports "canceling" until it ends —
// the Controller stops at the next boundary and the cancellation sweep
// plus catalog detach release every reserved and resident byte. It ends
// "canceled", or "succeeded" when every node had already executed. A run
// already terminal is reported as it is.
func (s *Server) CancelRun(id string) (RunStatus, error) {
	r, err := s.runHandle(id)
	if err != nil {
		return RunStatus{}, err
	}
	if s.cancelIfQueued(r, r.tkt) {
		s.adm.reap()
		return r.Status(), nil
	}
	r.mu.Lock()
	if r.state == StateRunning && r.cancelRun != nil {
		r.cancelRun()
		r.canceling = true
	}
	r.mu.Unlock()
	return r.Status(), nil
}

// Run returns a run's snapshot.
func (s *Server) Run(id string) (RunStatus, error) {
	r, err := s.runHandle(id)
	if err != nil {
		return RunStatus{}, err
	}
	return r.Status(), nil
}

// TraceReport is a run's trace with its critical-path analysis — the body
// of GET /v1/runs/{id}/trace.
type TraceReport struct {
	RunID       string `json:"run_id"`
	Pipeline    string `json:"pipeline"`
	State       string `json:"state"`
	TraceID     string `json:"trace_id"`
	Traceparent string `json:"traceparent"`
	// Complete is false while the run is still queued or executing; spans
	// and the critical path then cover only what has happened so far.
	Complete     bool                 `json:"complete"`
	CriticalPath telemetry.CritReport `json:"critical_path"`
	Spans        []telemetry.SpanJSON `json:"spans"`
}

// RunTrace returns a run's trace snapshot and critical-path analysis.
// ErrNotFound covers both unknown runs and a gateway running with
// DisableTracing.
func (s *Server) RunTrace(id string) (TraceReport, error) {
	r, err := s.runHandle(id)
	if err != nil {
		return TraceReport{}, err
	}
	if r.trace == nil {
		return TraceReport{}, fmt.Errorf("%w: run %q has no trace (tracing disabled)", ErrNotFound, id)
	}
	spans := r.trace.Spans()
	st := r.Status()
	return TraceReport{
		RunID:        r.id,
		Pipeline:     r.pipeline,
		State:        st.State,
		TraceID:      spans[0].TraceID.String(),
		Traceparent:  r.trace.Context().Traceparent(),
		Complete:     r.trace.Finished(),
		CriticalPath: telemetry.CriticalPath(spans, r.pipe.Parents),
		Spans:        telemetry.SpansToJSON(spans),
	}, nil
}

// runHandle returns the run object itself (the HTTP layer streams its
// events and waits on done).
func (s *Server) runHandle(id string) (*Run, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, id)
	}
	return r, nil
}

// QueryMV reads a materialized view from the pipeline's store. limit <= 0
// returns all rows.
func (s *Server) QueryMV(pipelineName, mv string, limit int) (*table.Table, error) {
	p, err := s.lookup(pipelineName)
	if err != nil {
		return nil, err
	}
	if p.Graph.Lookup(mv) == dag.Invalid {
		return nil, fmt.Errorf("%w: mv %q in pipeline %q", ErrNotFound, mv, pipelineName)
	}
	start := time.Now()
	t, err := exec.LoadTable(p.Store, mv)
	if err != nil {
		return nil, fmt.Errorf("%w: mv %q not materialized yet", ErrNotFound, mv)
	}
	s.prom.mvReadSeconds.observe(time.Since(start).Seconds())
	if limit > 0 && t.NumRows() > limit {
		idx := make([]int, limit)
		for i := range idx {
			idx[i] = i
		}
		t = t.Gather(idx)
	}
	return t, nil
}

// Stats snapshots server-wide admission and budget state.
func (s *Server) Stats() Stats {
	adm, enq, rej, exp := s.adm.counters()
	s.mu.Lock()
	n := len(s.pipelines)
	s.mu.Unlock()
	snap := s.sched.Stats()
	return Stats{
		Pipelines:      n,
		QueueDepth:     s.adm.depth(),
		Admitted:       adm,
		Enqueued:       enq,
		Rejected:       rej,
		Expired:        exp,
		BudgetBytes:    s.pool.Capacity(),
		ReservedBytes:  s.pool.Reserved(),
		UsedBytes:      s.pool.Used(),
		PeakUsedBytes:  s.pool.PeakUsed(),
		PeakReserved:   s.pool.PeakReserved(),
		SchedTokens:    snap.Tokens,
		SchedIdle:      snap.Idle,
		SchedCommitted: snap.Committed,
		SchedBorrows:   snap.Borrowed,
	}
}

// tenantNames lists tenants with registered slices.
func (s *Server) tenantNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	var names []string
	for _, p := range s.pipelines {
		if !seen[p.tenant] {
			seen[p.tenant] = true
			names = append(names, p.tenant)
		}
	}
	return names
}

// registerGauges wires the scrape-time gauges to live server state.
func (s *Server) registerGauges() {
	s.prom.addGauge("scserve_queue_depth",
		"Triggers waiting for admission.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.adm.depth())}}
		})
	s.prom.addGauge("scserve_catalog_budget_bytes",
		"Global shared Memory Catalog budget.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.pool.Capacity())}}
		})
	s.prom.addGauge("scserve_catalog_reserved_bytes",
		"Bytes reserved by admitted refreshes.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.pool.Reserved())}}
		})
	s.prom.addGauge("scserve_catalog_used_bytes",
		"Bytes resident across all run catalogs.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.pool.Used())}}
		})
	s.prom.addGauge("scserve_catalog_peak_used_bytes",
		"High-water mark of resident bytes.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.pool.PeakUsed())}}
		})
	s.prom.addGauge("scserve_tenant_slice_bytes",
		"Configured tenant budget slice.", []string{"tenant"}, func() []gaugeSample {
			var out []gaugeSample
			for _, t := range s.tenantNames() {
				out = append(out, gaugeSample{lvs: []string{t}, v: float64(s.adm.tenantSlice(t))})
			}
			return out
		})
	s.prom.addGauge("scserve_tenant_reserved_bytes",
		"Bytes a tenant's admitted refreshes hold reserved.", []string{"tenant"}, func() []gaugeSample {
			var out []gaugeSample
			for _, t := range s.tenantNames() {
				out = append(out, gaugeSample{lvs: []string{t}, v: float64(s.adm.tenantReserved(t))})
			}
			return out
		})
	s.prom.addGauge("scserve_sched_tokens_idle",
		"Scheduler tokens currently idle in the shared pool.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.sched.Stats().Idle)}}
		})
	s.prom.addGauge("scserve_sched_tokens_committed",
		"Scheduler tokens soft-committed by admitted refreshes.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.sched.Stats().Committed)}}
		})
	s.prom.addGauge("scserve_ledger_runs",
		"Run summaries retained in the ledger ring.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.fin.Ledger.Len())}}
		})
	s.prom.addGauge("scserve_ledger_evicted_total",
		"Run summaries evicted from the bounded ledger ring.", nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.fin.Ledger.Evicted())}}
		})
	s.prom.addGauge("scserve_mispredict_ratio",
		"Learned mean |reserved-actual|/reserved of admission reservations.",
		[]string{"pipeline"}, func() []gaugeSample {
			var out []gaugeSample
			for _, p := range s.fin.Ledger.Pipelines() {
				out = append(out, gaugeSample{lvs: []string{p}, v: s.fin.Ledger.MispredictRatio(p)})
			}
			return out
		})
	s.prom.addGauge("scserve_catalog_entry_bytes",
		"Bytes resident across run catalogs, summed from per-entry accounting (pins the /v1/state/catalog byte totals).",
		nil, func() []gaugeSample {
			return []gaugeSample{{v: float64(s.CatalogState().EntryBytes)}}
		})
	s.prom.addGauge("scserve_catalog_codec_bytes",
		"Compressed bytes resident in run catalogs, by codec.", []string{"codec"}, func() []gaugeSample {
			var out []gaugeSample
			for codec, b := range s.CatalogState().CodecBytes {
				out = append(out, gaugeSample{lvs: []string{codec}, v: float64(b)})
			}
			return out
		})
	s.prom.addGauge("scserve_catalog_codec_chunks",
		"Compressed chunks resident in run catalogs, by codec.", []string{"codec"}, func() []gaugeSample {
			var out []gaugeSample
			for codec, n := range s.CatalogState().CodecChunks {
				out = append(out, gaugeSample{lvs: []string{codec}, v: float64(n)})
			}
			return out
		})
	s.prom.addGauge("scserve_catalog_evictions_total",
		"Catalog entries evicted across all run catalogs.", nil, func() []gaugeSample {
			s.evMu.Lock()
			n := s.evSeen
			s.evMu.Unlock()
			for _, lc := range s.liveCatalogs() {
				n += lc.cat.EvictionsSeen()
			}
			return []gaugeSample{{v: float64(n)}}
		})
	s.prom.addGauge("scserve_alerts_total",
		"Alert webhook delivery outcomes.", []string{"outcome"}, func() []gaugeSample {
			if s.fin.Alerts == nil {
				return nil
			}
			st := s.fin.Alerts.Stats()
			return []gaugeSample{
				{lvs: []string{"delivered"}, v: float64(st.Delivered)},
				{lvs: []string{"dropped"}, v: float64(st.Dropped)},
				{lvs: []string{"deduped"}, v: float64(st.Deduped)},
				{lvs: []string{"retried"}, v: float64(st.Retries)},
			}
		})
	s.prom.addGauge("scserve_tenant_catalog_bytes",
		"Bytes resident in a tenant's live run catalogs.", []string{"tenant"}, func() []gaugeSample {
			used := make(map[string]float64)
			for _, lc := range s.liveCatalogs() {
				used[lc.run.tenant] += float64(lc.cat.Used())
			}
			var out []gaugeSample
			for _, t := range s.tenantNames() {
				out = append(out, gaugeSample{lvs: []string{t}, v: used[t]})
			}
			return out
		})
}
