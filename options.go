package sc

import (
	"fmt"
	"time"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/telemetry"
)

// Option configures New and Solve. Options apply in order; later options
// override earlier ones.
type Option func(*config)

// config is the resolved option set.
type config struct {
	memory        int64
	selector      Selector
	orderer       Orderer
	seed          int64
	maxIterations int
	observer      Observer
	concurrency   int
	device        DeviceProfile
	deviceSet     bool
	sizeGuess     int64
	encoding      *encoding.Options
	vectorized    bool
	parallelScan  bool
	dictCache     bool
	tracing       bool
	traceExporter telemetry.Exporter
	ledger        bool
	ledgerPath    string
	alertURL      string
	alertCooldown time.Duration
	err           error
}

// newConfig folds the options into a validated config.
func newConfig(opts []Option) (*config, error) {
	cfg := &config{
		concurrency: 1,
		sizeGuess:   1 << 20, // 1MB: optimistic before any observation
		dictCache:   true,    // session dictionaries ride along with WithVectorized
	}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if !cfg.deviceSet {
		cfg.device = PaperProfile()
	}
	return cfg, nil
}

func (c *config) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// WithMemory sets the Memory Catalog budget in bytes. Zero (the default)
// disables flagging entirely; negative budgets are rejected.
func WithMemory(bytes int64) Option {
	return func(c *config) {
		if bytes < 0 {
			c.fail("sc: negative Memory Catalog budget %d", bytes)
			return
		}
		c.memory = bytes
	}
}

// WithFlagSelector sets the flagging strategy (S/C Opt Nodes). Nil means
// the paper's SimplifiedMKP. Use SelectorByName for registered algorithms
// or pass a custom implementation.
func WithFlagSelector(s Selector) Option {
	return func(c *config) { c.selector = s }
}

// WithOrderer sets the ordering strategy (S/C Opt Order). Nil means the
// paper's MA-DFS. Use OrdererByName for registered algorithms or pass a
// custom implementation.
func WithOrderer(o Orderer) Option {
	return func(c *config) { c.orderer = o }
}

// WithSeed seeds randomized algorithms resolved internally (it does not
// re-seed an already-constructed Selector/Orderer).
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithMaxIterations caps alternating optimization. Zero means the default.
func WithMaxIterations(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("sc: negative MaxIterations %d", n)
			return
		}
		c.maxIterations = n
	}
}

// WithObserver subscribes obs to the session's event stream: node
// execution, materialization, Memory Catalog evictions and high-water
// marks, and optimizer iterations. The observer must be safe for
// concurrent use when combined with WithConcurrency(k > 1).
func WithObserver(obs Observer) Option {
	return func(c *config) { c.observer = obs }
}

// WithConcurrency sets the session's scheduler token budget to k — one
// token is roughly one core's worth of work. Up to k independent DAG nodes
// execute at a time, each holding one token; with WithParallelScan the
// kernels additionally borrow tokens the node dispatcher is not using to
// walk a single node's chunks in parallel, so a chain-shaped plan still
// saturates k cores. The Memory Catalog budget remains enforced
// byte-for-byte (outputs that no longer fit fall back to blocking writes)
// and materialized outputs are byte-identical to a serial run. With k > 1
// and every MV observed by an earlier run, ready nodes start in order of
// their learned critical path (longest learned path to the end of the DAG
// first, ties in plan order); before that, or when the plan's flagged
// outputs do not all fit the budget together, they start in plan order.
// k <= 1 (the default) runs nodes serially in exact plan order.
func WithConcurrency(k int) Option {
	return func(c *config) {
		if k < 1 {
			k = 1
		}
		c.concurrency = k
	}
}

// WithDevice sets the device profile used for score estimation and
// simulation. The default is PaperProfile.
func WithDevice(d DeviceProfile) Option {
	return func(c *config) {
		if err := d.Validate(); err != nil {
			c.fail("sc: %v", err)
			return
		}
		c.device = d
		c.deviceSet = true
	}
}

// WithEncoding enables the compressed columnar subsystem for the session:
// node outputs are compressed per column (dictionary, run-length, delta +
// bit-packing, scaled-decimal floats, raw fallback), held compressed in
// the Memory Catalog — so the same budget keeps more MVs resident, with
// lazy decode on read — and written to storage in the chunked colfmt v2
// format, shrinking the bytes moved through the storage-bound path. The
// optimizer's size and score estimates switch to compressed footprints, so
// flag/order decisions follow the real tradeoff. Reads remain compatible
// with both formats whether or not encoding is enabled.
//
//	ref, err := sc.New(mvs, store, sc.WithEncoding(sc.EncodingOptions{}))
//
// Pass Mode: sc.EncodingRaw to keep the v2 format but disable compression
// (an explicit baseline for experiments).
func WithEncoding(opts EncodingOptions) Option {
	return func(c *config) {
		o := opts
		c.encoding = &o
	}
}

// WithVectorized enables the compressed-execution kernels for the
// session: supported Filter and Aggregate subtrees of each node's plan run
// directly on encoded column chunks instead of decode-then-execute.
// Equality, IN and range predicates on dictionary-encoded columns compare
// bit-packed codes (ranges via a sorted-dictionary code map), COUNT/SUM/
// GROUP BY consume run-length runs without expanding them, and values are
// materialized only for rows that survive filtering (late
// materialization). Inputs resolve as per-chunk lazy readers, so a
// flagged compressed MV no longer pays a whole-table decode on every
// read. Results are byte-identical to the row engine: unsupported plan
// shapes and non-chunked inputs fall back transparently.
//
// Kernels engage on chunked inputs, so pair this with WithEncoding:
//
//	ref, err := sc.New(mvs, store,
//		sc.WithEncoding(sc.EncodingOptions{}),
//		sc.WithVectorized(true),
//	)
//
// KernelDone events report chunks skipped, rows filtered in code space
// and decodes avoided per node.
//
// With WithEncoding also set, vectorized sessions run the compressed
// intermediate pipeline: kernel outputs — including a join probing another
// join's output — leave the operator as compressed chunks (dictionary
// codes remapped, never materialized) and land in the Memory Catalog and
// storage without an encode-from-rows round trip. A session-level
// dictionary cache carries each node's column dictionaries across Run
// calls, so recurring refreshes reuse yesterday's dictionaries instead of
// rebuilding them; see WithSessionDictCache to turn that cache off.
func WithVectorized(enabled bool) Option {
	return func(c *config) { c.vectorized = enabled }
}

// WithParallelScan lets the compressed-execution kernels split a node's
// chunk walk across idle scheduler tokens (see WithConcurrency): row-group
// partitions evaluate concurrently with thread-local selection vectors and
// accumulators, and the partial results merge in chunk order, so the
// output — and every byte-level artifact downstream — is identical to the
// serial walk. Aggregates whose result depends on float addition order
// (AVG, SUM over floats) keep the serial path automatically. Tokens are
// borrowed non-blocking, so intra-node parallelism composes with the
// node-level pool under the one budget and can never deadlock it. Only
// effective together with WithVectorized and WithConcurrency(k > 1).
func WithParallelScan(enabled bool) Option {
	return func(c *config) { c.parallelScan = enabled }
}

// WithSessionDictCache controls the session dictionary cache that rides
// along with WithVectorized (enabled by default): chunked kernel outputs
// intern their dictionary entries into per-(node, column) dictionaries
// kept for the life of the Refresher, so the next Run encodes recurring
// values as pure id lookups and NodeMetrics.DictReused reports the chunks
// served entirely from cache. A dictionary is invalidated when its
// column's name or type changes, and a column whose cardinality outgrows
// the cap falls back to per-chunk re-encoding. Pass false for one-shot
// sessions that should not retain dictionaries between runs.
func WithSessionDictCache(enabled bool) Option {
	return func(c *config) { c.dictCache = enabled }
}

// WithTelemetry enables per-run tracing for the session: every Run/Refresh
// assembles a trace — a root span, one child span per executed node with
// encode/decode/kernel completions as span events, and runtime profiling
// deltas (GC pause, heap allocation, goroutine peak) on the root — plus a
// critical-path analysis of the DAG, available from Refresher.LastTrace.
// Node observations in Metrics carry the matching run ID.
//
// exp, when non-nil, additionally receives every completed trace; see
// NewOTLPTraceExporter and NewFileTraceExporter. The session does not close
// the exporter — that stays with the caller. Pass nil to trace without
// exporting. The collector rides the same event stream as WithObserver and
// costs nothing when this option is absent.
func WithTelemetry(exp TraceExporter) Option {
	return func(c *config) {
		c.tracing = true
		c.traceExporter = exp
	}
}

// WithLedger enables the session run ledger: every Run/Refresh lands a
// RunSummary — wall and queue time, per-node wall/self/wait, decoded and
// encoded bytes, compression ratios, kernel fallbacks, evictions, the
// critical path, and predicted-vs-actual peak memory — in a bounded
// in-memory history, read back with Refresher.History. Per-(pipeline, node)
// EWMA baselines learn from succeeded runs and an anomaly detector flags
// wall/bytes regressions, compression-ratio collapses, eviction storms and
// kernel-fallback appearances against them; see the Anomalies field of each
// summary.
//
// path, when non-empty, persists summaries as NDJSON and replays them on
// New, so baselines survive process restarts. WithLedger implies tracing
// (the summary is derived from the run's spans); combine with WithTelemetry
// to also export traces.
func WithLedger(path string) Option {
	return func(c *config) {
		c.ledger = true
		c.ledgerPath = path
		c.tracing = true
	}
}

// WithAlerts pushes the session's flagging-adjacent surprises to a
// webhook instead of waiting for History to be read: every ledger anomaly
// (wall/bytes regressions, ratio collapses, eviction storms, kernel
// fallbacks) and every health-verdict transition POSTs one JSON event to
// webhookURL through a bounded queue with exponential-backoff retry;
// repeats of the same (pipeline, kind) within cooldown are suppressed
// (0 = the 5m default). Call Refresher.Close to drain pending deliveries.
// WithAlerts implies WithLedger's in-memory ledger — the anomalies are its
// verdicts — and therefore tracing.
func WithAlerts(webhookURL string, cooldown time.Duration) Option {
	return func(c *config) {
		if webhookURL == "" {
			c.fail("sc: empty alert webhook URL")
			return
		}
		c.alertURL = webhookURL
		c.alertCooldown = cooldown
		c.ledger = true
		c.tracing = true
	}
}

// WithSizeGuess sets the output-size assumption, in bytes, for nodes that
// have never been observed (e.g. the first run of a pipeline). The default
// is 1MB.
func WithSizeGuess(bytes int64) Option {
	return func(c *config) {
		if bytes < 0 {
			c.fail("sc: negative size guess %d", bytes)
			return
		}
		c.sizeGuess = bytes
	}
}
