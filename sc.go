// Package sc is Short-Circuit (S/C): a system that speeds up the refresh of
// a DAG of materialized views under a bounded Memory Catalog, reproducing
// "S/C: Speeding up Data Materialization with Bounded Memory" (ICDE 2023).
//
// Given MV definitions with acyclic dependencies, S/C jointly optimizes
// (1) the MV refresh order and (2) which intermediate results to keep
// temporarily in memory, so downstream updates read hot inputs at memory
// speed while materialization to external storage proceeds in the
// background. All MVs are still fully materialized, so SLAs are unaffected.
//
// The main entry point is the Refresher, a long-lived session that unifies
// run → observe → re-optimize for a recurring pipeline:
//
//	ref, err := sc.New(mvs, store,
//		sc.WithMemory(1<<30),
//		sc.WithConcurrency(4),
//		sc.WithObserver(sc.ObserverFunc(func(e sc.Event) { log.Println(e.Kind, e.Node) })),
//	)
//	...
//	res, err := ref.Refresh(ctx) // run, record metadata, re-optimize
//
// Refreshes honor ctx cancellation and deadlines mid-run. Flagging and
// ordering strategies are pluggable: implement Selector or Orderer,
// register them with RegisterSelector/RegisterOrderer, and pass them via
// WithFlagSelector/WithOrderer.
//
// For pure optimization problems (no SQL, no storage) build a Problem with
// GraphBuilder and call Solve:
//
//	g := sc.NewGraphBuilder()
//	a := g.Node("mv_a", sizeA, scoreA)
//	b := g.Node("mv_b", sizeB, scoreB)
//	g.Edge(a, b) // mv_b reads mv_a
//	plan, stats, err := sc.Solve(ctx, g.Problem(memoryBudget))
//
// The plan's Order and FlaggedIDs drive either the real Controller
// (Refresher) or the calibrated simulator (Refresher.Simulate, SimulatePlan).
package sc

import (
	"context"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/flagsel"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/order"
)

// NodeID identifies a node in a workload graph.
type NodeID = dag.NodeID

// Problem is an S/C Opt instance: dependency graph, per-node output sizes,
// per-node speedup scores, and the Memory Catalog budget.
type Problem = core.Problem

// Plan is an optimized refresh plan: an execution order plus the flagged
// set kept in the Memory Catalog.
type Plan = core.Plan

// DeviceProfile describes storage and memory performance for score
// estimation and simulation.
type DeviceProfile = costmodel.DeviceProfile

// EncodingOptions configures the compressed columnar subsystem enabled by
// WithEncoding: per-column codec selection mode, chunking and sampling.
// The zero value selects codecs automatically with default chunking.
type EncodingOptions = encoding.Options

// EncodingMode selects how codecs are chosen; see EncodingAuto and
// EncodingRaw.
type EncodingMode = encoding.Mode

// Encoding modes.
const (
	// EncodingAuto samples each column chunk and picks the smallest of the
	// applicable codecs (dictionary, run-length, delta + bit-packing,
	// scaled-decimal floats, raw).
	EncodingAuto = encoding.ModeAuto
	// EncodingRaw stores every chunk uncompressed in the v2 format; useful
	// as an explicit baseline in experiments.
	EncodingRaw = encoding.ModeRaw
)

// PaperProfile returns the device profile of the paper's evaluation
// environment (§VI-A), with bandwidths expressed as effective table-I/O
// throughput.
func PaperProfile() DeviceProfile { return costmodel.PaperProfile() }

// Selector chooses which node outputs to keep in the Memory Catalog for a
// fixed execution order (S/C Opt Nodes, Problem 2 of the paper). Built-in
// implementations are available via SelectorByName: "mkp" (the paper's
// SimplifiedMKP, the default), "greedy", "random", "ratio".
type Selector = flagsel.Selector

// Orderer produces a topological execution order given the flagged set
// (S/C Opt Order, Problem 3 of the paper). Built-in implementations are
// available via OrdererByName: "ma-dfs" (the paper's, the default), "dfs",
// "kahn", "sa", "separator".
type Orderer = order.Orderer

// RegisterSelector makes a custom flagging strategy available under name
// (case-insensitive) to SelectorByName and to anything that looks
// strategies up by name (cmd/scopt JSON inputs, config files). The factory
// receives the seed passed at lookup. It panics if name is empty or already
// registered.
func RegisterSelector(name string, factory func(seed int64) Selector) {
	flagsel.Register(name, factory)
}

// RegisterOrderer makes a custom ordering strategy available under name
// (case-insensitive). The factory receives the seed passed at lookup. It
// panics if name is empty or already registered.
func RegisterOrderer(name string, factory func(seed int64) Orderer) {
	order.Register(name, factory)
}

// SelectorByName returns the registered selector, seeding randomized ones.
func SelectorByName(name string, seed int64) (Selector, error) {
	return flagsel.New(name, seed)
}

// OrdererByName returns the registered orderer, seeding randomized ones.
func OrdererByName(name string, seed int64) (Orderer, error) {
	return order.New(name, seed)
}

// SelectorNames lists registered selector names, sorted.
func SelectorNames() []string { return flagsel.Names() }

// OrdererNames lists registered orderer names, sorted.
func OrdererNames() []string { return order.Names() }

// GraphBuilder assembles a Problem incrementally.
type GraphBuilder struct {
	g      *dag.Graph
	sizes  []int64
	scores []float64
}

// NewGraphBuilder returns an empty builder.
func NewGraphBuilder() *GraphBuilder {
	return &GraphBuilder{g: dag.New()}
}

// Node adds an MV update with its intermediate-table size in bytes and its
// speedup score in seconds (use EstimateScores to derive scores from sizes
// and a device profile).
func (b *GraphBuilder) Node(name string, sizeBytes int64, score float64) NodeID {
	id := b.g.AddNode(name)
	b.sizes = append(b.sizes, sizeBytes)
	b.scores = append(b.scores, score)
	return id
}

// Edge declares that child consumes parent's output.
func (b *GraphBuilder) Edge(parent, child NodeID) error {
	return b.g.AddEdge(parent, child)
}

// Problem finalizes the builder with the given Memory Catalog size.
func (b *GraphBuilder) Problem(memory int64) *Problem {
	return &Problem{
		G:      b.g,
		Sizes:  append([]int64(nil), b.sizes...),
		Scores: append([]float64(nil), b.scores...),
		Memory: memory,
	}
}

// EstimateScores fills the problem's scores from its sizes and a device
// profile using the paper's §IV formula: per-child read savings plus the
// overlapped write saving.
func EstimateScores(p *Problem, d DeviceProfile) {
	p.Scores = costmodel.Scores(d, p.G, p.Sizes)
}

// Stats reports optimizer behaviour.
type Stats struct {
	Iterations int
	Score      float64       // total speedup score of flagged nodes (seconds)
	PeakMemory int64         // peak Memory Catalog bytes of the plan
	Elapsed    time.Duration // optimization wall-clock
	StopReason string
}

// Solve solves S/C Opt (Problem 1 of the paper) and returns a feasible
// plan: a topological execution order and a flagged set whose peak resident
// size never exceeds the Memory Catalog budget. The context is honored
// between alternating-optimization iterations. Recognized options:
// WithFlagSelector, WithOrderer, WithSeed, WithMaxIterations, WithObserver
// (IterationDone events).
func Solve(ctx context.Context, p *Problem, opts ...Option) (*Plan, *Stats, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, nil, err
	}
	return cfg.solve(ctx, p)
}

// solve runs the alternating optimization with the config's strategies —
// the paper's defaults, seeded with WithSeed, when none were supplied —
// iteration cap and observer.
func (c *config) solve(ctx context.Context, p *Problem) (*Plan, *Stats, error) {
	sel, ord := c.selector, c.orderer
	var err error
	if sel == nil {
		if sel, err = SelectorByName("mkp", c.seed); err != nil {
			return nil, nil, err
		}
	}
	if ord == nil {
		if ord, err = OrdererByName("ma-dfs", c.seed); err != nil {
			return nil, nil, err
		}
	}
	pl, st, err := opt.Solve(ctx, p, opt.Options{
		Selector:      sel,
		Orderer:       ord,
		MaxIterations: c.maxIterations,
		Observer:      c.observer,
	})
	if err != nil {
		return nil, nil, err
	}
	return pl, &Stats{
		Iterations: st.Iterations,
		Score:      st.Score,
		PeakMemory: st.PeakMemory,
		Elapsed:    st.Elapsed,
		StopReason: st.StopReason,
	}, nil
}

// Feasible reports whether the plan's flagged set fits in the problem's
// Memory Catalog at every step of its order.
func Feasible(p *Problem, pl *Plan) bool { return core.Feasible(p, pl) }

// PeakMemory returns the plan's peak Memory Catalog usage in bytes under
// the unit-time model of §IV.
func PeakMemory(p *Problem, pl *Plan) int64 { return core.PeakMemoryUsage(p, pl) }
