package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// RealConfig controls the real-engine validation run.
type RealConfig struct {
	// ScaleFactor sizes the generated dataset (1.0 ≈ 20k fact rows).
	ScaleFactor float64
	// ReadBW/WriteBW throttle the storage backend so laptop hardware
	// reproduces the paper's storage-bound regime. Zero disables.
	ReadBW, WriteBW float64
	Latency         time.Duration
	// MemoryFrac sizes the Memory Catalog as a fraction of dataset bytes.
	MemoryFrac float64
	Seed       int64
}

// DefaultRealConfig throttles storage to an NFS-like 60/40 MB/s device.
func DefaultRealConfig() RealConfig {
	return RealConfig{
		ScaleFactor: 1.0,
		ReadBW:      60e6,
		WriteBW:     40e6,
		Latency:     2 * time.Millisecond,
		MemoryFrac:  0.30,
		Seed:        42,
	}
}

// Real runs the paper's mechanism end to end on the real engine: generate
// data, execute the I/O 1-style SQL workload unoptimized to collect
// execution metadata (§III-A), optimize with the observed sizes, re-run
// with S/C's plan, and report measured wall-clock speedup. Cancelling ctx
// aborts the run between nodes.
func Real(ctx context.Context, w io.Writer, cfg RealConfig) error {
	t := &tw{w: w}
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	newStore := func() (storage.Store, error) {
		inner := storage.NewMemStore()
		if err := ds.Save(inner, exec.SaveTable); err != nil {
			return nil, err
		}
		if cfg.ReadBW == 0 && cfg.WriteBW == 0 && cfg.Latency == 0 {
			return inner, nil
		}
		return &storage.Throttled{
			Inner: inner, ReadBWBps: cfg.ReadBW, WriteBWBps: cfg.WriteBW, Latency: cfg.Latency,
		}, nil
	}
	wl := tpcds.RealWorkload()
	g, _, err := wl.BuildGraph()
	if err != nil {
		return err
	}
	topo, err := g.TopoSort()
	if err != nil {
		return err
	}
	memory := int64(float64(ds.TotalBytes()) * cfg.MemoryFrac)

	t.printf("Real-engine validation: %d base tables (%.1f MB), %d MV nodes, Memory Catalog %.1f MB\n",
		len(ds.Tables), float64(ds.TotalBytes())/1e6, g.Len(), float64(memory)/1e6)

	// Pass 1: unoptimized run, collecting execution metadata.
	store1, err := newStore()
	if err != nil {
		return err
	}
	ctl1 := &exec.Controller{Store: store1, Mem: memcat.New(0)}
	base, err := ctl1.Run(ctx, wl, g, core.NewPlan(topo))
	if err != nil {
		return err
	}
	md := observe(base)

	// Optimize with observed sizes and a device profile matching the
	// throttled store.
	device := costmodel.DeviceProfile{
		DiskReadBW: cfg.ReadBW, DiskWriteBW: cfg.WriteBW, DiskLatency: cfg.Latency,
		MemReadBW: 10e9, MemWriteBW: 10e9, ComputeScale: 1,
	}
	if cfg.ReadBW == 0 {
		device = costmodel.PaperProfile()
	}
	prob, _ := md.Problem(g, memory, 1<<20, device, false)
	plan, st, err := opt.Solve(ctx, prob, opt.Options{})
	if err != nil {
		return err
	}
	t.printf("optimizer: flagged %d of %d nodes, score %.2fs, %d iterations (%.1fms)\n",
		len(plan.FlaggedIDs()), g.Len(), st.Score, st.Iterations,
		float64(st.Elapsed.Microseconds())/1000)

	// Pass 2: S/C run.
	store2, err := newStore()
	if err != nil {
		return err
	}
	ctl2 := &exec.Controller{Store: store2, Mem: memcat.New(memory)}
	ours, err := ctl2.Run(ctx, wl, g, plan)
	if err != nil {
		return err
	}

	t.printf("\n%-14s %12s %12s %12s %12s\n", "run", "total", "read", "compute", "write(blk)")
	var baseWrite, oursWrite time.Duration
	for _, n := range base.Nodes {
		baseWrite += n.WriteTime
	}
	for _, n := range ours.Nodes {
		oursWrite += n.WriteTime
	}
	t.printf("%-14s %12v %12v %12v %12v\n", "no opt", base.Total.Round(time.Millisecond),
		base.TotalRead().Round(time.Millisecond), base.TotalCompute().Round(time.Millisecond), baseWrite.Round(time.Millisecond))
	t.printf("%-14s %12v %12v %12v %12v\n", "S/C", ours.Total.Round(time.Millisecond),
		ours.TotalRead().Round(time.Millisecond), ours.TotalCompute().Round(time.Millisecond), oursWrite.Round(time.Millisecond))
	t.printf("\nmeasured end-to-end speedup: %.2fx (peak Memory Catalog %.1f MB, fallbacks %d)\n",
		float64(base.Total)/float64(ours.Total), float64(ours.PeakMemory)/1e6, ours.FallbackWrites)

	// Correctness: both runs must materialize identical MVs.
	if err := verifySameOutputs(store1, store2, g); err != nil {
		return err
	}
	t.printf("verified: all %d materialized views byte-identical across runs\n", g.Len())
	return t.err
}

func verifySameOutputs(a, b storage.Store, g *dag.Graph) error {
	for i := 0; i < g.Len(); i++ {
		name := g.Name(dag.NodeID(i))
		ta, err := exec.LoadTable(a, name)
		if err != nil {
			return fmt.Errorf("bench: load %s from baseline: %w", name, err)
		}
		tb, err := exec.LoadTable(b, name)
		if err != nil {
			return fmt.Errorf("bench: load %s from S/C run: %w", name, err)
		}
		if ta.NumRows() != tb.NumRows() || !ta.Schema.Equal(tb.Schema) {
			return fmt.Errorf("bench: %s differs between runs", name)
		}
		for r := 0; r < ta.NumRows(); r++ {
			ra, rb := ta.Row(r), tb.Row(r)
			for c := range ra {
				if ra[c] != rb[c] {
					return fmt.Errorf("bench: %s row %d differs between runs", name, r)
				}
			}
		}
	}
	return nil
}

// observe learns a pass's per-node metrics as execution metadata, the way
// a recurring session would have recorded them.
func observe(res *exec.RunResult) *metrics.Store {
	md := metrics.NewStore()
	for _, n := range res.Nodes {
		md.Record(metrics.Observation{
			Name: n.Name, OutputBytes: n.OutputBytes, EncodedBytes: n.EncodedSize,
			ReadTime: n.ReadTime, WriteTime: n.WriteTime, ComputeTime: n.ComputeTime,
			When: time.Now(),
		})
	}
	return md
}
