package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/tpcds"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

// EncodingConfig controls the compressed-encoding benchmark.
type EncodingConfig struct {
	// ScaleFactor sizes the generated TPC-DS dataset.
	ScaleFactor float64
	// ReadBW/WriteBW/Latency throttle the storage backend into the paper's
	// storage-bound regime; SleepScale compresses the simulated sleeps so
	// the benchmark stays fast (bytes written are unaffected).
	ReadBW, WriteBW float64
	Latency         time.Duration
	SleepScale      float64
	// MemoryFrac sizes the Memory Catalog as a fraction of dataset bytes.
	MemoryFrac float64
	Seed       int64
	// WlgenNodes sizes the synthetic workload for the modeled comparison.
	WlgenNodes int
	// OutDir receives BENCH_encoding.json; empty means current directory.
	OutDir string
}

// DefaultEncodingConfig mirrors DefaultRealConfig's NFS-like device with
// sleeps scaled down 50x.
func DefaultEncodingConfig() EncodingConfig {
	return EncodingConfig{
		ScaleFactor: 1.0,
		ReadBW:      60e6,
		WriteBW:     40e6,
		Latency:     2 * time.Millisecond,
		SleepScale:  0.02,
		MemoryFrac:  0.30,
		Seed:        42,
		WlgenNodes:  100,
	}
}

// EncodingRun is one measured (or modeled) configuration, serialized into
// BENCH_encoding.json so later PRs have a perf trajectory to compare
// against.
type EncodingRun struct {
	Workload         string  `json:"workload"`          // "tpcds-real" or "wlgen-sim"
	Mode             string  `json:"mode"`              // "v1", "raw" (v2 uncompressed), "auto" (v2 compressed)
	WallSeconds      float64 `json:"wall_seconds"`      // end-to-end refresh time
	BytesWritten     int64   `json:"bytes_written"`     // MV bytes moved to the throttled store
	CompressionRatio float64 `json:"compression_ratio"` // raw output bytes / bytes written
	PeakMemoryBytes  int64   `json:"peak_memory_bytes"` // Memory Catalog high-water mark
	FlaggedNodes     int     `json:"flagged_nodes"`     // nodes the optimizer kept in memory
	Fallbacks        int     `json:"fallbacks"`         // flagged outputs that did not fit
	ResidentMVs      int     `json:"resident_mvs"`      // flagged minus fallbacks
}

// EncodingReport is the machine-readable result of the benchmark.
type EncodingReport struct {
	ScaleFactor          float64       `json:"scale_factor"`
	MemoryBytes          int64         `json:"memory_bytes"`
	Runs                 []EncodingRun `json:"runs"`
	TPCDSBytesReductionX float64       `json:"tpcds_bytes_reduction_x"` // raw / auto bytes written
	WlgenFlaggedDelta    int           `json:"wlgen_flagged_delta"`     // extra resident MVs with compression
}

// Encoding benchmarks the compressed columnar subsystem: the TPC-DS real
// workload runs on the real engine against a throttled store with encoding
// disabled (v2 raw), legacy v1, and enabled (v2 auto), reporting bytes
// written and catalog residency; the wlgen synthetic workload repeats the
// comparison on the calibrated simulator using the measured compression
// ratio. Results land in the table writer and in BENCH_encoding.json.
func Encoding(ctx context.Context, w io.Writer, cfg EncodingConfig) error {
	t := &tw{w: w}
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	memory := int64(float64(ds.TotalBytes()) * cfg.MemoryFrac)
	device := costmodel.DeviceProfile{
		DiskReadBW: cfg.ReadBW, DiskWriteBW: cfg.WriteBW, DiskLatency: cfg.Latency,
		MemReadBW: 10e9, MemWriteBW: 10e9, ComputeScale: 1,
	}
	report := &EncodingReport{ScaleFactor: cfg.ScaleFactor, MemoryBytes: memory}

	t.printf("Encoding benchmark: TPC-DS sf %.1f (%.1f MB base), Memory Catalog %.1f MB\n",
		cfg.ScaleFactor, float64(ds.TotalBytes())/1e6, float64(memory)/1e6)
	t.printf("\n%-12s %-6s %12s %12s %10s %10s %9s\n",
		"workload", "mode", "bytes", "ratio", "wall", "peak MB", "resident")

	modes := []struct {
		name string
		enc  *encoding.Options
	}{
		{"raw", &encoding.Options{Mode: encoding.ModeRaw}},
		{"v1", nil},
		{"auto", &encoding.Options{Mode: encoding.ModeAuto}},
	}
	stores := make(map[string]storage.Store)
	measuredRatio := 1.0
	for _, m := range modes {
		run, store, err := encodingRealRun(ctx, cfg, ds, memory, device, m.enc)
		if err != nil {
			return fmt.Errorf("bench: encoding %s: %w", m.name, err)
		}
		run.Mode = m.name
		stores[m.name] = store
		report.Runs = append(report.Runs, *run)
		if m.name == "auto" {
			measuredRatio = run.CompressionRatio
		}
		t.printf("%-12s %-6s %12d %11.2fx %10s %10.2f %9d\n",
			run.Workload, run.Mode, run.BytesWritten, run.CompressionRatio,
			time.Duration(run.WallSeconds*float64(time.Second)).Round(time.Millisecond),
			float64(run.PeakMemoryBytes)/1e6, run.ResidentMVs)
	}

	// Correctness across formats: all three runs materialized the same MVs.
	wl := tpcds.RealWorkload()
	g, _, err := wl.BuildGraph()
	if err != nil {
		return err
	}
	if err := verifySameOutputs(stores["raw"], stores["auto"], g); err != nil {
		return err
	}
	if err := verifySameOutputs(stores["v1"], stores["auto"], g); err != nil {
		return err
	}

	var rawRun, autoRun *EncodingRun
	for i := range report.Runs {
		switch report.Runs[i].Mode {
		case "raw":
			rawRun = &report.Runs[i]
		case "auto":
			autoRun = &report.Runs[i]
		}
	}
	report.TPCDSBytesReductionX = float64(rawRun.BytesWritten) / float64(autoRun.BytesWritten)
	t.printf("\nTPC-DS bytes-written reduction (auto vs raw): %.2fx\n", report.TPCDSBytesReductionX)
	t.printf("verified: all %d MVs identical across raw/v1/auto runs\n", g.Len())

	// Synthetic wlgen workload on the simulator: apply the measured ratio
	// to model compressed catalog entries and storage transfers.
	wlRuns, err := encodingWlgenRuns(ctx, cfg, device, measuredRatio)
	if err != nil {
		return err
	}
	for _, run := range wlRuns {
		report.Runs = append(report.Runs, run)
		t.printf("%-12s %-6s %12d %11.2fx %10s %10.2f %9d\n",
			run.Workload, run.Mode, run.BytesWritten, run.CompressionRatio,
			time.Duration(run.WallSeconds*float64(time.Second)).Round(time.Millisecond),
			float64(run.PeakMemoryBytes)/1e6, run.ResidentMVs)
	}
	report.WlgenFlaggedDelta = wlRuns[1].FlaggedNodes - wlRuns[0].FlaggedNodes
	t.printf("wlgen catalog-residency delta with compression: +%d flagged nodes\n", report.WlgenFlaggedDelta)

	path := filepath.Join(cfg.OutDir, "BENCH_encoding.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	t.printf("wrote %s\n", path)
	return t.err
}

// encodingRealRun executes observe → optimize → refresh on the real engine
// with one encoding configuration and measures the optimized refresh.
func encodingRealRun(ctx context.Context, cfg EncodingConfig, ds *tpcds.Dataset, memory int64, device costmodel.DeviceProfile, enc *encoding.Options) (*EncodingRun, storage.Store, error) {
	newStore := func() (storage.Store, error) {
		inner := storage.NewMemStore()
		if err := ds.Save(inner, exec.SaveTable); err != nil {
			return nil, err
		}
		return &storage.Throttled{
			Inner: inner, ReadBWBps: cfg.ReadBW, WriteBWBps: cfg.WriteBW,
			Latency: cfg.Latency, SleepScale: cfg.SleepScale,
		}, nil
	}
	wl := tpcds.RealWorkload()
	g, _, err := wl.BuildGraph()
	if err != nil {
		return nil, nil, err
	}
	topo, err := g.TopoSort()
	if err != nil {
		return nil, nil, err
	}

	// Pass 1: unoptimized, collecting sizes (raw and encoded).
	store1, err := newStore()
	if err != nil {
		return nil, nil, err
	}
	ctl1 := &exec.Controller{Store: store1, Mem: memcat.New(0), Encoding: enc}
	base, err := ctl1.Run(ctx, wl, g, core.NewPlan(topo))
	if err != nil {
		return nil, nil, err
	}
	md := observe(base)

	// Optimize with the footprints this configuration actually produces.
	prob, _ := md.Problem(g, memory, 1<<20, device, enc != nil)
	plan, _, err := opt.Solve(ctx, prob, opt.Options{})
	if err != nil {
		return nil, nil, err
	}

	// Pass 2: the measured refresh.
	store2, err := newStore()
	if err != nil {
		return nil, nil, err
	}
	ctl2 := &exec.Controller{Store: store2, Mem: memcat.New(memory), Encoding: enc}
	res, err := ctl2.Run(ctx, wl, g, plan)
	if err != nil {
		return nil, nil, err
	}

	var rawBytes, written int64
	for _, n := range res.Nodes {
		rawBytes += n.OutputBytes
		written += n.EncodedSize
	}
	ratio := 1.0
	if written > 0 {
		ratio = float64(rawBytes) / float64(written)
	}
	return &EncodingRun{
		Workload:         "tpcds-real",
		WallSeconds:      res.Total.Seconds(),
		BytesWritten:     written,
		CompressionRatio: ratio,
		PeakMemoryBytes:  res.PeakMemory,
		FlaggedNodes:     len(plan.FlaggedIDs()),
		Fallbacks:        res.FallbackWrites,
		ResidentMVs:      len(plan.FlaggedIDs()) - res.FallbackWrites,
	}, store2, nil
}

// encodingWlgenRuns repeats the comparison on a synthetic wlgen DAG with
// the calibrated simulator: compressed entries shrink both the knapsack
// weights and the storage transfers by the measured ratio.
func encodingWlgenRuns(ctx context.Context, cfg EncodingConfig, device costmodel.DeviceProfile, ratio float64) ([]EncodingRun, error) {
	gen, err := wlgen.Generate(wlgen.Params{Nodes: cfg.WlgenNodes, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var totalRaw int64
	for _, n := range gen.Workload.Nodes {
		totalRaw += n.OutputBytes
	}
	memory := int64(float64(totalRaw) * cfg.MemoryFrac)

	runOne := func(r float64) (*EncodingRun, error) {
		w := &sim.Workload{G: gen.Workload.G}
		var sizes []int64
		for _, n := range gen.Workload.Nodes {
			node := n
			node.OutputBytes = int64(float64(n.OutputBytes) / r)
			if node.OutputBytes < 1 {
				node.OutputBytes = 1
			}
			w.Nodes = append(w.Nodes, node)
			sizes = append(sizes, node.OutputBytes)
		}
		prob := &core.Problem{
			G:      w.G,
			Sizes:  sizes,
			Scores: costmodel.Scores(device, w.G, sizes),
			Memory: memory,
		}
		plan, _, err := opt.Solve(ctx, prob, opt.Options{})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(ctx, w, plan, sim.Config{Device: device, Memory: memory})
		if err != nil {
			return nil, err
		}
		var written int64
		for _, n := range w.Nodes {
			written += n.OutputBytes
		}
		return &EncodingRun{
			Workload:         "wlgen-sim",
			WallSeconds:      res.Total,
			BytesWritten:     written,
			CompressionRatio: r,
			PeakMemoryBytes:  res.PeakMemory,
			FlaggedNodes:     len(plan.FlaggedIDs()),
			Fallbacks:        res.Fallbacks,
			ResidentMVs:      len(plan.FlaggedIDs()) - res.Fallbacks,
		}, nil
	}

	rawRun, err := runOne(1)
	if err != nil {
		return nil, err
	}
	rawRun.Mode = "raw"
	autoRun, err := runOne(ratio)
	if err != nil {
		return nil, err
	}
	autoRun.Mode = "auto"
	return []EncodingRun{*rawRun, *autoRun}, nil
}
