package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/shortcircuit-db/sc/internal/chunkio"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/exec"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/opt"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/storage"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/telemetry"
	"github.com/shortcircuit-db/sc/internal/tpcds"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

// KernelsConfig controls the compressed-execution benchmark.
type KernelsConfig struct {
	// ScaleFactor sizes the generated TPC-DS dataset.
	ScaleFactor float64
	// ReadBW/WriteBW/Latency throttle the storage backend into the paper's
	// storage-bound regime; SleepScale compresses the simulated sleeps so
	// the benchmark stays fast.
	ReadBW, WriteBW float64
	Latency         time.Duration
	SleepScale      float64
	// MemoryFrac sizes the Memory Catalog as a fraction of dataset bytes.
	MemoryFrac float64
	Seed       int64
	// WlgenNodes sizes the synthetic workload for the modeled comparison.
	WlgenNodes int
	// Workers, when non-empty, re-runs the kernels mode once per listed
	// token budget with the chunk-parallel scan path on, reporting
	// wall_seconds and scaling (wall at 1 worker / wall at k) per count.
	// Every sweep run's outputs are verified byte-identical to the serial
	// kernels run.
	Workers []int
	// OutDir receives BENCH_kernels.json; empty means current directory.
	OutDir string
}

// DefaultKernelsConfig mirrors DefaultEncodingConfig's NFS-like device.
func DefaultKernelsConfig() KernelsConfig {
	return KernelsConfig{
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

// KernelsRun is one measured (or modeled) configuration.
type KernelsRun struct {
	Workload    string  `json:"workload"` // "tpcds-real" or "wlgen-sim"
	Mode        string  `json:"mode"`     // "raw", "decode", "kernels"
	WallSeconds float64 `json:"wall_seconds"`
	// Workers and Scaling are set on parallel-sweep rows: the run's
	// scheduler token budget and its speedup over the 1-worker sweep run
	// (wall_1 / wall_k).
	Workers          int     `json:"workers,omitempty"`
	Scaling          float64 `json:"scaling,omitempty"`
	BytesWritten     int64   `json:"bytes_written"`
	DecodedBytes     int64   `json:"decoded_bytes"` // raw bytes materialized by reads (chunked modes)
	ChunksSkipped    int64   `json:"chunks_skipped,omitempty"`
	CodeFilteredRows int64   `json:"code_filtered_rows,omitempty"`
	DecodesAvoided   int64   `json:"decodes_avoided,omitempty"`
	JoinBuildRows    int64   `json:"join_build_rows,omitempty"`
	JoinProbeRows    int64   `json:"join_probe_rows,omitempty"`
	// Compressed intermediate pipeline (kernels mode): output chunks kept
	// in code space, chunks re-encoded from materialized values, chunks
	// whose dictionary came from the session cache, and kernel executions
	// that fell back to the row engine (not omitempty: zero is the claim
	// CI asserts for the join-over-join path).
	ChunksPassed    int64 `json:"chunks_passed,omitempty"`
	Reencoded       int64 `json:"reencode,omitempty"`
	DictReused      int64 `json:"dict_reused,omitempty"`
	KernelFallbacks int64 `json:"kernel_fallbacks"`
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	// PeakDecodedBytes is the decoded-view cache high-water mark: droppable
	// derived state on top of the compressed catalog residency, so total
	// footprint peaks at up to peak_memory_bytes + peak_decoded_bytes.
	PeakDecodedBytes int64 `json:"peak_decoded_bytes,omitempty"`
	FlaggedNodes     int   `json:"flagged_nodes"`
	Fallbacks        int   `json:"fallbacks"`
	// Nodes breaks the measured wall time down per MV, derived from the
	// run's node spans; CritPathSeconds is the longest blocking chain
	// through the DAG. Real (measured) runs only — the simulated rows
	// report their own timeline elsewhere.
	Nodes           []KernelNodeTime `json:"nodes,omitempty"`
	CritPath        []string         `json:"crit_path,omitempty"`
	CritPathSeconds float64          `json:"crit_path_seconds,omitempty"`
}

// KernelNodeTime is one node's share of a measured run.
type KernelNodeTime struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
}

// KernelsReport is the machine-readable result of the benchmark. The
// headline ratios compare the kernels mode against decode-then-execute
// ("decode"): same compressed bytes moved, different amounts of decode
// work and wall time. The "raw" rows are the uncompressed v1 baseline
// (their decoded-bytes accounting is always zero — v1 reads are not
// instrumented).
type KernelsReport struct {
	ScaleFactor            float64      `json:"scale_factor"`
	MemoryBytes            int64        `json:"memory_bytes"`
	Runs                   []KernelsRun `json:"runs"`
	TPCDSDecodedReductionX float64      `json:"tpcds_decoded_reduction_x"`
	TPCDSWallSpeedupX      float64      `json:"tpcds_wall_speedup_x"`
	WlgenDecodedReductionX float64      `json:"wlgen_decoded_reduction_x"`
	WlgenWallSpeedupX      float64      `json:"wlgen_wall_speedup_x"`
	// ScanScalingX is the parallel sweep's speedup at its widest token
	// budget (wall at 1 worker / wall at max workers); 0 without a sweep.
	ScanScalingX float64 `json:"scan_scaling_x,omitempty"`
}

// kernelCounters sums the decode/kernel event stream of one run.
type kernelCounters struct {
	decoded         atomic.Int64 // DecodeDone raw bytes + kernel-materialized bytes
	chunksSkipped   atomic.Int64
	codeRows        atomic.Int64
	decodesAvoided  atomic.Int64
	joinBuildRows   atomic.Int64
	joinProbeRows   atomic.Int64
	chunksPassed    atomic.Int64
	reencoded       atomic.Int64
	dictReused      atomic.Int64
	kernelFallbacks atomic.Int64
}

func (k *kernelCounters) OnEvent(e obs.Event) {
	switch e.Kind {
	case obs.DecodeDone:
		k.decoded.Add(e.Bytes)
	case obs.KernelDone:
		k.decoded.Add(e.Bytes)
		k.chunksSkipped.Add(e.ChunksSkipped)
		k.codeRows.Add(e.CodeFilteredRows)
		k.decodesAvoided.Add(e.DecodesAvoided)
		k.joinBuildRows.Add(e.JoinBuildRows)
		k.joinProbeRows.Add(e.JoinProbeRows)
		k.chunksPassed.Add(e.ChunksPassed)
		k.reencoded.Add(e.ReencodedChunks)
		k.dictReused.Add(e.DictReused)
		k.kernelFallbacks.Add(e.Fallbacks)
	}
}

// Kernels benchmarks compressed execution end to end: the TPC-DS real
// workload runs on the real engine as (a) the uncompressed v1 baseline,
// (b) compression with decode-then-execute, and (c) compression with the
// vectorized kernels; the wlgen synthetic workload repeats the comparison
// on the simulator with the codec CPU-cost model calibrated from the
// measured run. Results land in the table writer and BENCH_kernels.json.
func Kernels(ctx context.Context, w io.Writer, cfg KernelsConfig) error {
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
	report := &KernelsReport{ScaleFactor: cfg.ScaleFactor, MemoryBytes: memory}

	t.printf("Kernels benchmark: TPC-DS sf %.1f (%.1f MB base), Memory Catalog %.1f MB\n",
		cfg.ScaleFactor, float64(ds.TotalBytes())/1e6, float64(memory)/1e6)
	t.printf("\n%-12s %-8s %12s %12s %10s %10s %10s %12s %12s %8s %8s\n",
		"workload", "mode", "written", "decoded", "wall", "skipped", "avoided", "code rows", "probe rows", "reenc", "reuse")

	auto := encoding.Options{Mode: encoding.ModeAuto}
	modes := []struct {
		name       string
		enc        *encoding.Options
		vectorized bool
	}{
		{"raw", nil, false},
		{"decode", &auto, false},
		{"kernels", &auto, true},
	}
	stores := make(map[string]storage.Store)
	var rawOut int64
	for _, m := range modes {
		run, store, rawBytes, err := kernelsRealRun(ctx, cfg, ds, memory, device, m.enc, m.vectorized, 0)
		if err != nil {
			return fmt.Errorf("bench: kernels %s: %w", m.name, err)
		}
		run.Mode = m.name
		stores[m.name] = store
		rawOut = rawBytes
		report.Runs = append(report.Runs, *run)
		t.printf("%-12s %-8s %12d %12d %10s %10d %10d %12d %12d %8d %8d\n",
			run.Workload, run.Mode, run.BytesWritten, run.DecodedBytes,
			time.Duration(run.WallSeconds*float64(time.Second)).Round(time.Millisecond),
			run.ChunksSkipped, run.DecodesAvoided, run.CodeFilteredRows, run.JoinProbeRows,
			run.Reencoded, run.DictReused)
	}

	// Correctness across modes: all three runs materialized the same MVs.
	wl := tpcds.RealWorkload()
	g, _, err := wl.BuildGraph()
	if err != nil {
		return err
	}
	if err := verifySameOutputs(stores["raw"], stores["kernels"], g); err != nil {
		return err
	}
	if err := verifySameOutputs(stores["decode"], stores["kernels"], g); err != nil {
		return err
	}
	t.printf("verified: all %d MVs identical across raw/decode/kernels runs\n", g.Len())

	decodeRun := &report.Runs[1]
	kernelsRun := &report.Runs[2]
	report.TPCDSDecodedReductionX = ratioOf(decodeRun.DecodedBytes, kernelsRun.DecodedBytes)
	report.TPCDSWallSpeedupX = decodeRun.WallSeconds / kernelsRun.WallSeconds
	t.printf("TPC-DS decoded-bytes reduction (kernels vs decode): %.2fx, wall speedup %.2fx\n\n",
		report.TPCDSDecodedReductionX, report.TPCDSWallSpeedupX)

	// Parallel-scan sweep: the kernels mode again, once per token budget,
	// with the chunk-parallel path on. Outputs must stay byte-identical to
	// the serial kernels run — that's the determinism claim, checked here
	// on every sweep width.
	if len(cfg.Workers) > 0 {
		serialWall := kernelsRun.WallSeconds
		t.printf("Parallel scan sweep (kernels mode, scheduler tokens = workers):\n")
		t.printf("%-8s %10s %8s\n", "workers", "wall", "scaling")
		wall1 := serialWall
		for _, wkr := range cfg.Workers {
			run, store, _, err := kernelsRealRun(ctx, cfg, ds, memory, device, &auto, true, wkr)
			if err != nil {
				return fmt.Errorf("bench: kernels sweep w=%d: %w", wkr, err)
			}
			run.Mode = "kernels"
			run.Workers = wkr
			if wkr <= 1 {
				wall1 = run.WallSeconds
			}
			if run.WallSeconds > 0 {
				run.Scaling = wall1 / run.WallSeconds
			}
			if err := verifySameOutputs(stores["kernels"], store, g); err != nil {
				return fmt.Errorf("bench: sweep w=%d diverged from serial: %w", wkr, err)
			}
			report.Runs = append(report.Runs, *run)
			report.ScanScalingX = run.Scaling
			t.printf("%-8d %10s %7.2fx\n", wkr,
				time.Duration(run.WallSeconds*float64(time.Second)).Round(time.Millisecond),
				run.Scaling)
		}
		t.printf("verified: every sweep width byte-identical to the serial kernels run\n\n")
	}

	// Calibrate the simulator's encoding model from the measured run.
	measuredRatio := ratioOf(rawOut, kernelsRun.BytesWritten)
	decFrac := 1.0
	if decodeRun.DecodedBytes > 0 {
		decFrac = float64(kernelsRun.DecodedBytes) / float64(decodeRun.DecodedBytes)
		if decFrac > 1 {
			decFrac = 1
		}
	}
	wlRuns, err := kernelsWlgenRuns(ctx, cfg, device, measuredRatio, decFrac)
	if err != nil {
		return err
	}
	for _, run := range wlRuns {
		report.Runs = append(report.Runs, run)
		t.printf("%-12s %-8s %12d %12d %10s\n",
			run.Workload, run.Mode, run.BytesWritten, run.DecodedBytes,
			time.Duration(run.WallSeconds*float64(time.Second)).Round(time.Millisecond))
	}
	wd, wk := wlRuns[1], wlRuns[2]
	report.WlgenDecodedReductionX = ratioOf(wd.DecodedBytes, wk.DecodedBytes)
	report.WlgenWallSpeedupX = wd.WallSeconds / wk.WallSeconds
	t.printf("wlgen decoded-bytes reduction (kernels vs decode): %.2fx, wall speedup %.2fx\n",
		report.WlgenDecodedReductionX, report.WlgenWallSpeedupX)

	path := filepath.Join(cfg.OutDir, "BENCH_kernels.json")
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

func ratioOf(a, b int64) float64 {
	if b <= 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// kernelsRealRun executes observe → optimize → refresh on the real engine
// with one configuration and measures the optimized refresh. Base tables
// are stored chunked for the compressed modes (the kernels' per-chunk
// readers scan them directly) and v1 for the raw baseline. workers > 1
// gives the measured pass that many scheduler tokens with the
// chunk-parallel scan path on; 0 or 1 keeps it serial.
func kernelsRealRun(ctx context.Context, cfg KernelsConfig, ds *tpcds.Dataset, memory int64, device costmodel.DeviceProfile, enc *encoding.Options, vectorized bool, workers int) (*KernelsRun, storage.Store, int64, error) {
	newStore := func() (storage.Store, error) {
		inner := storage.NewMemStore()
		save := exec.SaveTable
		if enc != nil {
			save = func(st storage.Store, name string, tb *table.Table) error {
				return exec.SaveTableChunked(st, name, tb, *enc)
			}
		}
		if err := ds.Save(inner, save); err != nil {
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
		return nil, nil, 0, err
	}
	topo, err := g.TopoSort()
	if err != nil {
		return nil, nil, 0, err
	}

	// The session dictionary cache spans both passes, modelling a recurring
	// refresh: the measured pass reuses the dictionaries the observation
	// pass derived, which is what dict_reused in the report counts.
	var sess *chunkio.Session
	if vectorized {
		sess = chunkio.NewSession()
	}

	// Pass 1: unoptimized, collecting sizes (raw and encoded).
	store1, err := newStore()
	if err != nil {
		return nil, nil, 0, err
	}
	ctl1 := &exec.Controller{Store: store1, Mem: memcat.New(0), Encoding: enc, Vectorized: vectorized, Chunked: sess}
	base, err := ctl1.Run(ctx, wl, g, core.NewPlan(topo))
	if err != nil {
		return nil, nil, 0, err
	}
	md := observe(base)

	prob, _ := md.Problem(g, memory, 1<<20, device, enc != nil)
	plan, _, err := opt.Solve(ctx, prob, opt.Options{})
	if err != nil {
		return nil, nil, 0, err
	}

	// Pass 2: the measured refresh, with a trace collector alongside the
	// counters so the report carries per-node wall times and the critical
	// path of the measured run.
	store2, err := newStore()
	if err != nil {
		return nil, nil, 0, err
	}
	counters := &kernelCounters{}
	col := telemetry.NewCollector(telemetry.CollectorConfig{
		RunID:    telemetry.RunID(1),
		RootName: "bench kernels",
	})
	ctl2 := &exec.Controller{
		Store: store2, Mem: memcat.New(memory), Encoding: enc, Vectorized: vectorized,
		Obs: obs.Multi(counters, col.Observer()), Chunked: sess,
		Concurrency: workers, ParallelScan: workers > 1,
	}
	res, err := ctl2.Run(ctx, wl, g, plan)
	if err != nil {
		return nil, nil, 0, err
	}
	col.Finish(time.Time{}, "")
	spans := col.Spans()
	var nodes []KernelNodeTime
	for _, sp := range spans[1:] {
		if name := sp.StrAttr(telemetry.AttrNode); name != "" {
			nodes = append(nodes, KernelNodeTime{Name: name, WallSeconds: sp.Duration().Seconds()})
		}
	}
	cp := telemetry.CriticalPath(spans, g.ParentNames())

	var rawBytes, written int64
	for _, n := range res.Nodes {
		rawBytes += n.OutputBytes
		written += n.EncodedSize
	}
	return &KernelsRun{
		Workload:         "tpcds-real",
		WallSeconds:      res.Total.Seconds(),
		BytesWritten:     written,
		DecodedBytes:     counters.decoded.Load(),
		ChunksSkipped:    counters.chunksSkipped.Load(),
		CodeFilteredRows: counters.codeRows.Load(),
		DecodesAvoided:   counters.decodesAvoided.Load(),
		JoinBuildRows:    counters.joinBuildRows.Load(),
		JoinProbeRows:    counters.joinProbeRows.Load(),
		ChunksPassed:     counters.chunksPassed.Load(),
		Reencoded:        counters.reencoded.Load(),
		DictReused:       counters.dictReused.Load(),
		KernelFallbacks:  counters.kernelFallbacks.Load(),
		PeakMemoryBytes:  res.PeakMemory,
		PeakDecodedBytes: res.PeakDecodedCache,
		FlaggedNodes:     len(plan.FlaggedIDs()),
		Fallbacks:        res.FallbackWrites,
		Nodes:            nodes,
		CritPath:         cp.Chain,
		CritPathSeconds:  cp.ChainSeconds,
	}, store2, rawBytes, nil
}

// kernelsWlgenRuns repeats the three-way comparison on a synthetic wlgen
// DAG with the calibrated simulator: "decode" pays full decode CPU on
// every read of a compressed output, "kernels" decodes only the measured
// surviving fraction. The codec mix approximates an analytic workload
// (dictionary-heavy strings, delta keys).
func kernelsWlgenRuns(ctx context.Context, cfg KernelsConfig, device costmodel.DeviceProfile, ratio, decFrac float64) ([]KernelsRun, error) {
	gen, err := wlgen.Generate(wlgen.Params{Nodes: cfg.WlgenNodes, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var totalRaw int64
	for _, n := range gen.Workload.Nodes {
		totalRaw += n.OutputBytes
	}
	memory := int64(float64(totalRaw) * cfg.MemoryFrac)
	mix := map[encoding.CodecID]float64{
		encoding.Dict: 0.35, encoding.Delta: 0.25, encoding.RLE: 0.15, encoding.Raw: 0.25,
	}

	runOne := func(mode string, model *sim.EncodingModel) (*KernelsRun, error) {
		r := 1.0
		if model != nil {
			r = model.Ratio
		}
		var sizes []int64
		for _, n := range gen.Workload.Nodes {
			eb := int64(float64(n.OutputBytes) / r)
			if eb < 1 {
				eb = 1
			}
			sizes = append(sizes, eb)
		}
		prob := &core.Problem{
			G:      gen.Workload.G,
			Sizes:  sizes,
			Scores: costmodel.Scores(device, gen.Workload.G, sizes),
			Memory: memory,
		}
		plan, _, err := opt.Solve(ctx, prob, opt.Options{})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(ctx, gen.Workload, plan, sim.Config{Device: device, Memory: memory, Encoding: model})
		if err != nil {
			return nil, err
		}
		return &KernelsRun{
			Workload:        "wlgen-sim",
			Mode:            mode,
			WallSeconds:     res.Total,
			BytesWritten:    res.BytesWritten,
			DecodedBytes:    res.DecodedBytes,
			PeakMemoryBytes: res.PeakMemory,
			FlaggedNodes:    len(plan.FlaggedIDs()),
			Fallbacks:       res.Fallbacks,
		}, nil
	}

	rawRun, err := runOne("raw", nil)
	if err != nil {
		return nil, err
	}
	decodeRun, err := runOne("decode", &sim.EncodingModel{Ratio: ratio, Mix: mix, DecodedFrac: 1})
	if err != nil {
		return nil, err
	}
	kernelsRun, err := runOne("kernels", &sim.EncodingModel{Ratio: ratio, Mix: mix, DecodedFrac: decFrac})
	if err != nil {
		return nil, err
	}
	return []KernelsRun{*rawRun, *decodeRun, *kernelsRun}, nil
}
