package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// tpcdsSpec configures one real-engine refresh workload over the 12-MV
// TPC-DS-like pipeline.
type tpcdsSpec struct {
	sf      float64
	chunked bool // base tables in the chunked, encoded format
	// throttle emulates a 60/40 MB/s device with 2 ms per access.
	throttle bool
	// options are the session's options for a Memory Catalog budget.
	options func(budget int64) []sc.Option
	// budget sizes the catalog from the calibration run's raw and encoded
	// intermediate bytes.
	budget func(raw, encoded int64) int64
	// guard explains why a set-up leaves the workload's regime, or is "".
	guard func(s *tpcdsSetup) string
}

// sleeper is the emulated device of a throttled store.
type sleeper interface {
	SleptTimes() (read, write time.Duration)
}

// The emulated device of tpcds-io: an NFS-like store.
const (
	ioReadBW  = 60e6
	ioWriteBW = 40e6
	ioLatency = 2 * time.Millisecond
)

var ioSpec = tpcdsSpec{
	sf:       20,
	throttle: true,
	options: func(budget int64) []sc.Option {
		return []sc.Option{
			sc.WithMemory(budget),
			sc.WithConcurrency(1),
			sc.WithDevice(sc.DeviceProfile{
				DiskReadBW: ioReadBW, DiskWriteBW: ioWriteBW, DiskLatency: ioLatency,
				MemReadBW: 10e9, MemWriteBW: 10e9, ComputeScale: 1,
			}),
		}
	},
	budget: func(raw, _ int64) int64 { return raw / 4 },
	guard: func(s *tpcdsSetup) string {
		if s.budget >= s.rawBytes {
			return fmt.Sprintf("budget %d is not below the %d intermediate bytes", s.budget, s.rawBytes)
		}
		if s.flagged >= len(s.mvs) {
			return fmt.Sprintf("the knapsack does not bind: %d of %d MVs flagged", s.flagged, len(s.mvs))
		}
		return ""
	},
}

var cpuSpec = tpcdsSpec{
	sf:      30,
	chunked: true,
	options: func(budget int64) []sc.Option {
		return []sc.Option{
			sc.WithMemory(budget),
			sc.WithEncoding(sc.EncodingOptions{}),
			sc.WithVectorized(true),
			sc.WithParallelScan(true),
			sc.WithConcurrency(2),
		}
	},
	budget: func(raw, encoded int64) int64 { return max(raw, encoded) },
	guard: func(s *tpcdsSetup) string {
		if s.budget < s.encodedBytes {
			return fmt.Sprintf("budget %d is below the %d encoded intermediate bytes", s.budget, s.encodedBytes)
		}
		return ""
	},
}

func runTPCDSIO(ctx context.Context, o options, rec *recorder, res *result) error {
	return runTPCDS(ctx, ioSpec, o, rec, res)
}

func runTPCDSCPU(ctx context.Context, o options, rec *recorder, res *result) error {
	return runTPCDS(ctx, cpuSpec, o, rec, res)
}

// tpcdsSetup is a calibrated refresh session and its reference outputs.
type tpcdsSetup struct {
	mvs       []sc.MV
	names     []string
	inner     sc.Store // the store without throttling or tracing
	throttled interface {
		SleptTimes() (read, write time.Duration)
	}
	session *sc.Refresher
	ref     map[string]string // control plan's MV digests

	baseBytes, rawBytes, encodedBytes, budget int64
	flagged                                   int
}

// setupTPCDS generates the base tables, seeds the store, runs the control
// plan once to size the intermediates and record reference outputs, and
// builds the measured session, whose first Refresh calibrates and
// optimizes it.
func setupTPCDS(ctx context.Context, spec tpcdsSpec, seed int64, rec *recorder) (*tpcdsSetup, error) {
	ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: spec.sf, Seed: seed})
	if err != nil {
		return nil, err
	}
	inner := sc.NewMemStore()
	save := sc.SaveTable
	if spec.chunked {
		save = func(st sc.Store, name string, t *table.Table) error {
			return sc.SaveTableChunked(st, name, t, sc.EncodingOptions{})
		}
	}
	if err := ds.Save(inner, save); err != nil {
		return nil, err
	}
	s := &tpcdsSetup{inner: inner, baseBytes: ds.TotalBytes()}
	for _, n := range tpcds.RealWorkload().Nodes {
		s.mvs = append(s.mvs, sc.MV{Name: n.Name, SQL: n.SQL})
		s.names = append(s.names, n.Name)
	}
	var store sc.Store = inner
	if spec.throttle {
		store = sc.NewThrottledStore(inner, ioReadBW, ioWriteBW, ioLatency)
		s.throttled = store.(interface {
			SleptTimes() (time.Duration, time.Duration)
		})
	}
	if rec != nil {
		store = &tracedStore{inner: store, rec: rec}
	}

	control, err := sc.New(s.mvs, store, spec.options(0)...)
	if err != nil {
		return nil, err
	}
	cal, err := control.RunPlan(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("calibration run: %w", err)
	}
	for _, n := range cal.Nodes {
		s.rawBytes += n.OutputBytes
		s.encodedBytes += n.EncodedSize
	}
	if s.ref, _, err = mvDigests(inner, s.names); err != nil {
		return nil, err
	}
	s.budget = spec.budget(s.rawBytes, s.encodedBytes)

	opts := spec.options(s.budget)
	if rec != nil {
		opts = append(opts, sc.WithObserver(rec))
	}
	if s.session, err = sc.New(s.mvs, store, opts...); err != nil {
		return nil, err
	}
	if _, err := s.session.Refresh(ctx); err != nil {
		return nil, fmt.Errorf("first refresh: %w", err)
	}
	s.flagged = len(s.session.Plan().FlaggedIDs())
	return s, nil
}

// verify compares the session's MVs with the control plan's outputs,
// reading the store underneath any throttling and tracing. It then
// collects the garbage it made, so that the next refresh does not pay for
// the check.
func (s *tpcdsSetup) verify(res *result, what string) {
	if bad := checkMVs(s.inner, s.ref); len(bad) > 0 {
		sort.Strings(bad)
		res.fail("%s: MVs differ from the control plan's output: %s", what, strings.Join(bad, ", "))
	}
	runtime.GC()
}

func runTPCDS(ctx context.Context, spec tpcdsSpec, o options, rec *recorder, res *result) error {
	var s *tpcdsSetup
	err := setUp(res, func() (err error) {
		s = nil // let the previous set-up's data go before building the next
		s, err = setupTPCDS(ctx, spec, o.seed, rec)
		return err
	})
	if err != nil {
		return err
	}
	if why := spec.guard(s); why != "" {
		return fmt.Errorf("%w: %s", errInvalid, why)
	}
	res.sizes["sf"] = spec.sf
	res.sizes["base_bytes"] = float64(s.baseBytes)
	res.sizes["raw_intermediate_bytes"] = float64(s.rawBytes)
	res.sizes["encoded_intermediate_bytes"] = float64(s.encodedBytes)
	res.sizes["budget_bytes"] = float64(s.budget)
	res.sizes["flagged"] = float64(s.flagged)
	res.sizes["mvs"] = float64(len(s.mvs))
	res.set("memcat.budget_bytes", float64(s.budget), 1)

	// Untraced: back-to-back refreshes under S/C's plan; a traced run
	// interleaves the control plan and measures for half its time.
	share := 1.0
	if rec != nil {
		share = 0.5
	}
	probe := startProbe()
	var scTimes, controlTimes []float64
	deadline := phaseDeadline(o, share)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.attempted++
		start := time.Now()
		if _, err := s.session.Refresh(ctx); err != nil {
			res.fail("refresh: %v", err)
			continue
		}
		scTimes = append(scTimes, time.Since(start).Seconds())
		s.verify(res, "refresh")
		if rec == nil {
			continue
		}
		res.attempted++
		start = time.Now()
		if _, err := s.session.RunPlan(ctx, nil); err != nil {
			res.fail("control run: %v", err)
			continue
		}
		controlTimes = append(controlTimes, time.Since(start).Seconds())
		s.verify(res, "control run")
	}
	stats := probe.finish()
	refresh := summarize(scTimes)
	res.raw["refresh_s"] = scTimes
	res.set("refresh_s", refresh.P50, refresh.N)
	res.set("peak_heap_bytes", stats.peakHeap, stats.windows)
	if rec == nil {
		return nil
	}
	stats.setRuntime(res)
	control := summarize(controlTimes)
	res.raw["refresh_noopt_s"] = controlTimes
	res.set("refresh_noopt_s", control.P50, control.N)
	res.set("costmodel.measured_saving_s", control.P50-refresh.P50, min(control.N, refresh.N))
	if st := s.session.Stats(); st != nil {
		res.set("costmodel.predicted_saving_s", st.Score, 1)
	}
	if sim, err := s.session.Simulate(ctx); err == nil {
		res.set("sim_refresh_s", sim.Total, 1)
	} else {
		res.fail("simulate: %v", err)
	}

	// Traced: the same refreshes with the recorder on, split into the run
	// and the re-optimization Refresh performs after it.
	var traced []float64
	deadline = phaseDeadline(o, 0.5)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.attempted++
		d, err := tracedRefresh(ctx, s, rec)
		if err != nil {
			res.fail("traced refresh: %v", err)
			continue
		}
		traced = append(traced, d)
		s.verify(res, "traced refresh")
	}
	res.set("trace.overhead_ratio", ratio(median(traced), refresh.P50), len(traced))
	return spanTable(o, rec, res)
}

// tracedRefresh runs one Refresh as its two halves with the recorder on:
// a root span around both, an optimize span around the second, and the
// run's Memory Catalog and device figures on the root.
func tracedRefresh(ctx context.Context, s *tpcdsSetup, rec *recorder) (float64, error) {
	tr := rec.newTrace()
	var sleep0 time.Duration
	if s.throttled != nil {
		r, w := s.throttled.SleptTimes()
		sleep0 = r + w
	}
	rec.on.Store(true)
	defer rec.on.Store(false)
	start := rec.now()
	run, err := s.session.Run(ctx)
	if err != nil {
		return 0, err
	}
	optStart := rec.now()
	plan, st, err := s.session.Optimize(ctx)
	if err != nil {
		return 0, err
	}
	end := rec.now()
	rec.add(span{Trace: tr, Name: "optimize", Layer: "opt", Start: optStart, End: end, Attrs: map[string]float64{
		"iterations": float64(st.Iterations), "score_s": st.Score, "flagged_nodes": float64(len(plan.FlaggedIDs())),
	}})
	attrs := map[string]float64{
		"memcat.peak_bytes":         float64(run.PeakMemory),
		"memcat.decoded_peak_bytes": float64(run.PeakDecodedCache),
		"memcat.fallback_writes":    float64(run.FallbackWrites),
	}
	var flagged, memReads, diskReads float64
	for _, n := range run.Nodes {
		flagged += boolNum(n.Flagged)
		memReads += float64(n.MemReads)
		diskReads += float64(n.DiskReads)
	}
	attrs["memcat.mem_reads"] = memReads
	attrs["memcat.disk_reads"] = diskReads
	attrs["memcat.hit_ratio"] = ratio(memReads, memReads+diskReads)
	if flagged > 0 {
		attrs["memcat.flag_fit_ratio"] = 1 - float64(run.FallbackWrites)/flagged
	}
	if s.throttled != nil {
		r, w := s.throttled.SleptTimes()
		attrs["storage.device_sleep_s"] = (r + w - sleep0).Seconds()
	}
	rec.add(span{Trace: tr, Name: "refresh", Layer: "refresh", Start: start, End: end, Attrs: attrs})
	return float64(end-start) / 1e9, nil
}

// spanTable writes the recorded spans as NDJSON, reads them back and sets
// the per-layer metrics they yield.
func spanTable(o options, rec *recorder, res *result) error {
	spans, err := saveSpans(o, rec)
	if err != nil {
		return err
	}
	table, n := refreshTable(spans)
	for k, v := range table {
		if _, ok := res.values[k]; !ok {
			res.set(k, v, n)
		}
	}
	res.set("solve_ms", res.values["opt.optimize_s"]*1e3, n)
	return nil
}
