// Command perfbench measures S/C refresh time end to end and per layer.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//   - tpcds-io: back-to-back Refresh calls on the 12-MV TPC-DS pipeline at
//     sf 20 over a throttled 60/40 MB/s store, Memory Catalog budget at 25%
//     of the intermediates, so the knapsack binds.
//   - tpcds-cpu: the same loop at sf 30 on chunked base tables in memory,
//     with encoding, vectorized kernels, parallel scans and 2 workers, and
//     a budget that holds every intermediate.
//   - gateway-mixed: an open loop of refresh triggers and MV reads over
//     HTTP against a two-tenant gateway on loopback, each tenant's store
//     on a slow 20/10 MB/s device with 10 ms per access.
//   - plan-synthetic: Solve and SimulatePlan over the five Table III
//     workloads at the Fig. 11 budgets and seeded 100-node DAGs, with the
//     random, greedy and ratio selectors for comparison.
//
// The end-to-end metrics, reported on every workload, are refresh_s, the
// median seconds of one refresh under S/C's plan (a Refresh call on the
// tpcds workloads; from a trigger's due time to its run's end on
// gateway-mixed; the simulated seconds of S/C's plan, averaged over the
// grid, on plan-synthetic), setup_s, the median time to set the workload
// up, and peak_heap_bytes, the median over one-second windows of the live
// heap's high-water mark.
//
// The inputs derive from --seed. Every run checks its outputs: refreshed
// MVs against the control plan's, reads against the MV row counts, plans
// against feasibility and the budget. The last line of standard output is
// one JSON object with the end-to-end metrics (--trace 0) or the per-layer
// table (--trace 1); a traced run also measures untraced first, for the
// workload-specific numbers and the tracing overhead. Details, spans and
// the environment go to .bench_out/ in the working directory.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds each run's detail file and span trace.
const outDir = ".bench_out"

// A run sets its workload up at least setupReps times and for at least
// setupMin; setup_s is the median.
const (
	setupReps = 3
	setupMin  = time.Second
)

// runLimit bounds a whole run, set-up included.
const runLimit = 170 * time.Second

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	dirty    string
}

// workload runs one named workload, filling res. A nil rec means an
// untraced run.
type workload struct {
	why string
	run func(ctx context.Context, o options, rec *recorder, res *result) error
}

var workloads = map[string]workload{
	"tpcds-io": {
		why: "storage-bound refresh with a Memory Catalog smaller than the intermediates: the paper's regime",
		run: runTPCDSIO,
	},
	"tpcds-cpu": {
		why: "refresh on a free device with every intermediate in memory: codec, kernel and scheduler CPU decide",
		run: runTPCDSCPU,
	},
	"gateway-mixed": {
		why: "HTTP refresh triggers and MV reads against a two-tenant gateway: admission, shared pool and readers beside writers",
		run: runGateway,
	},
	"plan-synthetic": {
		why: "optimizer and simulator only, on paper-scale and 100-node DAGs: the one place Solve time and plan quality dominate",
		run: runPlanSynthetic,
	},
}

// errInvalid marks a run whose inputs left the regime its workload is
// defined for; such a run reports nothing.
var errInvalid = errors.New("invalid run")

// result collects a run's metrics, sample counts and input sizes.
type result struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	sizes             map[string]float64   // input sizes and offered rates
	raw               map[string][]float64 // the samples behind a timing
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, sizes: map[string]float64{}, raw: map[string][]float64{}}
}

// set records a metric and the number of samples behind it.
func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail counts a failed operation and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.failed++
	logf(format, args...)
}

// logf reports a problem on standard error without counting it.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w := workloads[o.workload]
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	res := newResult()
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	if err := w.run(ctx, o, rec, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 1
	}
	if res.attempted > 0 {
		res.set("failed_ratio", float64(res.failed)/float64(res.attempted), res.attempted)
	}
	out, err := report(o, w, res, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the per-layer run")
	fs.StringVar(&o.commit, "commit", "unknown", "source commit, for the record")
	fs.StringVar(&o.dirty, "dirty", "unknown", "whether the source tree had changes, for the record")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || trace < 0 || trace > 1 {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricOut is one metric of the final line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// selectMetrics picks the metrics of the final line: the end-to-end ones
// without tracing, the per-layer ones with. An end-to-end metric must have
// been measured and be positive.
func selectMetrics(res *result, trace bool) (map[string]metricOut, error) {
	out := make(map[string]metricOut)
	for _, d := range metricDefs {
		if d.EndToEnd == trace {
			continue
		}
		v, ok := res.values[d.Name]
		if d.EndToEnd && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("end-to-end metric %s not measured (value %v)", d.Name, v)
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// report prints every measured metric with its unit and sample count,
// writes the run's detail file, and prints the final line.
func report(o options, w workload, res *result, stdout io.Writer) (finalLine, error) {
	metrics, err := selectMetrics(res, o.trace)
	if err != nil {
		return finalLine{}, err
	}
	out := finalLine{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	}
	env := environment(o)
	fmt.Fprintf(stdout, "workload %s (seed %d, %.0fs, trace %v): %s\n", o.workload, o.seed, o.seconds, o.trace, w.why)
	fmt.Fprintf(stdout, "env: %s\n", flatten(env))
	fmt.Fprintf(stdout, "inputs: %s\n", flatten(res.sizes))
	type detail struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	details := make(map[string]detail)
	for _, d := range metricDefs {
		v, ok := res.values[d.Name]
		if !ok {
			continue
		}
		details[d.Name] = detail{v, d.Unit, res.samples[d.Name]}
		fmt.Fprintf(stdout, "  %-30s %14.6g %-6s n=%d\n", d.Name, v, d.Unit, res.samples[d.Name])
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed\n", res.attempted, res.failed)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return out, err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": o.workload, "why": w.why, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"env": env, "inputs": res.sizes, "metrics": details, "samples": res.raw,
		"correct": out.Correct, "attempted": res.attempted, "failed": res.failed,
	}, "", "  ")
	if err != nil {
		return out, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
	if err := os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644); err != nil {
		return out, err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return out, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return out, err
}

// environment records what the numbers were measured on.
func environment(o options) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        o.commit,
		"dirty":         o.dirty,
		"source_sha256": sourceHash("."),
		"seed":          o.seed,
	}
}

// sourceHash digests the module's Go sources and go.mod files, which
// identifies the measured code where no commit is known.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func flatten[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	return strings.Join(parts, " ")
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// setUp runs build as often as setupReps and setupMin ask, keeping what
// the last call built, and records setup_s.
func setUp(res *result, build func() error) error {
	var times []float64
	begin := time.Now()
	for len(times) < setupReps || time.Since(begin) < setupMin {
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	res.set("setup_s", median(times), len(times))
	return nil
}

// phaseLength is the given share of the run's measured seconds.
func phaseLength(o options, share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// phaseDeadline returns when a measured phase starting now ends.
func phaseDeadline(o options, share float64) time.Time {
	return time.Now().Add(phaseLength(o, share))
}
