// Command scrun simulates one of the paper's TPC-DS workloads under a
// chosen method and prints the plan and execution timeline.
//
// Usage:
//
//	scrun -workload "I/O 1" -scale 100 -variant tpcds -mem 0.016 -method sc
//
// Methods: noopt, lru, random, greedy, ratio, sc. With -progress, the
// run's event stream (node starts/completions, materialization, Memory
// Catalog evictions and high-water marks) is printed live to stderr and a
// critical-path breakdown of the simulated timeline follows the summary.
// With -trace-file, the run's trace (root span plus one span per node, on
// the virtual clock) is written as OTLP/HTTP JSON, one payload per line;
// "-" writes to stdout. With -ledger-file, the run's summary is appended to
// an NDJSON run ledger whose history seeds per-node baselines; -explain
// then diffs this run against those baselines, calls out regressed nodes
// and detector anomalies, and exits 3 when any anomaly was flagged — so CI
// jobs and cron wrappers fail loudly on a regression instead of needing to
// parse the report.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/shortcircuit-db/sc/internal/bench"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/ledger"
	"github.com/shortcircuit-db/sc/internal/obs"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/telemetry"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

func main() {
	workload := flag.String("workload", "I/O 1", `workload: "I/O 1".."I/O 3", "Compute 1", "Compute 2"`)
	scale := flag.Int("scale", 100, "dataset scale in GB")
	variant := flag.String("variant", "tpcds", "dataset variant: tpcds or tpcdsp")
	memFrac := flag.Float64("mem", 0.016, "Memory Catalog as a fraction of data size")
	method := flag.String("method", "sc", "method: noopt, lru, random, greedy, ratio, sc")
	workers := flag.Int("workers", 1, "cluster worker count")
	progress := flag.Bool("progress", false, "stream refresh events to stderr as the run advances")
	traceFile := flag.String("trace-file", "", `write the run's OTLP JSON trace here ("-" = stdout)`)
	ledgerFile := flag.String("ledger-file", "", "append this run's summary to an NDJSON run ledger (replayed for baselines)")
	explain := flag.Bool("explain", false, "diff this run against the ledger baselines and call out regressed nodes")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	v := tpcds.Regular()
	if strings.EqualFold(*variant, "tpcdsp") {
		v = tpcds.Partitioned()
	}
	var m bench.Method
	found := false
	for _, cand := range bench.Methods() {
		key := strings.ToLower(strings.Fields(cand.Name)[0])
		if strings.HasPrefix(key, strings.ToLower(*method)) || (*method == "sc" && strings.HasPrefix(cand.Name, "S/C")) {
			m, found = cand, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "scrun: unknown method %q\n", *method)
		os.Exit(2)
	}

	d := costmodel.PaperProfile()
	scaleBytes := tpcds.ScaleBytes(*scale)
	mem := tpcds.MemoryForFraction(scaleBytes, *memFrac)
	w, p, err := tpcds.Build(tpcds.WorkloadName(*workload), scaleBytes, v, mem, d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrun:", err)
		os.Exit(1)
	}
	plan, elapsed, err := bench.PlanFor(m, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrun:", err)
		os.Exit(1)
	}
	cfg := sim.Config{Device: d, Memory: mem, Workers: *workers, LRU: m.LRU}
	if *progress {
		cfg.Observer = progressPrinter(os.Stderr)
	}
	var col *telemetry.Collector
	if *progress || *traceFile != "" || *ledgerFile != "" || *explain {
		// The simulator reports the virtual clock in Elapsed; the collector
		// maps it onto span times so the trace and critical path are in
		// simulated seconds.
		cfg.RunID = telemetry.RunID(1)
		col = telemetry.NewCollector(telemetry.CollectorConfig{
			RunID:    cfg.RunID,
			RootName: "simulate " + *workload,
			Virtual:  true,
		})
		col.SetRootAttrs(telemetry.Str("sc.method", m.Name), telemetry.Int("sc.scale_gb", int64(*scale)))
		cfg.Observer = obs.Multi(cfg.Observer, col)
	}
	res, err := sim.Run(ctx, w, plan, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrun:", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s on %dGB %s, Memory Catalog %.1f MB, method %s (optimized in %v)\n",
		*workload, *scale, v.Name, float64(mem)/1e6, m.Name, elapsed.Round(10e3))
	fmt.Printf("%-16s %10s %10s %10s %10s %8s\n", "node", "start", "end", "read", "write", "flagged")
	for _, nt := range res.Timeline {
		flag := ""
		if nt.Flagged {
			flag = "mem"
		}
		fmt.Printf("%-16s %9.1fs %9.1fs %9.2fs %9.2fs %8s\n",
			nt.Name, nt.Start, nt.End, nt.ReadSec, nt.WriteSec, flag)
	}
	fmt.Printf("\nend-to-end %.1fs  (read %.1fs, compute %.1fs, blocking write %.1fs, peak memory %.1f MB)\n",
		res.Total, res.ReadSeconds, res.ComputeSeconds, res.WriteSeconds, float64(res.PeakMemory)/1e6)

	regressionExit := false
	if col != nil {
		col.Finish(time.Time{}, "")
		spans := col.Spans()
		parents := w.G.ParentNames()
		cp := telemetry.CriticalPath(spans, parents)
		if *progress {
			printCriticalPath(os.Stderr, cp)
		}
		if *ledgerFile != "" || *explain {
			led, err := ledger.New(ledger.Config{Path: *ledgerFile})
			if err != nil {
				fmt.Fprintln(os.Stderr, "scrun:", err)
				os.Exit(1)
			}
			// Key the history by workload so baselines compare like with like.
			pipeline := "sim:" + *workload
			sum, _ := led.Append(ledger.Summarize(spans, parents, ledger.Meta{
				RunID:           cfg.RunID,
				Pipeline:        pipeline,
				Outcome:         ledger.OutcomeSucceeded,
				WallSeconds:     res.Total,
				ReservedBytes:   mem,
				ActualPeakBytes: res.PeakMemory,
			}))
			if *explain {
				printExplain(os.Stdout, led, pipeline, sum)
				// A flagged regression fails the command (exit 3) after the
				// ledger and trace are safely written.
				regressionExit = len(sum.Anomalies) > 0
			}
			if err := led.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "scrun: ledger:", err)
				os.Exit(1)
			}
		}
		if *traceFile != "" {
			exp, err := telemetry.NewFileExporter(*traceFile, "scrun")
			if err != nil {
				fmt.Fprintln(os.Stderr, "scrun:", err)
				os.Exit(1)
			}
			exp.Export(spans)
			err = exp.Err()
			if cerr := exp.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "scrun: trace:", err)
				os.Exit(1)
			}
		}
	}
	if regressionExit {
		fmt.Fprintln(os.Stderr, "scrun: regression flagged against baseline (see explain above)")
		os.Exit(3)
	}
}

// printExplain diffs the just-appended run against the ledger's learned
// baselines: per-node latest vs baseline wall with regressed nodes called
// out, then any anomalies the detector flagged.
func printExplain(out *os.File, led *ledger.Ledger, pipeline string, sum ledger.RunSummary) {
	regressed := make(map[string]bool)
	for _, a := range sum.Anomalies {
		if a.Node != "" {
			regressed[a.Node] = true
		}
	}
	base := make(map[string]ledger.NodeBaseline)
	for _, nb := range led.Baselines(pipeline) {
		base[nb.Node] = nb
	}
	fmt.Fprintf(out, "\nrun %s vs baseline (%s):\n", sum.RunID, pipeline)
	fmt.Fprintf(out, "%-16s %12s %12s %8s\n", "node", "latest", "baseline", "")
	for _, n := range sum.Nodes {
		mark := ""
		if regressed[n.Node] {
			mark = "REGRESSED"
		}
		nb, ok := base[n.Node]
		// The just-appended run is already folded into the baseline; with
		// fewer than two samples the mean IS this run, so show "new".
		if !ok || nb.Samples < 2 {
			fmt.Fprintf(out, "%-16s %11.2fs %12s %8s\n", n.Node, n.WallSeconds, "new", mark)
			continue
		}
		fmt.Fprintf(out, "%-16s %11.2fs %11.2fs %8s\n", n.Node, n.WallSeconds, nb.WallMeanSeconds, mark)
	}
	if sum.ReservedBytes > 0 {
		fmt.Fprintf(out, "memory: reserved %.1f MB, actual peak %.1f MB (mispredict %.0f%%)\n",
			float64(sum.ReservedBytes)/1e6, float64(sum.ActualPeakBytes)/1e6, sum.Mispredict*100)
	}
	if len(sum.Anomalies) == 0 {
		fmt.Fprintln(out, "no anomalies against baseline")
		return
	}
	for _, a := range sum.Anomalies {
		fmt.Fprintf(out, "anomaly: %s %s (observed %.3g, baseline %.3g) %s\n",
			a.Kind, a.Node, a.Observed, a.Baseline, a.Detail)
	}
}

// printCriticalPath renders the longest blocking chain through the DAG:
// which nodes the simulated wall clock actually waited on, and how each
// split between executing and blocking on upstream work.
func printCriticalPath(out *os.File, cp telemetry.CritReport) {
	if len(cp.Chain) == 0 {
		return
	}
	fmt.Fprintf(out, "\ncritical path: %s (%.1fs of %.1fs wall, %.0f%%)\n",
		strings.Join(cp.Chain, " -> "), cp.ChainSeconds, cp.WallSeconds, cp.Coverage*100)
	onChain := make(map[string]bool, len(cp.Chain))
	for _, n := range cp.Chain {
		onChain[n] = true
	}
	for _, n := range cp.Nodes {
		if !onChain[n.Node] {
			continue
		}
		fmt.Fprintf(out, "  %-16s self %8.1fs  wait %8.1fs\n", n.Node, n.SelfSeconds, n.WaitSeconds)
	}
}

// progressPrinter renders the refresh event stream as one line per event,
// stamped with the virtual clock.
func progressPrinter(out *os.File) obs.Observer {
	return obs.Func(func(e obs.Event) {
		at := e.Elapsed.Seconds()
		switch e.Kind {
		case obs.NodeStart:
			fmt.Fprintf(out, "[%8.1fs] start  %-16s (step %d)\n", at, e.Node, e.Step)
		case obs.NodeDone:
			state := "written"
			if e.Flagged {
				state = "in-memory"
			}
			fmt.Fprintf(out, "[%8.1fs] done   %-16s %s (%.1f MB, read %.2fs, write %.2fs)\n",
				at, e.Node, state, float64(e.Bytes)/1e6, e.Read.Seconds(), e.Write.Seconds())
		case obs.Materialized:
			fmt.Fprintf(out, "[%8.1fs] stored %-16s (%.1f MB on external storage)\n", at, e.Node, float64(e.Bytes)/1e6)
		case obs.Evicted:
			fmt.Fprintf(out, "[%8.1fs] evict  %-16s (%.1f MB released)\n", at, e.Node, float64(e.Bytes)/1e6)
		case obs.MemoryHighWater:
			fmt.Fprintf(out, "[%8.1fs] memory high-water %.1f MB\n", at, float64(e.Bytes)/1e6)
		}
	})
}
