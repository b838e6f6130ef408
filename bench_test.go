// Benchmarks regenerating the paper's tables and figures (§VI). Each
// Benchmark<Exp> drives the same harness as `scbench <exp>`; the
// per-iteration work is one full regeneration of that experiment's data,
// so -benchtime=1x reproduces the artifact exactly once:
//
//	go test -bench=. -benchmem -benchtime=1x
package sc_test

import (
	"context"
	"io"
	"testing"

	sc "github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/bench"
	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/tpcds"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

// BenchmarkFig3Breakdown regenerates the Figure 3 motivation breakdown.
func BenchmarkFig3Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Workloads regenerates the Table III workload summary.
func BenchmarkTable3Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9EndToEnd regenerates Figure 9: six methods × five workloads
// on both 100GB datasets.
func BenchmarkFig9EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Scales regenerates Figure 10: speedup across 10GB–1TB.
func BenchmarkFig10Scales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Memory regenerates Figure 11: the Memory Catalog sweep.
func BenchmarkFig11Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig11(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Latency regenerates Table IV: read/compute/query latency
// by Memory Catalog size.
func BenchmarkTable4Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Ablation regenerates Figure 12: the subproblem-solution
// ablation.
func BenchmarkFig12Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig12(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Cluster regenerates Table V: 1–5 worker scaling.
func BenchmarkTable5Cluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13OptTime regenerates Figure 13: optimizer runtime vs DAG
// size for the six method combinations (reduced DAG count per iteration).
func BenchmarkFig13OptTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig13(io.Discard, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14Sweeps regenerates Figure 14: savings vs DAG generation
// parameters (reduced DAG count per iteration).
func BenchmarkFig14Sweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig14(io.Discard, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealEngine runs the real-engine validation: generate data, run
// the SQL pipeline unoptimized and with S/C on throttled storage, verify
// identical outputs.
func BenchmarkRealEngine(b *testing.B) {
	cfg := bench.DefaultRealConfig()
	cfg.ScaleFactor = 0.5
	for i := 0; i < b.N; i++ {
		if err := bench.Real(context.Background(), io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the optimization core ---

// BenchmarkOptimize100Nodes measures one full alternating optimization of
// a 100-node synthetic DAG (the paper reports ≈20ms for MKP+MA-DFS).
func BenchmarkOptimize100Nodes(b *testing.B) {
	gen, err := wlgen.Generate(wlgen.Params{Nodes: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := gen.Problem(2<<30, costmodel.PaperProfile())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Solve(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateWorkload measures one simulated refresh of the I/O 1
// workload at 100GB.
func BenchmarkSimulateWorkload(b *testing.B) {
	d := costmodel.PaperProfile()
	w, p, err := tpcds.Build(tpcds.IO1, tpcds.ScaleBytes(100), tpcds.Regular(),
		tpcds.MemoryForFraction(tpcds.ScaleBytes(100), 0.016), d)
	if err != nil {
		b.Fatal(err)
	}
	order, err := w.G.TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	plan := core.NewPlan(order)
	cfg := sim.Config{Device: d, Memory: p.Memory}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), w, plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblateDecisions regenerates the DESIGN.md design-decision
// ablations (write-channel model, termination metric, order choice).
func BenchmarkAblateDecisions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Ablate(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
