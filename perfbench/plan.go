package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/tpcds"
	"github.com/shortcircuit-db/sc/internal/wlgen"
)

// plan-synthetic grid: the five Table III workloads at 100 GB under the
// Fig. 11 budget fractions, and seeded 100-node DAGs with a budget of a
// quarter of their output bytes. A DAG's simulated refresh time varies
// with its shape and sizes, so the DAGs are many.
var (
	planFractions = []float64{0.004, 0.008, 0.016, 0.032, 0.064}
	planDAGs      = 192
	dagFraction   = 0.25
	baselines     = []string{"random", "greedy", "ratio"}
)

const planScaleGB = 100

// planCell is one problem of the grid with S/C's first plan for it.
type planCell struct {
	name  string
	big   bool // a 100-node DAG, where Solve time is not trivial
	w     *sc.SimWorkload
	p     *sc.Problem
	cfg   sc.SimConfig
	first *sc.Plan
}

// setupPlanGrid builds every problem of the grid. Planning them is the
// workload's measured work, so set-up does not.
func setupPlanGrid(seed int64) ([]*planCell, error) {
	d := sc.PaperProfile()
	var cells []*planCell
	scale := tpcds.ScaleBytes(planScaleGB)
	for _, name := range tpcds.AllWorkloads {
		for _, frac := range planFractions {
			mem := tpcds.MemoryForFraction(scale, frac)
			w, p, err := tpcds.Build(name, scale, tpcds.Regular(), mem, d)
			if err != nil {
				return nil, err
			}
			cells = append(cells, &planCell{name: fmt.Sprintf("%s@%g", name, frac), w: w, p: p,
				cfg: sc.SimConfig{Device: d, Memory: mem, Workers: 1}})
		}
	}
	for i := 0; i < planDAGs; i++ {
		gen, err := wlgen.Generate(wlgen.Params{Nodes: 100, Seed: seed*int64(planDAGs) + int64(i)})
		if err != nil {
			return nil, err
		}
		var total int64
		for _, n := range gen.Workload.Nodes {
			total += n.OutputBytes
		}
		mem := int64(float64(total) * dagFraction)
		cells = append(cells, &planCell{name: fmt.Sprintf("dag%d", i), big: true, w: gen.Workload,
			p: gen.Problem(mem, d), cfg: sc.SimConfig{Device: d, Memory: mem, Workers: 1}})
	}
	return cells, nil
}

// checkPlan reports why a plan is not acceptable for its problem, or "".
func checkPlan(c *planCell, plan *sc.Plan) string {
	if !sc.Feasible(c.p, plan) {
		return "infeasible"
	}
	if peak := sc.PeakMemory(c.p, plan); peak > c.p.Memory {
		return fmt.Sprintf("peak memory %d over the %d budget", peak, c.p.Memory)
	}
	return ""
}

// planSums are the simulated refresh seconds of each method summed over
// the grid.
type planSums struct {
	sc, noopt float64
	baseline  map[string]float64
}

// simulateGrid plans every cell with S/C, keeping the plan as the cell's
// first, and simulates it, the control plan and each baseline selector's
// plan, checking every plan.
func simulateGrid(ctx context.Context, cells []*planCell, res *result) (planSums, error) {
	sums := planSums{baseline: make(map[string]float64)}
	simulate := func(c *planCell, plan *sc.Plan) (float64, error) {
		r, err := sc.SimulatePlan(ctx, c.w, plan, c.cfg)
		if err != nil {
			return 0, fmt.Errorf("simulate %s: %w", c.name, err)
		}
		return r.Total, nil
	}
	for _, c := range cells {
		topo, err := c.p.G.TopoSort()
		if err != nil {
			return sums, err
		}
		res.attempted++
		if c.first, _, err = sc.Solve(ctx, c.p); err != nil {
			return sums, fmt.Errorf("solve %s: %w", c.name, err)
		}
		if why := checkPlan(c, c.first); why != "" {
			res.fail("S/C plan for %s: %s", c.name, why)
		}
		t, err := simulate(c, c.first)
		if err != nil {
			return sums, err
		}
		sums.sc += t
		t, err = simulate(c, &sc.Plan{Order: topo, Flagged: make([]bool, len(topo))})
		if err != nil {
			return sums, err
		}
		sums.noopt += t
		for _, name := range baselines {
			sel, err := sc.SelectorByName(name, 1)
			if err != nil {
				return sums, err
			}
			res.attempted++
			plan, err := sel.Select(c.p, topo)
			if err != nil {
				res.fail("%s on %s: %v", name, c.name, err)
				continue
			}
			if why := checkPlan(c, plan); why != "" {
				res.fail("%s plan for %s: %s", name, c.name, why)
				continue
			}
			if t, err = simulate(c, plan); err != nil {
				return sums, err
			}
			sums.baseline[name] += t
		}
	}
	return sums, nil
}

// solvePass solves every cell once with S/C, checking that each plan is
// acceptable and the same as the cell's first, and returns the Solve times in
// milliseconds of the 100-node cells.
func solvePass(ctx context.Context, cells []*planCell, rec *recorder, res *result) ([]float64, error) {
	var bigMS []float64
	for _, c := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.attempted++
		var start int64
		if rec != nil {
			start = rec.now()
		}
		t0 := time.Now()
		plan, st, err := sc.Solve(ctx, c.p)
		elapsed := time.Since(t0)
		if err != nil {
			res.fail("solve %s: %v", c.name, err)
			continue
		}
		if rec != nil {
			rec.add(span{Trace: -1, Name: "solve", Layer: "opt", Object: c.name, Start: start, End: rec.now(),
				Attrs: map[string]float64{"iterations": float64(st.Iterations), "score_s": st.Score,
					"flagged_nodes": float64(len(plan.FlaggedIDs()))}})
		}
		if c.big {
			bigMS = append(bigMS, elapsed.Seconds()*1e3)
		}
		if why := checkPlan(c, plan); why != "" {
			res.fail("S/C plan for %s: %s", c.name, why)
			continue
		}
		if !slices.Equal(plan.Order, c.first.Order) || !slices.Equal(plan.Flagged, c.first.Flagged) {
			res.fail("S/C plan for %s differs from its first solve", c.name)
		}
	}
	return bigMS, nil
}

func runPlanSynthetic(ctx context.Context, o options, rec *recorder, res *result) error {
	var cells []*planCell
	err := setUp(res, func() (err error) {
		cells, err = setupPlanGrid(o.seed)
		return err
	})
	if err != nil {
		return err
	}
	res.sizes["cells"] = float64(len(cells))
	res.sizes["dag_nodes"] = 100
	res.sizes["dags"] = float64(planDAGs)
	res.sizes["table3_scale_gb"] = planScaleGB

	share := 1.0
	if rec != nil {
		share = 0.5
	}
	probe := startProbe()
	sums, err := simulateGrid(ctx, cells, res)
	if err != nil {
		return err
	}
	var solveMS []float64
	deadline := phaseDeadline(o, share)
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		ms, err := solvePass(ctx, cells, nil, res)
		if err != nil {
			return err
		}
		solveMS = append(solveMS, ms...)
	}
	stats := probe.finish()
	// No real bytes move here: a refresh is S/C's plan run on the
	// simulator, and refresh_s its simulated seconds, the mean over the
	// grid. It is exact for a seed, and the seeded DAGs are many, so it
	// moves little from seed to seed.
	res.set("refresh_s", sums.sc/float64(len(cells)), len(cells))
	res.set("peak_heap_bytes", stats.peakHeap, stats.windows)
	solve := summarize(solveMS)
	res.set("solve_ms", solve.P50, solve.N)
	res.set("sim_refresh_s", sums.sc, len(cells))
	if rec == nil {
		return nil
	}
	stats.setRuntime(res)
	res.set("sim.noopt_s", sums.noopt, len(cells))
	best := 0.0
	for _, name := range baselines {
		if v := sums.baseline[name]; best == 0 || v < best {
			best = v
		}
		res.sizes["sim_"+name+"_s"] = sums.baseline[name]
	}
	res.set("sim.best_baseline_s", best, len(cells))
	res.set("opt.regret", ratio(sums.sc, best), len(cells))

	rec.on.Store(true)
	var traced []float64
	deadline = phaseDeadline(o, 0.5)
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		ms, err := solvePass(ctx, cells, rec, res)
		if err != nil {
			rec.on.Store(false)
			return err
		}
		traced = append(traced, ms...)
	}
	rec.on.Store(false)
	res.set("trace.overhead_ratio", ratio(median(traced), solve.P50), len(traced))

	spans, err := saveSpans(o, rec)
	if err != nil {
		return err
	}
	samples := make(map[string][]float64)
	for _, s := range spans {
		if s.Layer != "opt" {
			continue
		}
		samples["opt.optimize_s"] = append(samples["opt.optimize_s"], float64(s.dur())/1e9)
		for _, k := range []string{"iterations", "score_s", "flagged_nodes"} {
			samples["opt."+k] = append(samples["opt."+k], s.Attrs[k])
		}
	}
	for k, xs := range samples {
		res.set(k, median(xs), len(xs))
	}
	return nil
}
