package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/leakcheck"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/metrics"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/sim"
	"github.com/shortcircuit-db/sc/internal/sql"
	"github.com/shortcircuit-db/sc/internal/storage"
)

// countingStore counts Read calls per object.
type countingStore struct {
	storage.Store
	mu    sync.Mutex
	reads map[string]int
}

func newCountingStore(inner storage.Store) *countingStore {
	return &countingStore{Store: inner, reads: make(map[string]int)}
}

func (s *countingStore) Read(name string) ([]byte, error) {
	s.mu.Lock()
	s.reads[name]++
	s.mu.Unlock()
	return s.Store.Read(name)
}

func (s *countingStore) take() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.reads
	s.reads = make(map[string]int)
	return out
}

// vecStore stores the vectorized fixture's base tables, chunked or in the
// v1 layout.
func vecStore(t *testing.T, chunked bool) storage.Store {
	t.Helper()
	st := storage.NewMemStore()
	for name, tb := range vecBaseTables(t) {
		var err error
		if chunked {
			err = SaveTableChunked(st, name, tb, encoding.Options{ChunkRows: 64})
		} else {
			err = SaveTable(st, name, tb)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// vecPlan is the fixture's topological plan with every node flagged or
// none.
func vecPlan(t *testing.T, flagAll bool) (*Workload, *dag.Graph, *core.Plan) {
	t.Helper()
	w := vecWorkload()
	g, _, err := w.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(topo)
	for i := range plan.Flagged {
		plan.Flagged[i] = flagAll
	}
	return w, g, plan
}

// TestOneStorageReadPerNodeInput: the planner's schema read is the read
// the executor uses, so every object is fetched exactly once per node that
// resolves it from storage — on the row path, on kernels over chunked
// files, and when a kernel's chunked probe of a v1 base file falls back to
// rows — and the MVs stay byte-identical to the row engine's.
func TestOneStorageReadPerNodeInput(t *testing.T) {
	w, g, rowPlan := vecPlan(t, false)
	want := make(map[string][]byte)
	{
		st := vecStore(t, false)
		if _, err := (&Controller{Store: st}).Run(context.Background(), w, g, rowPlan); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.Len(); i++ {
			name := g.Name(dag.NodeID(i))
			data, err := st.Read(tableObject(name))
			if err != nil {
				t.Fatal(err)
			}
			want[name] = canonical(t, data)
		}
	}
	inputs := make([][]string, len(w.Nodes))
	for i, n := range w.Nodes {
		in, err := sql.InputTables(n.SQL)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = in
	}

	modes := []struct {
		name       string
		chunked    bool
		encoding   bool
		vectorized bool
	}{
		{"row-v1", false, false, false},
		{"vectorized-chunked", true, true, true},
		{"vectorized-v1-base", false, true, true},
	}
	for _, mode := range modes {
		for _, workers := range []int{1, 2} {
			for _, flagAll := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/flagged=%v", mode.name, workers, flagAll)
				t.Run(name, func(t *testing.T) {
					st := newCountingStore(vecStore(t, mode.chunked))
					st.take()
					_, _, plan := vecPlan(t, flagAll)
					ctl := &Controller{
						Store: st, Mem: memcat.New(1 << 30),
						Vectorized: mode.vectorized, Concurrency: workers,
					}
					if mode.encoding {
						ctl.Encoding = &encoding.Options{ChunkRows: 64}
					}
					res, err := ctl.Run(context.Background(), w, g, plan)
					if err != nil {
						t.Fatal(err)
					}
					got := st.take()

					// A node resolves from storage every base table it scans
					// and every unflagged parent's output.
					expect := make(map[string]int)
					for _, in := range inputs {
						for _, tbl := range in {
							if id := g.Lookup(tbl); id >= 0 && plan.Flagged[id] {
								continue
							}
							expect[tableObject(tbl)]++
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(expect) {
						t.Fatalf("storage reads per object = %v, want %v", got, expect)
					}
					var disk int
					for _, m := range res.Nodes {
						disk += m.DiskReads
					}
					var total int
					for _, n := range expect {
						total += n
					}
					if disk != total {
						t.Fatalf("DiskReads sum to %d, want %d", disk, total)
					}
					for name, w := range want {
						data, err := st.Store.Read(tableObject(name))
						if err != nil {
							t.Fatal(err)
						}
						if string(canonical(t, data)) != string(w) {
							t.Fatalf("MV %q differs from the row engine's", name)
						}
					}
				})
			}
		}
	}
}

// TestReadTimeCoversPlanReads: on a device with a fixed per-access
// latency, every storage access — including the planner's schema read —
// lands in some node's ReadTime, ComputeTime never goes negative, and the
// learned metadata of two refreshes parameterizes the simulator.
func TestReadTimeCoversPlanReads(t *testing.T) {
	const latency = 5 * time.Millisecond
	dev := &storage.Throttled{Inner: vecStore(t, true), Latency: latency}
	md := metrics.NewStore()
	w, g, plan := vecPlan(t, false)
	var readSum time.Duration
	for run := 0; run < 2; run++ {
		ctl := &Controller{
			Store: dev, Mem: memcat.New(1 << 30), Obs: metrics.NewRecorder(md),
			Encoding: &encoding.Options{ChunkRows: 64}, Vectorized: true,
		}
		res, err := ctl.Run(context.Background(), w, g, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Nodes {
			if m.ReadTime < time.Duration(m.DiskReads)*latency {
				t.Fatalf("run %d node %s: ReadTime %v < %d storage inputs × %v", run, m.Name, m.ReadTime, m.DiskReads, latency)
			}
			if m.ComputeTime < 0 {
				t.Fatalf("run %d node %s: negative ComputeTime %v", run, m.Name, m.ComputeTime)
			}
			readSum += m.ReadTime
		}
	}
	if slept, _ := dev.SleptTimes(); readSum < slept {
		t.Fatalf("node ReadTimes sum to %v, but the device slept %v on reads", readSum, slept)
	}

	sw := &sim.Workload{G: g}
	for i := 0; i < g.Len(); i++ {
		o, ok := md.Latest(g.Name(dag.NodeID(i)))
		if !ok {
			t.Fatalf("node %s never observed", g.Name(dag.NodeID(i)))
		}
		sw.Nodes = append(sw.Nodes, sim.Node{Name: o.Name, OutputBytes: o.OutputBytes, ComputeSeconds: o.ComputeTime.Seconds()})
	}
	if _, err := sim.Run(context.Background(), sw, plan, sim.Config{Device: costmodel.PaperProfile(), Memory: 1 << 30}); err != nil {
		t.Fatalf("simulating the learned metadata: %v", err)
	}
}

// TestPlanReadFaultCleansUp fails the read of a base table that is first
// needed when a node plans. The run must name the node and the object,
// sweep the flagged outputs the failure stranded, return every token and
// leave no goroutine behind.
func TestPlanReadFaultCleansUp(t *testing.T) {
	defer leakcheck.Check(t)

	store := storage.NewFaulty(vecStore(t, true))
	store.FailRead("dims.sct") // scanned only by "joined", after "hot" is resident
	w, g, plan := vecPlan(t, true)
	tok := sched.New(2, 0)
	mem := memcat.New(1 << 30)
	ctl := &Controller{
		Store: store, Mem: mem,
		Encoding: &encoding.Options{ChunkRows: 64}, Vectorized: true,
		Concurrency: 2, Sched: tok, ParallelScan: true,
	}
	_, err := ctl.Run(context.Background(), w, g, plan)
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want the injected read fault", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"joined"`) || !strings.Contains(msg, "dims.sct") {
		t.Fatalf("err = %q, want it to name node \"joined\" and object dims.sct", msg)
	}
	if used, names := mem.Used(), mem.Names(); used != 0 || len(names) != 0 {
		t.Fatalf("catalog holds %d bytes in %v after the failed run", used, names)
	}
	if st := tok.Stats(); st.Idle != st.Tokens || st.ReservedBytes != 0 {
		t.Fatalf("scheduler tokens leaked after the failed run: %+v", st)
	}
}
