package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/table"
	"github.com/shortcircuit-db/sc/internal/tpcds"
)

// gateway-mixed load: per-tenant refresh triggers and MV reads, offered on
// a fixed schedule by one generator over at most gwConns connections.
const (
	gwTenants       = 2
	gwSF            = 10
	gwRefreshPeriod = 2 * time.Second
	gwReadRate      = 20.0 // reads per second, all tenants
	gwConns         = 2
	gwSliceShare    = 0.5 // tenant slice as a share of its encoded intermediates
	// Each tenant's store emulates a slow remote device, 20/10 MB/s with
	// 10 ms per access, so device time is most of a refresh and a busy
	// host's CPU steal moves refresh_s by well under its bound (the
	// tpcds-io device left the refresh half CPU and spread runs by 25%).
	gwReadBW  = 20e6
	gwWriteBW = 10e6
	gwLatency = 10 * time.Millisecond
	// A generator whose lateness grows by gwMaxDrift from the first to the
	// last quarter of a phase, or that stalls for gwMaxStall, has fallen
	// behind its schedule and the run is invalid.
	gwMaxDrift = 10 * time.Millisecond
	gwMaxStall = 250 * time.Millisecond
)

// gwReads are the read targets: mostly small report MVs, sometimes a large
// intermediate. Each run of len(gwReads) consecutive reads visits every
// target once, in seeded order, so every refresh overlaps a similar mix.
var gwReads = []struct {
	mv    string
	limit int
}{
	{"category_report", 10}, {"category_report", 10}, {"category_report", 10},
	{"monthly_trend", 12}, {"monthly_trend", 12}, {"monthly_trend", 12},
	{"top_items", 20}, {"top_items", 20}, {"top_items", 20},
	{"ss_1999", 100},
}

// gwTenant is one registered pipeline with its reference outputs.
type gwTenant struct {
	pipeline     string
	inner        sc.Store // the store under the device emulation
	device       sleeper
	ref          map[string]string
	rows         map[string]int
	rawBytes     int64
	encodedBytes int64
	slice        int64
}

// gwSetup is a gateway serving HTTP on loopback.
type gwSetup struct {
	gw      *sc.Gateway
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	tenants []*gwTenant
}

func (g *gwSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = g.srv.Shutdown(ctx) // a forced close leaves nothing behind
	<-g.served
	g.gw.Close()
	g.client.CloseIdleConnections()
}

// setupGateway calibrates each tenant's pipeline in a library session with
// the gateway's settings, which also records the control plan's outputs,
// then registers the tenants with slices below their intermediates, serves
// the gateway on loopback and refreshes every pipeline once.
func setupGateway(ctx context.Context, seed int64, rec *recorder) (*gwSetup, error) {
	var mvs []sc.MV
	var names []string
	for _, n := range tpcds.RealWorkload().Nodes {
		mvs = append(mvs, sc.MV{Name: n.Name, SQL: n.SQL})
		names = append(names, n.Name)
	}
	saveChunked := func(st sc.Store, name string, t *table.Table) error {
		return sc.SaveTableChunked(st, name, t, sc.EncodingOptions{})
	}
	g := &gwSetup{}
	datasets := make([]*tpcds.Dataset, gwTenants)
	var budget int64
	for i := range datasets {
		ds, err := tpcds.Generate(tpcds.GenConfig{ScaleFactor: gwSF, Seed: seed*gwTenants + int64(i)})
		if err != nil {
			return nil, err
		}
		datasets[i] = ds
		cal := sc.NewMemStore()
		if err := ds.Save(cal, saveChunked); err != nil {
			return nil, err
		}
		r, err := sc.New(mvs, cal, sc.WithEncoding(sc.EncodingOptions{}), sc.WithVectorized(true))
		if err != nil {
			return nil, err
		}
		run, err := r.RunPlan(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("calibration run: %w", err)
		}
		t := &gwTenant{pipeline: fmt.Sprintf("p%d", i)}
		for _, n := range run.Nodes {
			t.rawBytes += n.OutputBytes
			t.encodedBytes += n.EncodedSize
		}
		if t.ref, t.rows, err = mvDigests(cal, names); err != nil {
			return nil, err
		}
		t.slice = int64(float64(t.encodedBytes) * gwSliceShare)
		budget += t.slice
		g.tenants = append(g.tenants, t)
	}
	stores := make(map[string]sc.Store)
	for _, t := range g.tenants {
		t.inner = sc.NewMemStore()
		store := sc.NewThrottledStore(t.inner, gwReadBW, gwWriteBW, gwLatency)
		t.device = store.(sleeper)
		if rec != nil {
			store = &tracedStore{inner: store, rec: rec}
		}
		stores[t.pipeline] = store
	}
	gw, err := sc.NewGateway(sc.GatewayConfig{
		GlobalBudget: budget,
		NewStore:     func(p string) sc.Store { return stores[p] },
	})
	if err != nil {
		return nil, err
	}
	for i, t := range g.tenants {
		spec := sc.TPCDSPipeline(t.pipeline, fmt.Sprintf("t%d", i), 0)
		spec.Tables = datasets[i].Tables
		spec.TenantSlice = t.slice
		if err := gw.Register(spec); err != nil {
			gw.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, err
	}
	g.gw = gw
	g.srv = &http.Server{Handler: gw.Handler()}
	g.served = make(chan struct{})
	go func() {
		defer close(g.served)
		_ = g.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	g.base = "http://" + ln.Addr().String()
	g.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: gwConns, MaxIdleConnsPerHost: gwConns},
	}
	for _, t := range g.tenants {
		st, code, err := g.trigger(ctx, t.pipeline, true)
		if err != nil || code != http.StatusOK || st.State != "succeeded" {
			g.close()
			return nil, fmt.Errorf("first refresh of %s: code %d state %q: %v", t.pipeline, code, st.State, err)
		}
	}
	return g, nil
}

// trigger posts a refresh trigger, waiting for the run's end if wait.
func (g *gwSetup) trigger(ctx context.Context, pipeline string, wait bool) (sc.GatewayRunStatus, int, error) {
	url := g.base + "/v1/pipelines/" + pipeline + "/refresh"
	if wait {
		url += "?wait=1"
	}
	var st sc.GatewayRunStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return st, 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return st, resp.StatusCode, nil
	}
	return st, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&st)
}

// read fetches an MV over HTTP and returns its row count.
func (g *gwSetup) read(ctx context.Context, pipeline, mv string, limit int) (int, error) {
	url := fmt.Sprintf("%s/v1/pipelines/%s/mvs/%s?limit=%d", g.base, pipeline, mv, limit)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Rows int     `json:"rows"`
		Data [][]any `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if len(body.Data) != body.Rows {
		return 0, fmt.Errorf("%d rows announced, %d sent", body.Rows, len(body.Data))
	}
	return body.Rows, nil
}

// gwOp is one scheduled request.
type gwOp struct {
	due    time.Time
	read   bool
	tenant int
	mv     string
	limit  int
}

// gwOutcome is what one request did.
type gwOutcome struct {
	op    gwOp
	done  time.Time
	runID string
	ok    bool
}

// schedule lays out a phase's requests: each tenant triggers once per
// period, offset from the others, and reads arrive at gwReadRate.
func schedule(start time.Time, d time.Duration, rng *rand.Rand) []gwOp {
	var ops []gwOp
	for i := 0; i < gwTenants; i++ {
		off := gwRefreshPeriod * time.Duration(i) / gwTenants
		for at := off; at < d; at += gwRefreshPeriod {
			ops = append(ops, gwOp{due: start.Add(at), tenant: i})
		}
	}
	step := time.Duration(float64(time.Second) / gwReadRate)
	var order []int
	for at := step / 2; at < d; at += step {
		if len(order) == 0 {
			order = rng.Perm(len(gwReads))
		}
		r := gwReads[order[0]]
		order = order[1:]
		ops = append(ops, gwOp{due: start.Add(at), read: true, tenant: rng.Intn(gwTenants), mv: r.mv, limit: r.limit})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].due.Before(ops[j].due) })
	return ops
}

// gwPhase is one open-loop phase's outcome.
type gwPhase struct {
	refresh, queueWait, runS, reads []float64
	late                            []float64 // ms, in schedule order
	flagged, fallbacks              []float64
	idleTokens                      []float64
	runIDs                          []string // succeeded refresh runs
}

// drive offers a phase's schedule: one generator goroutine releases each
// request at its due time to one of two workers, each with its own
// connection: one sends the refresh triggers, the other the reads, so a
// trigger never waits behind a large read. Refresh latency runs from a
// trigger's due time to its run's terminal state, read latency from due
// time to response.
func (g *gwSetup) drive(ctx context.Context, d time.Duration, rng *rand.Rand, rec *recorder, res *result) (*gwPhase, error) {
	ops := schedule(time.Now().Add(20*time.Millisecond), d, rng)
	// Both queues are sized to the number of sends, so the generator never
	// blocks and its lateness is its own.
	queues := [gwConns]chan gwOutcome{make(chan gwOutcome, len(ops)), make(chan gwOutcome, len(ops))}
	ph := &gwPhase{}
	go func() {
		defer func() {
			for _, q := range queues {
				close(q)
			}
		}()
		for _, op := range ops {
			if wait := time.Until(op.due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
			}
			late := max(0, time.Since(op.due))
			ph.late = append(ph.late, late.Seconds()*1e3)
			queues[boolInt(op.read)] <- gwOutcome{op: op}
		}
	}()
	stopIdle := make(chan struct{})
	idleDone := make(chan []float64)
	go func() {
		var idle []float64
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopIdle:
				idleDone <- idle
				return
			case <-t.C:
				idle = append(idle, float64(g.gw.Stats().SchedIdle))
			}
		}
	}()
	outcomes := make([][]gwOutcome, gwConns)
	var wg sync.WaitGroup
	for w := range queues {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := range queues[w] {
				t := g.tenants[o.op.tenant]
				if o.op.read {
					rows, err := g.read(ctx, t.pipeline, o.op.mv, o.op.limit)
					o.done = time.Now()
					want := min(o.op.limit, t.rows[o.op.mv])
					o.ok = err == nil && rows == want
					if !o.ok {
						logf("read %s/%s: %d rows, want %d: %v", t.pipeline, o.op.mv, rows, want, err)
					}
					if rec != nil {
						rec.add(span{Trace: -1, Name: "read", Layer: "gateway", Object: o.op.mv,
							Start: int64(o.op.due.Sub(rec.origin)), End: int64(o.done.Sub(rec.origin)),
							Attrs: map[string]float64{"rows": float64(rows)}})
					}
				} else {
					st, code, err := g.trigger(ctx, t.pipeline, false)
					o.done = time.Now()
					o.ok = err == nil && code == http.StatusAccepted
					o.runID = st.ID
					if !o.ok {
						logf("trigger %s: code %d: %v", t.pipeline, code, err)
					}
				}
				outcomes[w] = append(outcomes[w], o)
			}
		}(w)
	}
	wg.Wait()
	close(stopIdle)
	ph.idleTokens = <-idleDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, list := range outcomes {
		for _, o := range list {
			res.attempted++
			if o.op.read {
				if !o.ok {
					res.failed++
					continue
				}
				ph.reads = append(ph.reads, o.done.Sub(o.op.due).Seconds()*1e3)
				continue
			}
			if !o.ok {
				res.failed++
				continue
			}
			st, err := g.await(ctx, o.runID)
			if err != nil {
				return nil, err
			}
			if st.State != "succeeded" {
				res.fail("refresh run %s ended %s: %s", st.ID, st.State, st.Error)
				continue
			}
			ph.refresh = append(ph.refresh, st.FinishedAt.Sub(o.op.due).Seconds())
			ph.queueWait = append(ph.queueWait, st.QueueWaitSeconds)
			ph.runS = append(ph.runS, st.FinishedAt.Sub(st.StartedAt).Seconds())
			ph.runIDs = append(ph.runIDs, st.ID)
			ph.flagged = append(ph.flagged, float64(st.Flagged))
			ph.fallbacks = append(ph.fallbacks, float64(st.FallbackWrites))
			if rec != nil {
				rec.add(span{Trace: -1, Name: "refresh", Layer: "gateway", Object: g.tenants[o.op.tenant].pipeline,
					Start: int64(o.op.due.Sub(rec.origin)), End: int64(st.FinishedAt.Sub(rec.origin)),
					Attrs: map[string]float64{"queue_wait_s": st.QueueWaitSeconds}})
			}
		}
	}
	for _, t := range g.tenants {
		res.attempted++
		if bad := checkMVs(t.inner, t.ref); len(bad) > 0 {
			sort.Strings(bad)
			res.fail("%s: MVs differ from the control plan's output: %s", t.pipeline, strings.Join(bad, ", "))
		}
	}
	return ph, nil
}

// deviceSleep is the emulated device time of every tenant's store so far.
func (g *gwSetup) deviceSleep() time.Duration {
	var d time.Duration
	for _, t := range g.tenants {
		r, w := t.device.SleptTimes()
		d += r + w
	}
	return d
}

// await polls a run until it reaches a terminal state.
func (g *gwSetup) await(ctx context.Context, id string) (sc.GatewayRunStatus, error) {
	for {
		st, err := g.gw.Run(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "succeeded", "failed", "canceled", "expired":
			return st, nil
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

func runGateway(ctx context.Context, o options, rec *recorder, res *result) error {
	var g *gwSetup
	err := setUp(res, func() (err error) {
		if g != nil {
			g.close()
		}
		g, err = setupGateway(ctx, o.seed, rec)
		return err
	})
	if err != nil {
		return err
	}
	defer g.close()
	var budget float64
	for i, t := range g.tenants {
		res.sizes[fmt.Sprintf("tenant%d_raw_intermediate_bytes", i)] = float64(t.rawBytes)
		res.sizes[fmt.Sprintf("tenant%d_encoded_intermediate_bytes", i)] = float64(t.encodedBytes)
		res.sizes[fmt.Sprintf("tenant%d_slice_bytes", i)] = float64(t.slice)
		budget += float64(t.slice)
	}
	res.sizes["sf"] = gwSF
	res.sizes["budget_bytes"] = budget
	res.sizes["refreshes_per_s"] = float64(gwTenants) / gwRefreshPeriod.Seconds()
	res.sizes["reads_per_s"] = gwReadRate
	res.sizes["connections"] = gwConns
	res.sizes["device_read_bytes_per_s"] = gwReadBW
	res.sizes["device_write_bytes_per_s"] = gwWriteBW
	res.sizes["device_latency_s"] = gwLatency.Seconds()
	res.set("memcat.budget_bytes", budget, 1)

	rng := rand.New(rand.NewSource(o.seed))
	share := 1.0
	if rec != nil {
		share = 0.5
	}
	stats0 := g.gw.Stats()
	probe := startProbe()
	ph, err := g.drive(ctx, phaseLength(o, share), rng, nil, res)
	if err != nil {
		return err
	}
	stats := probe.finish()
	late := summarize(ph.late)
	q := len(ph.late) / 4
	drift := median(ph.late[len(ph.late)-q:]) - median(ph.late[:q])
	if drift > ms(gwMaxDrift) || late.Max > ms(gwMaxStall) {
		return fmt.Errorf("%w: the generator fell behind its schedule (lateness grew %.1f ms, max %.1f ms)",
			errInvalid, drift, late.Max)
	}
	refresh, reads := summarize(ph.refresh), summarize(ph.reads)
	res.raw["refresh_s"], res.raw["read_ms"] = ph.refresh, ph.reads
	res.raw["run_s"], res.raw["flagged"], res.raw["fallback_writes"] = ph.runS, ph.flagged, ph.fallbacks
	res.set("refresh_s", refresh.P50, refresh.N)
	res.set("peak_heap_bytes", stats.peakHeap, stats.windows)
	res.set("read_p50_ms", reads.P50, reads.N)
	if rec == nil {
		return nil
	}
	stats.setRuntime(res)
	gs := g.gw.Stats()
	res.set("gateway.read_tail_ms", reads.Tail, reads.N)
	res.set("gateway.refresh_tail_s", refresh.Tail, refresh.N)
	res.set("gateway.queue_wait_s", median(ph.queueWait), len(ph.queueWait))
	res.set("gateway.run_s", median(ph.runS), len(ph.runS))
	res.set("gateway.rejected", float64(gs.Rejected-stats0.Rejected), 1)
	res.set("gateway.expired", float64(gs.Expired-stats0.Expired), 1)
	res.set("gateway.reserved_peak_bytes", float64(gs.PeakReserved), 1)
	res.set("gateway.used_peak_bytes", float64(gs.PeakUsedBytes), 1)
	res.set("gateway.reserve_ratio", ratio(float64(gs.PeakReserved), float64(gs.PeakUsedBytes)), 1)
	res.set("sched.borrows", float64(gs.SchedBorrows-stats0.SchedBorrows), 1)
	res.set("sched.idle_tokens_mean", mean(ph.idleTokens), len(ph.idleTokens))
	res.set("loadgen.late_ms", late.Tail, late.N)
	res.set("loadgen.refreshes", float64(len(ph.refresh)), 1)
	res.set("loadgen.reads", float64(len(ph.reads)), 1)

	slept := g.deviceSleep()
	rec.on.Store(true)
	traced, err := g.drive(ctx, phaseLength(o, 0.5), rng, rec, res)
	rec.on.Store(false)
	if err != nil {
		return err
	}
	if n := len(traced.refresh); n > 0 {
		res.set("storage.device_sleep_s", (g.deviceSleep()-slept).Seconds()/float64(n), n)
	}
	res.set("trace.overhead_ratio", ratio(median(traced.refresh), refresh.P50), len(traced.refresh))
	for _, id := range traced.runIDs {
		if err := g.recordEvents(ctx, id, rec); err != nil {
			return err
		}
	}
	return gatewaySpanTable(o, rec, res, len(traced.refresh))
}

// gwEvent is the wire shape of the run event stream's fields the
// per-layer table uses.
type gwEvent struct {
	Kind            string  `json:"kind"`
	Node            string  `json:"node"`
	Bytes           int64   `json:"bytes"`
	Encoded         int64   `json:"encoded"`
	Elapsed         float64 `json:"elapsed_seconds"`
	Compute         float64 `json:"compute_seconds"`
	Flagged         bool    `json:"flagged"`
	Lowered         int64   `json:"lowered"`
	Fallbacks       int64   `json:"fallbacks"`
	ChunksSkipped   int64   `json:"chunks_skipped"`
	DecodesAvoided  int64   `json:"decodes_avoided"`
	JoinProbeRows   int64   `json:"join_probe_rows"`
	ChunksPassed    int64   `json:"chunks_passed"`
	ReencodedChunks int64   `json:"reencoded_chunks"`
	DictReused      int64   `json:"dict_reused"`
}

// eventKinds maps the stream's kind names to event kinds.
var eventKinds = func() map[string]sc.EventKind {
	m := make(map[string]sc.EventKind)
	for k := sc.NodeStart; k <= sc.KernelDone; k++ {
		m[k.String()] = k
	}
	return m
}()

// recordEvents reads a finished run's event stream over HTTP and records
// its engine events as spans of a new trace, as the session observer
// would. The stream has durations but no start times, so each span ends
// when its event was read; node starts are not recorded, so each node
// span is as long as the node's elapsed time.
func (g *gwSetup) recordEvents(ctx context.Context, runID string, rec *recorder) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/runs/"+runID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: status %d", runID, resp.StatusCode)
	}
	tr := rec.newTrace()
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var w gwEvent
		if err := dec.Decode(&w); err != nil {
			return fmt.Errorf("events of %s: %w", runID, err)
		}
		kind, ok := eventKinds[w.Kind]
		if !ok || kind == sc.NodeStart {
			continue
		}
		sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
		rec.event(sc.Event{
			Kind: kind, Node: w.Node, Bytes: w.Bytes, Encoded: w.Encoded,
			Elapsed: sec(w.Elapsed), Compute: sec(w.Compute), Flagged: w.Flagged,
			Lowered: w.Lowered, Fallbacks: w.Fallbacks, ChunksSkipped: w.ChunksSkipped,
			DecodesAvoided: w.DecodesAvoided, JoinProbeRows: w.JoinProbeRows,
			ChunksPassed: w.ChunksPassed, ReencodedChunks: w.ReencodedChunks, DictReused: w.DictReused,
		}, rec.now(), tr)
	}
	return nil
}

// gatewaySpanTable writes the spans, reads them back and reports the
// storage layer per traced refresh, reads included since they share the
// stores, and each run's engine events as the median over runs. Device
// time, like the storage totals, includes the reads.
func gatewaySpanTable(o options, rec *recorder, res *result, refreshes int) error {
	spans, err := saveSpans(o, rec)
	if err != nil {
		return err
	}
	if refreshes == 0 {
		return errors.New("no traced refresh completed")
	}
	totals := make(map[string]float64)
	runs := make(map[int64][]span)
	for _, s := range spans {
		switch {
		case s.Layer == "storage":
			addStorage(totals, s)
		case s.Trace > 0:
			runs[s.Trace] = append(runs[s.Trace], s)
		}
	}
	for k, v := range totals {
		res.set(k, v/float64(refreshes), refreshes)
	}
	samples := make(map[string][]float64)
	for _, run := range runs {
		m := make(map[string]float64)
		engineLayers(m, run)
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	for k, xs := range samples {
		res.set(k, median(xs), len(xs))
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
