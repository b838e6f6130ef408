package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shortcircuit-db/sc"
)

// span is one timed interval recorded around a call into a layer. Spans
// of one refresh share Trace; times are nanoseconds since the recorder's
// origin.
type span struct {
	ID     int64              `json:"id"`
	Trace  int64              `json:"trace"`
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Object string             `json:"object,omitempty"` // node or store object
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while recording is on. It is the
// benchmark's Observer and backs its storage wrapper; both forward without
// recording while it is off.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	trace  atomic.Int64 // trace of the refresh in flight

	mu    sync.Mutex
	next  int64
	spans []span
	open  map[string]int64 // node -> NodeStart time of the trace in flight
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), open: make(map[string]int64)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// newTrace starts the next trace and makes it current.
func (r *recorder) newTrace() int64 { return r.trace.Add(1) }

// add records s under the current trace unless s names its own.
func (r *recorder) add(s span) {
	if s.Trace == 0 {
		s.Trace = r.trace.Load()
	}
	r.mu.Lock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// OnEvent records the engine's event stream while recording is on.
func (r *recorder) OnEvent(e sc.Event) {
	if r.on.Load() {
		r.event(e, r.now(), 0)
	}
}

// event records one engine event observed at time at: a node span from
// NodeStart to NodeDone (ending Elapsed after at when its start was not
// seen), spans of the encode and decode times, and the kernel counters and
// evictions as instants. A zero trace means the current one.
func (r *recorder) event(e sc.Event, at, trace int64) {
	s := span{Trace: trace, Object: e.Node, Start: at, End: at}
	switch e.Kind {
	case sc.NodeStart:
		r.mu.Lock()
		r.open[e.Node] = at
		r.mu.Unlock()
		return
	case sc.NodeDone:
		r.mu.Lock()
		start, ok := r.open[e.Node]
		delete(r.open, e.Node)
		r.mu.Unlock()
		if !ok {
			start = at - int64(e.Elapsed)
		}
		s.Name, s.Layer, s.Start = "node", "exec", start
		s.Attrs = map[string]float64{"flagged": boolNum(e.Flagged), "compute_s": e.Compute.Seconds()}
	case sc.EncodeDone:
		s.Name, s.Layer, s.Start = "encode", "encoding", at-int64(e.Elapsed)
		s.Attrs = map[string]float64{"raw_bytes": float64(e.Bytes), "encoded_bytes": float64(e.Encoded)}
	case sc.DecodeDone:
		s.Name, s.Layer, s.Start = "decode", "colfmt", at-int64(e.Elapsed)
		s.Attrs = map[string]float64{"decoded_bytes": float64(e.Bytes)}
	case sc.KernelDone:
		s.Name, s.Layer = "kernel", "kernels"
		s.Attrs = map[string]float64{
			"lowered_ops":        float64(e.Lowered),
			"fallbacks":          float64(e.Fallbacks),
			"chunks_skipped":     float64(e.ChunksSkipped),
			"decodes_avoided":    float64(e.DecodesAvoided),
			"materialized_bytes": float64(e.Bytes),
			"join_probe_rows":    float64(e.JoinProbeRows),
			"chunks_passed":      float64(e.ChunksPassed),
			"reencoded_chunks":   float64(e.ReencodedChunks),
			"dict_reused":        float64(e.DictReused),
		}
	case sc.Evicted:
		s.Name, s.Layer = "evict", "memcat"
		s.Attrs = map[string]float64{"bytes": float64(e.Bytes)}
	default:
		return
	}
	r.add(s)
}

// writeNDJSON writes every recorded span, one JSON object per line.
func (r *recorder) writeNDJSON(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSpans writes the run's spans to its NDJSON file and reads them back,
// so the per-layer table is computed from the file.
func saveSpans(o options, rec *recorder) ([]span, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.ndjson", o.workload, o.seed))
	if err := rec.writeNDJSON(path); err != nil {
		return nil, err
	}
	return readNDJSON(path)
}

// readNDJSON loads spans written by writeNDJSON.
func readNDJSON(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("read spans %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// tracedStore records a storage span around every read and write of the
// store it wraps.
type tracedStore struct {
	inner sc.Store
	rec   *recorder
}

func (t *tracedStore) Write(name string, data []byte) error {
	if !t.rec.on.Load() {
		return t.inner.Write(name, data)
	}
	start := t.rec.now()
	err := t.inner.Write(name, data)
	t.rec.add(span{Name: "write", Layer: "storage", Object: name, Start: start, End: t.rec.now(),
		Attrs: map[string]float64{"bytes": float64(len(data))}})
	return err
}

func (t *tracedStore) Read(name string) ([]byte, error) {
	if !t.rec.on.Load() {
		return t.inner.Read(name)
	}
	start := t.rec.now()
	data, err := t.inner.Read(name)
	t.rec.add(span{Name: "read", Layer: "storage", Object: name, Start: start, End: t.rec.now(),
		Attrs: map[string]float64{"bytes": float64(len(data))}})
	return data, err
}

func (t *tracedStore) Delete(name string) error        { return t.inner.Delete(name) }
func (t *tracedStore) Size(name string) (int64, error) { return t.inner.Size(name) }
func (t *tracedStore) List() ([]string, error)         { return t.inner.List() }

// covered returns the length of the union of the intervals, each clipped
// to [lo, hi]; overlapping intervals count once.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// selfTime is the parent's duration minus the part of it its children
// cover, counting overlapping children once.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(children, parent.Start, parent.End)
}

// addStorage adds one storage span to the call, byte and time totals.
func addStorage(m map[string]float64, s span) {
	m["storage."+s.Name+"_calls"]++
	m["storage."+s.Name+"_bytes"] += s.Attrs["bytes"]
	m["storage."+s.Name+"_s"] += float64(s.dur()) / 1e9
}

// engineLayers sums the node, codec, kernel and eviction spans of one
// refresh into per-layer numbers.
func engineLayers(m map[string]float64, spans []span) {
	for _, s := range spans {
		switch s.Layer {
		case "exec":
			m["exec.node_s"] += float64(s.dur()) / 1e9
			m["engine.compute_s"] += s.Attrs["compute_s"]
		case "encoding":
			m["encoding.encode_s"] += float64(s.dur()) / 1e9
			m["encoding.raw_bytes"] += s.Attrs["raw_bytes"]
			m["encoding.encoded_bytes"] += s.Attrs["encoded_bytes"]
		case "colfmt":
			m["colfmt.decode_s"] += float64(s.dur()) / 1e9
			m["colfmt.decoded_bytes"] += s.Attrs["decoded_bytes"]
		case "kernels":
			for _, k := range []string{"lowered_ops", "fallbacks", "chunks_skipped", "decodes_avoided", "materialized_bytes", "join_probe_rows"} {
				m["kernels."+k] += s.Attrs[k]
			}
			for _, k := range []string{"chunks_passed", "reencoded_chunks", "dict_reused"} {
				m["chunkio."+k] += s.Attrs[k]
			}
		case "memcat":
			m["memcat.evicted_bytes"] += s.Attrs["bytes"]
		}
	}
	m["chunkio.passthrough_ratio"] = ratio(m["chunkio.chunks_passed"], m["chunkio.chunks_passed"]+m["chunkio.reencoded_chunks"])
}

// refreshLayers computes the per-layer numbers of one refresh from its
// spans: root is the span around the Refresh call, the rest share its
// trace. A write of a node's output that ends after the node's span is a
// background write; every other storage span belongs to the node whose
// span contains it, and a node's self time excludes its storage spans.
func refreshLayers(root span, spans []span) map[string]float64 {
	m := make(map[string]float64)
	for k, v := range root.Attrs {
		m[k] = v
	}
	engineLayers(m, spans)
	nodes := make(map[string]span)
	var nodeSpans, background []span
	var lastNodeEnd int64
	for _, s := range spans {
		if s.Layer == "exec" {
			nodes[s.Object] = s
			nodeSpans = append(nodeSpans, s)
			lastNodeEnd = max(lastNodeEnd, s.End)
		}
	}
	children := make(map[string][]span)
	for _, s := range spans {
		switch s.Layer {
		case "storage":
			addStorage(m, s)
			owner, ok := containing(nodeSpans, s)
			if s.Name == "write" {
				n, isNode := nodes[strings.TrimSuffix(s.Object, ".sct")]
				if !isNode || s.End > n.End {
					background = append(background, s)
					continue
				}
				m["exec.blocking_write_s"] += float64(s.dur()) / 1e9
				owner, ok = n.Object, true
			}
			if ok {
				children[owner] = append(children[owner], s)
			}
		case "opt":
			m["opt.optimize_s"] += float64(s.dur()) / 1e9
			for k, v := range s.Attrs {
				m["opt."+k] = v
			}
		}
	}
	var nodeSum, selfSum int64
	for _, n := range nodeSpans {
		nodeSum += n.dur()
		selfSum += selfTime(n, children[n.Object])
	}
	m["exec.node_self_s"] = float64(selfSum) / 1e9
	m["exec.background_write_s"] = float64(covered(background, root.Start, root.End)) / 1e9
	if len(nodeSpans) > 0 {
		m["exec.tail_s"] = float64(root.End-lastNodeEnd) / 1e9
		m["exec.parallelism"] = ratio(float64(nodeSum), float64(covered(nodeSpans, root.Start, root.End)))
	}
	return m
}

// containing names the node whose span contains s, the latest-started one
// when several do.
func containing(nodes []span, s span) (string, bool) {
	best, found := span{}, false
	for _, n := range nodes {
		if n.Start <= s.Start && s.End <= n.End && (!found || n.Start > best.Start) {
			best, found = n, true
		}
	}
	return best.Object, found
}

// refreshTable reduces the spans of every traced refresh to per-layer
// numbers and reports, for each, the median over refreshes.
func refreshTable(spans []span) (map[string]float64, int) {
	byTrace := make(map[int64][]span)
	var roots []span
	for _, s := range spans {
		if s.Layer == "refresh" {
			roots = append(roots, s)
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	samples := make(map[string][]float64)
	for _, root := range roots {
		for k, v := range refreshLayers(root, byTrace[root.Trace]) {
			samples[k] = append(samples[k], v)
		}
	}
	out := make(map[string]float64, len(samples))
	for k, xs := range samples {
		// A layer absent from some refreshes counts as zero in them.
		for len(xs) < len(roots) {
			xs = append(xs, 0)
		}
		out[k] = median(xs)
	}
	return out, len(roots)
}

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
