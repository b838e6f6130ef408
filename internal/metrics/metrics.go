// Package metrics implements the execution-metadata store of §III-A: S/C's
// optimizer consumes per-node observations (output sizes, read/write/compute
// times) gathered from past MV refresh runs. The store persists as JSON so
// recurring pipelines improve run over run.
package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/shortcircuit-db/sc/internal/core"
	"github.com/shortcircuit-db/sc/internal/costmodel"
	"github.com/shortcircuit-db/sc/internal/dag"
	"github.com/shortcircuit-db/sc/internal/obs"
)

// Observation records one node execution.
type Observation struct {
	Name string `json:"name"`
	// RunID correlates the observation with the refresh run (and its
	// trace) that produced it; empty when the run was not identified.
	RunID       string `json:"run_id,omitempty"`
	OutputBytes int64  `json:"output_bytes"`
	// EncodedBytes is the serialized (possibly compressed) size actually
	// moved to storage; zero when never observed. With encoding enabled it
	// is also a faithful estimate of the compressed Memory Catalog
	// footprint (framing overhead is a few bytes per column).
	EncodedBytes int64         `json:"encoded_bytes,omitempty"`
	ReadTime     time.Duration `json:"read_time"`
	WriteTime    time.Duration `json:"write_time"`
	ComputeTime  time.Duration `json:"compute_time"`
	// WallTime is the node's whole execution, start to done: read,
	// compute, encode, catalog and blocking write. Zero when not recorded.
	WallTime time.Duration `json:"wall_time,omitempty"`
	When     time.Time     `json:"when"`
}

// maxHistory is how many observations the store keeps per node; older
// ones are dropped as new ones arrive. The ratio EWMAs Load rebuilds from
// the retained ones differ from the live ones by at most
// (1-ratioAlpha)^maxHistory times the spread of the node's ratios.
const maxHistory = 32

// ratioAlpha is the EWMA weight of the newest encoded/raw observation.
// Compression ratios drift slowly (schema and value distributions change
// run over run, not row over row), so recent runs dominate but one odd
// refresh cannot whipsaw the estimate.
const ratioAlpha = 0.3

// Store accumulates observations across runs.
type Store struct {
	mu  sync.Mutex
	obs map[string][]Observation

	// Compression-ratio learning: per-node EWMA of encoded/raw across
	// runs, plus a workload-wide EWMA used to predict encoded sizes for
	// nodes never observed (a first run, a new MV in a recurring
	// pipeline) instead of falling back to the raw-size guess.
	ratios      map[string]float64
	globalRatio float64
	ratioSeen   bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{obs: make(map[string][]Observation), ratios: make(map[string]float64)}
}

// Record appends an observation, dropping the node's oldest beyond
// maxHistory.
func (s *Store) Record(o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := append(s.obs[o.Name], o)
	if len(list) > maxHistory {
		list = append(list[:0], list[len(list)-maxHistory:]...)
	}
	s.obs[o.Name] = list
	s.learnRatioLocked(o)
}

// learnRatioLocked folds one observation into the ratio EWMAs. Callers
// hold s.mu.
func (s *Store) learnRatioLocked(o Observation) {
	if o.OutputBytes <= 0 || o.EncodedBytes <= 0 {
		return
	}
	r := float64(o.EncodedBytes) / float64(o.OutputBytes)
	if prev, ok := s.ratios[o.Name]; ok {
		s.ratios[o.Name] = ratioAlpha*r + (1-ratioAlpha)*prev
	} else {
		s.ratios[o.Name] = r
	}
	if s.ratioSeen {
		s.globalRatio = ratioAlpha*r + (1-ratioAlpha)*s.globalRatio
	} else {
		s.globalRatio, s.ratioSeen = r, true
	}
}

// Ratio returns the learned encoded/raw ratio for a node: its own EWMA
// when it has been observed with encoding on, otherwise the workload-wide
// EWMA. ok is false when no encoded observation exists at all.
func (s *Store) Ratio(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.ratios[name]; ok {
		return r, true
	}
	if s.ratioSeen {
		return s.globalRatio, true
	}
	return 1, false
}

// PredictEncoded estimates a node's encoded size from a raw-size estimate
// using the learned ratios. Without any encoded observation it returns the
// raw estimate unchanged.
func (s *Store) PredictEncoded(name string, rawBytes int64) int64 {
	r, ok := s.Ratio(name)
	if !ok {
		return rawBytes
	}
	return scaleBytes(rawBytes, r)
}

// Latest returns the most recent observation for name.
func (s *Store) Latest(name string) (Observation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.obs[name]
	if len(list) == 0 {
		return Observation{}, false
	}
	return list[len(list)-1], true
}

// MeanWall returns the mean WallTime over name's retained observations
// that recorded one; ok is false when none did.
func (s *Store) MeanWall(name string) (time.Duration, bool) {
	return s.mean(name, func(o Observation) (time.Duration, bool) { return o.WallTime, o.WallTime > 0 })
}

// MeanCompute returns the mean ComputeTime over name's retained
// observations; ok is false when there are none.
func (s *Store) MeanCompute(name string) (time.Duration, bool) {
	return s.mean(name, func(o Observation) (time.Duration, bool) { return o.ComputeTime, true })
}

// mean averages the durations pick reports as recorded over name's
// retained observations.
func (s *Store) mean(name string, pick func(Observation) (time.Duration, bool)) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, o := range s.obs[name] {
		if d, ok := pick(o); ok {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / time.Duration(n), true
}

// History returns the retained observations for name, oldest first.
func (s *Store) History(name string) []Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Observation(nil), s.obs[name]...)
}

// Len returns the number of nodes with at least one observation.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.obs)
}

// Sizes extracts the latest observed output sizes for the graph's nodes,
// using fallback for nodes never observed (e.g. a first run).
func (s *Store) Sizes(g *dag.Graph, fallback int64) []int64 {
	out := make([]int64, g.Len())
	for i := range out {
		if o, ok := s.Latest(g.Name(dag.NodeID(i))); ok {
			out[i] = o.OutputBytes
		} else {
			out[i] = fallback
		}
	}
	return out
}

// EncodedSizes extracts the latest observed serialized sizes — the bytes a
// node's output actually occupies on storage and, with encoding enabled,
// in the Memory Catalog. Nodes without a direct encoded observation are
// estimated through the learned compression ratios: a never-observed node
// (a first run, a new MV in a recurring pipeline) gets fallback scaled by
// the workload-wide EWMA — a realistic compressed footprint instead of the
// raw guess — and a node whose latest observation lacks an encoded size is
// scaled by its own ratio when earlier runs learned one, falling back to
// its raw output size otherwise.
func (s *Store) EncodedSizes(g *dag.Graph, fallback int64) []int64 {
	out := make([]int64, g.Len())
	for i := range out {
		name := g.Name(dag.NodeID(i))
		o, ok := s.Latest(name)
		switch {
		case ok && o.EncodedBytes > 0:
			out[i] = o.EncodedBytes
		case ok:
			out[i] = o.OutputBytes
			if r, known := s.nodeRatio(name); known {
				out[i] = scaleBytes(o.OutputBytes, r)
			}
		default:
			out[i] = s.PredictEncoded(name, fallback)
		}
	}
	return out
}

// nodeRatio returns a node's own learned ratio, without the workload-wide
// fallback Ratio applies.
func (s *Store) nodeRatio(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.ratios[name]
	return r, ok
}

// scaleBytes applies a ratio, keeping positive sizes at least one byte.
func scaleBytes(n int64, r float64) int64 {
	e := int64(float64(n) * r)
	if e < 1 && n > 0 {
		e = 1
	}
	return e
}

// Scores estimates speedup scores from observed metadata: each child of
// node i saves i's observed (or modelled) read cost, and i saves its
// observed blocking write cost. Unobserved quantities fall back to the
// device model, so a first run can still be optimized.
func (s *Store) Scores(g *dag.Graph, sizes []int64, d costmodel.DeviceProfile) []float64 {
	return s.ScoresSized(g, sizes, sizes, d)
}

// ScoresSized is Scores with distinct memory and storage footprints: disk
// terms move diskSizes (encoded bytes with compression on), memory terms
// touch memSizes. The optimizer's flag decisions shift when compression
// changes the read/write savings of a node.
func (s *Store) ScoresSized(g *dag.Graph, memSizes, diskSizes []int64, d costmodel.DeviceProfile) []float64 {
	out := make([]float64, g.Len())
	for i := range out {
		id := dag.NodeID(i)
		var saved time.Duration
		readOnce := d.DiskRead(diskSizes[i]) - d.MemRead(memSizes[i])
		write := d.DiskWrite(diskSizes[i]) - d.MemWrite(memSizes[i])
		if o, ok := s.Latest(g.Name(id)); ok && o.WriteTime > 0 {
			write = o.WriteTime
		}
		for range g.Children(id) {
			saved += readOnce
		}
		saved += write
		if saved < 0 {
			saved = 0
		}
		out[i] = saved.Seconds()
	}
	return out
}

// Problem derives the S/C Opt instance for g against a Memory Catalog of
// the given size: the latest observed sizes (fallback for never-observed
// nodes) and scores under the device profile. With encoded the knapsack
// weighs nodes at their compressed footprint and the disk terms of the
// scores move encoded bytes. raw is always the uncompressed footprint.
func (s *Store) Problem(g *dag.Graph, memory, fallback int64, d costmodel.DeviceProfile, encoded bool) (prob *core.Problem, raw []int64) {
	raw = s.Sizes(g, fallback)
	prob = &core.Problem{G: g, Sizes: raw, Memory: memory}
	if encoded {
		prob.Sizes = s.EncodedSizes(g, fallback) // the catalog holds compressed entries
	}
	prob.Scores = s.ScoresSized(g, raw, prob.Sizes, d)
	return prob, raw
}

// Recorder adapts a Store to the obs event stream: every successful
// NodeDone event becomes an Observation, so recurring pipelines feed the
// optimizer without wiring metrics collection by hand.
type Recorder struct {
	Store *Store
	// Clock stamps observations; nil means time.Now.
	Clock func() time.Time
}

// NewRecorder returns a Recorder appending to s.
func NewRecorder(s *Store) *Recorder { return &Recorder{Store: s} }

// OnEvent implements obs.Observer.
func (r *Recorder) OnEvent(e obs.Event) {
	if e.Kind != obs.NodeDone || e.Err != nil {
		return
	}
	now := time.Now
	if r.Clock != nil {
		now = r.Clock
	}
	r.Store.Record(Observation{
		Name:         e.Node,
		RunID:        e.RunID,
		OutputBytes:  e.Bytes,
		EncodedBytes: e.Encoded,
		ReadTime:     e.Read,
		WriteTime:    e.Write,
		ComputeTime:  e.Compute,
		WallTime:     e.Elapsed,
		When:         now(),
	})
}

// Save writes the store as JSON.
func (s *Store) Save(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.MarshalIndent(s.obs, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a store saved by Save. The learned compression ratios are not
// serialized; they are re-derived by replaying the retained observations in
// recording order (by timestamp, name-ordered within equal stamps), so the
// reloaded EWMAs match what the live store had learned up to the weight of
// the dropped history (see maxHistory).
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	st := NewStore()
	if err := json.Unmarshal(data, &st.obs); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	var replay []Observation
	for _, list := range st.obs {
		replay = append(replay, list...)
	}
	sort.SliceStable(replay, func(i, j int) bool {
		if !replay[i].When.Equal(replay[j].When) {
			return replay[i].When.Before(replay[j].When)
		}
		return replay[i].Name < replay[j].Name
	})
	for _, o := range replay {
		st.learnRatioLocked(o)
	}
	return st, nil
}
