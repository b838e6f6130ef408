package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/shortcircuit-db/sc"
	"github.com/shortcircuit-db/sc/internal/table"
)

// heapWindow is the span of one live-heap high-water mark.
const heapWindow = time.Second

// heapProbe tracks the live heap's high-water mark in each heapWindow of a
// measured phase, and the process's CPU, GC and allocation totals over it.
type heapProbe struct {
	start   time.Time
	cpu0    float64
	gc0     float64
	alloc0  float64
	stop    chan struct{}
	done    chan struct{}
	samples []metrics.Sample

	mu       sync.Mutex
	winStart time.Time
	winPeak  float64
	winPeaks []float64
}

var probeNames = []string{"/gc/heap/live:bytes", "/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

// startProbe collects garbage left by set-up, then samples the live heap
// every few milliseconds until finish.
func startProbe() *heapProbe {
	runtime.GC()
	p := &heapProbe{stop: make(chan struct{}), done: make(chan struct{})}
	p.samples = make([]metrics.Sample, len(probeNames))
	for i, n := range probeNames {
		p.samples[i].Name = n
	}
	live, gc, alloc := p.read()
	p.start, p.cpu0, p.gc0, p.alloc0 = time.Now(), processCPU(), gc, alloc
	p.winStart, p.winPeak = p.start, live
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *heapProbe) read() (live, gcCPU, alloc float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	metrics.Read(p.samples)
	val := func(i int) float64 {
		switch v := p.samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(0), val(1), val(2)
}

func (p *heapProbe) sample() {
	live, _, _ := p.read()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.winPeak = math.Max(p.winPeak, live)
	if now := time.Now(); now.Sub(p.winStart) >= heapWindow {
		p.winPeaks = append(p.winPeaks, p.winPeak)
		p.winStart, p.winPeak = now, live
	}
}

// probeStats are a phase's runtime totals. peakHeap is the median of the
// per-window live-heap high-water marks.
type probeStats struct {
	peakHeap, cpuS, busy, gcCPU, alloc float64
	windows                            int
}

// finish stops sampling and returns the phase's totals.
func (p *heapProbe) finish() probeStats {
	close(p.stop)
	<-p.done
	p.sample()
	_, gc, alloc := p.read()
	wall := time.Since(p.start).Seconds()
	cpu := processCPU() - p.cpu0
	p.mu.Lock()
	defer p.mu.Unlock()
	peaks := append(p.winPeaks, p.winPeak)
	return probeStats{
		peakHeap: median(peaks),
		windows:  len(peaks),
		cpuS:     cpu,
		busy:     ratio(cpu, wall*float64(runtime.GOMAXPROCS(0))),
		gcCPU:    gc - p.gc0,
		alloc:    alloc - p.alloc0,
	}
}

// setRuntime reports a phase's runtime totals as per-layer metrics.
func (s probeStats) setRuntime(res *result) {
	res.set("runtime.cpu_s", s.cpuS, 1)
	res.set("runtime.cpu_busy_ratio", s.busy, 1)
	res.set("runtime.gc_cpu_s", s.gcCPU, 1)
	res.set("runtime.alloc_bytes", s.alloc, 1)
}

// processCPU is the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// tableDigest hashes a table's schema and every row in order, so two
// tables with equal digests are equal row for row.
func tableDigest(t *table.Table) string {
	h := sha256.New()
	for _, c := range t.Schema.Cols {
		fmt.Fprintf(h, "%s:%s;", c.Name, c.Type)
	}
	var buf [8]byte
	for i := 0; i < t.NumRows(); i++ {
		for _, v := range t.Row(i) {
			h.Write([]byte{byte(v.Type)})
			switch v.Type {
			case table.Int:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
				h.Write(buf[:])
			case table.Float:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
				h.Write(buf[:])
			default:
				fmt.Fprintf(h, "%d:%s", len(v.S), v.S)
			}
		}
	}
	return fmt.Sprintf("%x/%d", h.Sum(nil), t.NumRows())
}

// mvDigests loads every named MV from st and digests it.
func mvDigests(st sc.Store, names []string) (map[string]string, map[string]int, error) {
	digests := make(map[string]string, len(names))
	rows := make(map[string]int, len(names))
	for _, n := range names {
		t, err := sc.LoadTable(st, n)
		if err != nil {
			return nil, nil, fmt.Errorf("load MV %s: %w", n, err)
		}
		digests[n] = tableDigest(t)
		rows[n] = t.NumRows()
	}
	return digests, rows, nil
}

// checkMVs compares every MV in st with the reference digests and returns
// the names that differ or cannot be read.
func checkMVs(st sc.Store, ref map[string]string) []string {
	var bad []string
	for n, want := range ref {
		t, err := sc.LoadTable(st, n)
		if err != nil || tableDigest(t) != want {
			bad = append(bad, n)
		}
	}
	return bad
}
