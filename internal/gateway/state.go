package gateway

import (
	"context"

	"github.com/shortcircuit-db/sc/internal/introspect"
	"github.com/shortcircuit-db/sc/internal/memcat"
	"github.com/shortcircuit-db/sc/internal/opt"
)

// serverEvLogCap bounds the server-wide eviction timeline: evictions
// harvested from finished run catalogs, newest wins.
const serverEvLogCap = 256

// CatalogState snapshots the shared Memory Catalog for
// GET /v1/state/catalog: every entry resident in a live run's catalog with
// its owner, codec mix, decoded-view residency and eviction rank under the
// cost-model score, plus the bounded eviction timeline. The report's
// UsedBytes comes from the pool and EntryBytes from summing entries — the
// two agree byte-for-byte because every run catalog draws from the pool.
func (s *Server) CatalogState() introspect.CatalogReport {
	now := s.cfg.Clock()
	rep := introspect.CatalogReport{
		At:            now,
		BudgetBytes:   s.pool.Capacity(),
		ReservedBytes: s.pool.Reserved(),
		UsedBytes:     s.pool.Used(),
		PeakUsedBytes: s.pool.PeakUsed(),
	}

	for _, lc := range s.liveCatalogs() {
		r := lc.run
		// Score each resident entry under the pipeline's current knapsack,
		// so eviction rank reflects what the optimizer values right now.
		score := make(map[string]float64)
		if p, err := s.lookup(r.pipeline); err == nil {
			prob, _ := p.Problem(s.adm.tenantSlice(p.tenant), s.cfg.SizeGuess, s.device)
			for i, n := range p.Workload.Nodes {
				score[n.Name] = prob.Scores[i]
			}
		}
		for _, e := range lc.cat.Entries() {
			ce := introspect.CatalogEntry{
				Pipeline: r.pipeline, Tenant: r.tenant, RunID: r.id,
				EntryInfo: e,
			}
			if !e.LastAccess.IsZero() {
				ce.LastAccessAgeSeconds = now.Sub(e.LastAccess).Seconds()
			}
			ce.ScoreSeconds = score[e.Name]
			rep.Entries = append(rep.Entries, ce)
		}
		for _, ev := range lc.cat.Evictions() {
			rep.Evictions = append(rep.Evictions, introspect.EvictionEvent{
				Pipeline: r.pipeline, Tenant: r.tenant, RunID: r.id, Eviction: ev,
			})
		}
		rep.EvictionsSeen += lc.cat.EvictionsSeen()
	}

	// Prepend the server-wide timeline (evictions harvested from finished
	// runs), oldest first, before the live catalogs' own rings.
	s.evMu.Lock()
	rep.Evictions = append(append([]introspect.EvictionEvent{}, s.evlog...), rep.Evictions...)
	rep.EvictionsSeen += s.evSeen
	s.evMu.Unlock()

	introspect.FinishCatalogReport(&rep)
	return rep
}

// liveCatalog is an executing run's Memory Catalog.
type liveCatalog struct {
	run *Run
	cat *memcat.Catalog
}

// liveCatalogs snapshots the catalogs of the runs executing right now.
func (s *Server) liveCatalogs() []liveCatalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []liveCatalog
	for _, r := range s.runs {
		r.mu.Lock()
		if r.cat != nil {
			out = append(out, liveCatalog{r, r.cat})
		}
		r.mu.Unlock()
	}
	return out
}

// harvestEvictions folds a finishing run catalog's eviction ring into the
// server-wide timeline, attributed to the run whose budget pressure caused
// them.
func (s *Server) harvestEvictions(r *Run, cat *memcat.Catalog) {
	evs := cat.Evictions()
	seen := cat.EvictionsSeen()
	if seen == 0 {
		return
	}
	s.evMu.Lock()
	defer s.evMu.Unlock()
	s.evSeen += seen
	for _, ev := range evs {
		s.evlog = append(s.evlog, introspect.EvictionEvent{
			Pipeline: r.pipeline, Tenant: r.tenant, RunID: r.id, Eviction: ev,
		})
	}
	if over := len(s.evlog) - serverEvLogCap; over > 0 {
		s.evlog = append(s.evlog[:0], s.evlog[over:]...)
	}
}

// SchedState snapshots the scheduler for GET /v1/state/sched: the
// token pool (in flight, idle, soft-committed), the in-flight byte
// reservations, and the admission queue with each trigger's blocking
// reason.
func (s *Server) SchedState() introspect.SchedReport {
	rep := introspect.SchedReport{
		At:                  s.cfg.Clock(),
		Snapshot:            s.sched.Stats(),
		BudgetBytes:         s.pool.Capacity(),
		ReservedCatalogByte: s.pool.Reserved(),
		Queue:               s.adm.queueSnapshot(),
	}
	rep.QueueDepth = len(rep.Queue)
	for _, t := range s.tenantNames() {
		rep.Tenants = append(rep.Tenants, introspect.TenantState{
			Tenant:        t,
			SliceBytes:    s.adm.tenantSlice(t),
			ReservedBytes: s.adm.tenantReserved(t),
		})
	}
	return rep
}

// ExplainPipeline re-solves the pipeline's knapsack from its current
// learned execution metadata — exactly the plan the next trigger would run
// — and explains every MV's flag decision: the sized score, predicted
// encoded bytes, the marginal byte cost that decided it, and what would
// flip it. The body of GET /v1/pipelines/{p}/explain.
func (s *Server) ExplainPipeline(name string) (*introspect.ExplainReport, error) {
	p, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	prob, raw := p.Problem(s.adm.tenantSlice(p.tenant), s.cfg.SizeGuess, s.device)
	plan, _, err := opt.Solve(context.Background(), prob, opt.Options{})
	if err != nil {
		return nil, err
	}
	in := p.ExplainInput(prob, raw, plan, s.device)
	in.Pipeline = name
	return introspect.Explain(in), nil
}
