// Package repair implements EC-Store's repair service (Section V-C): it
// probes every storage service, marks unresponsive sites unavailable, waits
// a grace period (15 minutes in GFS and the paper; configurable here), and
// then reconstructs the lost chunks on healthy sites, choosing destinations
// with the same load-aware logic as the chunk mover.
//
// The service owns no goroutine. The task plane wired in internal/core
// drives it through the internal/tasks scheduler: a periodic repair-sweep
// source calls DueForRepair and enqueues one repair-site task per site
// whose grace period expired, and RepairSite/RepairChunk run as
// repair-priority tasks.
package repair

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
)

// Errors returned by the repair service.
var (
	ErrUnrepairable = errors.New("repair: not enough surviving chunks")
	ErrNoDestination = errors.New("repair: no eligible destination site")
)

// Config tunes the repair service.
type Config struct {
	// Grace is how long a site must stay unresponsive before repair
	// begins (the paper waits 15 minutes, following GFS). Zero means
	// 15 minutes.
	Grace time.Duration
	// ProbeInterval is the polling period. Zero means 5 seconds.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each liveness probe so one hung site cannot
	// stall a sweep. Zero means 2 seconds.
	ProbeTimeout time.Duration
	// OpTimeout bounds each chunk read/write/delete issued during
	// repair and garbage collection. Zero means 30 seconds.
	OpTimeout time.Duration
	// Clock abstracts time for tests; nil uses time.Now.
	Clock func() time.Time
	// Health optionally shares the per-site breaker set with the client
	// and mover: probe outcomes feed it, and repair destinations are
	// restricted to sites whose breaker is closed. Nil keeps repair's
	// private probe-based availability view.
	Health *health.Tracker
	// Throttle optionally rate-limits repair I/O: it is called with the
	// byte count of every chunk read or written during reconstruction.
	// The task plane wires the scheduler's shared background token
	// bucket here so repair, scrub and drain draw from one budget. Nil
	// disables throttling.
	Throttle func(ctx context.Context, n int64) error
	// SiteInfo optionally supplies the zone and drain-state view
	// (catalog SiteInfos). When set, repair destinations skip draining
	// and decommissioned sites and avoid zones already holding
	// model.MaxChunksPerZone(r) chunks of the block (best-effort: the
	// zone cap relaxes before the repair fails for want of sites). Nil
	// disables both constraints.
	SiteInfo func() map[model.SiteID]model.SiteInfo
	// Metrics optionally exports repair instrumentation (check/repair/GC
	// counters, failed-site gauge) into a shared registry. Nil disables it.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Grace == 0 {
		c.Grace = 15 * time.Minute
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 5 * time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Service is the repair daemon.
type Service struct {
	cfg   Config
	meta  metadata.Service
	sites map[model.SiteID]storage.SiteAPI
	loads *stats.LoadTracker

	mu          sync.Mutex
	failedSince map[model.SiteID]time.Time
	repaired    int64
	codecs      map[[2]int]*erasure.Codec

	obs repairObs
}

// repairObs is the repair service's instrument set; every field is nil-safe.
type repairObs struct {
	checks      *obs.Counter
	repairedC   *obs.Counter
	errorsC     *obs.Counter
	gcCollected *obs.Counter
	failedSites *obs.Gauge
}

func newRepairObs(reg *obs.Registry) repairObs {
	if reg == nil {
		return repairObs{}
	}
	return repairObs{
		checks:      reg.Counter("repair_checks_total", "probe sweeps over all sites"),
		repairedC:   reg.Counter("repair_repaired_chunks_total", "chunks reconstructed onto healthy sites"),
		errorsC:     reg.Counter("repair_errors_total", "site repairs that failed to reconstruct at least one block"),
		gcCollected: reg.Counter("repair_gc_collected_total", "orphaned chunks garbage-collected"),
		failedSites: reg.Gauge("repair_failed_sites", "sites currently marked unavailable by the repair prober"),
	}
}

// NewService wires a repair service. loads may be nil (destinations then
// fall back to chunk-count balancing only).
func NewService(cfg Config, meta metadata.Service, sites map[model.SiteID]storage.SiteAPI, loads *stats.LoadTracker) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:         cfg,
		meta:        meta,
		sites:       sites,
		loads:       loads,
		failedSince: make(map[model.SiteID]time.Time),
		codecs:      make(map[[2]int]*erasure.Codec),
		obs:         newRepairObs(cfg.Metrics),
	}
}

// Repaired returns the number of chunks reconstructed so far.
func (s *Service) Repaired() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repaired
}

// FailedSites lists sites currently marked unavailable.
func (s *Service) FailedSites() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]model.SiteID, 0, len(s.failedSince))
	for id := range s.failedSince {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// errProbeSuppressed marks a site whose breaker refused a probe this
// sweep: the site still counts as down for grace accounting, but no RPC
// was issued and no outcome was reported to the breaker.
var errProbeSuppressed = errors.New("repair: probe suppressed by breaker")

// probeAll probes every site in parallel, each under the per-probe
// timeout, and returns the probe error per site (nil for healthy ones).
// With a shared breaker set attached, the breaker gates the sweep: an
// open breaker means the site is known-down and is synthesized as failed
// without an RPC, and a half-open site with a client recovery probe
// already in flight is not double-probed — AllowProbe hands out exactly
// one probation slot, and reporting a second outcome would corrupt the
// breaker's probation accounting. Probe outcomes feed the breaker only
// when the probe was actually admitted.
func (s *Service) probeAll(ctx context.Context) map[model.SiteID]error {
	out := make(map[model.SiteID]error, len(s.sites))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, api := range s.sites {
		if s.cfg.Health != nil && !s.cfg.Health.AllowProbe(id) {
			mu.Lock()
			out[id] = errProbeSuppressed
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(id model.SiteID, api storage.SiteAPI) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
			defer cancel()
			err := api.Probe(ctx)
			if s.cfg.Health != nil {
				if err != nil {
					s.cfg.Health.ReportFailure(id)
				} else {
					s.cfg.Health.ReportSuccess(id)
				}
			}
			mu.Lock()
			out[id] = err
			mu.Unlock()
		}(id, api)
	}
	wg.Wait()
	return out
}

// DueForRepair probes every site, updates failure marks, and returns the
// sites whose grace period has expired, sorted. Returned sites have their
// failure clock reset so a still-down site comes due again only a full
// grace period later — the caller owns repairing (or enqueueing repair
// for) each returned site exactly once.
func (s *Service) DueForRepair(ctx context.Context) []model.SiteID {
	now := s.cfg.Clock()
	var due []model.SiteID
	s.obs.checks.Inc()

	probes := s.probeAll(ctx)
	s.mu.Lock()
	for id, probeErr := range probes {
		if probeErr != nil {
			if _, already := s.failedSince[id]; !already {
				s.failedSince[id] = now
			}
			if now.Sub(s.failedSince[id]) >= s.cfg.Grace {
				due = append(due, id)
				// Reset the clock so the site is not re-repaired every
				// probe while still down.
				s.failedSince[id] = now
			}
		} else {
			delete(s.failedSince, id)
		}
	}
	s.obs.failedSites.Set(int64(len(s.failedSince)))
	s.mu.Unlock()

	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// RepairSite reconstructs every chunk the failed site held onto healthy
// sites. It returns the number of chunks reconstructed.
func (s *Service) RepairSite(ctx context.Context, failed model.SiteID) (int, error) {
	ids := s.meta.BlocksOnSite(failed)
	repaired := 0
	var firstErr error
	for _, id := range ids {
		n, err := s.repairBlock(ctx, id, failed)
		repaired += n
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("repair %s: %w", id, err)
		}
	}
	s.mu.Lock()
	s.repaired += int64(repaired)
	s.mu.Unlock()
	s.obs.repairedC.Add(int64(repaired))
	if firstErr != nil {
		s.obs.errorsC.Inc()
	}
	return repaired, firstErr
}

// RepairChunk re-protects a single chunk whose stored copy is corrupt or
// missing (the scrubber's repair unit): it reconstructs the chunk from
// the surviving peers and rewrites it, preferring the site the placement
// already names so the catalog stays untouched; if that site is gone the
// chunk lands on a fresh destination via the usual load-aware pick plus a
// placement CAS. A stale ref (chunk since moved or block deleted) is not
// an error — the damage no longer exists.
func (s *Service) RepairChunk(ctx context.Context, ref model.ChunkRef, onSite model.SiteID) error {
	metas, err := s.meta.Lookup([]model.BlockID{ref.Block})
	if err != nil {
		return nil // block deleted since the scrub: nothing to re-protect
	}
	meta := metas[ref.Block]
	if ref.Chunk < 0 || ref.Chunk >= len(meta.Sites) || meta.Sites[ref.Chunk] != onSite {
		return nil // chunk moved since the scrub: the bad copy is unreachable
	}

	// Gather k survivors, excluding the damaged copy itself.
	available := make(map[int][]byte)
	for chunk, site := range meta.Sites {
		if chunk == ref.Chunk || len(available) >= meta.RequiredChunks() {
			continue
		}
		api := s.sites[site]
		if api == nil {
			continue
		}
		data, err := s.getChunk(ctx, api, model.ChunkRef{Block: ref.Block, Chunk: chunk})
		if err != nil {
			continue
		}
		available[chunk] = data
	}
	if len(available) < meta.RequiredChunks() {
		return fmt.Errorf("%w: %d of %d", ErrUnrepairable, len(available), meta.RequiredChunks())
	}
	data, err := s.reconstruct(meta, available, ref.Chunk)
	if err != nil {
		return err
	}

	// Rewrite in place when the owning site still accepts writes; Put
	// replaces the damaged frame with a freshly sealed one.
	if api := s.sites[onSite]; api != nil && (s.cfg.Health == nil || s.cfg.Health.Available(onSite)) {
		if err := s.putChunk(ctx, api, ref, data); err == nil {
			s.mu.Lock()
			s.repaired++
			s.mu.Unlock()
			s.obs.repairedC.Inc()
			return nil
		}
	}

	// Owning site unavailable: place the rebuilt chunk elsewhere.
	dst, err := s.pickDestination(ctx, meta)
	if err != nil {
		return err
	}
	if err := s.putChunk(ctx, s.sites[dst], ref, data); err != nil {
		return fmt.Errorf("store reconstructed chunk: %w", err)
	}
	if _, err := s.meta.UpdatePlacement(ref.Block, ref.Chunk, dst, meta.Version); err != nil {
		_ = s.deleteChunk(ctx, s.sites[dst], ref)
		return fmt.Errorf("commit reconstructed chunk: %w", err)
	}
	s.mu.Lock()
	s.repaired++
	s.mu.Unlock()
	s.obs.repairedC.Inc()
	return nil
}

// repairBlock reconstructs the chunks of one block lost at `failed`.
func (s *Service) repairBlock(ctx context.Context, id model.BlockID, failed model.SiteID) (int, error) {
	metas, err := s.meta.Lookup([]model.BlockID{id})
	if err != nil {
		return 0, err
	}
	meta := metas[id]

	lost := meta.ChunksAt(failed)
	if len(lost) == 0 {
		return 0, nil
	}

	// Gather surviving chunks (k suffice; fetch opportunistically).
	available := make(map[int][]byte)
	for chunk, site := range meta.Sites {
		if site == failed || len(available) >= meta.RequiredChunks() {
			continue
		}
		api := s.sites[site]
		if api == nil {
			continue
		}
		data, err := s.getChunk(ctx, api, model.ChunkRef{Block: id, Chunk: chunk})
		if err != nil {
			continue
		}
		available[chunk] = data
	}
	if len(available) < meta.RequiredChunks() {
		return 0, fmt.Errorf("%w: %d of %d", ErrUnrepairable, len(available), meta.RequiredChunks())
	}

	repaired := 0
	for _, chunk := range lost {
		data, err := s.reconstruct(meta, available, chunk)
		if err != nil {
			return repaired, err
		}
		dst, err := s.pickDestination(ctx, meta)
		if err != nil {
			return repaired, err
		}
		ref := model.ChunkRef{Block: id, Chunk: chunk}
		if err := s.putChunk(ctx, s.sites[dst], ref, data); err != nil {
			return repaired, fmt.Errorf("store reconstructed chunk: %w", err)
		}
		newVersion, err := s.meta.UpdatePlacement(id, chunk, dst, meta.Version)
		if err != nil {
			_ = s.deleteChunk(ctx, s.sites[dst], ref)
			return repaired, fmt.Errorf("commit reconstructed chunk: %w", err)
		}
		meta.Sites[chunk] = dst
		meta.Version = newVersion
		repaired++
	}
	return repaired, nil
}

// getChunk, putChunk and deleteChunk run one site operation under the
// configured OpTimeout so a hung site cannot stall a repair sweep.
func (s *Service) getChunk(ctx context.Context, api storage.SiteAPI, ref model.ChunkRef) ([]byte, error) {
	opCtx, cancel := context.WithTimeout(ctx, s.cfg.OpTimeout)
	defer cancel()
	data, err := api.GetChunk(opCtx, ref)
	if err == nil && s.cfg.Throttle != nil {
		// Charged after the read (the size is unknown before); the
		// bucket still bounds the average background rate.
		if terr := s.cfg.Throttle(ctx, int64(len(data))); terr != nil {
			return nil, terr
		}
	}
	return data, err
}

func (s *Service) putChunk(ctx context.Context, api storage.SiteAPI, ref model.ChunkRef, data []byte) error {
	if s.cfg.Throttle != nil {
		if err := s.cfg.Throttle(ctx, int64(len(data))); err != nil {
			return err
		}
	}
	opCtx, cancel := context.WithTimeout(ctx, s.cfg.OpTimeout)
	defer cancel()
	return api.PutChunk(opCtx, ref, data)
}

func (s *Service) deleteChunk(ctx context.Context, api storage.SiteAPI, ref model.ChunkRef) error {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.OpTimeout)
	defer cancel()
	return api.DeleteChunk(ctx, ref)
}

// reconstruct rebuilds one chunk from survivors.
func (s *Service) reconstruct(meta *model.BlockMeta, available map[int][]byte, chunk int) ([]byte, error) {
	if meta.Scheme == model.SchemeReplicated {
		for _, data := range available {
			cp := make([]byte, len(data))
			copy(cp, data)
			return cp, nil
		}
		return nil, ErrUnrepairable
	}
	codec, err := s.codec(meta.K, meta.R)
	if err != nil {
		return nil, err
	}
	return codec.ReconstructChunk(available, chunk)
}

func (s *Service) codec(k, r int) (*erasure.Codec, error) {
	key := [2]int{k, r}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.codecs[key]; ok {
		return c, nil
	}
	c, err := erasure.NewCodec(k, r)
	if err != nil {
		return nil, err
	}
	s.codecs[key] = c
	return c, nil
}

// GCOnce scans every healthy site for orphaned chunks — chunks whose block
// no longer exists or whose placement no longer references the site (e.g.
// after a best-effort delete raced a failure, or a mover rollback) — and
// removes them. It returns the number of chunks collected.
func (s *Service) GCOnce(ctx context.Context) (int, error) {
	collected := 0
	var firstErr error
	for siteID, api := range s.sites {
		listCtx, listCancel := context.WithTimeout(ctx, s.cfg.OpTimeout)
		refs, err := api.ListChunks(listCtx)
		listCancel()
		if err != nil {
			continue // failed sites are repaired, not collected
		}
		for _, ref := range refs {
			metas, err := s.meta.Lookup([]model.BlockID{ref.Block})
			orphan := false
			if err != nil {
				// Block unknown: deleted.
				orphan = true
			} else {
				meta := metas[ref.Block]
				orphan = ref.Chunk < 0 || ref.Chunk >= len(meta.Sites) ||
					meta.Sites[ref.Chunk] != siteID
			}
			if !orphan {
				continue
			}
			if err := s.deleteChunk(ctx, api, ref); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("gc %s at site %d: %w", ref, siteID, err)
				}
				continue
			}
			collected++
		}
	}
	s.obs.gcCollected.Add(int64(collected))
	return collected, firstErr
}

// pickDestination chooses a healthy site that holds no chunk of the block,
// preferring lightly loaded sites. With a shared health tracker, only
// sites whose breaker is closed qualify; otherwise a bounded probe decides.
// With a site-info view, draining and decommissioned sites never qualify,
// and sites whose zone is already at the block's per-zone cap are avoided
// unless no other candidate exists.
func (s *Service) pickDestination(ctx context.Context, meta *model.BlockMeta) (model.SiteID, error) {
	var infos map[model.SiteID]model.SiteInfo
	if s.cfg.SiteInfo != nil {
		infos = s.cfg.SiteInfo()
	}
	// Chunks already in each zone: a candidate pushing its zone past the
	// cap would let one zone outage exceed the erasure margin.
	zoneCap := model.MaxChunksPerZone(meta.R)
	perZone := make(map[string]int)
	holding := meta.SiteSet()
	if infos != nil {
		for id := range holding {
			if z := infos[id].Zone; z != "" {
				perZone[z]++
			}
		}
	}

	var candidates, overCap []model.SiteID
	for id, api := range s.sites {
		if holding[id] {
			continue
		}
		if infos != nil && infos[id].State != model.SiteActive {
			continue
		}
		if s.cfg.Health != nil {
			if !s.cfg.Health.Available(id) {
				continue
			}
		} else {
			probeCtx, cancel := context.WithTimeout(ctx, s.cfg.ProbeTimeout)
			err := api.Probe(probeCtx)
			cancel()
			if err != nil {
				continue
			}
		}
		if z := infos[id].Zone; z != "" && perZone[z] >= zoneCap {
			overCap = append(overCap, id)
			continue
		}
		candidates = append(candidates, id)
	}
	if len(candidates) == 0 {
		candidates = overCap // zone cap is best-effort, availability wins
	}
	if len(candidates) == 0 {
		return model.NoSite, ErrNoDestination
	}
	sort.Slice(candidates, func(i, j int) bool {
		if s.loads != nil {
			wi := s.loads.Omega(candidates[i])
			wj := s.loads.Omega(candidates[j])
			if wi != wj {
				return wi < wj
			}
		}
		return candidates[i] < candidates[j]
	})
	return candidates[0], nil
}
