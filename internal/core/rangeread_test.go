package core

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/faults"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/storage"
)

// countingSite records the chunk reads a client issues, at the moment
// it issues them (before the site's media delay): whole-chunk reads are
// counted, and every segment read is announced on ranged.
type countingSite struct {
	storage.SiteAPI
	whole  *atomic.Int64
	ranged chan<- model.ChunkRef
}

func (s *countingSite) GetChunk(ctx context.Context, ref model.ChunkRef) ([]byte, error) {
	s.whole.Add(1)
	return s.SiteAPI.GetChunk(ctx, ref)
}

func (s *countingSite) GetChunkRange(ctx context.Context, ref model.ChunkRef, off, n int64) ([]byte, error) {
	s.ranged <- ref
	return s.SiteAPI.GetChunkRange(ctx, ref, off, n)
}

// rangeClient builds a client over numSites in-memory sites, each
// wrapped by wrap, with the given config (InlineExact forced on).
func rangeClient(t *testing.T, numSites int, cfg Config, reg *obs.Registry, delay time.Duration, wrap func(storage.SiteAPI) storage.SiteAPI) *Client {
	t.Helper()
	siteIDs := make([]model.SiteID, numSites)
	apis := make(map[model.SiteID]storage.SiteAPI, numSites)
	for i := range siteIDs {
		id := model.SiteID(i + 1)
		siteIDs[i] = id
		svc := storage.NewService(storage.ServiceConfig{Site: id, ReadDelayFixed: delay}, storage.NewMemStore())
		apis[id] = wrap(svc)
	}
	cfg.InlineExact = true
	client, err := NewClient(cfg, Deps{Meta: metadata.NewCatalog(siteIDs), Sites: apis, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client
}

// TestGetRangeLateBinding pins that range reads get the paper's late
// binding: with Delta 1 a range of an RS(2,2) block issues k+1 = 3
// segment reads, uses the first k, and accounts the surplus as
// late-binding waste.
func TestGetRangeLateBinding(t *testing.T) {
	reg := obs.NewRegistry()
	var whole atomic.Int64
	ranged := make(chan model.ChunkRef, 16) // far more than one range read issues
	c := rangeClient(t, 8, Config{K: 2, R: 2, Delta: 1, StripeUnit: 256}, reg, 10*time.Millisecond,
		func(api storage.SiteAPI) storage.SiteAPI {
			return &countingSite{SiteAPI: api, whole: &whole, ranged: ranged}
		})
	data := blockData(4000, 6)
	ctx := context.Background()
	if _, err := c.PutReader(ctx, "lb", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	got, err := c.GetRange(ctx, "lb", 300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[300:500]) {
		t.Fatal("late-bound GetRange bytes mismatch")
	}
	// The surplus read is issued alongside the first k, so all k+delta
	// segment reads are announced, each on a distinct chunk.
	chunks := map[int]bool{}
	for len(chunks) < 3 {
		select {
		case ref := <-ranged:
			if chunks[ref.Chunk] {
				t.Fatalf("chunk %d read twice", ref.Chunk)
			}
			chunks[ref.Chunk] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("GetRange issued %d segment reads, want k+delta = 3", len(chunks))
		}
	}
	if n := whole.Load(); n != 0 {
		t.Fatalf("GetRange issued %d whole-chunk reads, want 0", n)
	}
	snap := reg.Snapshot()
	if d := snap.CounterValue("client_late_binding_discarded_total", ""); d != 1 {
		t.Fatalf("client_late_binding_discarded_total = %d, want 1", d)
	}
	if f := snap.CounterValue("client_chunks_fetched_total", ""); f != 2 {
		t.Fatalf("client_chunks_fetched_total = %d, want k = 2", f)
	}
}

// TestGetRangeHedgesHungSite pins that range reads get hedging: with one
// planned site hung, a GetRange completes through a hedge to an unplanned
// chunk after HedgeDelay instead of waiting out ChunkTimeout.
func TestGetRangeHedgesHungSite(t *testing.T) {
	const chunkTimeout = 10 * time.Second
	reg := obs.NewRegistry()
	inj := faults.NewInjector(11)
	c := rangeClient(t, 8, Config{
		K: 2, R: 2, StripeUnit: 256,
		HedgeDelay:   20 * time.Millisecond,
		ChunkTimeout: chunkTimeout,
	}, reg, 0, func(api storage.SiteAPI) storage.SiteAPI {
		return faults.NewSite(api, inj)
	})
	data := blockData(4000, 8)
	ctx := context.Background()
	if _, err := c.PutReader(ctx, "hedge", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// A first read installs the block's plan in the plan cache; asking
	// the planner again returns the plan the next read will use.
	if _, err := c.GetRange(ctx, "hedge", 0, 10); err != nil {
		t.Fatal(err)
	}
	metas, err := c.meta.Lookup([]model.BlockID{"hedge"})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := c.plan.Plan(placement.PlanRequest{Metas: metas, Available: c.available}, c.costs())
	if err != nil {
		t.Fatal(err)
	}
	hung := c.sites[plan.SortedSites()[0]].(*faults.Site)
	hung.Set(faults.Plan{Hang: true})
	t.Cleanup(func() { hung.Set(faults.Plan{}) })

	start := time.Now()
	got, err := c.GetRange(ctx, "hedge", 1000, 700)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1000:1700]) {
		t.Fatal("hedged GetRange bytes mismatch")
	}
	if elapsed > chunkTimeout/4 {
		t.Fatalf("GetRange took %v with a hung planned site; a hedge should finish well before ChunkTimeout %v", elapsed, chunkTimeout)
	}
	snap := reg.Snapshot()
	if h := snap.CounterValue("client_hedged_reads_total", ""); h == 0 {
		t.Fatal("client_hedged_reads_total = 0, want a hedge around the hung site")
	}
	if w := snap.CounterValue("client_hedges_won_total", ""); w == 0 {
		t.Fatal("client_hedges_won_total = 0, want the hedge to supply the missing segment")
	}
}
