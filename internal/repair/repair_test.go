package repair_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/model"
	"ecstore/internal/repair"
	"ecstore/internal/storage"
)

// buildCluster creates a cluster with some data and returns it.
func buildCluster(t *testing.T, numSites int) *core.Cluster {
	t.Helper()
	cfg := core.ClusterConfig{NumSites: numSites}
	cfg.Client.InlineExact = true
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func data(n int, seed byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i)*seed + 1
	}
	return d
}

func TestRepairSiteReconstructsChunks(t *testing.T) {
	c := buildCluster(t, 8)
	payload := data(1200, 3)
	if err := c.Client.Put("blk", payload); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	victim := meta.Sites[1]
	c.FailSite(victim)

	apis := toAPIs(c)
	svc := repair.NewService(repair.Config{Grace: time.Minute}, c.Catalog, apis, c.Loads)
	n, err := svc.RepairSite(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("repaired %d chunks, want 1", n)
	}
	if svc.Repaired() != 1 {
		t.Fatalf("Repaired() = %d", svc.Repaired())
	}

	// Metadata no longer references the failed site.
	after, _ := c.Catalog.BlockMeta("blk")
	for _, s := range after.Sites {
		if s == victim {
			t.Fatalf("placement still references failed site: %v", after.Sites)
		}
	}
	// No two chunks share a site.
	seen := map[model.SiteID]bool{}
	for _, s := range after.Sites {
		if seen[s] {
			t.Fatalf("fault tolerance violated after repair: %v", after.Sites)
		}
		seen[s] = true
	}
	// Data readable even with the failed site still down.
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("repaired block corrupted")
	}
	// Full redundancy restored: the block survives r more failures.
	c.FailSite(after.Sites[0])
	c.FailSite(after.Sites[1])
	got, err = c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-repair redundancy insufficient")
	}
}

func TestRepairReplicatedBlock(t *testing.T) {
	cfg := core.ClusterConfig{NumSites: 8}
	cfg.Client.Scheme = model.SchemeReplicated
	cfg.Client.InlineExact = true
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	payload := data(500, 5)
	if err := c.Client.Put("blk", payload); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	victim := meta.Sites[0]
	c.FailSite(victim)

	svc := repair.NewService(repair.Config{}, c.Catalog, toAPIs(c), c.Loads)
	n, err := svc.RepairSite(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("repaired %d copies, want 1", n)
	}
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("repaired replica corrupted")
	}
}

func TestRepairUnrepairable(t *testing.T) {
	c := buildCluster(t, 8)
	if err := c.Client.Put("blk", data(400, 2)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	// Fail 3 of 4 chunk sites: only 1 chunk survives < k=2.
	c.FailSite(meta.Sites[0])
	c.FailSite(meta.Sites[1])
	c.FailSite(meta.Sites[2])

	svc := repair.NewService(repair.Config{}, c.Catalog, toAPIs(c), c.Loads)
	if _, err := svc.RepairSite(context.Background(), meta.Sites[0]); !errors.Is(err, repair.ErrUnrepairable) {
		t.Fatalf("err = %v, want repair.ErrUnrepairable", err)
	}
}

// sweep runs one repair sweep the way the task plane's repair-sweep
// source and repair-site tasks do: probe, then repair every due site.
func sweep(t *testing.T, svc *repair.Service) error {
	t.Helper()
	var firstErr error
	for _, id := range svc.DueForRepair(context.Background()) {
		if _, err := svc.RepairSite(context.Background(), id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func TestSweepHonorsGracePeriod(t *testing.T) {
	c := buildCluster(t, 8)
	if err := c.Client.Put("blk", data(600, 4)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	victim := meta.Sites[0]

	now := time.Unix(10_000, 0)
	clock := func() time.Time { return now }
	svc := repair.NewService(repair.Config{Grace: 15 * time.Minute, Clock: clock}, c.Catalog, toAPIs(c), c.Loads)

	c.FailSite(victim)
	// First sweep: marks the failure but must not repair yet.
	if err := sweep(t, svc); err != nil {
		t.Fatal(err)
	}
	if got := svc.FailedSites(); len(got) != 1 || got[0] != victim {
		t.Fatalf("FailedSites = %v", got)
	}
	after, _ := c.Catalog.BlockMeta("blk")
	if after.Version != meta.Version {
		t.Fatal("repair ran before the grace period expired")
	}

	// Advance past the grace period: the site comes due and repair runs.
	now = now.Add(16 * time.Minute)
	if err := sweep(t, svc); err != nil {
		t.Fatal(err)
	}
	after, _ = c.Catalog.BlockMeta("blk")
	for _, s := range after.Sites {
		if s == victim {
			t.Fatal("chunk not relocated after grace expiry")
		}
	}
}

func TestSweepClearsRecoveredSite(t *testing.T) {
	c := buildCluster(t, 6)
	now := time.Unix(0, 0)
	svc := repair.NewService(repair.Config{Clock: func() time.Time { return now }}, c.Catalog, toAPIs(c), c.Loads)
	c.FailSite(3)
	_ = sweep(t, svc)
	if len(svc.FailedSites()) != 1 {
		t.Fatal("failure not tracked")
	}
	c.RecoverSite(3)
	_ = sweep(t, svc)
	if len(svc.FailedSites()) != 0 {
		t.Fatal("recovered site still tracked as failed")
	}
}

func TestRepairRunsUnderScheduler(t *testing.T) {
	cfg := core.ClusterConfig{NumSites: 6, EnableRepair: true, RepairGrace: -1}
	cfg.Client.InlineExact = true
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Client.Put("blk", data(400, 9)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	victim := meta.Sites[0]
	c.FailSite(victim)
	c.Tick(context.Background())
	after, _ := c.Catalog.BlockMeta("blk")
	for _, s := range after.Sites {
		if s == victim {
			t.Fatal("chunk not relocated by scheduler-driven repair")
		}
	}
	done := false
	for _, rec := range c.Catalog.ListTasks() {
		if rec.Type == model.TaskTypeRepairSite && rec.State == model.TaskDone {
			done = true
		}
	}
	if !done {
		t.Fatal("no completed repair-site task recorded in the catalog")
	}
}

// toAPIs converts the cluster's concrete services to the SiteAPI map the
// repair service expects.
func toAPIs(c *core.Cluster) map[model.SiteID]storage.SiteAPI {
	out := make(map[model.SiteID]storage.SiteAPI, len(c.Services))
	for id, svc := range c.Services {
		out[id] = svc
	}
	return out
}

func TestGCOnceCollectsOrphans(t *testing.T) {
	c := buildCluster(t, 6)
	payload := data(400, 6)
	if err := c.Client.Put("keep", payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Put("gone", payload); err != nil {
		t.Fatal(err)
	}

	// Orphan type 1: a block deleted from metadata but whose chunks
	// were left behind (simulates a best-effort delete that lost the
	// race). Delete metadata directly, bypassing chunk cleanup.
	if _, err := c.Catalog.Delete("gone"); err != nil {
		t.Fatal(err)
	}

	// Orphan type 2: a stale copy left on the old site after a move.
	meta, _ := c.Catalog.BlockMeta("keep")
	oldSite := meta.Sites[0]
	var newSite model.SiteID = model.NoSite
	for _, s := range c.Catalog.Sites() {
		if !meta.SiteSet()[s] {
			newSite = s
			break
		}
	}
	chunkData, err := c.Services[oldSite].GetChunk(context.Background(), model.ChunkRef{Block: "keep", Chunk: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Services[newSite].PutChunk(context.Background(), model.ChunkRef{Block: "keep", Chunk: 0}, chunkData); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Catalog.UpdatePlacement("keep", 0, newSite, meta.Version); err != nil {
		t.Fatal(err)
	}
	// The old copy at oldSite is now an orphan (normally the mover
	// deletes it; pretend it crashed first).

	svc := repair.NewService(repair.Config{}, c.Catalog, toAPIs(c), c.Loads)
	collected, err := svc.GCOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 4 chunks of "gone" + 1 stale chunk of "keep".
	if collected != 5 {
		t.Fatalf("collected %d orphans, want 5", collected)
	}
	// Live data untouched.
	got, err := c.Client.Get("keep")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("GC corrupted live block")
	}
	// Second pass finds nothing.
	collected, err = svc.GCOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if collected != 0 {
		t.Fatalf("second GC collected %d", collected)
	}
}
