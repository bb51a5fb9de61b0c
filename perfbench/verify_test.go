package main

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/storage"
)

// flipSite corrupts one byte of every chunk it returns.
type flipSite struct{ storage.SiteAPI }

func (f flipSite) GetChunk(ctx context.Context, ref model.ChunkRef) ([]byte, error) {
	data, err := f.SiteAPI.GetChunk(ctx, ref)
	if err != nil || len(data) == 0 {
		return data, err
	}
	out := bytes.Clone(data)
	out[len(out)/2] ^= 0xff
	return out, nil
}

// smallCluster boots a cluster holding a few preloaded blocks.
func smallCluster(t *testing.T) (*cluster, []*block) {
	t.Helper()
	c, err := bootCluster(clusterConfig{
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Client: core.Config{K: 2, R: 2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.close(); err != nil {
			t.Error(err)
		}
	})
	rng := rand.New(rand.NewSource(1))
	pool := newPool(rng, 64*kib)
	off := &offsets{rng: rng, span: int64(len(pool) - 4*kib), used: map[int64]bool{}}
	var blocks []*block
	for i := 0; i < 4; i++ {
		blocks = append(blocks, newBlock(model.BlockName(i), pool, off, 4*kib, false))
	}
	if err := preload(context.Background(), c.client, blocks); err != nil {
		t.Fatal(err)
	}
	return c, blocks
}

func readAll(ctx context.Context, cl *core.Client, tr *tracer, blocks []*block) accounting {
	r := &runner{cl: cl, expect: map[model.BlockID]*block{}, tr: tr}
	o := op{kind: opRead}
	for _, b := range blocks {
		r.expect[b.id] = b
		o.ids = append(o.ids, b.id)
	}
	res := &results{}
	r.do(ctx, &o, 1, res)
	return res.acc
}

func TestFlippedByteRaisesErrorRate(t *testing.T) {
	ctx := context.Background()
	c, blocks := smallCluster(t)
	if acc := readAll(ctx, c.client, nil, blocks); acc.errorRate() != 0 {
		t.Fatalf("honest sites: %+v, want no errors", acc)
	}

	// A second client reaching every site through a byte-flipping
	// SiteAPI: every decoded block is wrong, so the read must count.
	sites := map[model.SiteID]storage.SiteAPI{}
	for _, id := range c.siteIDs {
		rc, err := c.dial(c.sites[id].addr)
		if err != nil {
			t.Fatal(err)
		}
		sites[id] = flipSite{storage.NewRPCClient(rc)}
	}
	rc, err := c.dial(c.meta.addr)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := core.NewClient(core.Config{K: 2, R: 2, Seed: 1}, core.Deps{Meta: metadata.NewClient(rc), Sites: sites})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	acc := readAll(ctx, bad, nil, blocks)
	if acc.Mismatched != 1 || acc.errorRate() != 1 {
		t.Fatalf("flipping sites: %+v, want the read counted as mismatched", acc)
	}
}

func TestDurabilityCheckFindsAckedBlocks(t *testing.T) {
	c, blocks := smallCluster(t)
	m := &measurement{res: &results{}}
	in := &instance{c: c, r: &runner{cl: c.client, live: &liveSet{}}}
	for _, b := range blocks {
		in.r.live.add(b)
	}
	sp := &spec{client: core.Config{K: 2, R: 2}}
	if err := m.checkDurability(context.Background(), sp, &plan{}, in); err != nil {
		t.Fatal(err)
	}
	if m.res.acc.bad() != 0 || m.checked != len(blocks) {
		t.Fatalf("durability check: %+v over %d blocks, want all %d present", m.res.acc, m.checked, len(blocks))
	}
}

func burn(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestCPUSharesAttributeProfileToLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples collected")
	}
	if shares["bench"] < 0.5 {
		t.Fatalf("shares %v: want most samples in the benchmark's own package", shares)
	}
}

func TestLayerOfPicksNearestRepositoryFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "ecstore/internal/storage.(*MemStore).Get", "ecstore/internal/rpc.(*Server).serveConn"}, "storage"},
		{[]string{"ecstore/internal/gf256.mulSlice", "ecstore/internal/erasure.(*Codec).Encode"}, "erasure"},
		{[]string{"syscall.Syscall", "ecstore/internal/wire.WriteFrame"}, "rpc"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.(*runner).do"}, "bench"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestTracedReadBuildsSpanTree(t *testing.T) {
	ctx := context.Background()
	tr := newTracer()
	c, err := bootCluster(clusterConfig{
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Client: core.Config{K: 2, R: 2, Seed: 1},
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.close(); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewSource(1))
	pool := newPool(rng, 64*kib)
	off := &offsets{rng: rng, span: int64(len(pool) - 4*kib), used: map[int64]bool{}}
	b := newBlock("traced", pool, off, 4*kib, false)
	if err := preload(ctx, c.client, []*block{b}); err != nil {
		t.Fatal(err)
	}
	tr.enabled.Store(true)
	if acc := readAll(ctx, c.client, tr, []*block{b}); acc.bad() != 0 {
		t.Fatalf("traced read: %+v", acc)
	}
	tr.enabled.Store(false)

	spans := tr.snapshot()
	parentOps(spans)
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var root span
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.Parent == 0 && s.Name == "GetMulti" {
			root = s
		}
	}
	if root.ID == 0 || names["meta.Lookup"] != 1 || names["server.meta.Lookup"] != 1 || names["site.GetChunk"] < 2 {
		t.Fatalf("span names %v, want one GetMulti root, one lookup each side, at least k chunk reads", names)
	}
	for _, s := range spans {
		if s.Op != root.Op {
			t.Errorf("span %s belongs to op %d, want %d", s.Name, s.Op, root.Op)
		}
		switch {
		case s.Name == "meta.Lookup" || s.Name == "site.GetChunk":
			if s.Parent != root.ID {
				t.Errorf("%s parent %d, want the operation's root %d", s.Name, s.Parent, root.ID)
			}
		case s.Name == "server.meta.Lookup" || s.Name == "server.site.GetChunk":
			p, ok := byID[s.Parent]
			if !ok || "server."+p.Name != s.Name {
				t.Errorf("%s parent %+v, want the client call that sent it", s.Name, p)
			}
		}
	}
}
