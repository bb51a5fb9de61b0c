package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ecstore/internal/cache"
	"ecstore/internal/core"
	"ecstore/internal/faults"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
)

// clients is the closed loop's concurrency: one client per core of the
// two-core reference host.
const clients = 2

// preloadWorkers writes the initial data set concurrently; preload is
// set-up, so only its total time matters.
const preloadWorkers = 4

// probeRounds of liveness probes precede the window so the cost model's
// o_j estimates reflect each site's injected latency.
const probeRounds = 5

// measurement is everything one set-up + measured window yields.
type measurement struct {
	boot       []float64 // boot + preload seconds, per repetition
	warmS      float64   // warm-up seconds
	warmRatios []float64 // hit ratio of each warm-up round
	warmAcc    accounting

	res      *results
	subs     []subWindow
	elapsed  time.Duration
	cpu      time.Duration // process user+sys CPU over the window
	liveUser int64         // user bytes live at window end
	stored   int64         // bytes all sites hold at window end
	peakRSS  int64         // bytes
	recover  time.Duration
	checked  int // blocks the durability check examined

	slow map[model.SiteID]faults.Plan

	regBefore, regAfter     *obs.Snapshot
	planBefore, planAfter   placement.PlannerStats
	cacheBefore, cacheAfter cache.Stats
	mallocs, allocBytes     uint64
	gcCPU, usedCPU          float64
	exactPending            int

	spans     []span
	profile   []byte
	wireBytes int64
}

// subWindowLen is the interval the window is sampled at: throughput and
// CPU per operation are reported as the mean of the middle half of the
// intervals, so a burst of interference from outside the process moves
// one interval rather than the whole result.
const subWindowLen = time.Second

// subWindow is one sampled interval of the measured window.
type subWindow struct {
	ops int64
	dur time.Duration
	cpu time.Duration
}

// sample records one subWindow per subWindowLen until stop closes,
// dropping the final partial interval.
func sample(stop <-chan struct{}, completed *atomic.Int64) []subWindow {
	t := time.NewTicker(subWindowLen)
	defer t.Stop()
	var out []subWindow
	last, lastOps, lastCPU := time.Now(), completed.Load(), cpuTime()
	for {
		select {
		case <-stop:
			return out
		case now := <-t.C:
			ops, cpu := completed.Load(), cpuTime()
			out = append(out, subWindow{ops: ops - lastOps, dur: now.Sub(last), cpu: cpu - lastCPU})
			last, lastOps, lastCPU = now, ops, cpu
		}
	}
}

// ops is how many operations the window issued.
func (m *measurement) ops() int64 { return m.res.acc.Attempted }

// opsPerSec is the sub-window throughput, interquartile mean.
func (m *measurement) opsPerSec() float64 {
	rates := make([]float64, len(m.subs))
	for i, w := range m.subs {
		rates[i] = ratio(float64(w.ops), w.dur.Seconds())
	}
	return midMean(rates)
}

// cpuMsPerOp is the sub-window process CPU per operation, interquartile
// mean.
func (m *measurement) cpuMsPerOp() float64 {
	per := make([]float64, len(m.subs))
	for i, w := range m.subs {
		per[i] = ratio(ms(w.cpu), float64(w.ops))
	}
	return midMean(per)
}

// accounting folds warm-up failures into the window's tally.
func (m *measurement) accounting() accounting {
	a := m.res.acc
	a.Failed += m.warmAcc.Failed
	a.Mismatched += m.warmAcc.Mismatched
	return a
}

// pickSlow chooses which sites get the workload's injected latency.
func pickSlow(sp *spec) map[model.SiteID]faults.Plan {
	out := map[model.SiteID]faults.Plan{}
	perm := rand.New(rand.NewSource(shapeSeed)).Perm(numSites)
	for _, i := range perm[:sp.slowSites] {
		out[model.SiteID(i+1)] = sp.slowPlan
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// cpuClasses reads the runtime's GC CPU and the CPU not idle, in seconds.
func cpuClasses() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return v(0), v(1) - v(2)
}

// instance is one booted, preloaded and warmed cluster.
type instance struct {
	c   *cluster
	r   *runner
	dir string
}

func (in *instance) close() error {
	err := in.c.close()
	if rmErr := os.RemoveAll(in.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// setup boots a cluster, preloads the plan's blocks and probes the
// sites. It is the repeated part of set-up; warm-up follows once.
func setup(ctx context.Context, sp *spec, p *plan, seed int64, slow map[model.SiteID]faults.Plan, tr *tracer, dir string) (*instance, error) {
	c, err := bootCluster(clusterConfig{
		WALDir:           filepath.Join(dir, "wal"),
		Client:           withSeed(sp.client, seed),
		ReadDelayFixed:   sp.readDelayFixed,
		ReadDelayPerByte: sp.readDelayPerByte,
		Slow:             slow,
		FaultSeed:        seed + 4,
		Tracer:           tr,
	})
	if err != nil {
		return nil, err
	}
	in := &instance{c: c, dir: dir}
	if err := preload(ctx, c.client, p.preload); err != nil {
		_ = in.close()
		return nil, err
	}
	c.probe(ctx, probeRounds)
	in.r = &runner{cl: c.client, tr: tr}
	if p.live {
		in.r.live = &liveSet{}
		for _, b := range p.preload {
			in.r.live.add(b)
		}
	} else {
		in.r.expect = make(map[model.BlockID]*block, len(p.preload))
		for _, b := range p.preload {
			in.r.expect[b.id] = b
		}
	}
	return in, nil
}

func withSeed(cfg core.Config, seed int64) core.Config {
	cfg.Seed = seed
	return cfg
}

// preload writes every block, Put or PutReader as the block says.
func preload(ctx context.Context, cl *core.Client, blocks []*block) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, preloadWorkers)
	for w := 0; w < preloadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				b := blocks[i]
				var err error
				if b.stream {
					_, err = cl.PutReader(ctx, b.id, bytes.NewReader(b.data))
				} else {
					err = cl.PutContext(ctx, b.id, b.data)
				}
				if err != nil {
					errs[w] = fmt.Errorf("preload %s: %w", b.id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return ctx.Err()
}

// warmUp runs the plan's warm-up rounds and returns the workload's hit
// ratio in each (none when it has no hit ratio to watch).
func warmUp(ctx context.Context, sp *spec, p *plan, r *runner) ([]float64, accounting) {
	var next atomic.Int64
	var acc accounting
	var ratios []float64
	for round := 1; round <= p.warmRounds; round++ {
		var h0, t0 int64
		if sp.warmMetric != nil {
			h0, t0 = sp.warmMetric(r.cl)
		}
		res, _ := r.loop(ctx, clients, p.warm, &next, int64(round*p.warmOps), time.Time{}, false)
		acc.add(res.acc)
		if sp.warmMetric != nil {
			h1, t1 := sp.warmMetric(r.cl)
			ratios = append(ratios, ratio(float64(h1-h0), float64(t1-t0)))
		}
	}
	return ratios, acc
}

// measure boots and preloads reps times (keeping the last instance),
// warms the kept instance up, runs the measured window on it, then
// checks durability and tears down.
func measure(ctx context.Context, sp *spec, seed int64, seconds float64, reps int, tr *tracer, outDir string) (*measurement, error) {
	p := sp.generate(seed, int(sp.maxRate*seconds)+1)
	m := &measurement{slow: pickSlow(sp)}
	var in *instance
	for rep := 0; rep < reps; rep++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		dir := filepath.Join(outDir, fmt.Sprintf("run-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if in, err = setup(ctx, sp, p, seed, m.slow, tr, dir); err != nil {
			return nil, err
		}
		m.boot = append(m.boot, time.Since(start).Seconds())
	}
	start := time.Now()
	m.warmRatios, m.warmAcc = warmUp(ctx, sp, p, in.r)
	m.warmS = time.Since(start).Seconds()
	if err := m.window(ctx, in, p, seconds, tr); err != nil {
		_ = in.close()
		return nil, err
	}
	if err := m.checkDurability(ctx, sp, p, in); err != nil {
		_ = in.close()
		return nil, err
	}
	if err := in.close(); err != nil {
		return nil, err
	}
	m.peakRSS = peakRSS()
	return m, nil
}

// setupS is boot + preload (the median over repetitions) + warm-up.
func (m *measurement) setupS() float64 { return median(m.boot) + m.warmS }

// window runs the measured closed loop and captures every layer source
// before and after it.
func (m *measurement) window(ctx context.Context, in *instance, p *plan, seconds float64, tr *tracer) error {
	cl := in.c.client
	m.regBefore = in.c.reg.Snapshot()
	m.planBefore, m.cacheBefore = cl.PlannerStats(), cl.CacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, used0 := cpuClasses()
	var prof bytes.Buffer
	var wire0 int64
	if tr != nil {
		wire0 = tr.wireBytes.Load()
		tr.enabled.Store(true)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
	}

	var next atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		m.subs = sample(stop, &in.r.completed)
	}()
	res, exhausted := in.r.loop(ctx, clients, p.seq, &next, 0, start.Add(time.Duration(seconds*float64(time.Second))), p.wrap)
	m.elapsed = time.Since(start)
	m.cpu = cpuTime() - cpu0
	close(stop)
	sampler.Wait()
	m.res = res

	if tr != nil {
		pprof.StopCPUProfile()
		tr.enabled.Store(false)
		m.profile = prof.Bytes()
		m.wireBytes = tr.wireBytes.Load() - wire0
		m.spans = tr.snapshot()
	}
	gc1, used1 := cpuClasses()
	m.gcCPU, m.usedCPU = gc1-gc0, used1-used0
	runtime.ReadMemStats(&ms1)
	m.mallocs, m.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	pending, err := goroutinesIn("placement.(*Planner).solveAndInstall")
	if err != nil {
		return err
	}
	m.exactPending = pending
	m.regAfter = in.c.reg.Snapshot()
	m.planAfter, m.cacheAfter = cl.PlannerStats(), cl.CacheStats()
	if exhausted {
		return fmt.Errorf("measured sequence of %d operations ran out; raise the workload's maxRate", len(p.seq))
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	stored, err := in.c.storedBytes()
	if err != nil {
		return err
	}
	m.stored = stored
	for _, b := range m.liveBlocks(in, p) {
		m.liveUser += int64(len(b.data))
	}
	return nil
}

func (m *measurement) liveBlocks(in *instance, p *plan) []*block {
	if in.r.live != nil {
		return in.r.live.blocks()
	}
	return p.preload
}

// checkDurability restarts the catalog from its WAL and checks that
// every acknowledged live block is present at the version it had before
// the restart and that no acknowledged delete came back. For the write
// workload every live block is also read back byte-exact through a
// fresh client.
func (m *measurement) checkDurability(ctx context.Context, sp *spec, p *plan, in *instance) error {
	live := m.liveBlocks(in, p)
	acked := make(map[model.BlockID]uint64, len(live))
	for _, b := range live {
		meta, ok := in.c.catalog.BlockMeta(b.id)
		if !ok {
			m.res.acc.Missing++
			continue
		}
		acked[b.id] = meta.Version
	}
	rec, err := in.c.reopenCatalog()
	if err != nil {
		return err
	}
	m.recover = rec
	for id, v := range acked {
		meta, ok := in.c.catalog.BlockMeta(id)
		if !ok || meta.Version != v {
			m.res.acc.Missing++
		}
	}
	m.checked = len(live)
	if in.r.live == nil {
		return nil
	}
	in.r.live.mu.Lock()
	deleted := append([]model.BlockID(nil), in.r.live.deleted...)
	in.r.live.mu.Unlock()
	for _, id := range deleted {
		if _, ok := in.c.catalog.BlockMeta(id); ok {
			m.res.acc.Missing++
		}
	}
	m.checked += len(deleted)

	fresh, err := in.c.newClient(withSeed(sp.client, 0), nil)
	if err != nil {
		return err
	}
	defer fresh.Close()
	for _, b := range live {
		got, _, err := fresh.GetMultiContext(ctx, []model.BlockID{b.id})
		switch {
		case err != nil:
			m.res.acc.Missing++
		case len(got[b.id]) != len(b.data) || checksum(got[b.id]) != b.crc:
			m.res.acc.Mismatched++
		}
	}
	return ctx.Err()
}
