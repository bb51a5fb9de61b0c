package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/faults"
	"ecstore/internal/model"
	"ecstore/internal/placement"
	"ecstore/internal/workload"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// opKind is one client call the workloads issue.
type opKind uint8

const (
	opRead   opKind = iota // GetMulti: a scan, or a single-block read
	opRange                // GetRange
	opPut                  // Put
	opStream               // PutReader
	opDelete               // Delete of the oldest live block
	numKinds
)

var kindNames = [numKinds]string{"GetMulti", "GetRange", "Put", "PutReader", "Delete"}

// block is one stored object and what reading it must return. data is a
// slice of the workload's random pool, so payloads cost no memory of
// their own and are never generated inside a timed loop.
type block struct {
	id   model.BlockID
	data []byte
	crc  uint32
	// stream writes it with PutReader instead of Put.
	stream bool
}

// op is one pre-generated request.
type op struct {
	kind opKind
	// ids are a read's targets (read-only workloads).
	ids []model.BlockID
	// off, n and crc describe a GetRange of ids[0].
	off, n int64
	crc    uint32
	// write is the block a Put or PutReader stores.
	write *block
	// pick selects the live block a read of the ingest mix targets.
	pick float64
}

// plan is a workload's generated input: the blocks to preload, the
// warm-up and measured request sequences, and how to use them.
type plan struct {
	preload []*block
	warm    []op
	seq     []op
	// wrap lets a read-only sequence restart when a fast run exhausts it.
	wrap bool
	// live makes reads target the current live set (ingest mix) instead
	// of fixed ids.
	live bool
	// The warm-up runs warmRounds rounds of warmOps operations: a fixed
	// count, so every run starts its window from the same point.
	warmRounds, warmOps int
}

// spec is one workload: its cluster shape and its input generator.
type spec struct {
	name   string
	client core.Config
	// Medium emulated on every site, and latency injected on the
	// client's path to slowSites of the sites.
	readDelayFixed   time.Duration
	readDelayPerByte time.Duration
	slowSites        int
	slowPlan         faults.Plan
	// maxRate sizes the measured sequence: ops/s a run is assumed never
	// to exceed (read-only sequences wrap around if one does).
	maxRate float64
	// warmMetric is the hit ratio warm-up reports per round (nil: none).
	warmMetric func(c *core.Client) (hits, total int64)
	generate   func(seed int64, ops int) *plan
}

const numSites = 8

// shapeSeed fixes what defines a workload rather than samples it: the
// popularity ranking (the Zipf scramble) and which sites are slow. The
// run's seed drives everything drawn from that shape — requests,
// payload bytes, fault jitter and client randomness — so two seeds
// resample the same workload instead of defining two different ones.
const shapeSeed = 1

var specs = map[string]*spec{
	"ycsbe-scan": {
		name: "ycsbe-scan",
		client: core.Config{
			K: 2, R: 2, Strategy: placement.StrategyCost, Delta: 1,
		},
		readDelayFixed:   500 * time.Microsecond,
		readDelayPerByte: 10 * time.Nanosecond,
		slowSites:        2,
		slowPlan:         faults.Plan{Latency: 4 * time.Millisecond, Jitter: 4 * time.Millisecond},
		maxRate:          1000,
		warmMetric: func(c *core.Client) (int64, int64) {
			s := c.PlannerStats()
			return s.Hits, s.Hits + s.Misses
		},
		generate: genScan,
	},
	"hot-range": {
		name: "hot-range",
		client: core.Config{
			K: 2, R: 2, Strategy: placement.StrategyCost, CacheBytes: 16 * mib, StripeUnit: 64 * kib,
		},
		maxRate: 8000,
		warmMetric: func(c *core.Client) (int64, int64) {
			s := c.CacheStats()
			return s.Hits, s.Hits + s.Misses
		},
		generate: genRange,
	},
	"ingest-mix": {
		name: "ingest-mix",
		client: core.Config{
			K: 2, R: 2, Strategy: placement.StrategyCost, StripeUnit: 64 * kib,
		},
		maxRate:  8000,
		generate: genIngest,
	},
}

// newPool returns size seeded random bytes.
func newPool(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// offsets hands out distinct pool offsets, so no two payloads are equal
// and a read returning another block's bytes cannot pass verification.
type offsets struct {
	rng  *rand.Rand
	span int64
	used map[int64]bool
}

func (o *offsets) next() int64 {
	for {
		off := o.rng.Int63n(o.span)
		if !o.used[off] {
			o.used[off] = true
			return off
		}
	}
}

func newBlock(id model.BlockID, pool []byte, off *offsets, size int64, stream bool) *block {
	at := off.next()
	data := pool[at : at+size : at+size]
	return &block{id: id, data: data, crc: checksum(data), stream: stream}
}

// genScan builds ycsbe-scan: 2000 x 100 KiB blocks and scrambled-Zipf
// YCSB-E scans of 1-20 blocks.
func genScan(seed int64, ops int) *plan {
	const blocks, size = 2000, 100 * kib
	rng := rand.New(rand.NewSource(seed))
	pool := newPool(rng, 8*mib)
	off := &offsets{rng: rng, span: int64(len(pool) - size), used: map[int64]bool{}}
	p := &plan{wrap: true, warmRounds: 6, warmOps: 250}
	for i := 0; i < blocks; i++ {
		p.preload = append(p.preload, newBlock(model.BlockName(i), pool, off, size, false))
	}
	y := workload.NewYCSBESeeded(blocks, 20, 0.99, shapeSeed)
	y.OnMeasureStart()
	scans := func(r *rand.Rand, n int) []op {
		out := make([]op, n)
		for i := range out {
			out[i] = op{kind: opRead, ids: y.NextRequest(r)}
		}
		return out
	}
	p.warm = scans(rand.New(rand.NewSource(seed+1)), p.warmRounds*p.warmOps)
	p.seq = scans(rand.New(rand.NewSource(seed+2)), ops)
	return p
}

// genRange builds hot-range: 128 x 1 MiB streamed objects read half
// whole, half as 16 KiB ranges, with scrambled-Zipf popularity.
func genRange(seed int64, ops int) *plan {
	const objects, size, rangeLen = 128, 1 * mib, 16 * kib
	rng := rand.New(rand.NewSource(seed))
	pool := newPool(rng, 16*mib)
	off := &offsets{rng: rng, span: int64(len(pool) - size), used: map[int64]bool{}}
	p := &plan{wrap: true, warmRounds: 3, warmOps: 2000}
	for i := 0; i < objects; i++ {
		p.preload = append(p.preload, newBlock(model.BlockID(fmt.Sprintf("obj%04d", i)), pool, off, size, true))
	}
	zipf := workload.NewZipf(objects, 0.99)
	scramble := rand.New(rand.NewSource(shapeSeed)).Perm(objects)
	reads := func(r *rand.Rand, n int) []op {
		out := make([]op, n)
		for i := range out {
			b := p.preload[scramble[zipf.Sample(r)]]
			if r.Intn(2) == 0 {
				out[i] = op{kind: opRead, ids: []model.BlockID{b.id}}
				continue
			}
			at := r.Int63n(int64(len(b.data)) - rangeLen + 1)
			out[i] = op{kind: opRange, ids: []model.BlockID{b.id}, off: at, n: rangeLen,
				crc: checksum(b.data[at : at+rangeLen])}
		}
		return out
	}
	p.warm = reads(rand.New(rand.NewSource(seed+1)), p.warmRounds*p.warmOps)
	p.seq = reads(rand.New(rand.NewSource(seed+2)), ops)
	return p
}

// genIngest builds ingest-mix: a 512-block live set (100 KiB Put and
// 1 MiB PutReader blocks, 3:1 by count) under 40% writes, 40% deletes of
// the oldest live block and 20% verified reads of a random live block.
func genIngest(seed int64, ops int) *plan {
	const liveBlocks, small, large = 512, 100 * kib, 1 * mib
	rng := rand.New(rand.NewSource(seed))
	pool := newPool(rng, 16*mib)
	off := &offsets{rng: rng, span: int64(len(pool) - large), used: map[int64]bool{}}
	p := &plan{live: true, warmRounds: 2, warmOps: 100}
	writes := 0
	write := func(prefix string, stream bool) *block {
		writes++
		size := int64(small)
		if stream {
			size = large
		}
		return newBlock(model.BlockID(fmt.Sprintf("%s%06d", prefix, writes)), pool, off, size, stream)
	}
	for len(p.preload) < liveBlocks {
		kinds := []bool{false, false, false, true}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, stream := range kinds {
			p.preload = append(p.preload, write("live", stream))
		}
	}
	// Groups of ten keep writes and deletes equal in count, so the live
	// set stays at its preloaded size.
	mix := func(prefix string, n int) []op {
		out := make([]op, 0, n+10)
		for len(out) < n {
			group := []opKind{opPut, opPut, opPut, opStream, opDelete, opDelete, opDelete, opDelete, opRead, opRead}
			rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			for _, k := range group {
				o := op{kind: k, pick: rng.Float64()}
				if k == opPut || k == opStream {
					o.write = write(prefix, k == opStream)
				}
				out = append(out, o)
			}
		}
		return out[:n]
	}
	p.warm = mix("warm", p.warmRounds*p.warmOps)
	p.seq = mix("put", ops)
	return p
}

// liveSet is the ingest mix's set of acknowledged, undeleted blocks in
// write order. Reads hold a block so a concurrent delete skips it.
type liveSet struct {
	mu      sync.Mutex
	items   []*liveItem
	deleted []model.BlockID
}

type liveItem struct {
	b       *block
	readers int
}

func (l *liveSet) add(b *block) {
	l.mu.Lock()
	l.items = append(l.items, &liveItem{b: b})
	l.mu.Unlock()
}

// popOldest removes and returns the oldest block no read holds.
func (l *liveSet) popOldest() *block {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, it := range l.items {
		if it.readers == 0 {
			l.items = append(l.items[:i], l.items[i+1:]...)
			return it.b
		}
	}
	return nil
}

func (l *liveSet) markDeleted(id model.BlockID) {
	l.mu.Lock()
	l.deleted = append(l.deleted, id)
	l.mu.Unlock()
}

// acquire holds the live block at fraction pick of the set.
func (l *liveSet) acquire(pick float64) *liveItem {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) == 0 {
		return nil
	}
	it := l.items[int(pick*float64(len(l.items)))]
	it.readers++
	return it
}

func (l *liveSet) release(it *liveItem) {
	l.mu.Lock()
	it.readers--
	l.mu.Unlock()
}

func (l *liveSet) blocks() []*block {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*block, len(l.items))
	for i, it := range l.items {
		out[i] = it.b
	}
	return out
}

// results is one worker's tally of a loop.
type results struct {
	lat                   [numKinds][]float64 // milliseconds per call
	planMs                []float64           // access-planning time per read that planned
	acc                   accounting
	userRead, userWritten int64
}

func (r *results) merge(o *results) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.planMs = append(r.planMs, o.planMs...)
	r.acc.add(o.acc)
	r.userRead += o.userRead
	r.userWritten += o.userWritten
}

// runner issues operations against one client and verifies them.
type runner struct {
	cl     *core.Client
	expect map[model.BlockID]*block
	live   *liveSet
	tr     *tracer
	// completed counts operations finished so far, for sub-window
	// sampling.
	completed atomic.Int64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do runs one operation. Only the client call is timed; choosing a live
// block and verifying bytes happen outside the latency timer.
func (r *runner) do(ctx context.Context, o *op, id uint64, res *results) {
	var item *liveItem
	var victim *block
	ids := o.ids
	switch {
	case o.kind == opRead && r.live != nil:
		if item = r.live.acquire(o.pick); item == nil {
			return
		}
		defer r.live.release(item)
		ids = []model.BlockID{item.b.id}
	case o.kind == opDelete:
		if victim = r.live.popOldest(); victim == nil {
			return
		}
	}
	res.acc.Attempted++
	octx, finish := r.tr.beginOp(ctx, id)
	var err error
	var got map[model.BlockID][]byte
	var span []byte
	var bd model.Breakdown
	start := time.Now()
	switch o.kind {
	case opRead:
		got, bd, err = r.cl.GetMultiContext(octx, ids)
	case opRange:
		span, err = r.cl.GetRange(octx, ids[0], o.off, o.n)
	case opPut:
		err = r.cl.PutContext(octx, o.write.id, o.write.data)
	case opStream:
		_, err = r.cl.PutReader(octx, o.write.id, bytes.NewReader(o.write.data))
	case opDelete:
		err = r.cl.DeleteContext(octx, victim.id)
	}
	elapsed := time.Since(start)
	finish(kindNames[o.kind])
	if err != nil {
		res.acc.Failed++
		return
	}
	res.lat[o.kind] = append(res.lat[o.kind], ms(elapsed))
	switch o.kind {
	case opRead:
		if bd.Planning > 0 {
			res.planMs = append(res.planMs, bd.Planning*1e3)
		}
		for _, bid := range ids {
			want := r.expect[bid]
			if item != nil {
				want = item.b
			}
			data := got[bid]
			res.userRead += int64(len(data))
			if len(data) != len(want.data) || checksum(data) != want.crc {
				res.acc.Mismatched++
				return
			}
		}
	case opRange:
		res.userRead += int64(len(span))
		if int64(len(span)) != o.n || checksum(span) != o.crc {
			res.acc.Mismatched++
		}
	case opPut, opStream:
		res.userWritten += int64(len(o.write.data))
		r.live.add(o.write)
	case opDelete:
		r.live.markDeleted(victim.id)
	}
}

// loop drives seq closed-loop with the given number of clients: each
// sends its next request only after the previous one returns. It stops
// at the deadline or after limit operations (whichever is set), and
// reports whether a sequence that may not wrap ran out.
func (r *runner) loop(ctx context.Context, clients int, seq []op, next *atomic.Int64, limit int64, deadline time.Time, wrap bool) (*results, bool) {
	var wg sync.WaitGroup
	per := make([]*results, clients)
	var exhausted atomic.Bool
	for w := 0; w < clients; w++ {
		res := &results{}
		per[w] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				idx := i
				if idx >= int64(len(seq)) {
					if !wrap {
						exhausted.Store(true)
						return
					}
					idx %= int64(len(seq))
				}
				r.do(ctx, &seq[idx], uint64(i+1), res)
				r.completed.Add(1)
			}
		}()
	}
	wg.Wait()
	total := &results{}
	for _, res := range per {
		total.merge(res)
	}
	return total, exhausted.Load()
}
