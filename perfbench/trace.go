package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// The traced run measures layers from outside the program: it wraps the
// interfaces the benchmark itself hands to the program (the client's
// metadata.Service and storage.SiteAPI, each server's rpc.Handler, the
// transport.Network every connection is dialled through) and records one
// span per call. Nothing inside the program is edited.

// span is one timed call. Op is the benchmark operation it belongs to
// and Parent the span that caused it (0 for an operation's root span).
type span struct {
	ID, Parent, Op uint64
	Name           string
	Site           model.SiteID
	Start, End     time.Time
}

// opRef identifies the operation a call belongs to: its id and the id
// of its root span.
type opRef struct{ op, span uint64 }

type opCtxKey struct{}

// callKey matches a server-side handler invocation to the client call
// that sent it: the same site, method and request target are in flight
// on both sides of the connection.
type callKey struct {
	site   model.SiteID
	method string
	block  model.BlockID
	chunk  int
	off    int64
}

// tracer keeps every span in memory until the run ends. Spans are
// recorded only while enabled, so boot, preload and warm-up traffic
// passing through the wrappers is not part of the measured window.
type tracer struct {
	enabled atomic.Bool
	nextID  atomic.Uint64
	// Bytes read at either end of every connection.
	wireBytes atomic.Int64

	mu    sync.Mutex
	spans []span

	gmu  sync.Mutex
	goOp map[uint64]opRef // goroutine id -> operation it is running

	imu      sync.Mutex
	inflight map[callKey][]uint64
}

func newTracer() *tracer {
	return &tracer{goOp: make(map[uint64]opRef), inflight: make(map[callKey][]uint64)}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 42 [running]:"). Metadata calls carry no context, but the
// client makes them on the goroutine that called it, so the id ties them
// to the operation that goroutine is running.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// beginOp opens an operation's root span and returns the context the
// operation must run under; finish records the span.
func (t *tracer) beginOp(ctx context.Context, op uint64) (context.Context, func(name string)) {
	if t == nil || !t.enabled.Load() {
		return ctx, func(string) {}
	}
	ref := opRef{op: op, span: t.nextID.Add(1)}
	g := goid()
	t.gmu.Lock()
	t.goOp[g] = ref
	t.gmu.Unlock()
	start := time.Now()
	return context.WithValue(ctx, opCtxKey{}, ref), func(name string) {
		end := time.Now()
		t.gmu.Lock()
		delete(t.goOp, g)
		t.gmu.Unlock()
		t.record(span{ID: ref.span, Op: ref.op, Name: name, Start: start, End: end})
	}
}

// ctxOp is the operation a context was issued for (zero outside one).
func ctxOp(ctx context.Context) opRef {
	ref, _ := ctx.Value(opCtxKey{}).(opRef)
	return ref
}

// goroutineOp is the operation the calling goroutine is running.
func (t *tracer) goroutineOp() opRef {
	g := goid()
	t.gmu.Lock()
	defer t.gmu.Unlock()
	return t.goOp[g]
}

// clientCall times one client-side call of the operation op reports and
// registers it as in flight so the server span it causes can name it as
// parent.
func (t *tracer) clientCall(name string, key callKey, op func() opRef, fn func()) {
	if !t.enabled.Load() {
		fn()
		return
	}
	ref := op()
	id := t.nextID.Add(1)
	t.imu.Lock()
	t.inflight[key] = append(t.inflight[key], id)
	t.imu.Unlock()
	start := time.Now()
	fn()
	end := time.Now()
	t.imu.Lock()
	ids := t.inflight[key]
	for i, v := range ids {
		if v == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(t.inflight, key)
	} else {
		t.inflight[key] = ids
	}
	t.imu.Unlock()
	t.record(span{ID: id, Parent: ref.span, Op: ref.op, Name: name, Site: key.site, Start: start, End: end})
}

// serverCall times one handler invocation, parenting it to the oldest
// in-flight client call with the same key.
func (t *tracer) serverCall(name string, key callKey, fn func()) {
	if !t.enabled.Load() {
		fn()
		return
	}
	var parent uint64
	t.imu.Lock()
	if ids := t.inflight[key]; len(ids) > 0 {
		parent = ids[0]
	}
	t.imu.Unlock()
	start := time.Now()
	fn()
	end := time.Now()
	t.record(span{ID: t.nextID.Add(1), Parent: parent, Name: name, Site: key.site, Start: start, End: end})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// parentOps fills in the operation id of server spans from their parent
// client span (the server side cannot see it).
func parentOps(spans []span) {
	opOf := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		opOf[s.ID] = s.Op
	}
	for i := range spans {
		if spans[i].Op == 0 && spans[i].Parent != 0 {
			spans[i].Op = opOf[spans[i].Parent]
		}
	}
}

// writeSpans writes the spans as gzipped tab-separated rows, times in
// nanoseconds since the earliest span start.
func writeSpans(path string, spans []span) error {
	var base time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(base) {
			base = s.Start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\top\tname\tsite\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Op, s.Name, s.Site,
			s.Start.Sub(base).Nanoseconds(), s.End.Sub(base).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// tracedMeta wraps the client's metadata.Service.
type tracedMeta struct {
	metadata.Service
	t *tracer
}

func metaKey(method string, id model.BlockID) callKey {
	return callKey{method: method, block: id}
}

func (m tracedMeta) Register(meta *model.BlockMeta) (err error) {
	m.t.clientCall("meta.Register", metaKey("Register", meta.ID), m.t.goroutineOp, func() { err = m.Service.Register(meta) })
	return err
}

func (m tracedMeta) Lookup(ids []model.BlockID) (out map[model.BlockID]*model.BlockMeta, err error) {
	var first model.BlockID
	if len(ids) > 0 {
		first = ids[0]
	}
	m.t.clientCall("meta.Lookup", metaKey("Lookup", first), m.t.goroutineOp, func() { out, err = m.Service.Lookup(ids) })
	return out, err
}

func (m tracedMeta) Delete(id model.BlockID) (out *model.BlockMeta, err error) {
	m.t.clientCall("meta.Delete", metaKey("Delete", id), m.t.goroutineOp, func() { out, err = m.Service.Delete(id) })
	return out, err
}

// tracedSite wraps the client's storage.SiteAPI for one site.
type tracedSite struct {
	inner storage.SiteAPI
	site  model.SiteID
	t     *tracer
}

// call times one SiteAPI call of the operation its context carries.
func (s tracedSite) call(ctx context.Context, method string, ref model.ChunkRef, off int64, fn func()) {
	key := callKey{site: s.site, method: method, block: ref.Block, chunk: ref.Chunk, off: off}
	s.t.clientCall("site."+method, key, func() opRef { return ctxOp(ctx) }, fn)
}

func (s tracedSite) PutChunk(ctx context.Context, ref model.ChunkRef, data []byte) (err error) {
	s.call(ctx, "PutChunk", ref, 0, func() { err = s.inner.PutChunk(ctx, ref, data) })
	return err
}

func (s tracedSite) GetChunk(ctx context.Context, ref model.ChunkRef) (out []byte, err error) {
	s.call(ctx, "GetChunk", ref, 0, func() { out, err = s.inner.GetChunk(ctx, ref) })
	return out, err
}

func (s tracedSite) GetChunkRange(ctx context.Context, ref model.ChunkRef, off, n int64) (out []byte, err error) {
	s.call(ctx, "GetChunkRange", ref, off, func() { out, err = s.inner.GetChunkRange(ctx, ref, off, n) })
	return out, err
}

func (s tracedSite) PutChunkStream(ctx context.Context, ref model.ChunkRef, off int64, data []byte) (err error) {
	s.call(ctx, "PutChunkStream", ref, off, func() { err = s.inner.PutChunkStream(ctx, ref, off, data) })
	return err
}

func (s tracedSite) DeleteChunk(ctx context.Context, ref model.ChunkRef) (err error) {
	s.call(ctx, "DeleteChunk", ref, 0, func() { err = s.inner.DeleteChunk(ctx, ref) })
	return err
}

func (s tracedSite) DeleteBlock(ctx context.Context, id model.BlockID) (err error) {
	s.call(ctx, "DeleteBlock", model.ChunkRef{Block: id}, 0, func() { err = s.inner.DeleteBlock(ctx, id) })
	return err
}

func (s tracedSite) ListChunks(ctx context.Context) ([]model.ChunkRef, error) {
	return s.inner.ListChunks(ctx)
}

func (s tracedSite) VerifyChunk(ctx context.Context, ref model.ChunkRef) (storage.ChunkCheck, error) {
	return s.inner.VerifyChunk(ctx, ref)
}

func (s tracedSite) Probe(ctx context.Context) error { return s.inner.Probe(ctx) }

func (s tracedSite) LoadReport(ctx context.Context) (stats.SiteLoad, error) {
	return s.inner.LoadReport(ctx)
}

// RPC method numbers are part of the wire protocol (appended, never
// reordered), so naming them here is stable.
var (
	storageMethods = []string{1: "PutChunk", "GetChunk", "DeleteChunk", "DeleteBlock", "ListChunks",
		"Probe", "LoadReport", "GetMetrics", "GetChunkRange", "PutChunkStream", "VerifyChunk"}
	metaMethods = []string{1: "Register", "Lookup", "Delete", "UpdatePlacement", "BlocksOnSite",
		"Sites", "GetMetrics", "PutTask", "ListTasks", "DeleteTask", "SetSiteInfo", "SiteInfos"}
)

func methodName(names []string, m rpc.Method) string {
	if int(m) < len(names) && names[m] != "" {
		return names[m]
	}
	return fmt.Sprintf("method%d", m)
}

// tracedHandler wraps one server's rpc.Handler. site 0 is the metadata
// server.
type tracedHandler struct {
	inner rpc.Handler
	site  model.SiteID
	t     *tracer
}

func (h tracedHandler) Handle(ctx context.Context, method rpc.Method, body []byte) (out []byte, err error) {
	var name string
	var key callKey
	if h.site == 0 {
		name = methodName(metaMethods, method)
		key = metaKey(name, metaTarget(name, body))
		name = "server.meta." + name
	} else {
		name = methodName(storageMethods, method)
		key = siteTarget(h.site, name, body)
		name = "server.site." + name
	}
	h.t.serverCall(name, key, func() { out, err = h.inner.Handle(ctx, method, body) })
	return out, err
}

// metaTarget decodes the first block id a metadata request names.
func metaTarget(method string, body []byte) model.BlockID {
	d := wire.NewDecoder(body)
	switch method {
	case "Lookup":
		if d.Uint32() == 0 {
			return ""
		}
		return model.BlockID(d.String())
	case "Register":
		meta, err := metadata.DecodeBlockMeta(d)
		if err != nil {
			return ""
		}
		return meta.ID
	case "Delete":
		return model.BlockID(d.String())
	}
	return ""
}

// siteTarget decodes the chunk (and offset) a storage request names.
func siteTarget(site model.SiteID, method string, body []byte) callKey {
	d := wire.NewDecoder(body)
	key := callKey{site: site, method: method}
	switch method {
	case "DeleteBlock":
		key.block = model.BlockID(d.String())
	case "PutChunk", "GetChunk", "DeleteChunk", "GetChunkRange", "PutChunkStream":
		key.block = model.BlockID(d.String())
		key.chunk = int(d.Uint32())
		if method == "GetChunkRange" || method == "PutChunkStream" {
			key.off = int64(d.Uint64())
		}
	}
	return key
}

// countingNet wraps the transport.Network so every connection, dialled
// or accepted, counts the bytes read at its end: each byte one side
// writes is read once by the other, so the sum is every byte
// transferred.
type countingNet struct {
	transport.Network
	t *tracer
}

func (n countingNet) Listen(addr string) (net.Listener, error) {
	l, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: l, t: n.t}, nil
}

func (n countingNet) Dial(addr string) (net.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.t.count(c), nil
}

func (n countingNet) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	c, err := n.Network.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return n.t.count(c), nil
}

type countingListener struct {
	net.Listener
	t *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.count(c), nil
}

// countingConn overrides only Read. Embedding the *net.TCPConn keeps its
// vectored-write support, so wrapped connections send frames exactly as
// unwrapped ones do.
type countingConn struct {
	*net.TCPConn
	t *tracer
}

func (t *tracer) count(c net.Conn) net.Conn {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	return countingConn{TCPConn: tc, t: t}
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	c.t.wireBytes.Add(int64(n))
	return n, err
}
