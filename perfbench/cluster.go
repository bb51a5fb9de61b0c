package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/faults"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

// clusterConfig describes one in-process EC-Store deployment wired the
// way the cmd/ daemons wire it: a WAL-backed catalog behind the metadata
// RPC server, MemStore-backed storage services behind storage RPC
// servers, and one core.Client reaching all of them over TCP loopback.
type clusterConfig struct {
	WALDir string
	Client core.Config
	// ReadDelayFixed and ReadDelayPerByte emulate each site's medium.
	ReadDelayFixed   time.Duration
	ReadDelayPerByte time.Duration
	// Slow maps sites to a latency plan injected on the client's path
	// to them (faults.Site), seeded by FaultSeed.
	Slow      map[model.SiteID]faults.Plan
	FaultSeed int64
	// Tracer, when set, wraps every interface handed to the program.
	Tracer *tracer
}

// walOptions is ecstore-meta's default WAL policy: default partition
// count, an fsync before every mutation returns, 8 MiB compaction.
var walOptions = metadata.WALOptions{}

type server struct {
	srv  *rpc.Server
	l    net.Listener
	addr string
	done chan struct{}
}

type cluster struct {
	cfg      clusterConfig
	reg      *obs.Registry
	net      transport.Network
	siteIDs  []model.SiteID
	catalog  *metadata.Catalog
	meta     *server
	services map[model.SiteID]*storage.Service
	sites    map[model.SiteID]*server
	conns    []*rpc.Client
	client   *core.Client
}

// serve starts an RPC server for h on a fresh loopback port.
func (c *cluster) serve(h rpc.Handler, site model.SiteID) (*server, error) {
	if c.cfg.Tracer != nil {
		h = tracedHandler{inner: h, site: site, t: c.cfg.Tracer}
	}
	l, err := c.net.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: rpc.NewServer(h), l: l, addr: l.Addr().String(), done: make(chan struct{})}
	s.srv.SetMetrics(rpc.NewMetrics(c.reg, "rpc_server"))
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l)
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	_ = s.l.Close() // in case Close ran before Serve registered the listener
	<-s.done
}

func (c *cluster) dial(addr string) (*rpc.Client, error) {
	conn, err := c.net.Dial(addr)
	if err != nil {
		return nil, err
	}
	rc := rpc.NewClient(conn)
	c.conns = append(c.conns, rc)
	return rc, nil
}

// bootCluster starts the servers, opens the catalog and connects the
// client. The caller owns the result and must close it.
func bootCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		services: make(map[model.SiteID]*storage.Service),
		sites:    make(map[model.SiteID]*server),
	}
	c.net = &transport.TCP{Metrics: transport.NewMetrics(c.reg)}
	if cfg.Tracer != nil {
		c.net = countingNet{Network: c.net, t: cfg.Tracer}
	}
	for i := 1; i <= numSites; i++ {
		c.siteIDs = append(c.siteIDs, model.SiteID(i))
	}
	if err := c.openCatalog(); err != nil {
		return nil, err
	}
	for _, id := range c.siteIDs {
		svc := storage.NewService(storage.ServiceConfig{
			Site:             id,
			ReadDelayFixed:   cfg.ReadDelayFixed,
			ReadDelayPerByte: cfg.ReadDelayPerByte,
			Metrics:          c.reg,
		}, storage.NewMemStore())
		c.services[id] = svc
		s, err := c.serve(storage.NewRPCServer(svc), id)
		if err != nil {
			_ = c.close()
			return nil, err
		}
		c.sites[id] = s
	}
	client, err := c.newClient(cfg.Client, c.reg)
	if err != nil {
		_ = c.close()
		return nil, err
	}
	c.client = client
	return c, nil
}

// openCatalog opens the WAL directory and serves it.
func (c *cluster) openCatalog() error {
	catalog, err := metadata.Open(c.cfg.WALDir, c.siteIDs, walOptions)
	if err != nil {
		return fmt.Errorf("open catalog: %w", err)
	}
	catalog.EnableMetrics(c.reg)
	c.catalog = catalog
	s, err := c.serve(metadata.NewServer(catalog), 0)
	if err != nil {
		_ = catalog.Close()
		c.catalog = nil
		return err
	}
	c.meta = s
	return nil
}

// newClient connects a client to the current metadata server and every
// site over fresh connections.
func (c *cluster) newClient(cfg core.Config, reg *obs.Registry) (*core.Client, error) {
	rc, err := c.dial(c.meta.addr)
	if err != nil {
		return nil, fmt.Errorf("connect metadata: %w", err)
	}
	var meta metadata.Service = metadata.NewClient(rc)
	if c.cfg.Tracer != nil {
		meta = tracedMeta{Service: meta, t: c.cfg.Tracer}
	}
	inj := faults.NewInjector(c.cfg.FaultSeed)
	sites := make(map[model.SiteID]storage.SiteAPI, len(c.sites))
	for _, id := range c.siteIDs {
		rc, err := c.dial(c.sites[id].addr)
		if err != nil {
			return nil, fmt.Errorf("connect site %d: %w", id, err)
		}
		var api storage.SiteAPI = storage.NewRPCClient(rc)
		if plan, ok := c.cfg.Slow[id]; ok {
			fs := faults.NewSite(api, inj)
			fs.Set(plan)
			api = fs
		}
		if c.cfg.Tracer != nil {
			api = tracedSite{inner: api, site: id, t: c.cfg.Tracer}
		}
		sites[id] = api
	}
	return core.NewClient(cfg, core.Deps{Meta: meta, Sites: sites, Metrics: reg})
}

// reopenCatalog closes the catalog and recovers it from its WAL
// directory, as a restarted ecstore-meta would, returning how long the
// recovery took. Clients connected before it lose their metadata
// connection.
func (c *cluster) reopenCatalog() (time.Duration, error) {
	c.meta.close()
	c.meta = nil
	err := c.catalog.Close()
	c.catalog = nil
	if err != nil {
		return 0, fmt.Errorf("close catalog: %w", err)
	}
	start := time.Now()
	if err := c.openCatalog(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// storedBytes sums the bytes every site's store holds.
func (c *cluster) storedBytes() (int64, error) {
	var total int64
	for _, id := range c.siteIDs {
		n, err := c.services[id].StoredBytes()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// probe refreshes the client's per-site cost estimates.
func (c *cluster) probe(ctx context.Context, rounds int) {
	for i := 0; i < rounds; i++ {
		c.client.ProbeAllContext(ctx)
	}
}

// close stops everything bootCluster started and waits for it.
func (c *cluster) close() error {
	if c.client != nil {
		c.client.Close()
	}
	for _, rc := range c.conns {
		_ = rc.Close()
	}
	if c.meta != nil {
		c.meta.close()
	}
	for _, s := range c.sites {
		s.close()
	}
	if c.catalog != nil {
		if err := c.catalog.Close(); err != nil {
			return fmt.Errorf("close catalog: %w", err)
		}
	}
	return nil
}
