package server

import (
	"sync/atomic"

	"gengar/internal/config"
	"gengar/internal/rdma"
	"gengar/internal/telemetry"
	"gengar/internal/telemetry/span"
)

// Cluster owns a fabric and a set of meshed Gengar servers — the
// in-process stand-in for the paper's testbed rack. It also owns the
// deployment's telemetry: a metrics registry every component registers
// into and an op tracer. Both are per-cluster so concurrent clusters
// (e.g. parallel benchmark runs) never mix samples.
type Cluster struct {
	fabric     *rdma.Fabric
	cfg        config.Cluster
	registry   *Registry
	telem      *telemetry.Registry
	tracer     *span.Tracer
	nextClient atomic.Uint32
}

// NewCluster builds cfg.Servers servers (IDs 1..N), joins them to a
// placement registry and meshes them. Callers must Close the cluster to
// stop the per-server flushers.
func NewCluster(cfg config.Cluster) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fabric, err := rdma.NewFabric(cfg.Network)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		fabric:   fabric,
		cfg:      cfg,
		registry: NewRegistry(),
		telem:    telemetry.NewRegistry(),
	}
	fabric.RegisterTelemetry(c.telem)
	// The sim mount runs client and servers in one process, so one
	// tracer spans the whole path. Sampling starts disabled (the
	// zero-allocation default); harness code opts in per run via
	// Tracer().SetSampleEvery. Stage instants come from the virtual
	// timeline — ops mark spans with explicit simnet instants — so the
	// clock here only stamps the rare wall-path fallbacks.
	c.tracer = span.NewTracer(span.Config{
		Side:     "sim",
		Clock:    func() int64 { return int64(fabric.Clock().Now()) },
		Registry: c.telem,
		Labels:   []telemetry.Label{telemetry.L("transport", "sim")},
	})
	for i := 1; i <= cfg.Servers; i++ {
		s, err := New(fabric, uint16(i), cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := c.registry.Join(s); err != nil {
			s.Close()
			c.Close()
			return nil, err
		}
		s.RegisterTelemetry(c.telem)
		// Staged writes ack before their NVM apply, so the flusher's
		// persist latency is observed from the flush worker rather than
		// marked on the (already finished) op span.
		s.Engine().SetFlushObserver(func(lagNanos int64) {
			c.tracer.ObserveStage("write", span.StageFlushPersist, lagNanos)
		})
	}
	if err := c.registry.ConnectMesh(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Fabric returns the cluster's RDMA fabric.
func (c *Cluster) Fabric() *rdma.Fabric { return c.fabric }

// Registry returns the placement registry (and through it the servers).
func (c *Cluster) Registry() *Registry { return c.registry }

// Telemetry returns the cluster-wide metrics registry.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.telem }

// Tracer returns the cluster-wide op tracer. Sampling is disabled until
// a caller raises it with SetSampleEvery.
func (c *Cluster) Tracer() *span.Tracer { return c.tracer }

// Config returns the cluster configuration.
func (c *Cluster) Config() config.Cluster { return c.cfg }

// NextClientID hands out fabric-unique nonzero client IDs.
func (c *Cluster) NextClientID() uint32 { return c.nextClient.Add(1) }

// Close stops every server.
func (c *Cluster) Close() {
	for _, s := range c.registry.Servers() {
		s.Close()
	}
}
