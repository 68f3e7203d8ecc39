// Package gengar is an RDMA-based distributed shared hybrid memory
// (DSHM) pool: servers contribute byte-addressable NVM and DRAM into one
// global memory space that clients program with a handful of calls —
// Malloc/Free, Read/Write and reader-writer locks over 64-bit global
// addresses.
//
// It is a from-scratch reproduction of "Gengar: An RDMA-based Distributed
// Hybrid Memory Pool" (Duan et al., ICDCS 2021). Gengar's three ideas are
// all here:
//
//   - hot-data identification from RDMA verb semantics: clients record
//     the type/address/length of their one-sided verbs and report compact
//     digests; home servers sketch the global access stream and promote
//     frequently-read objects into distributed DRAM buffers, where a
//     single one-sided READ serves them at DRAM latency;
//   - a proxied write path: writes land in a per-client DRAM staging ring
//     at the server and are acknowledged at DRAM speed, while a flusher
//     applies them to NVM (and to any promoted copy) in the background;
//   - multi-user sharing with consistency: one-sided CAS reader/writer
//     locks plus per-object versions, with a writer's staged updates
//     drained before its lock release.
//
// Hardware is simulated: an RDMA verbs simulator and Optane-profile
// memory models stand in for the paper's testbed (see DESIGN.md), so the
// whole system runs deterministically in one process. Real bytes move on
// every operation; simulated nanoseconds are charged for every device and
// network cost.
//
// # Quick start
//
//	pool, err := gengar.Open(gengar.DefaultConfig())
//	if err != nil { ... }
//	defer pool.Close()
//
//	c, err := pool.NewClient("app")
//	if err != nil { ... }
//	defer c.Close()
//
//	addr, _ := c.Malloc(4096)
//	_ = c.Write(addr, []byte("hello, hybrid memory"))
//	buf := make([]byte, 20)
//	_ = c.Read(addr, buf)
package gengar

import (
	"gengar/internal/config"
	"gengar/internal/core"
	"gengar/internal/region"
	"gengar/internal/server"
	"gengar/internal/telemetry"
)

// Config describes a pool deployment: cluster shape, device and network
// timing models, hotness epoching, proxy geometry and feature switches.
// Start from DefaultConfig and override fields.
type Config = config.Cluster

// Features toggles Gengar's two mechanisms (DRAM caching of hot data,
// proxied writes) — the knobs behind the ablation baselines.
type Features = config.Features

// GAddr is a 64-bit global address: home server in the high 16 bits,
// pool offset in the low 48.
type GAddr = region.GAddr

// NilGAddr is the zero, invalid global address.
const NilGAddr = region.NilGAddr

// Client is one user of the pool. A Client models a single application
// thread with its own simulated clock; create one per concurrent actor.
type Client = core.Client

// ClientStats snapshots a client's operation counts, cache hit rate and
// simulated latency distributions.
type ClientStats = core.Stats

// ServerStats snapshots one memory server's pool usage, promotion
// activity and proxy flusher state.
type ServerStats = server.Stats

// DefaultConfig returns the full-Gengar deployment used throughout the
// evaluation: 4 servers, Optane-profile NVM pools, DRAM buffers, and
// both mechanisms enabled.
func DefaultConfig() Config { return config.Default() }

// NVMDirectConfig returns the state-of-the-art DSHM comparator: the same
// substrate with remote NVM exposed directly over one-sided verbs — no
// DRAM caching, no write proxy.
func NVMDirectConfig() Config { return config.NVMDirect() }

// DRAMPoolConfig returns the DRAM-only pool baseline: the latency upper
// bound a hybrid design chases, at a capacity real deployments cannot
// afford.
func DRAMPoolConfig() Config { return config.DRAMPool() }

// Pool is a running deployment: the fabric plus cfg.Servers memory
// servers, meshed and serving.
type Pool struct {
	cluster *server.Cluster
}

// Open validates cfg, builds the fabric and servers, and starts their
// proxy flushers. Close the pool to stop them.
func Open(cfg Config) (*Pool, error) {
	c, err := server.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Pool{cluster: c}, nil
}

// NewClient joins the pool as a new user, opening sessions with every
// server.
func (p *Pool) NewClient(name string) (*Client, error) {
	return core.Connect(p.cluster, name)
}

// Servers returns the number of memory servers in the pool.
func (p *Pool) Servers() int { return len(p.cluster.Registry().Servers()) }

// ServerStats returns a snapshot per server, in server-ID order.
func (p *Pool) ServerStats() []ServerStats {
	servers := p.cluster.Registry().Servers()
	out := make([]ServerStats, 0, len(servers))
	for _, s := range servers {
		out = append(out, s.Stats())
	}
	return out
}

// Settle blocks until every server's flusher has drained all records and
// promotion plans submitted so far — a quiescence point for tests and
// benchmark harnesses.
func (p *Pool) Settle() error {
	for _, s := range p.cluster.Registry().Servers() {
		if err := s.Engine().Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// Telemetry returns the pool's metrics registry: every component —
// fabric verb mix, server promotion activity, proxy flushers, per-client
// op counters and latency histograms — registers its live instruments
// here. Snapshot it for a point-in-time view, or serve it over HTTP with
// telemetry.Handler.
func (p *Pool) Telemetry() *telemetry.Registry { return p.cluster.Telemetry() }

// Cluster exposes the underlying cluster for the in-repo benchmark
// harness; applications should not need it.
func (p *Pool) Cluster() *server.Cluster { return p.cluster }

// Close stops every server.
func (p *Pool) Close() { p.cluster.Close() }
