// Command gengard is a Gengar pool daemon for the real-network
// deployment mode: it exports a share of this machine's memory as the
// home of one server ID in the global address space, serving allocation,
// data access and leased locks over TCP (see internal/tcpnet).
//
// A three-server pool on one machine:
//
//	gengard -id 1 -listen :7001 &
//	gengard -id 2 -listen :7002 &
//	gengard -id 3 -listen :7003 &
//	gengar-cli -servers localhost:7001,localhost:7002,localhost:7003 demo
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gengar/internal/tcpnet"
	"gengar/internal/telemetry"
	"gengar/internal/telemetry/span"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gengard: %v\n", err)
		os.Exit(1)
	}
}

// maxDigestEvery bounds -digest-every: each session stages that many
// 16-byte observations between digests, so a larger interval only grows
// per-connection memory while the planner hears nothing.
const maxDigestEvery = 1 << 20

func run() error {
	var (
		id          = flag.Uint("id", 1, "server ID (nonzero; high 16 bits of homed addresses)")
		listen      = flag.String("listen", ":7001", "TCP listen address")
		poolBytes   = flag.Int64("pool-bytes", 256<<20, "exported pool capacity (power of two)")
		cacheBytes  = flag.Int64("cache-bytes", 8<<20, "DRAM cache arena for promoted hot objects (power of two)")
		ringBytes   = flag.Int64("ring-bytes", 8<<20, "staging-ring arena backing proxied writes (power of two)")
		digestEvery = flag.Int("digest-every", 64, "data accesses folded into one server-side hotness digest")
		noCache     = flag.Bool("no-cache", false, "disable hotness tracking and DRAM cache promotion")
		peers       = flag.String("peers", "", "comma-separated addresses of peer gengard daemons; joins the distributed DRAM cache (spill hot copies into peers' arenas under pressure)")
		noProxy     = flag.Bool("no-proxy", false, "disable staged writes (writes go straight to the pool)")
		lease       = flag.Duration("lease", 5*time.Second, "default and longest lock lease (a longer client request is clamped to it)")
		lockWait    = flag.Duration("lock-wait", 2*time.Second, "lock acquire timeout")
		dataFile    = flag.String("data", "", "snapshot file: restored on start if present, written on shutdown")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/trace on this address (empty disables)")
		traceSample = flag.Int("trace-sample", 64, "trace one in N server-initiated ops (0 disables local sampling; client-sampled ops are always traced)")
		traceSlow   = flag.Duration("trace-slow", time.Millisecond, "retain traced ops at least this slow in the /debug/trace ring (0 retains all)")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof on the debug address")
	)
	flag.Parse()
	if *digestEvery <= 0 || *digestEvery > maxDigestEvery {
		return fmt.Errorf("-digest-every %d: want 1..%d", *digestEvery, maxDigestEvery)
	}

	srv, err := tcpnet.NewPoolServer(tcpnet.ServerConfig{
		ID:             uint16(*id),
		PoolBytes:      *poolBytes,
		CacheBytes:     *cacheBytes,
		RingBytes:      *ringBytes,
		DigestEvery:    *digestEvery,
		NoCache:        *noCache,
		NoProxy:        *noProxy,
		Peers:          splitPeers(*peers),
		DefaultLease:   *lease,
		AcquireTimeout: *lockWait,
		TraceSample:    *traceSample,
		TraceSlow:      *traceSlow,
	})
	if err != nil {
		return err
	}
	if *dataFile != "" {
		switch err := srv.RestoreSnapshot(*dataFile); {
		case err == nil:
			log.Printf("gengard: restored pool from %s", *dataFile)
		case os.IsNotExist(err):
			log.Printf("gengard: no snapshot at %s; starting empty", *dataFile)
		default:
			return fmt.Errorf("restore %s: %w", *dataFile, err)
		}
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Printf("gengard: server %d exporting %d MiB on %s", *id, *poolBytes>>20, lis.Addr())

	if *debugAddr != "" {
		dlis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Printf("gengard: debug endpoints on http://%s/{metrics,metrics.json,healthz,debug/trace}", dlis.Addr())
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.Handler(srv.Telemetry()))
		mux.Handle("/debug/trace", span.Handler(srv.Tracer()))
		if *pprofOn {
			// Off by default: profiling endpoints expose internals and
			// cost CPU when scraped, so they are an explicit opt-in.
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("gengard: pprof on http://%s/debug/pprof/", dlis.Addr())
		}
		go func() {
			if err := http.Serve(dlis, mux); err != nil {
				log.Printf("gengard: debug server: %v", err)
			}
		}()
	}

	start := time.Now()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("gengard: shutting down")
		srv.Close()
	}()
	if err := srv.Serve(lis); err != nil {
		return err
	}
	logFinalStats(srv, time.Since(start))
	if *dataFile != "" {
		if err := srv.WriteSnapshot(*dataFile); err != nil {
			return fmt.Errorf("snapshot %s: %w", *dataFile, err)
		}
		log.Printf("gengard: pool snapshotted to %s", *dataFile)
	}
	return nil
}

// splitPeers parses the -peers flag: comma-separated dial addresses,
// empty entries dropped so trailing commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// logFinalStats summarizes the daemon's lifetime activity from its
// telemetry snapshot as it exits; the engine's figures are read under
// the gengar_server_* / gengar_proxy_* names it registers there.
func logFinalStats(srv *tcpnet.PoolServer, uptime time.Duration) {
	s := srv.Telemetry().Snapshot()
	log.Printf("gengard: final stats: uptime=%s ops=%d rx_bytes=%d tx_bytes=%d failures=%d objects=%d pool_used=%d",
		uptime.Round(time.Millisecond),
		s.Sum("gengar_tcp_ops_total"),
		s.Sum("gengar_tcp_rx_bytes_total"),
		s.Sum("gengar_tcp_tx_bytes_total"),
		s.Sum("gengar_tcp_failures_total"),
		s.Sum("gengar_server_objects"),
		s.Sum("gengar_server_pool_used_bytes"))
	log.Printf("gengard: engine stats: cache_hits=%d peer_hits=%d cache_misses=%d staged=%d flushed=%d promotions=%d demotions=%d promoted=%d digests=%d remap_epoch=%d",
		s.Sum("gengar_server_cache_hits_total"),
		s.Sum("gengar_server_peer_hits_total"),
		s.Sum("gengar_server_cache_misses_total"),
		s.Sum("gengar_proxy_staged_total"),
		s.Sum("gengar_proxy_flushed_total"),
		s.Sum("gengar_server_promotions_total"),
		s.Sum("gengar_server_demotions_total"),
		s.Sum("gengar_server_promoted_objects"),
		s.Sum("gengar_server_digests_total"),
		s.Sum("gengar_server_remap_epoch"))
	copies := s.Sum("gengar_server_hosted_copies")
	reads := s.Sum("gengar_server_hosted_reads_total")
	errs := s.Sum("gengar_server_peer_copy_errors_total")
	if copies+reads+errs > 0 {
		log.Printf("gengard: peer cache stats: hosted_copies=%d hosted_bytes=%d hosted_reads=%d peer_errors=%d",
			copies, s.Sum("gengar_server_hosted_bytes"), reads, errs)
	}
}
