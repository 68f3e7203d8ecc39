// Command gengar-cli exercises a pool of gengard daemons over TCP:
// allocate, read, write, lock and benchmark from the command line.
//
// Usage:
//
//	gengar-cli -servers host:7001,host:7002 <command> [args]
//
// Commands:
//
//	stats                      print per-server usage
//	malloc <bytes>             allocate; prints the global address
//	free <gaddr>               release an allocation
//	write <gaddr> <text>       store text at an address
//	read <gaddr> <bytes>       fetch bytes; prints them as text
//	demo                       end-to-end smoke: malloc/write/read/lock/free
//	hot <gaddr> [reads]        read an address repeatedly and wait for promotion
//	bench [ops] [bytes]        closed-loop write+read latency microbench
//
// Global addresses print and parse as server:offset, e.g. 1:0x40.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gengar/internal/region"
	"gengar/internal/tcpnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gengar-cli: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		servers = flag.String("servers", "localhost:7001", "comma-separated gengard addresses")
		timeout = flag.Duration("timeout", 2*time.Second, "dial timeout")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("no command (try: stats, malloc, free, write, read, demo, hot, bench)")
	}

	pool, err := tcpnet.Dial(strings.Split(*servers, ","), *timeout)
	if err != nil {
		return err
	}
	defer pool.Close()

	switch args[0] {
	case "stats":
		return stats(pool)
	case "malloc":
		if len(args) != 2 {
			return fmt.Errorf("usage: malloc <bytes>")
		}
		size, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return err
		}
		addr, err := pool.Malloc(size)
		if err != nil {
			return err
		}
		fmt.Println(formatAddr(addr))
		return nil
	case "free":
		if len(args) != 2 {
			return fmt.Errorf("usage: free <gaddr>")
		}
		addr, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		return pool.Free(addr)
	case "write":
		if len(args) != 3 {
			return fmt.Errorf("usage: write <gaddr> <text>")
		}
		addr, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		return pool.Write(addr, []byte(args[2]))
	case "read":
		if len(args) != 3 {
			return fmt.Errorf("usage: read <gaddr> <bytes>")
		}
		addr, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		buf := make([]byte, n)
		if err := pool.Read(addr, buf); err != nil {
			return err
		}
		fmt.Printf("%s\n", buf)
		return nil
	case "demo":
		return demo(pool)
	case "hot":
		if len(args) < 2 || len(args) > 3 {
			return fmt.Errorf("usage: hot <gaddr> [reads]")
		}
		addr, err := parseAddr(args[1])
		if err != nil {
			return err
		}
		reads := uint64(1000)
		if len(args) == 3 {
			if reads, err = strconv.ParseUint(args[2], 10, 32); err != nil {
				return err
			}
		}
		return hot(pool, addr, reads)
	case "bench":
		ops, size := 1000, 1024
		if len(args) > 1 {
			if ops, err = strconv.Atoi(args[1]); err != nil {
				return err
			}
		}
		if len(args) > 2 {
			if size, err = strconv.Atoi(args[2]); err != nil {
				return err
			}
		}
		return bench(pool, ops, size)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func stats(pool *tcpnet.Pool) error {
	sts, err := pool.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %-12s %-12s %-8s %-8s %-8s %-8s %-8s %-9s %s\n",
		"server", "objects", "used_B", "capacity_B", "ops", "hits", "misses", "staged", "flushed", "promoted", "digests")
	for _, s := range sts {
		fmt.Printf("%-8d %-10d %-12d %-12d %-8d %-8d %-8d %-8d %-8d %-9d %d\n",
			s.ServerID, s.Objects, s.PoolUsed, s.PoolBytes, s.Ops,
			s.CacheHits, s.CacheMisses, s.Staged, s.Flushed, s.Promoted, s.Digests)
	}
	// The distributed-cache columns only say something when a daemon
	// runs in a -peers mesh; keep the lone-daemon output unchanged.
	cluster := false
	for _, s := range sts {
		if s.PeersLive > 0 || s.PeerHits > 0 || s.HostedCopies > 0 || s.SpilledBytes > 0 {
			cluster = true
			break
		}
	}
	if !cluster {
		return nil
	}
	fmt.Printf("\n%-8s %-10s %-10s %-12s %-14s %-14s %s\n",
		"server", "peer_hits", "peer_errs", "spilled_B", "hosted_copies", "hosted_B", "peers_live")
	for _, s := range sts {
		fmt.Printf("%-8d %-10d %-10d %-12d %-14d %-14d %d\n",
			s.ServerID, s.PeerHits, s.PeerErrors, s.SpilledBytes,
			s.HostedCopies, s.HostedBytes, s.PeersLive)
	}
	return nil
}

// hot reads addr `reads` times so its home daemon, which observes every
// access it serves, considers promoting the object, then polls until a
// read is served from the DRAM cache (or the deadline passes).
func hot(pool *tcpnet.Pool, addr region.GAddr, reads uint64) error {
	buf := make([]byte, 1)
	for i := uint64(0); i < reads; i++ {
		if _, err := pool.ReadCheck(addr, buf); err != nil {
			return err
		}
	}
	fmt.Printf("read %s %d times\n", formatAddr(addr), reads)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		hit, err := pool.ReadCheck(addr, buf)
		if err != nil {
			return err
		}
		if hit {
			fmt.Println("promoted: reads now served from the DRAM cache")
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println("not promoted (weight below threshold, or cache disabled/full)")
	return nil
}

func demo(pool *tcpnet.Pool) error {
	addr, err := pool.Malloc(64)
	if err != nil {
		return err
	}
	fmt.Printf("malloc 64B -> %s\n", formatAddr(addr))
	if err := pool.LockExclusive(addr); err != nil {
		return err
	}
	if err := pool.Write(addr, []byte("gengar over tcp")); err != nil {
		return err
	}
	if err := pool.UnlockExclusive(addr); err != nil {
		return err
	}
	buf := make([]byte, 15)
	if err := pool.LockShared(addr); err != nil {
		return err
	}
	if err := pool.Read(addr, buf); err != nil {
		return err
	}
	if err := pool.UnlockShared(addr); err != nil {
		return err
	}
	fmt.Printf("read back under lock: %q\n", buf)
	if err := pool.Free(addr); err != nil {
		return err
	}
	fmt.Println("freed; demo ok")
	return nil
}

func bench(pool *tcpnet.Pool, ops, size int) error {
	addr, err := pool.Malloc(int64(size))
	if err != nil {
		return err
	}
	defer func() { _ = pool.Free(addr) }()
	buf := make([]byte, size)

	wStart := time.Now()
	for i := 0; i < ops; i++ {
		if err := pool.Write(addr, buf); err != nil {
			return err
		}
	}
	wDur := time.Since(wStart)
	rStart := time.Now()
	for i := 0; i < ops; i++ {
		if err := pool.Read(addr, buf); err != nil {
			return err
		}
	}
	rDur := time.Since(rStart)
	fmt.Printf("%d x %dB over TCP (wall clock):\n", ops, size)
	fmt.Printf("  write: %8v/op  (%.0f ops/s)\n", wDur/time.Duration(ops), float64(ops)/wDur.Seconds())
	fmt.Printf("  read:  %8v/op  (%.0f ops/s)\n", rDur/time.Duration(ops), float64(ops)/rDur.Seconds())
	return nil
}

func formatAddr(a region.GAddr) string {
	return fmt.Sprintf("%d:%#x", a.Server(), a.Offset())
}

func parseAddr(s string) (region.GAddr, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return region.NilGAddr, fmt.Errorf("bad address %q (want server:offset)", s)
	}
	srv, err := strconv.ParseUint(parts[0], 10, 16)
	if err != nil {
		return region.NilGAddr, err
	}
	off, err := strconv.ParseInt(parts[1], 0, 64)
	if err != nil {
		return region.NilGAddr, err
	}
	return region.NewGAddr(uint16(srv), off)
}
