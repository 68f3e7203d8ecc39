package gengar_test

import (
	"net"
	"testing"
	"time"

	"gengar/internal/config"
	"gengar/internal/core"
	"gengar/internal/engine"
	"gengar/internal/region"
	"gengar/internal/server"
	"gengar/internal/tcpnet"
)

// hotnessMount is what TestBothMountsStageTheSameDigests needs of a
// mount: a client's data path and the home engine behind it.
type hotnessMount struct {
	malloc func(size int64) (region.GAddr, error)
	read   func(addr region.GAddr, buf []byte) error
	write  func(addr region.GAddr, data []byte) error
	engine *engine.Engine
}

const hotnessDigestEvery = 4

func simHotnessMount(t *testing.T) hotnessMount {
	t.Helper()
	cfg := config.Default()
	cfg.Servers = 1
	cfg.NVMBytes = 1 << 20
	cfg.DRAMBufferBytes = 1 << 16
	cfg.Hotness.DigestEvery = hotnessDigestEvery
	c, err := server.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := core.Connect(c, "u1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return hotnessMount{malloc: cl.Malloc, read: cl.Read, write: cl.Write, engine: c.Registry().Servers()[0].Core()}
}

func tcpHotnessMount(t *testing.T) hotnessMount {
	t.Helper()
	srv, err := tcpnet.NewPoolServer(tcpnet.ServerConfig{ID: 1, PoolBytes: 1 << 20, CacheBytes: 1 << 16, DigestEvery: hotnessDigestEvery})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(lis); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(srv.Close)
	p, err := tcpnet.Dial([]string{lis.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return hotnessMount{malloc: p.Malloc, read: p.Read, write: p.Write, engine: srv.Engine()}
}

// TestBothMountsStageTheSameDigests runs one access sequence through a
// sim client, which stages its own verbs, and through a TCP pool, whose
// daemon stages what it serves: both homes land the same number of
// digests and promote the same hot object.
func TestBothMountsStageTheSameDigests(t *testing.T) {
	const hotReads = 60
	for _, mount := range []struct {
		name string
		mk   func(*testing.T) hotnessMount
	}{{"sim", simHotnessMount}, {"tcp", tcpHotnessMount}} {
		t.Run(mount.name, func(t *testing.T) {
			m := mount.mk(t)
			var objs [3]region.GAddr // objs[0] is the hot one
			buf := make([]byte, 512)
			for i := range objs {
				var err error
				if objs[i], err = m.malloc(int64(len(buf))); err != nil {
					t.Fatal(err)
				}
			}
			accesses := 0
			do := func(f func(region.GAddr, []byte) error, addr region.GAddr) {
				t.Helper()
				if err := f(addr, buf); err != nil {
					t.Fatal(err)
				}
				accesses++
			}
			for _, a := range objs {
				do(m.write, a)
			}
			do(m.read, objs[1])
			for i := 0; i < hotReads; i++ {
				do(m.read, objs[0])
			}
			do(m.read, objs[2])
			if err := m.engine.Flusher().Barrier(); err != nil {
				t.Fatal(err)
			}

			if got, want := m.engine.Stats().Digests, int64(accesses/hotnessDigestEvery); got != want {
				t.Errorf("%d digests for %d accesses, want %d", got, accesses, want)
			}
			_, promoted := m.engine.Remap().Snapshot()
			if _, ok := promoted[objs[0]]; !ok || len(promoted) != 1 {
				t.Errorf("promoted %v, want only the hot object %v", promoted, objs[0])
			}
		})
	}
}
