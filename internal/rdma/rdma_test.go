package rdma

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"gengar/internal/hmem"
	"gengar/internal/simnet"
)

func testModel() simnet.LinkModel {
	return simnet.LinkModel{
		PerOp:       600 * time.Nanosecond,
		Propagation: 300 * time.Nanosecond,
		BytesPerSec: 12.5e9, // 100 Gb/s
	}
}

// testPair builds a two-node fabric with a device and fully-open MR on
// the server side and a connected QP pair.
func testPair(t *testing.T, kind hmem.Kind, devSize int64) (client, server *QP, mr *MR) {
	t.Helper()
	f, err := NewFabric(testModel())
	if err != nil {
		t.Fatal(err)
	}
	cn, err := f.AddNode("client")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := f.AddNode("server")
	if err != nil {
		t.Fatal(err)
	}
	profile := hmem.DRAMProfile()
	if kind == hmem.KindNVM {
		profile = hmem.OptaneProfile()
	}
	dev, err := hmem.NewDevice("server-mem", devSize, profile)
	if err != nil {
		t.Fatal(err)
	}
	mr, err = sn.RegisterMR(dev, 0, devSize, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	client, server = cn.NewQP(), sn.NewQP()
	if err := client.Connect(server); err != nil {
		t.Fatal(err)
	}
	return client, server, mr
}

func TestFabricNodes(t *testing.T) {
	f, err := NewFabric(testModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddNode("a"); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate node error = %v", err)
	}
	if _, ok := f.Node("a"); !ok {
		t.Fatal("node lookup failed")
	}
	if _, ok := f.Node("zzz"); ok {
		t.Fatal("phantom node")
	}
	if got := f.Nodes(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Nodes = %v", got)
	}
	if f.Model() != testModel() {
		t.Fatal("Model roundtrip")
	}
}

func TestNewFabricRejectsBadModel(t *testing.T) {
	if _, err := NewFabric(simnet.LinkModel{PerOp: -1}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestRegisterMRValidation(t *testing.T) {
	f, _ := NewFabric(testModel())
	n, _ := f.AddNode("n")
	dev, _ := hmem.NewDevice("d", 1024, hmem.DRAMProfile())
	if _, err := n.RegisterMR(nil, 0, 10, AccessAll); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := n.RegisterMR(dev, 0, 2048, AccessAll); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oversize register: %v", err)
	}
	if _, err := n.RegisterMR(dev, -1, 10, AccessAll); !errors.Is(err, ErrOutOfBounds) {
		t.Fatal("negative base accepted")
	}
	mr, err := n.RegisterMR(dev, 512, 512, AccessRemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	if mr.RKey() == 0 || mr.Length() != 512 || mr.Device() != dev {
		t.Fatalf("MR fields: rkey=%d len=%d", mr.RKey(), mr.Length())
	}
	h := mr.Handle()
	if h.Node != "n" || h.RKey != mr.RKey() {
		t.Fatalf("handle: %+v", h)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	client, _, mr := testPair(t, hmem.KindNVM, 1<<16)
	src := bytes.Repeat([]byte("gengar!"), 100)
	raddr := RemoteAddr{Region: mr.Handle(), Offset: 4096}
	end, err := client.Write(0, src, raddr)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if end <= 0 {
		t.Fatal("write completion time not positive")
	}
	dst := make([]byte, len(src))
	end2, err := client.Read(end, dst, raddr)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("roundtrip data mismatch")
	}
	if end2 <= end {
		t.Fatal("read charged no time")
	}
	if client.Node().ID() != "client" {
		t.Fatal("Node accessor")
	}
}

func TestOneSidedErrors(t *testing.T) {
	client, _, mr := testPair(t, hmem.KindDRAM, 1024)
	buf := make([]byte, 64)

	if _, err := client.Read(0, buf, RemoteAddr{Region: RegionHandle{Node: "server", RKey: 999}}); !errors.Is(err, ErrMRNotFound) {
		t.Fatalf("bad rkey: %v", err)
	}
	oob := RemoteAddr{Region: mr.Handle(), Offset: 1000}
	if _, err := client.Read(0, buf, oob); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oob read: %v", err)
	}
	wrongNode := RemoteAddr{Region: RegionHandle{Node: "elsewhere", RKey: mr.RKey()}}
	if _, err := client.Write(0, buf, wrongNode); err == nil {
		t.Fatal("write to wrong node accepted")
	}
	if _, err := client.Read(0, buf, wrongNode); err == nil {
		t.Fatal("read from wrong node accepted")
	}
}

func TestAccessFlagsEnforced(t *testing.T) {
	f, _ := NewFabric(testModel())
	cn, _ := f.AddNode("c")
	sn, _ := f.AddNode("s")
	dev, _ := hmem.NewDevice("d", 1024, hmem.DRAMProfile())
	roMR, _ := sn.RegisterMR(dev, 0, 512, AccessRemoteRead)
	c, s := cn.NewQP(), sn.NewQP()
	if err := c.Connect(s); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := c.Read(0, buf, RemoteAddr{Region: roMR.Handle()}); err != nil {
		t.Fatalf("read on RO region: %v", err)
	}
	if _, err := c.Write(0, buf, RemoteAddr{Region: roMR.Handle()}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("write on RO region: %v", err)
	}
	if _, _, err := c.CompareAndSwap(0, RemoteAddr{Region: roMR.Handle()}, 0, 1); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("atomic on RO region: %v", err)
	}
}

func TestDeregisterMR(t *testing.T) {
	client, server, mr := testPair(t, hmem.KindDRAM, 1024)
	server.Node().DeregisterMR(mr)
	buf := make([]byte, 8)
	if _, err := client.Read(0, buf, RemoteAddr{Region: mr.Handle()}); !errors.Is(err, ErrMRNotFound) {
		t.Fatalf("read after deregister: %v", err)
	}
}

func TestQPConnectionErrors(t *testing.T) {
	f, _ := NewFabric(testModel())
	a, _ := f.AddNode("a")
	b, _ := f.AddNode("b")
	qa, qb := a.NewQP(), b.NewQP()
	if err := qa.Connect(nil); err == nil {
		t.Fatal("nil peer accepted")
	}
	if err := qa.Connect(qa); err == nil {
		t.Fatal("self connect accepted")
	}
	if _, err := qa.Write(0, []byte{1}, RemoteAddr{}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("unconnected write: %v", err)
	}
	if err := qa.Connect(qb); err != nil {
		t.Fatal(err)
	}
	if err := qa.Connect(b.NewQP()); err == nil {
		t.Fatal("double connect accepted")
	}
	other, _ := NewFabric(testModel())
	on, _ := other.AddNode("x")
	if err := on.NewQP().Connect(a.NewQP()); err == nil {
		t.Fatal("cross-fabric connect accepted")
	}
}

// TestConcurrentReverseConnects races a.Connect(b) against b.Connect(a).
// Connect holds both queue pairs' mutexes; it takes them in address
// order, so the two calls cannot deadlock (a hang here fails the run by
// timeout), and exactly one of them makes the connection.
func TestConcurrentReverseConnects(t *testing.T) {
	f, _ := NewFabric(testModel())
	a, _ := f.AddNode("a")
	b, _ := f.AddNode("b")
	for i := 0; i < 200; i++ {
		qa, qb := a.NewQP(), b.NewQP()
		errs := make([]error, 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = qa.Connect(qb) }()
		go func() { defer wg.Done(); errs[1] = qb.Connect(qa) }()
		wg.Wait()
		if (errs[0] == nil) == (errs[1] == nil) {
			t.Fatalf("iteration %d: want exactly one Connect to succeed, got %v and %v", i, errs[0], errs[1])
		}
	}
}

func TestAtomics(t *testing.T) {
	client, _, mr := testPair(t, hmem.KindDRAM, 1024)
	addr := RemoteAddr{Region: mr.Handle(), Offset: 64}
	prev, _, err := client.CompareAndSwap(0, addr, 0, 7)
	if err != nil || prev != 0 {
		t.Fatalf("CAS: %d %v", prev, err)
	}
	prev, _, err = client.CompareAndSwap(0, addr, 0, 9)
	if err != nil || prev != 7 {
		t.Fatalf("failed CAS: %d %v", prev, err)
	}
	prev, _, err = client.FetchAdd(0, addr, 5)
	if err != nil || prev != 7 {
		t.Fatalf("FetchAdd: %d %v", prev, err)
	}
	prev, _, err = client.FetchAdd(0, addr, 0)
	if err != nil || prev != 12 {
		t.Fatalf("FetchAdd readback: %d %v", prev, err)
	}
	if _, _, err := client.FetchAdd(0, RemoteAddr{Region: mr.Handle(), Offset: 2000}, 1); err == nil {
		t.Fatal("OOB fetch-add accepted")
	}
}

// TestSendArrival pins what a two-sided Send is: one counted verb whose
// flight — the QP's posting cost and serialization, then NIC, wire and
// receive DMA — is charged on the sender's queue pair and accounted as
// traffic, with the arrival instant returned. Delivery is the caller's
// business (internal/rpc).
func TestSendArrival(t *testing.T) {
	client, server, _ := testPair(t, hmem.KindDRAM, 1024)
	m, f := testModel(), client.node.fabric
	const size = 100
	wire := headerBytes + size
	want := simnet.Time(0).Add(m.PerOp + m.SerializeTime(wire) + m.RespPerOp + m.Propagation + m.SerializeTime(wire))
	got, err := client.Send(0, size)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got != want {
		t.Fatalf("arrival %v, want %v", got, want)
	}
	if n := f.VerbCounts().Sends; n != 1 {
		t.Fatalf("Sends = %d, want 1", n)
	}
	if tx, rx := client.Node().TxBytes(), server.Node().RxBytes(); tx != int64(wire) || rx != int64(wire) {
		t.Fatalf("traffic tx=%d rx=%d, want %d", tx, rx, wire)
	}
	// A second message posted at the same instant queues behind the first
	// on the sender's queue pair.
	if again, _ := client.Send(0, size); again <= got {
		t.Fatalf("second send arrived at %v, not after %v", again, got)
	}
}

func TestSendToClosedQP(t *testing.T) {
	client, server, _ := testPair(t, hmem.KindDRAM, 1024)
	server.Close()
	if _, err := client.Send(0, 1); !errors.Is(err, ErrQPClosed) {
		t.Fatalf("send to closed peer: %v", err)
	}
	client.Close()
	if _, err := client.Send(0, 1); !errors.Is(err, ErrQPClosed) {
		t.Fatalf("send on closed qp: %v", err)
	}
}

func TestOneSidedBypassesRemoteCPU(t *testing.T) {
	// A READ must succeed even though the server never calls Recv — the
	// structural property that motivates hotness tracking at the client.
	client, _, mr := testPair(t, hmem.KindNVM, 4096)
	if err := mr.Device().WriteRaw(0, []byte("silent")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 6)
	if _, err := client.Read(0, dst, RemoteAddr{Region: mr.Handle()}); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "silent" {
		t.Fatalf("read %q", dst)
	}
}

func TestLatencyShape(t *testing.T) {
	// Structural timing properties the experiments rely on.
	readLat := func(kind hmem.Kind, size int) simnet.Duration {
		client, _, mr := testPair(t, kind, 1<<20)
		buf := make([]byte, size)
		end, err := client.Read(0, buf, RemoteAddr{Region: mr.Handle()})
		if err != nil {
			t.Fatal(err)
		}
		return simnet.Duration(end)
	}
	writeLat := func(kind hmem.Kind, size int) simnet.Duration {
		client, _, mr := testPair(t, kind, 1<<20)
		buf := make([]byte, size)
		end, err := client.Write(0, buf, RemoteAddr{Region: mr.Handle()})
		if err != nil {
			t.Fatal(err)
		}
		return simnet.Duration(end)
	}
	// Remote NVM slower than remote DRAM, both directions.
	if readLat(hmem.KindNVM, 1024) <= readLat(hmem.KindDRAM, 1024) {
		t.Fatal("remote NVM read not slower than DRAM")
	}
	if writeLat(hmem.KindNVM, 1024) <= writeLat(hmem.KindDRAM, 1024) {
		t.Fatal("remote NVM write not slower than DRAM")
	}
	// Small ops RTT-dominated: 64 B and 256 B reads within 25 %.
	small, mid := readLat(hmem.KindDRAM, 64), readLat(hmem.KindDRAM, 256)
	if float64(mid) > 1.25*float64(small) {
		t.Fatalf("small reads not RTT-dominated: 64B=%v 256B=%v", small, mid)
	}
	// Large transfers bandwidth-dominated: 64 KiB >> 64 B.
	large := readLat(hmem.KindDRAM, 64<<10)
	if large < 3*small {
		t.Fatalf("large read not bandwidth-dominated: %v vs %v", large, small)
	}
}

func TestConcurrentWritesSaturateNVM(t *testing.T) {
	// Many clients writing 4 KiB to one NVM server: makespan should be
	// bounded below by total bytes / NVM write bandwidth.
	f, _ := NewFabric(testModel())
	sn, _ := f.AddNode("server")
	dev, _ := hmem.NewDevice("nvm", 64<<20, hmem.OptaneProfile())
	mr, _ := sn.RegisterMR(dev, 0, dev.Size(), AccessAll)

	const clients = 8
	const opsPer = 32
	const size = 4096
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last simnet.Time
	for i := 0; i < clients; i++ {
		cn, err := f.AddNode(string(rune('A' + i)))
		if err != nil {
			t.Fatal(err)
		}
		q := cn.NewQP()
		srv := sn.NewQP()
		if err := q.Connect(srv); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, size)
			var now simnet.Time
			for j := 0; j < opsPer; j++ {
				off := int64((i*opsPer + j) * size)
				end, err := q.Write(now, buf, RemoteAddr{Region: mr.Handle(), Offset: off})
				if err != nil {
					t.Error(err)
					return
				}
				now = end
			}
			mu.Lock()
			if now > last {
				last = now
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	totalBytes := float64(clients * opsPer * size)
	floor := simnet.Duration(totalBytes / hmem.OptaneProfile().WriteBytesPerSec * float64(time.Second))
	if simnet.Duration(last) < floor {
		t.Fatalf("makespan %v below NVM bandwidth floor %v", simnet.Duration(last), floor)
	}
	if f.Clock().Now() < last {
		t.Fatal("fabric clock behind op completions")
	}
}

func TestRemoteAddrString(t *testing.T) {
	a := RemoteAddr{Region: RegionHandle{Node: "s1", RKey: 3}, Offset: 128}
	if got := a.String(); got != "s1/mr3+128" {
		t.Fatalf("String = %q", got)
	}
}

func TestReadBatchRoundtrip(t *testing.T) {
	client, _, mr := testPair(t, hmem.KindNVM, 1<<16)
	for i := 0; i < 4; i++ {
		if err := mr.Device().WriteRaw(int64(i)*256, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([]ReadReq, 4)
	bufs := make([][]byte, 4)
	for i := range reqs {
		bufs[i] = make([]byte, 1)
		reqs[i] = ReadReq{Dst: bufs[i], Raddr: RemoteAddr{Region: mr.Handle(), Offset: int64(i) * 256}}
	}
	end, err := client.ReadBatch(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("batch charged no time")
	}
	for i, b := range bufs {
		if b[0] != byte('a'+i) {
			t.Fatalf("req %d read %q", i, b)
		}
	}
}

func TestReadBatchCheaperThanSequential(t *testing.T) {
	// k small reads batched should cost far less than k round trips.
	client, _, mr := testPair(t, hmem.KindDRAM, 1<<16)
	const k = 8
	reqs := make([]ReadReq, k)
	for i := range reqs {
		reqs[i] = ReadReq{Dst: make([]byte, 64), Raddr: RemoteAddr{Region: mr.Handle(), Offset: int64(i) * 64}}
	}
	fabric := client.Node().fabric
	batchEnd, err := client.ReadBatch(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	chained := fabric.VerbCounts().Reads
	var now simnet.Time
	for i := 0; i < k; i++ {
		buf := make([]byte, 64)
		end, err := client.Read(now, buf, RemoteAddr{Region: mr.Handle(), Offset: int64(i) * 64})
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	// The verb mix counts WQEs, not doorbells: k reads are k reads
	// whether posted as one chain or as k scalars.
	if scalars := fabric.VerbCounts().Reads - chained; chained != k || scalars != k {
		t.Fatalf("verb mix: chain of %d counted %d reads, %d scalars counted %d", k, chained, k, scalars)
	}
	if simnet.Duration(batchEnd)*3 > simnet.Duration(now) {
		t.Fatalf("batch %v not <1/3 of sequential %v", simnet.Duration(batchEnd), simnet.Duration(now))
	}
}

func TestReadBatchValidation(t *testing.T) {
	client, _, mr := testPair(t, hmem.KindDRAM, 1024)
	// Empty batch is a no-op.
	if end, err := client.ReadBatch(5, nil); err != nil || end != 5 {
		t.Fatalf("empty batch: %v %v", end, err)
	}
	// A bad request fails the whole batch before any timing is charged.
	reqs := []ReadReq{
		{Dst: make([]byte, 8), Raddr: RemoteAddr{Region: mr.Handle(), Offset: 0}},
		{Dst: make([]byte, 8), Raddr: RemoteAddr{Region: mr.Handle(), Offset: 4096}},
	}
	if _, err := client.ReadBatch(0, reqs); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oob batch: %v", err)
	}
	wrong := []ReadReq{{Dst: make([]byte, 8), Raddr: RemoteAddr{Region: RegionHandle{Node: "nope", RKey: 1}}}}
	if _, err := client.ReadBatch(0, wrong); err == nil {
		t.Fatal("wrong-node batch accepted")
	}
	// Unconnected QP.
	f, _ := NewFabric(testModel())
	n, _ := f.AddNode("x")
	if _, err := n.NewQP().ReadBatch(0, reqs); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("unconnected batch: %v", err)
	}
}

func TestWriteBatchRoundtrip(t *testing.T) {
	client, _, mr := testPair(t, hmem.KindNVM, 1<<16)
	reqs := make([]WriteReq, 4)
	for i := range reqs {
		reqs[i] = WriteReq{
			Src:   []byte{byte('a' + i)},
			Raddr: RemoteAddr{Region: mr.Handle(), Offset: int64(i) * 256},
		}
	}
	end, err := client.WriteBatch(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("batch charged no time")
	}
	got := make([]byte, 1)
	for i := range reqs {
		if err := mr.Device().ReadRaw(int64(i)*256, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte('a'+i) {
			t.Fatalf("req %d stored %q", i, got)
		}
	}
}

func TestWriteBatchCheaperThanSequential(t *testing.T) {
	// k small writes batched should cost far less than k round trips.
	client, _, mr := testPair(t, hmem.KindDRAM, 1<<16)
	const k = 8
	reqs := make([]WriteReq, k)
	for i := range reqs {
		reqs[i] = WriteReq{Src: make([]byte, 64), Raddr: RemoteAddr{Region: mr.Handle(), Offset: int64(i) * 64}}
	}
	fabric := client.Node().fabric
	batchEnd, err := client.WriteBatch(0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	chained := fabric.VerbCounts().Writes
	var now simnet.Time
	for i := 0; i < k; i++ {
		end, err := client.Write(now, make([]byte, 64), RemoteAddr{Region: mr.Handle(), Offset: int64(i) * 64})
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	if scalars := fabric.VerbCounts().Writes - chained; chained != k || scalars != k {
		t.Fatalf("verb mix: chain of %d counted %d writes, %d scalars counted %d", k, chained, k, scalars)
	}
	if simnet.Duration(batchEnd)*3 > simnet.Duration(now) {
		t.Fatalf("batch %v not <1/3 of sequential %v", simnet.Duration(batchEnd), simnet.Duration(now))
	}
}

func TestWriteBatchOfOneCostsWhatWriteDoes(t *testing.T) {
	// Every scalar gwrite is posted as a chain of one, so a chain of one
	// must complete at the instant the scalar verb would have.
	payload := bytes.Repeat([]byte{7}, 1024)
	scalar, _, mr := testPair(t, hmem.KindNVM, 1<<16)
	want, err := scalar.Write(100, payload, RemoteAddr{Region: mr.Handle(), Offset: 64})
	if err != nil {
		t.Fatal(err)
	}
	chain, _, mr := testPair(t, hmem.KindNVM, 1<<16)
	got, err := chain.WriteBatch(100, []WriteReq{{Src: payload, Raddr: RemoteAddr{Region: mr.Handle(), Offset: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("chain of one completes at %v, scalar write at %v", got, want)
	}
}

func TestWriteBatchValidation(t *testing.T) {
	client, _, mr := testPair(t, hmem.KindDRAM, 1024)
	// Empty batch is a no-op.
	if end, err := client.WriteBatch(5, nil); err != nil || end != 5 {
		t.Fatalf("empty batch: %v %v", end, err)
	}
	// A bad request fails the whole batch before any data moves.
	reqs := []WriteReq{
		{Src: make([]byte, 8), Raddr: RemoteAddr{Region: mr.Handle(), Offset: 0}},
		{Src: make([]byte, 8), Raddr: RemoteAddr{Region: mr.Handle(), Offset: 4096}},
	}
	if _, err := client.WriteBatch(0, reqs); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oob batch: %v", err)
	}
	var first [1]byte
	if err := mr.Device().ReadRaw(0, first[:]); err != nil {
		t.Fatal(err)
	}
	if first[0] != 0 {
		t.Fatal("failed batch wrote data")
	}
	wrong := []WriteReq{{Src: make([]byte, 8), Raddr: RemoteAddr{Region: RegionHandle{Node: "nope", RKey: 1}}}}
	if _, err := client.WriteBatch(0, wrong); err == nil {
		t.Fatal("wrong-node batch accepted")
	}
	// Unconnected QP.
	f, _ := NewFabric(testModel())
	n, _ := f.AddNode("x")
	if _, err := n.NewQP().WriteBatch(0, reqs); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("unconnected batch: %v", err)
	}
}
