package analysis

// defaultLockOrder is the blessed mutex-acquisition hierarchy for the
// repository — THE checked-in lock-order config. Classes are named
// "pkgbase.Type.field" (or "pkgbase.var" for package-level mutexes),
// earliest-acquired first: holding a class and acquiring one that
// appears EARLIER in the list is an order inversion the lock-order
// analyzer reports. Classes not listed are still covered by cycle
// detection; list a class the first time a second lock is ever taken
// under it, so the blessed direction is recorded before a back-edge can
// creep in. Corpus packages extend the hierarchy locally with
// //gengar:lockorder directives instead of editing this list.
//
// The order is the topological order of every edge the analyzer
// observes in the tree today (client/session actors outermost, then
// transport and proxy staging, then engine tables, with telemetry,
// allocator, and device leaves innermost). Adjacent entries that never
// nest in practice are still ordered so a future nesting has one
// blessed direction.
var defaultLockOrder = []string{
	// Client actor lock: serializes one application session and calls
	// into every layer below (ops.go holds it across telemetry, hotness,
	// remap-view, and transport work).
	"core.Client.mu",
	// TCP transport: the redial guard admits one redialer which then
	// takes the conn table, per-connection, and frame-queue locks. The
	// peer-link dial guard (TryLock-admitted) wraps a handshake on the
	// peer connection, so it sits above serverConn.
	"tcpnet.Pool.redialMu",
	"tcpnet.Pool.mu",
	"tcpnet.peerLink.mu",
	"tcpnet.serverConn.mu",
	"tcpnet.frameQueue.mu",
	// Server-side registry pairs QPs and pokes per-server state.
	"server.Registry.mu",
	"server.Server.mu",
	// Proxy: task tracking wraps the engine lock; the write-back path
	// stages under stageMu and posts to RDMA/device from inside it.
	"proxy.Engine.taskMu",
	"proxy.Engine.mu",
	"proxy.Writer.pendMu",
	"proxy.Writer.stageMu",
	// Engine plan lock and the tables it drives.
	"engine.Engine.mu",
	"lock.LeaseTable.mu",
	"cache.RemapTable.mu",
	// Hosted-copy table: short bookkeeping sections only; arena and
	// copy I/O run outside its critical sections.
	"engine.hostedTable.mu",
	"cache.ClientView.mu",
	"hotness.Recorder.mu",
	// Wire layers under everything above.
	"rpc.Client.mu",
	"rdma.Node.mu",
	"rdma.QP.mu",
	// Telemetry sinks: tracer -> registry -> histogram nests today.
	"span.Tracer.mu",
	"span.Tracer.ringMu",
	"telemetry.Registry.mu",
	"telemetry.FlightRecorder.mu",
	"metrics.Histogram.mu",
	// Allocator: per-shard lanes, pool-wide slab index, global buddy.
	"alloc.shard.mu",
	"alloc.ShardedPool.mu",
	"alloc.Buddy.mu",
	// Storage devices and simulated resources are leaves: nothing may
	// be acquired under them.
	"hmem.Device.mu",
	"simnet.Resource.mu",
}
