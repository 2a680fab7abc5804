// Package rdma is a functional, in-process implementation of the RDMA
// verbs programming model used by the paper's distributed join: protection
// domains, registered memory regions, reliable-connected queue pairs,
// completion queues, two-sided SEND/RECV (channel semantics) and one-sided
// WRITE/READ (memory semantics), including WRITE-with-immediate.
//
// It substitutes for InfiniBand hardware: data movement is real (bytes are
// copied between per-machine memory regions by the fabric delivery
// goroutine, which plays the role of the destination HCA), and the
// asynchronous work-request/completion discipline is fully preserved.
// In particular the properties the paper's algorithm depends on hold:
//
//   - a posted buffer must not be touched until its completion is polled
//     (violations corrupt data exactly like on real hardware);
//   - SENDs consume posted receives in order; posting too few receives
//     stalls the sender (receiver-not-ready), which is observable in the
//     device statistics;
//   - memory registration is explicit and accounted per page, so buffer
//     pooling and reuse (Section 4 of the paper) have measurable effects;
//   - one-sided operations complete without any remote CPU involvement.
//
// Operations on a queue pair execute in posting order, matching
// reliable-connected (RC) transport semantics.
package rdma

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"rackjoin/internal/fabric"
	"rackjoin/internal/metrics"
)

// PageSize is the registration granularity used for pin accounting.
const PageSize = 4096

// DefaultQueueDepth is the default send/receive queue capacity of a QP.
const DefaultQueueDepth = 512

// Errors returned by verb calls (as opposed to asynchronous completion
// statuses, see Status).
var (
	ErrQPFull        = errors.New("rdma: send queue full")
	ErrRQFull        = errors.New("rdma: receive queue full")
	ErrNotConnected  = errors.New("rdma: queue pair not connected")
	ErrDeregistered  = errors.New("rdma: memory region deregistered")
	ErrBadSegment    = errors.New("rdma: segment out of memory region bounds")
	ErrClosed        = errors.New("rdma: object closed")
	ErrWrongPD       = errors.New("rdma: memory region belongs to a different protection domain")
	ErrAccessDenied  = errors.New("rdma: access flags do not permit operation")
	ErrNeedRemoteSeg = errors.New("rdma: operation requires a remote segment")
)

// Network owns the fabric and the set of devices attached to it. It is the
// top-level factory: one Network per simulated cluster.
type Network struct {
	fab *fabric.Fabric
	reg *metrics.Registry

	mu      sync.Mutex
	devices []*Device
}

// NewNetwork creates a network with the given fabric configuration. The
// network owns a metrics registry (cfg.Metrics, or a fresh one when nil)
// into which every device and the fabric record their telemetry.
func NewNetwork(cfg fabric.Config) *Network {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	return &Network{fab: fabric.New(cfg), reg: reg}
}

// Metrics returns the registry holding the network's device and fabric
// telemetry.
func (n *Network) Metrics() *metrics.Registry { return n.reg }

// NewDevice attaches a new device (HCA) to the network.
func (n *Network) NewDevice() *Device {
	return n.NewDeviceLabeled()
}

// NewDeviceLabeled attaches a new device whose metric series carry the
// given labels in addition to device=<id>. The cluster layer uses it to
// stamp each device with the machine that owns it, so device counters
// join against per-machine join telemetry without an external mapping.
func (n *Network) NewDeviceLabeled(extra ...metrics.Label) *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := &Device{
		net:  n,
		node: n.fab.AddNode(),
		mrs:  make(map[uint32]*MemoryRegion),
		qps:  make(map[uint32]*QP),
	}
	d.id = len(n.devices)
	labels := append([]metrics.Label{metrics.L("device", strconv.Itoa(d.id))}, extra...)
	d.m = newDeviceMetrics(n.reg.Scope(labels...))
	n.devices = append(n.devices, d)
	return d
}

// Close shuts the underlying fabric down, draining in-flight operations.
func (n *Network) Close() { n.fab.Close() }

// FabricStats returns message/byte counters of the underlying fabric.
func (n *Network) FabricStats() fabric.Stats { return n.fab.Stats() }

// Fabric exposes the underlying fabric, e.g. for fault injection
// (fabric.DegradeLink and friends) in validation harnesses.
func (n *Network) Fabric() *fabric.Fabric { return n.fab }

func (n *Network) device(id int) *Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	if id < 0 || id >= len(n.devices) {
		return nil
	}
	return n.devices[id]
}

// Device models one machine's RDMA-capable network adapter.
type Device struct {
	net  *Network
	node *fabric.Node
	id   int
	m    deviceMetrics

	// hook, when set, observes every successfully posted send-queue verb
	// (flight-recorder instrumentation). Atomic so posting threads never
	// take a lock for the common nil case.
	hook atomic.Pointer[func(op Opcode, bytes int)]

	// atomicMu serialises atomic execution on this device, modelling the
	// HCA's internal atomic unit. A field rather than a package-level
	// table keyed by device: a table keeps every device that ever executed
	// an atomic — and with it its whole network — reachable forever.
	atomicMu sync.Mutex

	mu      sync.Mutex
	nextKey uint32
	nextQPN uint32
	mrs     map[uint32]*MemoryRegion // by rkey
	qps     map[uint32]*QP           // by qpn
}

// SetEventHook installs fn as the device's verb observer: it is called
// after every successful PostSend with the opcode and wire size. nil
// uninstalls. The hook runs on the posting thread and must be cheap and
// non-blocking.
func (d *Device) SetEventHook(fn func(op Opcode, bytes int)) {
	if fn == nil {
		d.hook.Store(nil)
		return
	}
	d.hook.Store(&fn)
}

// deviceMetrics are the registry-backed per-device counters and
// histograms; DeviceStats snapshots are reconstructed from them, so the
// same numbers are readable through Stats() and through the registry
// (names rdma_*, label device=<id>).
type deviceMetrics struct {
	registrations   *metrics.Counter
	deregistrations *metrics.Counter
	pagesRegistered *metrics.Counter
	pagesPinned     *metrics.Gauge

	sends   *metrics.Counter
	writes  *metrics.Counter
	reads   *metrics.Counter
	recvs   *metrics.Counter
	atomics *metrics.Counter

	bytesSent     *metrics.Counter
	bytesReceived *metrics.Counter

	rnrWaits *metrics.Counter
	// rnrWait distributes how long incoming SENDs blocked on a missing
	// receive (receiver-not-ready back-pressure); cqWait distributes how
	// long CompletionQueue.Wait calls blocked before a completion arrived.
	rnrWait *metrics.Histogram
	cqWait  *metrics.Histogram
}

func newDeviceMetrics(s *metrics.Scope) deviceMetrics {
	return deviceMetrics{
		registrations:   s.Counter("rdma_registrations_total"),
		deregistrations: s.Counter("rdma_deregistrations_total"),
		pagesRegistered: s.Counter("rdma_pages_registered_total"),
		pagesPinned:     s.Gauge("rdma_pages_pinned"),
		sends:           s.Counter("rdma_sends_total"),
		writes:          s.Counter("rdma_writes_total"),
		reads:           s.Counter("rdma_reads_total"),
		recvs:           s.Counter("rdma_recvs_total"),
		atomics:         s.Counter("rdma_atomics_total"),
		bytesSent:       s.Counter("rdma_bytes_sent_total"),
		bytesReceived:   s.Counter("rdma_bytes_received_total"),
		rnrWaits:        s.Counter("rdma_rnr_waits_total"),
		rnrWait:         s.Histogram("rdma_rnr_wait_seconds"),
		cqWait:          s.Histogram("rdma_cq_wait_seconds"),
	}
}

// DeviceStats aggregates per-device counters. All byte counts refer to
// payload bytes.
type DeviceStats struct {
	// Registration accounting (Section 3.2.1 of the paper: registration
	// cost grows with the number of pinned pages, motivating pooling).
	Registrations   uint64
	Deregistrations uint64
	PagesRegistered uint64
	PagesPinned     uint64 // currently pinned
	// MemoryRegions and QueuePairs count the objects currently alive on
	// the device: registered and not yet deregistered, created and not
	// yet closed. A device holds on to both (and to the memory behind
	// them) until then.
	MemoryRegions int
	QueuePairs    int

	// Work request counters.
	Sends  uint64
	Writes uint64
	Reads  uint64
	Recvs  uint64 // receives consumed

	BytesSent     uint64
	BytesReceived uint64

	// Atomics counts remote atomic operations issued by this device.
	Atomics uint64

	// RNRWaits counts SENDs that arrived before a receive was posted and
	// had to wait (receiver-not-ready back-pressure).
	RNRWaits uint64
}

// ID returns the device's network-wide identifier.
func (d *Device) ID() int { return d.id }

// Stats returns a snapshot of the device counters, reconstructed from the
// registry-backed metrics.
func (d *Device) Stats() DeviceStats {
	pinned := d.m.pagesPinned.Value()
	if pinned < 0 {
		pinned = 0
	}
	d.mu.Lock()
	mrs, qps := len(d.mrs), len(d.qps)
	d.mu.Unlock()
	return DeviceStats{
		MemoryRegions:   mrs,
		QueuePairs:      qps,
		Registrations:   d.m.registrations.Value(),
		Deregistrations: d.m.deregistrations.Value(),
		PagesRegistered: d.m.pagesRegistered.Value(),
		PagesPinned:     uint64(pinned),
		Sends:           d.m.sends.Value(),
		Writes:          d.m.writes.Value(),
		Reads:           d.m.reads.Value(),
		Recvs:           d.m.recvs.Value(),
		BytesSent:       d.m.bytesSent.Value(),
		BytesReceived:   d.m.bytesReceived.Value(),
		Atomics:         d.m.atomics.Value(),
		RNRWaits:        d.m.rnrWaits.Value(),
	}
}

// AllocPD creates a protection domain on the device.
func (d *Device) AllocPD() *ProtectionDomain {
	return &ProtectionDomain{dev: d}
}

// NewCQ creates a completion queue. Completion queues have unbounded
// capacity; real applications bound outstanding work at the QP instead.
// Blocking Wait latency is recorded in the device's rdma_cq_wait_seconds
// histogram.
func (d *Device) NewCQ() *CompletionQueue {
	cq := &CompletionQueue{waitHist: d.m.cqWait}
	cq.cond = sync.NewCond(&cq.mu)
	return cq
}

func (d *Device) registerMR(mr *MemoryRegion) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextKey++
	mr.rkey = d.nextKey
	mr.lkey = d.nextKey
	d.mrs[mr.rkey] = mr
	pages := uint64((len(mr.buf) + PageSize - 1) / PageSize)
	d.m.registrations.Inc()
	d.m.pagesRegistered.Add(pages)
	d.m.pagesPinned.Add(float64(pages))
}

func (d *Device) deregisterMR(mr *MemoryRegion) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.mrs[mr.rkey]; !ok {
		return
	}
	delete(d.mrs, mr.rkey)
	pages := uint64((len(mr.buf) + PageSize - 1) / PageSize)
	d.m.deregistrations.Inc()
	d.m.pagesPinned.Add(-float64(pages))
}

// lookupMR resolves an rkey on this device.
func (d *Device) lookupMR(rkey uint32) *MemoryRegion {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mrs[rkey]
}

func (d *Device) addQP(qp *QP) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextQPN++
	qp.qpn = d.nextQPN
	d.qps[qp.qpn] = qp
}

func (d *Device) removeQP(qp *QP) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.qps, qp.qpn)
}

// ProtectionDomain scopes memory regions and queue pairs, mirroring the
// verbs object model. Registering through a PD and creating QPs in the
// same PD is required for local access checks.
type ProtectionDomain struct {
	dev *Device
}

// Device returns the device owning the protection domain.
func (pd *ProtectionDomain) Device() *Device { return pd.dev }

// Access flags for memory registration.
type Access uint32

const (
	// AccessLocalWrite permits the local HCA to write (receives, reads).
	AccessLocalWrite Access = 1 << iota
	// AccessRemoteWrite permits remote one-sided WRITEs into the region.
	AccessRemoteWrite
	// AccessRemoteRead permits remote one-sided READs from the region.
	AccessRemoteRead
	// AccessRemoteAtomic permits remote atomic operations on the region.
	AccessRemoteAtomic
)

// RegisterMemory pins buf and makes it accessible to the HCA. The returned
// memory region exposes LKey for local scatter/gather entries and RKey for
// remote one-sided access.
//
// Registration is the expensive verb on real hardware (page pinning); the
// device accounts pages so that tests and benchmarks can assert buffer
// pools amortise it.
func (pd *ProtectionDomain) RegisterMemory(buf []byte, access Access) (*MemoryRegion, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("rdma: cannot register empty buffer")
	}
	mr := &MemoryRegion{pd: pd, buf: buf, access: access}
	pd.dev.registerMR(mr)
	return mr, nil
}

// MemoryRegion is a pinned, HCA-accessible range of memory.
type MemoryRegion struct {
	pd     *ProtectionDomain
	buf    []byte
	access Access
	lkey   uint32
	rkey   uint32

	mu     sync.Mutex
	closed bool
}

// LKey returns the local access key.
func (mr *MemoryRegion) LKey() uint32 { return mr.lkey }

// RKey returns the remote access key, advertised to peers for one-sided
// operations.
func (mr *MemoryRegion) RKey() uint32 { return mr.rkey }

// Len returns the region length in bytes.
func (mr *MemoryRegion) Len() int { return len(mr.buf) }

// Bytes exposes the underlying buffer. The caller owns synchronisation
// with outstanding work requests, exactly as on real hardware.
func (mr *MemoryRegion) Bytes() []byte { return mr.buf }

// Deregister unpins the region. Outstanding operations targeting it will
// complete with StatusRemoteAccessError / StatusLocalProtectionError.
func (mr *MemoryRegion) Deregister() error {
	mr.mu.Lock()
	if mr.closed {
		mr.mu.Unlock()
		return ErrDeregistered
	}
	mr.closed = true
	mr.mu.Unlock()
	mr.pd.dev.deregisterMR(mr)
	return nil
}

func (mr *MemoryRegion) valid() bool {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return !mr.closed
}

// slice bounds-checks and returns the byte range [off, off+n).
func (mr *MemoryRegion) slice(off, n int) ([]byte, error) {
	if !mr.valid() {
		return nil, ErrDeregistered
	}
	if off < 0 || n < 0 || off+n > len(mr.buf) {
		return nil, ErrBadSegment
	}
	return mr.buf[off : off+n], nil
}

// Segment addresses a byte range within a local memory region.
type Segment struct {
	MR     *MemoryRegion
	Offset int
	Length int
}

// RemoteSegment addresses a byte range within a remote memory region,
// identified by the remote key advertised by the peer.
type RemoteSegment struct {
	RKey   uint32
	Offset int
}

// MaxInline is the maximum inline payload size (IBV_SEND_INLINE cap;
// typical HCAs advertise a few hundred bytes).
const MaxInline = 256
