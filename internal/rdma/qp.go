package rdma

import (
	"fmt"
	"sync"
	"time"
)

// Opcode identifies the RDMA operation of a work request or completion.
type Opcode uint8

const (
	// OpSend transfers a local segment into a receive posted by the peer
	// (two-sided, channel semantics).
	OpSend Opcode = iota
	// OpWrite places a local segment into peer memory at an explicit
	// remote segment (one-sided, memory semantics). No peer completion.
	OpWrite
	// OpWriteImm is OpWrite plus an immediate value; it consumes a posted
	// receive at the peer and generates a receive completion carrying the
	// immediate, signalling that the written data is visible.
	OpWriteImm
	// OpRead fetches a remote segment into local memory (one-sided).
	OpRead
	// OpRecv appears only in completions: a receive consumed by an
	// incoming OpSend or OpWriteImm.
	OpRecv
)

// String implements fmt.Stringer.
func (op Opcode) String() string {
	switch op {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "WRITE"
	case OpWriteImm:
		return "WRITE_IMM"
	case OpRead:
		return "READ"
	case OpRecv:
		return "RECV"
	case OpFetchAdd:
		return "FETCH_ADD"
	case OpCompareSwap:
		return "CMP_SWAP"
	default:
		return fmt.Sprintf("Opcode(%d)", uint8(op))
	}
}

// Status is the completion status of a work request.
type Status uint8

const (
	// StatusSuccess indicates the operation completed.
	StatusSuccess Status = iota
	// StatusLocalProtectionError indicates the local segment was invalid
	// or its memory region deregistered before transmission.
	StatusLocalProtectionError
	// StatusRemoteAccessError indicates the remote key was unknown, the
	// remote segment out of bounds, or access flags forbade the operation.
	StatusRemoteAccessError
	// StatusRecvBufferTooSmall indicates an incoming message exceeded the
	// posted receive buffer.
	StatusRecvBufferTooSmall
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusLocalProtectionError:
		return "local protection error"
	case StatusRemoteAccessError:
		return "remote access error"
	case StatusRecvBufferTooSmall:
		return "receive buffer too small"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// SendWR is a work request posted to the send queue of a QP.
type SendWR struct {
	// WRID is an opaque application identifier echoed in the completion.
	WRID uint64
	// Op selects the operation (OpSend, OpWrite, OpWriteImm, OpRead).
	Op Opcode
	// Local is the local scatter/gather segment (source for SEND/WRITE,
	// destination for READ).
	Local Segment
	// Remote addresses peer memory for WRITE/WRITE_IMM/READ.
	Remote RemoteSegment
	// Imm is delivered to the peer for OpWriteImm (and OpSend if HasImm).
	Imm    uint32
	HasImm bool
	// Add is the addend of OpFetchAdd; Compare/Swap parameterise
	// OpCompareSwap. The 8-byte original remote value is written into the
	// local segment.
	Add     uint64
	Compare uint64
	Swap    uint64
	// Inline, when non-nil, is used as the payload of OpSend/OpWrite
	// instead of the local segment: the bytes are snapshotted at post
	// time (IBV_SEND_INLINE), so the source may be reused immediately and
	// no registered memory region is required on the sender.
	Inline []byte
	// Signaled requests a completion on the send CQ even on success.
	// Error completions are always delivered.
	Signaled bool
}

// RecvWR is a work request posted to the receive queue of a QP.
type RecvWR struct {
	WRID  uint64
	Local Segment
}

// Completion reports the outcome of a work request.
type Completion struct {
	WRID   uint64
	Status Status
	Op     Opcode
	// Bytes is the payload length transferred.
	Bytes int
	// Imm carries the immediate value for OpRecv completions when HasImm.
	Imm    uint32
	HasImm bool
	// QPN is the local queue pair number the completion belongs to.
	QPN uint32
}

// Err converts an unsuccessful completion into an error, nil on success.
func (c Completion) Err() error {
	if c.Status == StatusSuccess {
		return nil
	}
	return fmt.Errorf("rdma: %s wr=%d failed: %s", c.Op, c.WRID, c.Status)
}

// QP is a reliable-connected queue pair. Work requests posted to the send
// queue execute asynchronously, in order, against the connected peer.
type QP struct {
	dev    *Device
	pd     *ProtectionDomain
	qpn    uint32
	depth  int
	sendCQ *CompletionQueue
	recvCQ *CompletionQueue

	srq *SRQ // when non-nil, receives come from the shared queue

	mu          sync.Mutex
	recvCond    *sync.Cond
	recvs       []RecvWR
	outstanding int
	remote      *QP
	closed      bool
}

// QPConfig configures queue pair creation.
type QPConfig struct {
	// SendCQ receives completions of posted send work requests.
	SendCQ *CompletionQueue
	// RecvCQ receives completions of consumed receives.
	RecvCQ *CompletionQueue
	// Depth bounds outstanding send work requests and posted receives.
	// Zero means DefaultQueueDepth.
	Depth int
	// SRQ, when non-nil, makes incoming SEND/WRITE_IMM operations consume
	// receives from the shared queue instead of the per-QP ring; PostRecv
	// on the queue pair is then invalid.
	SRQ *SRQ
}

// CreateQP creates a queue pair in the protection domain. Both completion
// queues are required.
func (pd *ProtectionDomain) CreateQP(cfg QPConfig) (*QP, error) {
	if cfg.SendCQ == nil || cfg.RecvCQ == nil {
		return nil, fmt.Errorf("rdma: CreateQP requires send and receive CQs")
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	if cfg.SRQ != nil && cfg.SRQ.pd != pd {
		return nil, ErrWrongPD
	}
	qp := &QP{dev: pd.dev, pd: pd, depth: depth, sendCQ: cfg.SendCQ, recvCQ: cfg.RecvCQ, srq: cfg.SRQ}
	qp.recvCond = sync.NewCond(&qp.mu)
	pd.dev.addQP(qp)
	return qp, nil
}

// QPN returns the queue pair number, unique per device.
func (qp *QP) QPN() uint32 { return qp.qpn }

// Device returns the owning device.
func (qp *QP) Device() *Device { return qp.dev }

// Connect transitions two queue pairs into the connected state with each
// other. Both must be unconnected and live on the same network.
func Connect(a, b *QP) error {
	if a == nil || b == nil {
		return fmt.Errorf("rdma: Connect requires two queue pairs")
	}
	if a == b {
		return fmt.Errorf("rdma: cannot connect a queue pair to itself")
	}
	if a.dev.net != b.dev.net {
		return fmt.Errorf("rdma: queue pairs on different networks")
	}
	// Lock in deterministic order to avoid deadlock.
	first, second := a, b
	if first.dev.id > second.dev.id || (first.dev.id == second.dev.id && first.qpn > second.qpn) {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock() //rackvet:ignore lockorder distinct instances, ordered by (dev.id, qpn) above; a==b rejected on entry
	defer second.mu.Unlock()
	if a.remote != nil || b.remote != nil {
		return fmt.Errorf("rdma: queue pair already connected")
	}
	a.remote = b
	b.remote = a
	return nil
}

// Remote returns the connected peer queue pair, or nil.
func (qp *QP) Remote() *QP {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.remote
}

// PostRecv posts a receive buffer. Receives are consumed in FIFO order by
// incoming SEND and WRITE_IMM operations.
func (qp *QP) PostRecv(wr RecvWR) error {
	if qp.srq != nil {
		return fmt.Errorf("rdma: queue pair uses a shared receive queue; post to the SRQ")
	}
	if wr.Local.MR == nil {
		return fmt.Errorf("rdma: receive requires a memory region")
	}
	if wr.Local.MR.pd != qp.pd {
		return ErrWrongPD
	}
	if _, err := wr.Local.MR.slice(wr.Local.Offset, wr.Local.Length); err != nil {
		return err
	}
	if wr.Local.MR.access&AccessLocalWrite == 0 {
		return ErrAccessDenied
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.closed {
		return ErrClosed
	}
	if len(qp.recvs) >= qp.depth {
		return ErrRQFull
	}
	qp.recvs = append(qp.recvs, wr)
	qp.recvCond.Signal()
	return nil
}

// popRecv removes the oldest posted receive, blocking until one is posted
// (receiver-not-ready back-pressure, counted in device stats). It runs on
// the delivery lane goroutine of the receiving device.
func (qp *QP) popRecv() (RecvWR, bool) {
	if qp.srq != nil {
		return qp.srq.pop()
	}
	qp.mu.Lock()
	defer qp.mu.Unlock()
	var waitStart time.Time
	for len(qp.recvs) == 0 && !qp.closed {
		if waitStart.IsZero() {
			waitStart = time.Now()
			qp.dev.m.rnrWaits.Inc()
		}
		qp.recvCond.Wait()
	}
	if !waitStart.IsZero() {
		qp.dev.m.rnrWait.ObserveSince(waitStart)
	}
	if len(qp.recvs) == 0 {
		return RecvWR{}, false
	}
	wr := qp.recvs[0]
	qp.recvs = qp.recvs[1:]
	return wr, true
}

// Close marks the queue pair closed and removes it from its device.
// Blocked incoming SENDs are released and complete with an error at the
// sender. Closing twice is harmless.
func (qp *QP) Close() {
	qp.mu.Lock()
	qp.closed = true
	qp.mu.Unlock()
	qp.recvCond.Broadcast()
	qp.dev.removeQP(qp)
}

// PostSend posts a work request to the send queue. The request executes
// asynchronously; its outcome is reported on the send CQ (always for
// errors, and for successes when wr.Signaled is set).
//
// The local segment must not be modified (SEND/WRITE) or read (READ)
// until the request completes — the transfer reads/writes the live buffer
// just like a real HCA performing DMA.
func (qp *QP) PostSend(wr SendWR) error {
	if err := qp.validateSend(&wr); err != nil {
		return err
	}
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return ErrClosed
	}
	remote := qp.remote
	if remote == nil {
		qp.mu.Unlock()
		return ErrNotConnected
	}
	if qp.outstanding >= qp.depth {
		qp.mu.Unlock()
		return ErrQPFull
	}
	qp.outstanding++
	qp.mu.Unlock()

	wireSize := wr.Local.Length
	if wr.Inline != nil {
		// Snapshot inline payload now: post-time copy semantics.
		snap := make([]byte, len(wr.Inline))
		copy(snap, wr.Inline)
		wr.Inline = snap
		wireSize = len(snap)
	}
	switch wr.Op {
	case OpRead:
		wireSize = 0 // request is small; the response carries the data
	case OpFetchAdd, OpCompareSwap:
		wireSize = 8
	}
	err := qp.dev.node.Post(remote.dev.node.ID(), wireSize, func() {
		qp.execute(wr, remote)
	})
	if err != nil {
		qp.mu.Lock()
		qp.outstanding--
		qp.mu.Unlock()
		return err
	}
	switch wr.Op {
	case OpSend:
		qp.dev.m.sends.Inc()
		qp.dev.m.bytesSent.Add(uint64(wr.Local.Length))
	case OpWrite, OpWriteImm:
		qp.dev.m.writes.Inc()
		qp.dev.m.bytesSent.Add(uint64(wr.Local.Length))
	case OpRead:
		qp.dev.m.reads.Inc()
	}
	if h := qp.dev.hook.Load(); h != nil {
		(*h)(wr.Op, wireSize)
	}
	return nil
}

func (qp *QP) validateSend(wr *SendWR) error {
	switch wr.Op {
	case OpSend, OpWrite, OpWriteImm, OpRead:
	case OpFetchAdd, OpCompareSwap:
	default:
		return fmt.Errorf("rdma: invalid send opcode %v", wr.Op)
	}
	if wr.Inline != nil {
		if wr.Op != OpSend && wr.Op != OpWrite && wr.Op != OpWriteImm {
			return fmt.Errorf("rdma: inline payload only valid for SEND/WRITE")
		}
		if len(wr.Inline) > MaxInline {
			return fmt.Errorf("rdma: inline payload of %d bytes exceeds MaxInline %d", len(wr.Inline), MaxInline)
		}
		if wr.Op != OpSend && wr.Remote.RKey == 0 {
			return ErrNeedRemoteSeg
		}
		return nil
	}
	if wr.Local.MR == nil {
		return fmt.Errorf("rdma: work request requires a local memory region")
	}
	if wr.Local.MR.pd != qp.pd {
		return ErrWrongPD
	}
	if _, err := wr.Local.MR.slice(wr.Local.Offset, wr.Local.Length); err != nil {
		return err
	}
	if wr.Op == OpRead && wr.Local.MR.access&AccessLocalWrite == 0 {
		return ErrAccessDenied
	}
	if wr.Op == OpFetchAdd || wr.Op == OpCompareSwap {
		return qp.validateAtomic(wr)
	}
	if wr.Op != OpSend && wr.Remote.RKey == 0 {
		return ErrNeedRemoteSeg
	}
	return nil
}

// execute runs on the delivery lane goroutine at the destination device
// (the "remote HCA"). dst is the connected peer queue pair.
func (qp *QP) execute(wr SendWR, dst *QP) {
	switch wr.Op {
	case OpSend:
		qp.executeSend(wr, dst)
	case OpWrite, OpWriteImm:
		qp.executeWrite(wr, dst)
	case OpRead:
		qp.executeRead(wr, dst)
	case OpFetchAdd, OpCompareSwap:
		qp.executeAtomic(wr, dst)
	}
}

func (qp *QP) completeSendSide(wr SendWR, status Status) {
	qp.mu.Lock()
	qp.outstanding--
	qp.mu.Unlock()
	if status != StatusSuccess || wr.Signaled {
		n := wr.Local.Length
		if wr.Inline != nil {
			n = len(wr.Inline)
		}
		qp.sendCQ.push(Completion{
			WRID: wr.WRID, Status: status, Op: wr.Op,
			Bytes: n, QPN: qp.qpn,
		})
	}
}

func (qp *QP) executeSend(wr SendWR, dst *QP) {
	src := wr.Inline
	if src == nil {
		var err error
		src, err = wr.Local.MR.slice(wr.Local.Offset, wr.Local.Length)
		if err != nil {
			qp.completeSendSide(wr, StatusLocalProtectionError)
			return
		}
	}
	rwr, ok := dst.popRecv()
	if !ok { // peer closed
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	dstBuf, err := rwr.Local.MR.slice(rwr.Local.Offset, rwr.Local.Length)
	if err != nil {
		dst.recvCQ.push(Completion{WRID: rwr.WRID, Status: StatusLocalProtectionError, Op: OpRecv, QPN: dst.qpn})
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	if len(dstBuf) < len(src) {
		dst.recvCQ.push(Completion{WRID: rwr.WRID, Status: StatusRecvBufferTooSmall, Op: OpRecv, QPN: dst.qpn})
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	copy(dstBuf, src)
	dst.dev.m.recvs.Inc()
	dst.dev.m.bytesReceived.Add(uint64(len(src)))
	dst.recvCQ.push(Completion{
		WRID: rwr.WRID, Status: StatusSuccess, Op: OpRecv,
		Bytes: len(src), Imm: wr.Imm, HasImm: wr.HasImm, QPN: dst.qpn,
	})
	qp.completeSendSide(wr, StatusSuccess)
}

func (qp *QP) executeWrite(wr SendWR, dst *QP) {
	src := wr.Inline
	if src == nil {
		var err error
		src, err = wr.Local.MR.slice(wr.Local.Offset, wr.Local.Length)
		if err != nil {
			qp.completeSendSide(wr, StatusLocalProtectionError)
			return
		}
	}
	mr := dst.dev.lookupMR(wr.Remote.RKey)
	if mr == nil || mr.access&AccessRemoteWrite == 0 {
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	dstBuf, err := mr.slice(wr.Remote.Offset, len(src))
	if err != nil {
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	copy(dstBuf, src)
	dst.dev.m.bytesReceived.Add(uint64(len(src)))
	if wr.Op == OpWriteImm {
		rwr, ok := dst.popRecv()
		if !ok {
			qp.completeSendSide(wr, StatusRemoteAccessError)
			return
		}
		dst.dev.m.recvs.Inc()
		dst.recvCQ.push(Completion{
			WRID: rwr.WRID, Status: StatusSuccess, Op: OpRecv,
			Bytes: len(src), Imm: wr.Imm, HasImm: true, QPN: dst.qpn,
		})
	}
	qp.completeSendSide(wr, StatusSuccess)
}

// executeRead runs at the remote device: it snapshots the remote segment
// and ships it back over the fabric into the local segment, so that READ
// response bytes are charged to the remote's egress like on real hardware.
func (qp *QP) executeRead(wr SendWR, dst *QP) {
	mr := dst.dev.lookupMR(wr.Remote.RKey)
	if mr == nil || mr.access&AccessRemoteRead == 0 {
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	remoteBuf, err := mr.slice(wr.Remote.Offset, wr.Local.Length)
	if err != nil {
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	snapshot := make([]byte, len(remoteBuf))
	copy(snapshot, remoteBuf)
	dst.dev.m.bytesSent.Add(uint64(len(snapshot)))
	err = dst.dev.node.Post(qp.dev.node.ID(), len(snapshot), func() {
		local, err := wr.Local.MR.slice(wr.Local.Offset, wr.Local.Length)
		if err != nil {
			qp.completeSendSide(wr, StatusLocalProtectionError)
			return
		}
		copy(local, snapshot)
		qp.dev.m.bytesReceived.Add(uint64(len(snapshot)))
		qp.completeSendSide(wr, StatusSuccess)
	})
	if err != nil {
		qp.completeSendSide(wr, StatusRemoteAccessError)
	}
}
