package rdma

import "encoding/binary"

// Atomic verbs: 64-bit remote fetch-and-add and compare-and-swap, as
// provided by InfiniBand HCAs. Systems like FaRM (discussed in Section
// 3.2.1 of the paper) build their shared-address-space primitives on
// these; the join uses them in the atomic-append transport variant, where
// senders reserve write offsets in remote partition regions instead of
// precomputing them from histograms.
//
// Atomicity scope is the target device (HCA-serialised), matching
// IBV_ATOMIC_HCA. The original remote value is returned into the 8-byte
// local segment of the work request.

const (
	// OpFetchAdd atomically adds SendWR.Add to the remote 8-byte word and
	// returns the original value.
	OpFetchAdd Opcode = 16 + iota
	// OpCompareSwap atomically replaces the remote 8-byte word with
	// SendWR.Swap if it equals SendWR.Compare, returning the original.
	OpCompareSwap
)

func (qp *QP) validateAtomic(wr *SendWR) error {
	if wr.Local.Length != 8 {
		return ErrBadSegment
	}
	if wr.Local.MR.access&AccessLocalWrite == 0 {
		return ErrAccessDenied
	}
	if wr.Remote.RKey == 0 {
		return ErrNeedRemoteSeg
	}
	if wr.Remote.Offset%8 != 0 {
		return ErrBadSegment
	}
	return nil
}

// executeAtomic runs at the destination device.
func (qp *QP) executeAtomic(wr SendWR, dst *QP) {
	mr := dst.dev.lookupMR(wr.Remote.RKey)
	if mr == nil || mr.access&AccessRemoteAtomic == 0 {
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	target, err := mr.slice(wr.Remote.Offset, 8)
	if err != nil {
		qp.completeSendSide(wr, StatusRemoteAccessError)
		return
	}
	local, err := wr.Local.MR.slice(wr.Local.Offset, 8)
	if err != nil {
		qp.completeSendSide(wr, StatusLocalProtectionError)
		return
	}
	dst.dev.atomicMu.Lock()
	orig := binary.LittleEndian.Uint64(target)
	switch wr.Op {
	case OpFetchAdd:
		binary.LittleEndian.PutUint64(target, orig+wr.Add)
	case OpCompareSwap:
		if orig == wr.Compare {
			binary.LittleEndian.PutUint64(target, wr.Swap)
		}
	}
	dst.dev.atomicMu.Unlock()
	binary.LittleEndian.PutUint64(local, orig)
	qp.dev.m.atomics.Inc()
	qp.completeSendSide(wr, StatusSuccess)
}
