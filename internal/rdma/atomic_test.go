package rdma

import (
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"

	"rackjoin/internal/fabric"
)

func atomicPair(t *testing.T) (*testPair, *MemoryRegion, *MemoryRegion) {
	t.Helper()
	p := newTestPair(t)
	local := mustMR(t, p.pdA, 8, AccessLocalWrite)
	remote := mustMR(t, p.pdB, 64, AccessRemoteAtomic|AccessRemoteWrite)
	return p, local, remote
}

func TestFetchAdd(t *testing.T) {
	p, local, remote := atomicPair(t)
	binary.LittleEndian.PutUint64(remote.Bytes()[8:], 100)
	for i := 0; i < 5; i++ {
		err := p.qpA.PostSend(SendWR{
			Op: OpFetchAdd, Signaled: true, Add: 7,
			Local:  Segment{MR: local, Length: 8},
			Remote: RemoteSegment{RKey: remote.RKey(), Offset: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		c := p.scqA.Wait()
		if c.Status != StatusSuccess || c.Op != OpFetchAdd {
			t.Fatalf("bad completion: %+v", c)
		}
		got := binary.LittleEndian.Uint64(local.Bytes())
		if got != 100+uint64(i)*7 {
			t.Fatalf("fetched %d, want %d", got, 100+uint64(i)*7)
		}
	}
	if final := binary.LittleEndian.Uint64(remote.Bytes()[8:]); final != 135 {
		t.Fatalf("remote value %d, want 135", final)
	}
	if p.devA.Stats().Atomics != 5 {
		t.Fatalf("Atomics stat = %d", p.devA.Stats().Atomics)
	}
}

func TestCompareSwap(t *testing.T) {
	p, local, remote := atomicPair(t)
	binary.LittleEndian.PutUint64(remote.Bytes(), 42)

	// Successful swap.
	if err := p.qpA.PostSend(SendWR{
		Op: OpCompareSwap, Signaled: true, Compare: 42, Swap: 99,
		Local:  Segment{MR: local, Length: 8},
		Remote: RemoteSegment{RKey: remote.RKey()},
	}); err != nil {
		t.Fatal(err)
	}
	if c := p.scqA.Wait(); c.Status != StatusSuccess {
		t.Fatalf("cas failed: %+v", c)
	}
	if binary.LittleEndian.Uint64(local.Bytes()) != 42 {
		t.Fatal("cas should return original value")
	}
	if binary.LittleEndian.Uint64(remote.Bytes()) != 99 {
		t.Fatal("cas should have swapped")
	}

	// Failed compare leaves the value and returns the current one.
	if err := p.qpA.PostSend(SendWR{
		Op: OpCompareSwap, Signaled: true, Compare: 42, Swap: 1,
		Local:  Segment{MR: local, Length: 8},
		Remote: RemoteSegment{RKey: remote.RKey()},
	}); err != nil {
		t.Fatal(err)
	}
	if c := p.scqA.Wait(); c.Status != StatusSuccess {
		t.Fatalf("cas failed: %+v", c)
	}
	if binary.LittleEndian.Uint64(local.Bytes()) != 99 {
		t.Fatal("failed cas should return current value")
	}
	if binary.LittleEndian.Uint64(remote.Bytes()) != 99 {
		t.Fatal("failed cas must not modify the target")
	}
}

func TestAtomicValidation(t *testing.T) {
	p, local, remote := atomicPair(t)
	noAtomic := mustMR(t, p.pdB, 8, AccessRemoteWrite)

	// Wrong local length.
	err := p.qpA.PostSend(SendWR{
		Op: OpFetchAdd, Local: Segment{MR: local, Length: 4},
		Remote: RemoteSegment{RKey: remote.RKey()},
	})
	if err != ErrBadSegment {
		t.Fatalf("short local segment: %v", err)
	}
	// Misaligned remote offset.
	err = p.qpA.PostSend(SendWR{
		Op: OpFetchAdd, Local: Segment{MR: local, Length: 8},
		Remote: RemoteSegment{RKey: remote.RKey(), Offset: 4},
	})
	if err != ErrBadSegment {
		t.Fatalf("misaligned remote: %v", err)
	}
	// Missing rkey.
	err = p.qpA.PostSend(SendWR{Op: OpFetchAdd, Local: Segment{MR: local, Length: 8}})
	if err != ErrNeedRemoteSeg {
		t.Fatalf("missing remote: %v", err)
	}
	// Target without atomic access → remote error completion.
	if err := p.qpA.PostSend(SendWR{
		Op: OpFetchAdd, Signaled: true, Add: 1,
		Local:  Segment{MR: local, Length: 8},
		Remote: RemoteSegment{RKey: noAtomic.RKey()},
	}); err != nil {
		t.Fatal(err)
	}
	if c := p.scqA.Wait(); c.Status != StatusRemoteAccessError {
		t.Fatalf("want remote access error, got %+v", c)
	}
}

func TestFetchAddConcurrentCounters(t *testing.T) {
	// Many QPs from distinct devices hammer one remote counter; the sum
	// must be exact (HCA-serialised atomics).
	net := NewNetwork(fabric.Config{})
	defer net.Close()
	target := net.NewDevice()
	tpd := target.AllocPD()
	counter := mustMRAt(t, tpd, 8, AccessRemoteAtomic)

	const clients = 6
	const addsEach = 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		dev := net.NewDevice()
		pd := dev.AllocPD()
		scq := dev.NewCQ()
		qp, err := pd.CreateQP(QPConfig{SendCQ: scq, RecvCQ: dev.NewCQ()})
		if err != nil {
			t.Fatal(err)
		}
		tq, err := tpd.CreateQP(QPConfig{SendCQ: target.NewCQ(), RecvCQ: target.NewCQ()})
		if err != nil {
			t.Fatal(err)
		}
		if err := Connect(qp, tq); err != nil {
			t.Fatal(err)
		}
		local := mustMRAt(t, pd, 8, AccessLocalWrite)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < addsEach; k++ {
				if err := qp.PostSend(SendWR{
					Op: OpFetchAdd, Signaled: true, Add: uint64(id + 1),
					Local:  Segment{MR: local, Length: 8},
					Remote: RemoteSegment{RKey: counter.RKey()},
				}); err != nil {
					errs <- err
					return
				}
				if c := scq.Wait(); c.Err() != nil {
					errs <- c.Err()
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var want uint64
	for i := 0; i < clients; i++ {
		want += uint64(i+1) * addsEach
	}
	if got := binary.LittleEndian.Uint64(counter.Bytes()); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
}

func mustMRAt(t *testing.T, pd *ProtectionDomain, n int, access Access) *MemoryRegion {
	t.Helper()
	mr, err := pd.RegisterMemory(make([]byte, n), access)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func TestInlineSend(t *testing.T) {
	p := newTestPair(t)
	dst := mustMR(t, p.pdB, 64, AccessLocalWrite)
	if err := p.qpB.PostRecv(RecvWR{WRID: 1, Local: Segment{MR: dst, Length: 64}}); err != nil {
		t.Fatal(err)
	}
	// Inline payload from unregistered memory, mutated right after post:
	// the post-time snapshot must be what arrives.
	payload := []byte("inline payload!!")
	if err := p.qpA.PostSend(SendWR{Op: OpSend, Inline: payload, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X'
	c := p.rcqB.Wait()
	if c.Err() != nil || c.Bytes != 16 {
		t.Fatalf("bad recv: %+v", c)
	}
	if string(dst.Bytes()[:16]) != "inline payload!!" {
		t.Fatalf("inline snapshot violated: %q", dst.Bytes()[:16])
	}
	if sc := p.scqA.Wait(); sc.Bytes != 16 {
		t.Fatalf("send completion bytes = %d", sc.Bytes)
	}
}

func TestInlineWrite(t *testing.T) {
	p := newTestPair(t)
	dst := mustMR(t, p.pdB, 64, AccessRemoteWrite)
	if err := p.qpA.PostSend(SendWR{
		Op: OpWrite, Inline: []byte{1, 2, 3, 4}, Signaled: true,
		Remote: RemoteSegment{RKey: dst.RKey(), Offset: 10},
	}); err != nil {
		t.Fatal(err)
	}
	if c := p.scqA.Wait(); c.Err() != nil {
		t.Fatal(c.Err())
	}
	for i, want := range []byte{1, 2, 3, 4} {
		if dst.Bytes()[10+i] != want {
			t.Fatal("inline write payload mismatch")
		}
	}
}

func TestInlineValidation(t *testing.T) {
	p := newTestPair(t)
	if err := p.qpA.PostSend(SendWR{Op: OpSend, Inline: make([]byte, MaxInline+1)}); err == nil {
		t.Fatal("oversized inline should fail")
	}
	if err := p.qpA.PostSend(SendWR{Op: OpRead, Inline: []byte{1}}); err == nil {
		t.Fatal("inline READ should fail")
	}
	if err := p.qpA.PostSend(SendWR{Op: OpWrite, Inline: []byte{1}}); err != ErrNeedRemoteSeg {
		t.Fatalf("inline write without remote: %v", err)
	}
}

func TestSRQSharedAcrossQPs(t *testing.T) {
	net := NewNetwork(fabric.Config{})
	defer net.Close()
	recvDev := net.NewDevice()
	rpd := recvDev.AllocPD()
	srq := rpd.CreateSRQ(16)
	rcq := recvDev.NewCQ()
	slab := mustMRAt(t, rpd, 16*64, AccessLocalWrite)
	for i := 0; i < 16; i++ {
		if err := srq.PostRecv(RecvWR{WRID: uint64(i), Local: Segment{MR: slab, Offset: i * 64, Length: 64}}); err != nil {
			t.Fatal(err)
		}
	}

	const senders = 4
	scqs := make([]*CompletionQueue, senders)
	qps := make([]*QP, senders)
	srcs := make([]*MemoryRegion, senders)
	for i := 0; i < senders; i++ {
		dev := net.NewDevice()
		pd := dev.AllocPD()
		scqs[i] = dev.NewCQ()
		qp, err := pd.CreateQP(QPConfig{SendCQ: scqs[i], RecvCQ: dev.NewCQ()})
		if err != nil {
			t.Fatal(err)
		}
		rqp, err := rpd.CreateQP(QPConfig{SendCQ: rcq, RecvCQ: rcq, SRQ: srq})
		if err != nil {
			t.Fatal(err)
		}
		if err := Connect(qp, rqp); err != nil {
			t.Fatal(err)
		}
		qps[i] = qp
		srcs[i] = mustMRAt(t, pd, 64, 0)
	}
	// A QP with an SRQ must reject direct PostRecv.
	srqQP, err := rpd.CreateQP(QPConfig{SendCQ: rcq, RecvCQ: rcq, SRQ: srq})
	if err != nil {
		t.Fatal(err)
	}
	if err := srqQP.PostRecv(RecvWR{Local: Segment{MR: slab, Length: 64}}); err == nil {
		t.Fatal("PostRecv on SRQ-backed QP should fail")
	}

	// Each sender ships 3 messages; all 12 consume SRQ buffers.
	for i, qp := range qps {
		for k := 0; k < 3; k++ {
			srcs[i].Bytes()[0] = byte(i)
			if err := qp.PostSend(SendWR{Op: OpSend, Signaled: true, Local: Segment{MR: srcs[i], Length: 64}}); err != nil {
				t.Fatal(err)
			}
			if c := scqs[i].Wait(); c.Err() != nil {
				t.Fatal(c.Err())
			}
		}
	}
	seen := make(map[uint64]bool)
	for i := 0; i < senders*3; i++ {
		c := rcq.Wait()
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		if seen[c.WRID] {
			t.Fatalf("SRQ buffer %d consumed twice without repost", c.WRID)
		}
		seen[c.WRID] = true
	}
	if srq.RNRWaits() != 0 {
		t.Fatalf("unexpected SRQ RNR waits: %d", srq.RNRWaits())
	}
}

func TestSRQValidation(t *testing.T) {
	net := NewNetwork(fabric.Config{})
	defer net.Close()
	devA, devB := net.NewDevice(), net.NewDevice()
	pdA, pdB := devA.AllocPD(), devB.AllocPD()
	srq := pdA.CreateSRQ(2)
	// Cross-PD QP creation with foreign SRQ fails.
	if _, err := pdB.CreateQP(QPConfig{SendCQ: devB.NewCQ(), RecvCQ: devB.NewCQ(), SRQ: srq}); err != ErrWrongPD {
		t.Fatalf("cross-PD SRQ: %v", err)
	}
	mrB := mustMRAt(t, pdB, 16, AccessLocalWrite)
	if err := srq.PostRecv(RecvWR{Local: Segment{MR: mrB, Length: 16}}); err != ErrWrongPD {
		t.Fatalf("cross-PD post: %v", err)
	}
	if err := srq.PostRecv(RecvWR{}); err == nil {
		t.Fatal("nil MR should fail")
	}
	mrA := mustMRAt(t, pdA, 16, AccessLocalWrite)
	if err := srq.PostRecv(RecvWR{Local: Segment{MR: mrA, Length: 16}}); err != nil {
		t.Fatal(err)
	}
	if err := srq.PostRecv(RecvWR{Local: Segment{MR: mrA, Length: 16}}); err != nil {
		t.Fatal(err)
	}
	if err := srq.PostRecv(RecvWR{Local: Segment{MR: mrA, Length: 16}}); err != ErrRQFull {
		t.Fatalf("full SRQ: %v", err)
	}
	srq.Close()
	if err := srq.PostRecv(RecvWR{Local: Segment{MR: mrA, Length: 16}}); err != ErrClosed {
		t.Fatalf("closed SRQ: %v", err)
	}
}

// Property: a sequence of fetch-adds with arbitrary addends accumulates
// exactly and each returns the running prefix sum.
func TestPropertyFetchAddPrefixSums(t *testing.T) {
	p, local, remote := atomicPair(t)
	f := func(addends []uint8) bool {
		binary.LittleEndian.PutUint64(remote.Bytes(), 0)
		var sum uint64
		for _, a := range addends {
			err := p.qpA.PostSend(SendWR{
				Op: OpFetchAdd, Signaled: true, Add: uint64(a),
				Local:  Segment{MR: local, Length: 8},
				Remote: RemoteSegment{RKey: remote.RKey()},
			})
			if err != nil {
				return false
			}
			if c := p.scqA.Wait(); c.Err() != nil {
				return false
			}
			if binary.LittleEndian.Uint64(local.Bytes()) != sum {
				return false
			}
			sum += uint64(a)
		}
		return binary.LittleEndian.Uint64(remote.Bytes()) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
