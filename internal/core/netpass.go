package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rackjoin/internal/metrics"
	"rackjoin/internal/radix"
	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
)

// atomicWRID marks fetch-and-add completions on a thread's send CQ so
// they are distinguishable from buffer-transfer completions (whose WRIDs
// are pool buffer indexes).
const atomicWRID = uint64(1) << 62

// relationFlag marks S-relation buffers in the immediate value of channel
// transfers; the low 31 bits carry the partition id.
const relationFlag = uint32(1) << 31

// bufferPool manages one thread's pre-allocated, pre-registered
// RDMA-enabled buffers (Section 4.2.1). Buffers are acquired for filling,
// posted when full, and returned by polling the thread's send completion
// queue. The pool thereby enforces the cardinal RDMA discipline: a buffer
// is reused only after its transfer completed.
type bufferPool struct {
	mr      *rdma.MemoryRegion
	bufSize int
	cq      *rdma.CompletionQueue
	free    []int32
	// outstanding counts posted-but-not-completed buffers.
	outstanding int
	// stalls counts acquisitions that blocked on a completion.
	stalls uint64
	// atomicMR is the thread's 8-byte landing pad for fetch-and-add
	// results (atomic-append transport).
	atomicMR *rdma.MemoryRegion

	// Registry handles (nil-safe): waitHist records time spent blocked on
	// completions when the pool is dry, stallCtr mirrors stalls, flushes
	// counts shipped buffers (buffer swaps).
	waitHist *metrics.Histogram
	stallCtr *metrics.Counter
	flushes  *metrics.Counter
	// onStall, when set, mirrors each stall into the flight recorder
	// (and, when scheduled, the adaptive sizer's shrink signal).
	onStall func()

	// Per-destination in-flight accounting for the adaptive transfer
	// budgets (netsched): destOf[i] is the destination of buffer i's
	// outstanding transfer, inflightTo the per-destination in-flight
	// counts. nil when unscheduled — every recycle path goes through
	// recycle(), which keeps the counts consistent either way.
	destOf     []int32
	inflightTo []int
}

// recycle returns a completed transfer's buffer to the pool, releasing
// its per-destination in-flight slot. Every completion path — reap,
// acquire's wait loop, waitOne, waitAtomic, the pipelined drain — must
// come through here so the budget accounting cannot leak.
func (p *bufferPool) recycle(i int32) {
	p.free = append(p.free, i)
	p.outstanding--
	if p.inflightTo != nil {
		p.inflightTo[p.destOf[i]]--
	}
}

// markInflight records a successful post of buffer i toward dest.
func (p *bufferPool) markInflight(i int32, dest int) {
	p.outstanding++
	if p.inflightTo != nil {
		p.destOf[i] = int32(dest)
		p.inflightTo[dest]++
	}
}

func newBufferPool(st *machineState, cq *rdma.CompletionQueue, bufSize, count int, withAtomic bool) (*bufferPool, error) {
	mr, err := st.register(make([]byte, bufSize*count), 0)
	if err != nil {
		return nil, err
	}
	p := &bufferPool{mr: mr, bufSize: bufSize, cq: cq, free: make([]int32, 0, count)}
	for i := count - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
	if withAtomic {
		if p.atomicMR, err = st.register(make([]byte, 8), rdma.AccessLocalWrite); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// waitAtomic blocks until the pending fetch-and-add completes, recycling
// any buffer completions that arrive first, and returns the fetched value.
func (p *bufferPool) waitAtomic() (uint64, error) {
	for {
		c := p.cq.Wait()
		if err := c.Err(); err != nil {
			return 0, err
		}
		if c.WRID == atomicWRID {
			return binary.LittleEndian.Uint64(p.atomicMR.Bytes()), nil
		}
		p.recycle(int32(c.WRID))
	}
}

// buf returns the byte range of buffer i.
func (p *bufferPool) buf(i int32) []byte {
	return p.mr.Bytes()[int(i)*p.bufSize : (int(i)+1)*p.bufSize]
}

// reap recycles all already-available completions without blocking.
func (p *bufferPool) reap() error {
	var batch [16]rdma.Completion
	for {
		n := p.cq.Poll(batch[:])
		if n == 0 {
			return nil
		}
		for _, c := range batch[:n] {
			if err := c.Err(); err != nil {
				return err
			}
			p.recycle(int32(c.WRID))
		}
	}
}

// acquire returns a free buffer index, blocking on completions when the
// pool is exhausted (the back-pressure of a network-bound run).
func (p *bufferPool) acquire() (int32, error) {
	if err := p.reap(); err != nil {
		return 0, err
	}
	var waitStart time.Time
	for len(p.free) == 0 {
		if p.outstanding == 0 {
			return 0, fmt.Errorf("core: buffer pool exhausted with no transfers in flight")
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		p.stalls++
		p.stallCtr.Inc()
		if p.onStall != nil {
			p.onStall()
		}
		c := p.cq.Wait()
		if err := c.Err(); err != nil {
			return 0, err
		}
		p.recycle(int32(c.WRID))
	}
	if !waitStart.IsZero() {
		p.waitHist.ObserveSince(waitStart)
	}
	i := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return i, nil
}

// release returns an unposted buffer to the pool.
func (p *bufferPool) release(i int32) { p.free = append(p.free, i) }

// drain blocks until every posted buffer has completed.
func (p *bufferPool) drain() error {
	for p.outstanding > 0 {
		if err := p.waitOne(); err != nil {
			return err
		}
	}
	return nil
}

// waitOne blocks for a single completion and recycles its buffer.
func (p *bufferPool) waitOne() error {
	c := p.cq.Wait()
	if err := c.Err(); err != nil {
		return err
	}
	p.recycle(int32(c.WRID))
	return nil
}

// allocPools pre-allocates and pre-registers each partitioning thread's
// buffer pool (setup, untimed — the paper draws buffers "from a pool
// containing preallocated and preregistered buffers").
func (st *machineState) allocPools() error {
	st.pools = make([]*bufferPool, st.partThreads)
	// Resolve the netpass kernel-bytes counter once here (single-threaded
	// setup) instead of per scatterSlice call: the labels are fixed for the
	// whole run, and resolving in the hot path cost two label allocations
	// plus a registry lookup per slice.
	kern := "scalar"
	if st.cfg.Kernels.Resolve(st.width, st.cfg.NetworkBits) == radix.KernelWC {
		kern = "wc"
	}
	st.netKernelBytes = st.met.Counter("kernel_bytes_total",
		metrics.L("kernel", kern), metrics.L("phase", "netpass"))
	if st.nm == 1 || st.cfg.Transport == TransportOneSidedRead {
		return nil // pull mode ships nothing from the sender side
	}
	// Remote partitions each need BuffersPerPartition buffers; broadcast
	// partitions replicate their inner side to all nm-1 peers; skew-split
	// partitions additionally deal their outer side to all nm-1 peers.
	remote := st.np - len(st.resident)
	numBcast := len(st.resident) - len(st.owned)
	numSplit := len(st.skewStats.SplitPartitions)
	count := st.cfg.BuffersPerPartition * (remote + (numBcast+numSplit)*(st.nm-1))
	if count <= 0 {
		return nil
	}
	withAtomic := st.cfg.Transport == TransportOneSidedAtomic
	for t := 0; t < st.partThreads; t++ {
		pool, err := newBufferPool(st, st.sendCQ[t], st.cfg.BufferSize, count, withAtomic)
		if err != nil {
			return err
		}
		ts := st.met.With(metrics.L("thread", strconv.Itoa(t)))
		pool.waitHist = ts.Histogram("netpass_buffer_wait_seconds")
		pool.stallCtr = ts.Counter("netpass_buffer_stalls_total")
		pool.flushes = ts.Counter("netpass_buffer_flushes_total")
		if st.cfg.Flight != nil {
			t := t
			pool.onStall = func() { st.flight("pool_stall", fmt.Sprintf("thread %d pool dry", t), 0, 0) }
		}
		st.pools[t] = pool
	}
	// Per-destination link-bytes counters: the directed-link traffic
	// matrix the health plane's online engine reads.
	st.linkBytes = make([]*metrics.Counter, st.nm)
	for d := 0; d < st.nm; d++ {
		if d != st.m.ID {
			st.linkBytes[d] = st.met.Counter("netpass_link_bytes_total",
				metrics.L("dest", strconv.Itoa(d)))
		}
	}
	// Per-partition bytes-shipped counters, created here (single-threaded
	// setup) for exactly the partitions this machine ships: non-resident
	// ones and the replicated inner side of broadcast partitions.
	st.shipped = make([]*metrics.Counter, st.np)
	for p := 0; p < st.np; p++ {
		if !st.residentHere(p) || st.broadcast[p] {
			st.shipped[p] = st.met.Counter("netpass_bytes_shipped_total",
				metrics.L("partition", strconv.Itoa(p)))
		}
	}
	// Communication schedule + adaptive budgets (netsched.Off: no-op).
	st.initNetSched(count)
	return nil
}

// networkPartitionPass runs the partitioning threads (and, for channel
// semantics, the network thread) of the network partitioning pass.
func (st *machineState) networkPartitionPass() error {
	if st.cfg.Transport == TransportOneSidedRead {
		return st.pullNetworkPass()
	}
	nWorkers := st.partThreads
	errs := make([]error, nWorkers+1)
	var wg sync.WaitGroup
	if st.nm > 1 && st.cfg.usesNetworkThread() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st.cfg.Transport == TransportTCP {
				errs[nWorkers] = st.tcpReceiveLoop()
			} else {
				errs[nWorkers] = st.receiveLoop()
			}
		}()
	}
	for t := 0; t < nWorkers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = st.partitionThread(t)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, p := range st.pools {
		if p != nil {
			st.poolStalls += p.stalls
		}
	}
	return nil
}

// partitionThread scatters this thread's slices of R and S, then drains
// its outstanding transfers so that the pass ends only when all data is
// acknowledged by the receiving hosts.
func (st *machineState) partitionThread(t int) error {
	if err := st.scatterSlice(t, st.R, false); err != nil {
		return err
	}
	if err := st.scatterSlice(t, st.S, true); err != nil {
		return err
	}
	if st.pipe != nil {
		// Local slab writes are complete once every thread scattered both
		// relations; fully-received partitions become ready.
		st.pipe.scatterDone()
	}
	if pool := st.pools[t]; pool != nil {
		if st.pipe != nil {
			// Pipelined: recycle completions by polling and spend the
			// gaps on partition-ready join work instead of blocking.
			if err := st.pipe.drainInterleaved(pool, st.pipe.workers[t]); err != nil {
				return err
			}
		} else if err := pool.drain(); err != nil {
			return err
		}
	}
	if st.pipe != nil {
		return st.pipe.threadDrained()
	}
	return nil
}

// stream is one outgoing buffer stream of a scatter pass: the pool buffer
// being filled (-1: none) and, on the exact-placement transport, the next
// tuple offset within the destination's slab. A remote partition has one
// stream, whose fill level lives in the partition's write window (the
// kernel advances it); broadcast and split partitions have one stream per
// destination, filled a tuple at a time by replicate and dealSplit, which
// count fill here.
type stream struct {
	buf       int32
	fill      int32 // broadcast and split streams only; unused in threadState.remote
	remoteCur int64
}

// bcastState is the inner side of one work-shared partition within a
// scatter pass: every tuple is written into this thread's share of the
// local slab AND replicated into one stream per peer. Exact one-sided
// cursors are per thread here, unlike the shared split cursors.
type bcastState struct {
	local   []byte // unwritten rest of this thread's local slab range
	streams []stream
}

// threadState carries one scatter pass of one partitioning thread.
type threadState struct {
	// wins is the kernel's window table (radix.ScatterWindows), one write
	// window per partition, owned by this thread for the pass:
	//   - a resident partition's window lies over this thread's share of
	//     the local slab and is sized by the thread's own histogram count —
	//     exact, so the kernel never returns for it;
	//   - a remote partition's window lies over its current pool buffer
	//     (remote[p].buf) and holds BufferSize/width tuples; empty until
	//     the first tuple arrives, and again from flush to the next tuple;
	//   - the inner side of a broadcast partition and the outer side of a
	//     split partition keep a permanently empty window: the kernel hands
	//     every such tuple back for replicate / dealSplit.
	wins   []radix.Window
	remote []stream     // indexed by partition like wins; idle (buf -1) for all but remote ones
	kern   radix.Kernel // resolved for this pass: wc or scalar
	// capTuples is the tuple capacity of one pool buffer.
	capTuples int32
	scratch   []byte // stream transport staging area

	// bcast[p] is non-nil for the broadcast partitions of an inner pass,
	// split[p] (one stream per destination) for the split partitions of an
	// outer pass; both tables are nil when the pass has none. Exact
	// one-sided cursors of split streams live on machineState
	// (splitRemoteCur): they are shared across threads.
	bcast []*bcastState
	split [][]stream
	// repBytes counts tuple bytes replicated into broadcast buffers —
	// kernel work on top of the input scan, folded into
	// kernel_bytes_total at end of slice.
	repBytes uint64

	// Parked buffers (netsched): FIFO of filled buffers waiting for
	// their pairing round; parkedHead skips posted entries, parkedLive
	// counts the ones still waiting.
	parked     []parkedBuf
	parkedHead int
	parkedLive int
}

// newStreams returns one idle stream per machine.
func newStreams(nm int) []stream {
	s := make([]stream, nm)
	for d := range s {
		s[d].buf = -1
	}
	return s
}

func (st *machineState) newThreadState(t int, isS bool) *threadState {
	ts := &threadState{
		wins:      make([]radix.Window, st.np),
		remote:    newStreams(st.np),
		kern:      st.cfg.Kernels.Resolve(st.width, st.cfg.NetworkBits),
		capTuples: int32(st.cfg.BufferSize / st.width),
	}
	if st.cfg.Transport == TransportStream {
		ts.scratch = make([]byte, st.cfg.BufferSize)
	}
	hists, all, slabOff, slab := st.threadHistR, st.allHistR, st.slabOffR, st.slabR
	if isS {
		hists, all, slabOff, slab = st.threadHistS, st.allHistS, st.slabOffS, st.slabS
	}
	w := int64(st.width)
	for p := 0; p < st.np; p++ {
		switch {
		case isS && st.isSplit(p):
			// The outer side of a split partition goes through the shared
			// round-robin dealer: no per-thread local range, one deal
			// stream per destination.
			if ts.split == nil {
				ts.split = make([][]stream, st.np)
			}
			ts.split[p] = newStreams(st.nm)
		case st.residentHere(p):
			lo := (st.localWriteBase(p, isS) + threadPrefix(hists, t, p)) * w
			local := slab.Bytes()[lo : lo+hists[t][p]*w]
			if !st.broadcast[p] || isS {
				ts.wins[p].Set(local, st.width)
				continue
			}
			// The inner side of a work-shared partition is written
			// locally AND replicated to every peer.
			if ts.bcast == nil {
				ts.bcast = make([]*bcastState, st.np)
			}
			b := &bcastState{local: local, streams: newStreams(st.nm)}
			for d := range b.streams {
				if d != st.m.ID {
					b.streams[d].remoteCur = slabOff[d][p] + machinePrefix(all, st.m.ID, p) + threadPrefix(hists, t, p)
				}
			}
			ts.bcast[p] = b
		default:
			ts.remote[p].remoteCur = slabOff[st.owner[p]][p] + machinePrefix(all, st.m.ID, p) + threadPrefix(hists, t, p)
		}
	}
	return ts
}

// put copies one tuple into dst with the pass's kernel flavour: whole
// words for wc (no memmove dispatch), the plain copy for the scalar
// ablation baseline. Slow-path use only — the kernel moves everything
// that needs nothing but a copy.
func (ts *threadState) put(dst, tuple []byte) {
	if ts.kern == radix.KernelWC {
		relation.CopyTuple(dst, tuple, len(tuple))
	} else {
		copy(dst, tuple)
	}
}

// scatterSlice runs one scatter pass of the network partitioning pass: it
// routes every tuple of this thread's contiguous input slice either into
// the local destination slab or into the RDMA buffer of its remote
// partition, shipping buffers as they fill, then ships the partial tail.
func (st *machineState) scatterSlice(t int, rel *relation.Relation, isS bool) error {
	n := rel.Len()
	data := rel.Slice(n*t/st.partThreads, n*(t+1)/st.partThreads).Bytes()
	ts := st.newThreadState(t, isS)
	if err := st.scatterLoop(t, ts, data, isS); err != nil {
		return err
	}
	// Input bytes plus the broadcast replicas: the scatter kernels wrote
	// both, so kernel_bytes_total must see both.
	st.netKernelBytes.Add(uint64(len(data)) + ts.repBytes)
	// Ship the partial buffers. A stream holds a buffer only once a tuple
	// is about to land in it, so none of them is empty.
	for p := 0; p < st.np; p++ {
		var err error
		switch {
		case ts.bcast != nil && ts.bcast[p] != nil:
			err = eachHeld(ts.bcast[p].streams, func(d int) error { return st.flushBcast(t, ts, p, d) })
		case ts.split != nil && ts.split[p] != nil:
			err = eachHeld(ts.split[p], func(d int) error { return st.flushSplit(t, ts, p, d) })
		case ts.remote[p].buf >= 0:
			err = st.flush(t, ts, p, isS)
		}
		if err != nil {
			return err
		}
	}
	// Tail drain: cycle the schedule until every parked buffer posted —
	// the pass may not end (and EOP may not fire) with buffers held
	// back, and the thread state dies with this slice.
	return st.drainParked(t, ts)
}

// scatterLoop is the hot loop of the network partitioning pass, and all of
// it that lives in core: run the window kernel, handle the partition it
// came back for, resume. The kernel returns only for a tuple whose window
// has no room — once per buffer for a remote partition (ship it, seat the
// window on a fresh one, resume at the same tuple), and once per tuple for
// the replicate / deal slow paths (route the tuple here, resume behind
// it). A resident partition's window is exact, so a return for one means
// the input disagrees with the histogram it was sized from.
//
//rack:hotpath
func (st *machineState) scatterLoop(t int, ts *threadState, data []byte, isS bool) error {
	width := st.width
	bits := st.cfg.NetworkBits
	for off := 0; ; {
		var p int
		if off, p = radix.ScatterWindows(ts.kern, data, off, width, ts.wins, 0, bits); p < 0 {
			return nil
		}
		switch {
		case ts.bcast != nil && ts.bcast[p] != nil:
			if err := st.replicate(t, ts, p, data[off:off+width]); err != nil {
				return err
			}
			off += width
		case ts.split != nil && ts.split[p] != nil:
			if err := st.dealSplit(t, ts, p, data[off:off+width]); err != nil {
				return err
			}
			off += width
		case st.residentHere(p):
			return errSlabOverflow(p)
		default:
			if err := st.nextBuffer(t, ts, p, isS); err != nil {
				return err
			}
		}
	}
}

// errSlabOverflow reports a tuple with no room left in its histogram-sized
// local slab range. Not inlined: formatting allocates, and the resume loop
// it is called from is held allocation-free.
//
//go:noinline
func errSlabOverflow(p int) error {
	return fmt.Errorf("core: partition %d holds more tuples than the histogram phase counted", p)
}

// nextBuffer makes room in remote partition p's window: the full buffer,
// if there is one, ships to the owner, and the window moves onto a freshly
// acquired buffer. Acquisition stays lazy — this runs only with a tuple of
// p in hand — so an idle partition never holds a buffer.
func (st *machineState) nextBuffer(t int, ts *threadState, p int, isS bool) error {
	if ts.remote[p].buf >= 0 {
		if err := st.flush(t, ts, p, isS); err != nil {
			return err
		}
	}
	b, err := st.acquireFor(t, ts)
	if err != nil {
		return err
	}
	ts.remote[p].buf = b
	ts.wins[p].Set(st.pools[t].buf(b), st.width)
	return nil
}

// fillStream appends one tuple to a per-destination stream of a broadcast
// or split partition, acquiring its buffer on first use, and reports
// whether the buffer is now full.
func (st *machineState) fillStream(t int, ts *threadState, s *stream, tuple []byte) (bool, error) {
	if s.buf < 0 {
		b, err := st.acquireFor(t, ts)
		if err != nil {
			return false, err
		}
		s.buf, s.fill = b, 0
	}
	ts.put(st.pools[t].buf(s.buf)[int(s.fill)*st.width:], tuple)
	s.fill++
	return s.fill == ts.capTuples, nil
}

// replicate routes one inner tuple of broadcast partition p: into this
// thread's share of the local slab, and into the per-destination streams,
// shipping any buffer that fills up.
func (st *machineState) replicate(t int, ts *threadState, p int, tuple []byte) error {
	b := ts.bcast[p]
	if len(b.local) < len(tuple) {
		return errSlabOverflow(p)
	}
	ts.put(b.local, tuple)
	b.local = b.local[len(tuple):]
	for d := range b.streams {
		if d == st.m.ID {
			continue
		}
		full, err := st.fillStream(t, ts, &b.streams[d], tuple)
		if err != nil {
			return err
		}
		ts.repBytes += uint64(len(tuple))
		if full {
			if err := st.flushBcast(t, ts, p, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// dealSplit routes one outer tuple of skew-split partition p: a shared
// per-partition counter deals tuples round-robin across all machines, so
// the hot partition's probe work spreads evenly instead of landing on one
// straggler. Self-dealt tuples go straight into the local slab through
// the shared offset cursor; remote destinations fill per-destination
// buffers that ship through the same scheduled path as everything else.
func (st *machineState) dealSplit(t int, ts *threadState, p int, tuple []byte) error {
	idx := st.splitNext[p].Add(1) - 1
	dest := (st.splitStartDest(st.m.ID, p) + int(idx%int64(st.nm))) % st.nm
	if dest == st.m.ID {
		cur := (st.splitLocalCur[p].Add(1) - 1) * int64(st.width)
		ts.put(st.slabS.Bytes()[cur:], tuple)
		return nil
	}
	full, err := st.fillStream(t, ts, &ts.split[p][dest], tuple)
	if err != nil || !full {
		return err
	}
	return st.flushSplit(t, ts, p, dest)
}

// eachHeld calls flush(i) for every stream of ss that holds a buffer.
func eachHeld(ss []stream, flush func(i int) error) error {
	for i := range ss {
		if ss[i].buf >= 0 {
			if err := flush(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// take detaches the stream's current buffer for shipping and returns it
// with its tuple count.
func (s *stream) take() (buf, tuples int32) {
	buf, tuples = s.buf, s.fill
	s.buf, s.fill = -1, 0
	return buf, tuples
}

// flushSplit ships the current deal buffer of (split partition p, dest).
// On the exact-placement transport the write range is pre-reserved from
// the shared per-(partition, destination) cursor; ship's park path copies
// the cursor value into the parked entry, so handing it a stack slot is
// safe even though the buffer may post out of order.
func (st *machineState) flushSplit(t int, ts *threadState, p, dest int) error {
	buf, tuples := ts.split[p][dest].take()
	var cur int64
	if st.cfg.Transport == TransportOneSided {
		cur = st.splitRemoteCur[p][dest].Add(int64(tuples)) - int64(tuples)
	}
	return st.ship(t, ts, buf, tuples, p, true, dest, &cur)
}

// flushBcast ships the current broadcast buffer of (partition p, dest)
// through the same scheduled posting path as everything else, so the
// communication schedule, the transfer budgets and the per-target
// accounting all see the replicated traffic.
func (st *machineState) flushBcast(t int, ts *threadState, p, dest int) error {
	s := &ts.bcast[p].streams[dest]
	buf, tuples := s.take()
	return st.ship(t, ts, buf, tuples, p, false, dest, &s.remoteCur)
}

// flush posts the current buffer of remote partition p towards its owner
// and leaves the partition's window empty: the kernel returns at p's next
// tuple, which is when nextBuffer acquires the replacement.
func (st *machineState) flush(t int, ts *threadState, p int, isS bool) error {
	s := &ts.remote[p]
	buf, tuples := s.buf, int32(ts.wins[p].Fill())
	s.buf = -1
	ts.wins[p].Clear()
	return st.ship(t, ts, buf, tuples, p, isS, st.owner[p], &s.remoteCur)
}

// postBuffer ships one filled buffer of partition p to machine dest over
// the configured transport. remoteCur is the sender's exact-placement
// tuple cursor into dest's region (one-sided mode); it advances by the
// posted tuple count. With interleaving disabled the call blocks until
// the transfer is acknowledged (the Figure 5b "non-interleaved"
// ablation).
func (st *machineState) postBuffer(t int, ts *threadState, buf, tuples int32, p int, isS bool, dest int, remoteCur *int64) error {
	pool := st.pools[t]
	length := int(tuples) * st.width
	owner := dest
	pool.flushes.Inc()
	if st.shipped != nil && st.shipped[p] != nil {
		st.shipped[p].Add(uint64(length))
	}
	if st.linkBytes != nil && st.linkBytes[dest] != nil {
		st.linkBytes[dest].Add(uint64(length))
	}
	if st.skewRepl != nil && st.skewRepl[p] != nil {
		// Split-partition traffic — replicated inner tuples and dealt
		// outer tuples — is the price of the skew mitigation; the health
		// plane reads this counter to see the mitigation working.
		st.skewRepl[p].Add(uint64(length))
		st.skewReplBytes.Add(uint64(length))
	}

	if st.cfg.Transport == TransportTCP {
		// Kernel TCP: Send returns once the kernel copied the payload, so
		// the buffer is immediately reusable (copy semantics — the cost
		// the paper charges the TCP/IP implementation with).
		tag := uint32(p)
		if isS {
			tag |= relationFlag
		}
		err := st.tcp.Send(t, owner, tag, pool.buf(buf)[:length])
		pool.release(buf)
		if err != nil {
			return err
		}
		st.tcpBytes.Add(uint64(length))
		st.tcpMsgs.Add(1)
		return nil
	}

	qp := st.qps[t][owner]

	// Adaptive transfer budget: cap the in-flight transfers toward each
	// destination. An exhausted budget is back-pressure, not an error —
	// recycle any completion and re-check. in-flight ≤ outstanding, so
	// the wait always terminates.
	if pool.inflightTo != nil && st.netBudget != nil {
		waited := false
		for pool.inflightTo[dest] >= st.netBudget.Budget(dest) && pool.outstanding > 0 {
			if !waited {
				st.budgetWaits.Inc()
				waited = true
			}
			if err := pool.waitOne(); err != nil {
				pool.release(buf)
				return err
			}
		}
	}

	if st.cfg.Transport == TransportOneSidedAtomic {
		// Reserve the write range with a remote fetch-and-add on the
		// owner's append cursor — one extra round-trip per buffer, the
		// cost the histogram phase's precomputed offsets avoid.
		if err := qp.PostSend(rdma.SendWR{
			WRID: atomicWRID, Op: rdma.OpFetchAdd, Signaled: true,
			Add:    uint64(tuples),
			Local:  rdma.Segment{MR: pool.atomicMR, Length: 8},
			Remote: rdma.RemoteSegment{RKey: uint32(st.rkeysCur[owner]), Offset: cursorOffset(p, isS)},
		}); err != nil {
			pool.release(buf)
			return err
		}
		fetched, err := pool.waitAtomic()
		if err != nil {
			pool.release(buf)
			return err
		}
		slabOff := st.slabOffR[owner]
		rkeys := st.rkeysR
		if isS {
			slabOff = st.slabOffS[owner]
			rkeys = st.rkeysS
		}
		wr := rdma.SendWR{
			WRID: uint64(buf), Signaled: true, Op: rdma.OpWrite,
			Local:  rdma.Segment{MR: pool.mr, Offset: int(buf) * pool.bufSize, Length: length},
			Remote: rdma.RemoteSegment{RKey: uint32(rkeys[owner]), Offset: (int(slabOff[p]) + int(fetched)) * st.width},
		}
		if err := qp.PostSend(wr); err != nil {
			pool.release(buf)
			return err
		}
		pool.markInflight(buf, dest)
		if !st.cfg.interleaved() {
			return pool.drain()
		}
		return nil
	}

	if ts.scratch != nil {
		// Stream transport: emulate the kernel-boundary copy of TCP/IP by
		// staging the payload once more before handing it to the wire.
		copy(ts.scratch, pool.buf(buf)[:length])
	}

	wr := rdma.SendWR{
		WRID:     uint64(buf),
		Signaled: true,
		Local:    rdma.Segment{MR: pool.mr, Offset: int(buf) * pool.bufSize, Length: length},
	}
	if st.cfg.Transport == TransportOneSided {
		rkeys := st.rkeysR
		if isS {
			rkeys = st.rkeysS
		}
		wr.Op = rdma.OpWrite
		wr.Remote = rdma.RemoteSegment{
			RKey:   uint32(rkeys[owner]),
			Offset: int(*remoteCur) * st.width,
		}
		*remoteCur += int64(tuples)
	} else {
		wr.Op = rdma.OpSend
		wr.Imm = uint32(p)
		wr.HasImm = true
		if isS {
			wr.Imm |= relationFlag
		}
	}
	// A full send queue is back-pressure, not an error: recycle a
	// completed transfer and retry, exactly like a verbs application
	// spinning on its completion queue.
	var waitStart time.Time
	for {
		err := qp.PostSend(wr)
		if err == nil {
			break
		}
		if err != rdma.ErrQPFull {
			pool.release(buf)
			return err
		}
		if pool.outstanding == 0 {
			pool.release(buf)
			return fmt.Errorf("core: send queue full with no completions outstanding")
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		pool.stalls++
		pool.stallCtr.Inc()
		if pool.onStall != nil {
			pool.onStall()
		}
		if err := pool.waitOne(); err != nil {
			pool.release(buf)
			return err
		}
	}
	if !waitStart.IsZero() {
		pool.waitHist.ObserveSince(waitStart)
	}
	pool.markInflight(buf, dest)
	if tr := st.cfg.Trace; tr != nil && wr.Op == rdma.OpSend {
		// Channel semantics deliver a receive completion per message, so
		// the receiver can rendezvous this exact buffer: emit the sender
		// half of the cross-machine flow edge, keyed by the per-(thread,
		// dest) sequence (FIFO per queue pair). One-sided WRITEs bypass
		// the remote CPU — causality there rides the end-of-partition
		// notifications instead.
		seq := st.msgSeq[t][owner]
		st.msgSeq[t][owner] = seq + 1
		tr.InstantFlowOut(st.m.ID, "msg", st.sendLabels[p], st.netSpan, int64(length),
			"msg", msgFlowKey(st.m.ID, t, owner, seq))
	}
	if !st.cfg.interleaved() {
		return pool.drain()
	}
	return nil
}
