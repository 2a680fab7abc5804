package main

import (
	"fmt"
	"sync"
	"time"

	"rackjoin"
	"rackjoin/internal/cluster"
	"rackjoin/internal/fabric"
	"rackjoin/internal/hashtable"
	"rackjoin/internal/netsched"
	"rackjoin/internal/radix"
	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
	"rackjoin/internal/skew"
	"rackjoin/internal/tcpnet"
)

// A layer probe calls a package's exported functions from outside, on one
// goroutine, with the shapes the workload gives them inside the join:
// its tuple width, radix bits, buffer size and average partition sizes.
// The numbers are ceilings for the ledger to hold the join's phases
// against, not a second benchmark of the kernels.

// perCall returns the median time of one op() call. A first call warms
// up, a calibration batch finds how many calls fill sc.probeBatch, and
// sc.probeBatches batches of that many calls are timed.
func (sc scale) perCall(op func()) time.Duration {
	op()
	n := 0
	for start := time.Now(); time.Since(start) < sc.probeBatch; n++ {
		op()
	}
	times := make([]float64, sc.probeBatches)
	for b := range times {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		times[b] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(times))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mbPerS is the rate of moving bytes in d.
func mbPerS(bytes int, d time.Duration) float64 {
	return ratio(float64(bytes)/mib, d.Seconds())
}

// prober carries what every probe needs.
type prober struct {
	in  *inputs
	sc  scale
	rec *recorder
	set *metricSet
}

// layer runs one layer's probe inside a span named after it.
func (p *prober) layer(name string, probe func() error) error {
	s := p.rec.start("probe."+name, 0)
	defer p.rec.finish(s)
	if err := probe(); err != nil {
		return fmt.Errorf("%s probe: %w", name, err)
	}
	return nil
}

// runProbes fills every probe metric of the ledger.
func runProbes(in *inputs, sc scale, rec *recorder, set *metricSet) error {
	p := &prober{in: in, sc: sc, rec: rec, set: set}
	for _, l := range []struct {
		name  string
		probe func() error
	}{
		{"radix", p.radixAndHashtable},
		{"rdma", p.rdma},
		{"fabric", p.fabric},
		{"tcpnet", p.tcpnet},
		{"cluster", p.cluster},
		{"skew", p.skew},
		{"netsched", p.netsched},
		{"mcjoin", p.mcjoin},
	} {
		if err := p.layer(l.name, l.probe); err != nil {
			return err
		}
	}
	return nil
}

// radixAndHashtable probes the kernels on machine 0's outer chunk (what
// one machine's partitioning threads scan), on one average network
// partition of it (the local pass's input) and on one average
// sub-partition pair (build-probe's input).
func (p *prober) radixAndHashtable() error {
	cfg := p.in.cfg
	b1, b2 := cfg.NetworkBits, cfg.LocalBits
	src := p.in.outer.Chunks[0]
	width := src.Width()

	hist := make([]int64, 1<<b1)
	d := p.sc.perCall(func() {
		clear(hist)
		radix.AddHistogram(hist, src, 0, b1)
	})
	p.set.set("radix.histogram_mb_per_s", mbPerS(src.Size(), d))

	offsets, _ := radix.PrefixSum(hist)
	cursors := make([]int64, len(offsets))
	dst := relation.NewAligned(width, src.Len())
	scatter := func() { radix.Scatter(src, dst, cursors, 0, b1) }
	if cfg.Kernels.Resolve(width, b1) == radix.KernelWC {
		wc := radix.NewWCBuffers(1<<b1, width)
		scatter = func() { radix.ScatterWC(src, dst, cursors, 0, b1, wc) }
	}
	d = p.sc.perCall(func() {
		copy(cursors, offsets)
		scatter()
	})
	p.set.set("radix.scatter_mb_per_s", mbPerS(src.Size(), d))

	// The local pass re-partitions one network partition by the next b2
	// bits. Its input here is a run of the scattered chunk as long as the
	// rack-wide average partition, starting at the chunk's biggest one.
	start := largestPartitionStart(radix.Bounds(hist))
	outerPart := dst.Slice(start, min(dst.Len(), start+p.in.outer.Len()>>b1))
	pt := radix.NewPartitioner(cfg.Kernels)
	d = p.sc.perCall(func() { pt.Partition(outerPart, b1, b2) })
	p.set.set("radix.partition_mb_per_s", mbPerS(outerPart.Size(), d))

	// Build-probe works on sub-partitions: |R| / 2^(b1+b2) build tuples
	// probed by |S| / 2^(b1+b2) outer tuples that all find a match.
	innerPart, _ := radix.NewPartitioner(cfg.Kernels).Partition(p.in.inner.Chunks[0], 0, b1)
	build := innerPart.Slice(0, max(1, p.in.inner.Len()>>(b1+b2)))
	probe := relation.New(width, max(1, p.in.outer.Len()>>(b1+b2)))
	for i := 0; i < probe.Len(); i++ {
		probe.SetKey(i, build.Key(i%build.Len()))
		probe.SetRID(i, uint64(i))
	}
	var tbl *hashtable.Table
	d = p.sc.perCall(func() { tbl = hashtable.Build(build) })
	p.set.set("hashtable.build_mtuples_per_s", ratio(float64(build.Len())/1e6, d.Seconds()))

	var batch hashtable.Batch
	batched := cfg.Kernels.BatchProbe(tbl.Len())
	var matches uint64
	d = p.sc.perCall(func() {
		if batched {
			matches, _ = tbl.ProbeRelationBatch(probe, &batch)
		} else {
			matches, _ = tbl.ProbeRelation(probe)
		}
	})
	if matches != uint64(probe.Len()) {
		return fmt.Errorf("hashtable probe found %d matches, want %d", matches, probe.Len())
	}
	p.set.set("hashtable.probe_mtuples_per_s", ratio(float64(probe.Len())/1e6, d.Seconds()))
	return nil
}

// largestPartitionStart returns the tuple offset at which the biggest
// partition of a scattered relation begins.
func largestPartitionStart(bounds []int64) int {
	best := 0
	for q := 1; q < len(bounds)-1; q++ {
		if bounds[q+1]-bounds[q] > bounds[best+1]-bounds[best] {
			best = q
		}
	}
	return int(bounds[best])
}

// rdma probes the verbs layer on a 2-machine rack with one request in
// flight: post, then wait for the completion.
func (p *prober) rdma() error {
	c, err := rackjoin.NewCluster(2, 1)
	if err != nil {
		return err
	}
	defer c.Close()
	a, b := c.Machine(0), c.Machine(1)
	cqA, cqB := a.Dev.NewCQ(), b.Dev.NewCQ()
	qpA, qpB, err := c.ConnectQPs(0, 1,
		rdma.QPConfig{SendCQ: cqA, RecvCQ: cqA}, rdma.QPConfig{SendCQ: cqB, RecvCQ: cqB})
	if err != nil {
		return err
	}
	size := p.in.cfg.BufferSize
	mrA, err := a.PD.RegisterMemory(make([]byte, size), rdma.AccessLocalWrite)
	if err != nil {
		return err
	}
	mrB, err := b.PD.RegisterMemory(make([]byte, size), rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
	if err != nil {
		return err
	}
	local := rdma.Segment{MR: mrA, Length: size}
	remote := rdma.Segment{MR: mrB, Length: size}

	// The first verb error stops the probe's work; it is returned once
	// the timing loop is over.
	var verbErr error
	note := func(err error) bool {
		if err != nil && verbErr == nil {
			verbErr = err
		}
		return verbErr != nil
	}

	d := p.sc.perCall(func() {
		if note(qpA.PostSend(rdma.SendWR{Op: rdma.OpWrite, Signaled: true,
			Local: local, Remote: rdma.RemoteSegment{RKey: mrB.RKey()}})) {
			return
		}
		note(cqA.Wait().Err())
	})
	p.set.set("rdma.write_mb_per_s", mbPerS(size, d))

	send := func(wr rdma.SendWR) {
		if note(qpB.PostRecv(rdma.RecvWR{Local: remote})) || note(qpA.PostSend(wr)) {
			return
		}
		if !note(cqA.Wait().Err()) {
			note(cqB.Wait().Err())
		}
	}
	d = p.sc.perCall(func() { send(rdma.SendWR{Op: rdma.OpSend, Signaled: true, Local: local}) })
	p.set.set("rdma.send_mb_per_s", mbPerS(size, d))

	inline := make([]byte, 64)
	d = p.sc.perCall(func() { send(rdma.SendWR{Op: rdma.OpSend, Signaled: true, Inline: inline}) })
	p.set.set("rdma.post_ns", float64(d))

	// Registration is timed on a region the size of one machine's share
	// of the input, which is what the join registers per slab.
	slab := make([]byte, (p.in.inner.Size()+p.in.outer.Size())/p.in.w.machines)
	d = p.sc.perCall(func() {
		mr, err := a.PD.RegisterMemory(slab, rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
		if !note(err) {
			note(mr.Deregister())
		}
	})
	p.set.set("rdma.register_us_per_mb", ratio(us(d), float64(len(slab))/mib))
	return verbErr
}

// fabric probes the byte-moving substrate below the verbs: one Post whose
// delivery copies a BufferSize payload, one in flight.
func (p *prober) fabric() error {
	f := fabric.New(fabric.Config{})
	defer f.Close()
	a, b := f.AddNode(), f.AddNode()
	size := p.in.cfg.BufferSize
	src, dst := make([]byte, size), make([]byte, size)
	delivered := make(chan struct{}, 1)
	var postErr error
	d := p.sc.perCall(func() {
		if postErr != nil {
			return
		}
		if postErr = a.Post(b.ID(), size, func() {
			copy(dst, src)
			delivered <- struct{}{}
		}); postErr == nil {
			<-delivered
		}
	})
	p.set.set("fabric.post_mb_per_s", mbPerS(size, d))
	return postErr
}

// tcpnet probes the loopback TCP mesh (the paper's comparison point, not
// a workload): BufferSize messages from one machine to another, timed
// from the first Send to the last byte handled. An endpoint's Receive
// runs once, so every batch gets a fresh mesh, built outside the timing.
func (p *prober) tcpnet() error {
	payload := make([]byte, p.in.cfg.BufferSize)
	batch := func(messages int) (time.Duration, error) {
		mesh, err := tcpnet.NewMesh(2, 1)
		if err != nil {
			return 0, err
		}
		defer mesh.Close()
		// The receiver reports on a channel rather than being waited for:
		// if a Send fails it would wait forever for bytes that will not
		// come, and the probe has to return the error instead.
		received := make(chan error, 1)
		start := time.Now()
		go func() {
			received <- mesh.Endpoint(1).Receive(uint64(messages*len(payload)), func(uint32, []byte) {})
		}()
		for i := 0; i < messages; i++ {
			if err := mesh.Endpoint(0).Send(0, 1, uint32(i), payload); err != nil {
				return 0, err
			}
		}
		err = <-received
		return time.Since(start), err
	}
	// Calibrate the batch on a short burst, then size it to probeBatch.
	const burst = 64
	d, err := batch(burst)
	if err != nil {
		return err
	}
	messages := max(burst, int(float64(burst)*float64(p.sc.probeBatch)/float64(max(d, 1))))
	times := make([]float64, p.sc.probeBatches)
	for i := range times {
		if d, err = batch(messages); err != nil {
			return err
		}
		times[i] = float64(d) / float64(messages)
	}
	p.set.set("tcpnet.send_mb_per_s", mbPerS(len(payload), time.Duration(median(times))))
	return nil
}

// cluster probes rack construction and the two collectives the histogram
// phase uses, on the workload's rack shape. The all-gather vector is what
// exchangeHistograms ships without a sketch: 2^b1 counts per relation.
func (p *prober) cluster() error {
	w := p.in.w
	var newErr error
	d := p.sc.perCall(func() {
		c, err := rackjoin.NewCluster(w.machines, w.cores)
		if err != nil {
			newErr = err
			return
		}
		c.Close()
	})
	if newErr != nil {
		return newErr
	}
	p.set.set("cluster.new_ms", ms(d))

	c, err := rackjoin.NewCluster(w.machines, w.cores)
	if err != nil {
		return err
	}
	defer c.Close()
	var mu sync.Mutex
	var collErr error
	note := func(err error) {
		if err != nil {
			mu.Lock()
			collErr = err
			mu.Unlock()
		}
	}
	vec := make([]uint64, 2<<p.in.cfg.NetworkBits)
	d = p.sc.perCall(func() {
		c.RunPerMachine(func(m *cluster.Machine) {
			_, err := m.AllGatherUint64(vec)
			note(err)
		})
	})
	p.set.set("cluster.allgather_us", us(d))
	d = p.sc.perCall(func() {
		c.RunPerMachine(func(m *cluster.Machine) { note(m.Barrier()) })
	})
	p.set.set("cluster.barrier_us", us(d))
	return collErr
}

// skew probes the heavy-hitter sketch the histogram scan feeds when the
// skew engine is on: Observe over machine 0's outer keys, and the merge
// of every machine's encoded sketch that follows the exchange.
func (p *prober) skew() error {
	// core derives the same numbers: a key is hot above 4 / 2^b1 of |S|,
	// and the sketch holds twice the reciprocal, at least 64 candidates.
	share := 4 / float64(int(1)<<p.in.cfg.NetworkBits)
	capacity := max(64, int(2/share)+1)

	chunk := p.in.outer.Chunks[0]
	d := p.sc.perCall(func() {
		sk := skew.New(capacity)
		for i, n := 0, chunk.Len(); i < n; i++ {
			sk.Observe(chunk.Key(i))
		}
	})
	p.set.set("skew.observe_ns_per_tuple", ratio(float64(d), float64(chunk.Len())))

	blocks := make([][]uint64, len(p.in.outer.Chunks))
	for m, chunk := range p.in.outer.Chunks {
		sk := skew.New(capacity)
		for i, n := 0, chunk.Len(); i < n; i++ {
			sk.Observe(chunk.Key(i))
		}
		blocks[m] = make([]uint64, skew.EncodedLen(capacity))
		sk.Encode(blocks[m])
	}
	threshold := uint64(share * float64(p.in.outer.Len()))
	d = p.sc.perCall(func() { skew.MergeEncoded(blocks, threshold) })
	p.set.set("skew.merge_encoded_us", us(d))
	return nil
}

func (p *prober) netsched() error {
	d := p.sc.perCall(func() { netsched.BuildPlan(netsched.Rotate, p.in.w.machines, nil) })
	p.set.set("netsched.buildplan_us", us(d))
	return nil
}

// mcjoin runs the plain single-machine radix join on the gathered input
// with as many threads as the rack has cores: the baseline the paper
// measures the distributed join against.
func (p *prober) mcjoin() error {
	inner, outer := p.in.inner.Gather(), p.in.outer.Gather()
	cfg := rackjoin.MCJoinConfig{
		Threads:   p.in.w.machines * p.in.w.cores,
		Pass1Bits: p.in.cfg.NetworkBits, Pass2Bits: p.in.cfg.LocalBits,
	}
	var joinErr error
	d := p.sc.perCall(func() {
		res, err := rackjoin.RadixJoin(inner, outer, cfg)
		switch {
		case err != nil:
			joinErr = err
		case res.Matches != p.in.expected.Matches || res.Checksum != p.in.expected.Checksum:
			joinErr = fmt.Errorf("wrong answer: matches %d checksum %d", res.Matches, res.Checksum)
		}
	})
	p.set.set("mcjoin.radixjoin_ms", ms(d))
	return joinErr
}
