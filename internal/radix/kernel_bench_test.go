package radix

import (
	"fmt"
	"math/rand"
	"testing"

	"rackjoin/internal/relation"
)

// Kernel benchmarks: scalar Scatter vs ScatterWC vs the fused indexed
// variants, across tuple widths and fan-outs. `make bench-kernels` runs
// every BenchmarkKernel* and formats the output into BENCH_kernels.json;
// the acceptance bar is ScatterWC ≥ 1.5× Scatter at 2^10 partitions on
// the 16-byte layout.

// 2^22 tuples: 64 MB on the 16-byte layout, so the scattered destination
// exceeds the near caches and the benchmark measures memory traffic, not
// L2-resident stores.
const benchTuples = 1 << 22

func benchRel(width int) *relation.Relation {
	rng := rand.New(rand.NewSource(2015))
	r := relation.NewAligned(width, benchTuples)
	rng.Read(r.Bytes())
	for i := 0; i < benchTuples; i++ {
		r.SetKey(i, rng.Uint64())
	}
	return r
}

func benchShapes(b *testing.B, run func(b *testing.B, src *relation.Relation, bits uint)) {
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		src := benchRel(width)
		for _, bits := range []uint{6, 10, 12} {
			b.Run(fmt.Sprintf("w%d/bits%d", width, bits), func(b *testing.B) {
				b.SetBytes(int64(src.Size()))
				run(b, src, bits)
			})
		}
	}
}

func BenchmarkKernelScatterScalar(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h := Histogram(src, 0, bits)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			Scatter(src, dst, cursors, 0, bits)
		}
	})
}

func BenchmarkKernelScatterWC(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h := Histogram(src, 0, bits)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		wc := NewWCBuffers(1<<bits, src.Width())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			ScatterWC(src, dst, cursors, 0, bits, wc)
		}
	})
}

// BenchmarkKernelScatterWCStaged forces the portable software-staging
// loop that scatterWCFast bypasses on amd64/arm64, so the ablation
// records what explicit per-partition cache-line staging costs on this
// memory hierarchy (see DESIGN.md § Kernel layer).
func BenchmarkKernelScatterWCStaged(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h := Histogram(src, 0, bits)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		wc := NewWCBuffers(1<<bits, src.Width())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			wc.Reset(1<<bits, src.Width())
			scatterWCGeneric(src.Bytes(), dst.Bytes(), src.Width(), cursors, 0, bits, wc)
			wc.drainInto(dst.Bytes(), cursors)
		}
	})
}

func BenchmarkKernelHistogram(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Histogram(src, 0, bits)
		}
	})
}

func BenchmarkKernelHistogramIndexed(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		var idx []uint32
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, idx = HistogramIndexed(src, 0, bits, idx)
		}
	})
}

func BenchmarkKernelScatterIndexedWC(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h, idx := HistogramIndexed(src, 0, bits, nil)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		wc := NewWCBuffers(1<<bits, src.Width())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			ScatterIndexedWC(src, dst, cursors, idx, wc)
		}
	})
}

// BenchmarkKernelPartition measures the end-to-end histogram+scatter pass
// as the exec engine drives it, per kernel setting.
func BenchmarkKernelPartition(b *testing.B) {
	for _, kern := range []Kernel{KernelScalar, KernelWC} {
		src := benchRel(relation.Width16)
		for _, bits := range []uint{10} {
			b.Run(fmt.Sprintf("%v/w16/bits%d", kern, bits), func(b *testing.B) {
				pt := NewPartitioner(kern)
				b.SetBytes(int64(src.Size()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pt.Partition(src, 0, bits)
				}
			})
		}
	}
}

// BenchmarkKernelScatterWindows measures the resumable write-window kernel
// the network pass runs, at the fan-out of the ScatterWC acceptance bar:
// "exact" lays histogram-sized windows over one destination slab (the
// local-slab case — the kernel never returns), win256/win1024 give every
// partition a fixed buffer of that many tuples and re-seat it on each
// return (the RDMA-buffer case; 1024 tuples is a 16 KB buffer of 16-byte
// tuples). The ceiling to hold it against is ScatterWC at the same shape.
func BenchmarkKernelScatterWindows(b *testing.B) {
	const bits = 10
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		src := benchRel(width)
		h := Histogram(src, 0, bits)
		bounds := Bounds(h)
		dst := relation.NewAligned(width, src.Len())
		wins := make([]Window, 1<<bits)
		b.Run(fmt.Sprintf("w%d/bits%d/exact", width, bits), func(b *testing.B) {
			b.SetBytes(int64(src.Size()))
			for i := 0; i < b.N; i++ {
				for p := range wins {
					wins[p].Set(dst.Bytes()[int(bounds[p])*width:int(bounds[p+1])*width], width)
				}
				if off, p := ScatterWindows(KernelWC, src.Bytes(), 0, width, wins, 0, bits); p >= 0 {
					b.Fatalf("exact window of partition %d full at offset %d", p, off)
				}
			}
		})
		for _, win := range []int{256, 1024} {
			bufs := relation.AlignedBytes(len(wins) * win * width)
			b.Run(fmt.Sprintf("w%d/bits%d/win%d", width, bits, win), func(b *testing.B) {
				b.SetBytes(int64(src.Size()))
				for i := 0; i < b.N; i++ {
					for p := range wins {
						wins[p].Clear()
					}
					for off, p := 0, 0; ; {
						if off, p = ScatterWindows(KernelWC, src.Bytes(), off, width, wins, 0, bits); p < 0 {
							break
						}
						wins[p].Set(bufs[p*win*width:(p+1)*win*width], width)
					}
				}
			})
		}
	}
}
