package radix

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// windowGuard pads every window of a test arena: a kernel that writes
// past a window lands in it.
const windowGuard = 8

// windowRef is the scalar reference of a windowed scatter: plain slices,
// bounds-checked copies, the same "stop at the first tuple with no room"
// contract. sizes[p] is partition p's window capacity in tuples, renewed
// (Set again on a fresh arena range) each time the pass stops for p;
// exact windows never stop. It returns, per partition, the bytes the
// partition received in order, and the sequence of stops.
type windowStop struct{ off, p int }

func windowRef(src []byte, width int, shift, bits uint, sizes []int) (out [][]byte, stops []windowStop) {
	out = make([][]byte, 1<<bits)
	room := make([]int, 1<<bits) // every window starts empty
	for off := 0; off < len(src); off += width {
		p := PartitionOf(binary.LittleEndian.Uint64(src[off:]), shift, bits)
		if room[p] == 0 {
			stops = append(stops, windowStop{off, p})
			if sizes[p] == 0 {
				continue // permanently empty window: the caller routes the tuple
			}
			room[p] = sizes[p]
		}
		out[p] = append(out[p], src[off:off+width]...)
		room[p]--
	}
	return out, stops
}

// runWindows drives ScatterWindows the way the network pass does — call,
// handle the returned partition, resume — over an arena with guard bytes
// around every window, and compares output bytes, stops and final fill
// levels with windowRef. chunk > 0 additionally cuts the input into
// separate calls of that many tuples, so resume points fall everywhere,
// not just at full windows.
func runWindows(t *testing.T, kern Kernel, src []byte, width int, shift, bits uint, sizes []int, chunk int) {
	t.Helper()
	want, wantStops := windowRef(src, width, shift, bits, sizes)

	np := 1 << bits
	wins := make([]Window, np)
	got := make([][]byte, np)
	seated := make([][]byte, np) // the arena range each window currently lies over
	newRange := func(p int) []byte {
		arena := bytes.Repeat([]byte{0xA5}, sizes[p]*width+2*windowGuard)
		seated[p] = arena
		return arena[windowGuard : windowGuard+sizes[p]*width]
	}
	collect := func(p int) {
		if seated[p] == nil {
			return
		}
		n := wins[p].Fill() * width
		if n > sizes[p]*width {
			t.Fatalf("partition %d: fill %d exceeds window of %d tuples", p, wins[p].Fill(), sizes[p])
		}
		got[p] = append(got[p], seated[p][windowGuard:windowGuard+n]...)
		for i, b := range seated[p] {
			if (i < windowGuard || i >= windowGuard+sizes[p]*width) && b != 0xA5 {
				t.Fatalf("partition %d: kernel wrote outside its window (arena byte %d)", p, i)
			}
		}
		for _, b := range seated[p][windowGuard+n : windowGuard+sizes[p]*width] {
			if b != 0xA5 {
				t.Fatalf("partition %d: kernel wrote past the fill level", p)
			}
		}
	}

	var stops []windowStop
	for lo := 0; ; {
		hi := len(src)
		if chunk > 0 && lo+chunk*width < hi {
			hi = lo + chunk*width
		}
		for off := lo; ; {
			var p int
			off, p = ScatterWindows(kern, src[:hi], off, width, wins, shift, bits)
			if p < 0 {
				if off != hi {
					t.Fatalf("kernel finished at offset %d, input ends at %d", off, hi)
				}
				break
			}
			stops = append(stops, windowStop{off, p})
			if sizes[p] == 0 {
				off += width // the caller's slow path consumed the tuple
				continue
			}
			collect(p)
			wins[p].Set(newRange(p), width)
		}
		if hi == len(src) {
			break
		}
		lo = hi
	}
	for p := range wins {
		collect(p)
	}

	if len(stops) != len(wantStops) {
		t.Fatalf("width=%d kern=%v: kernel stopped %d times, reference %d", width, kern, len(stops), len(wantStops))
	}
	for i := range stops {
		if stops[i] != wantStops[i] {
			t.Fatalf("width=%d kern=%v: stop %d = %+v, reference %+v", width, kern, i, stops[i], wantStops[i])
		}
	}
	for p := range want {
		if !bytes.Equal(got[p], want[p]) {
			t.Fatalf("width=%d kern=%v shift=%d bits=%d: partition %d bytes diverge from the reference (%d vs %d bytes)",
				width, kern, shift, bits, p, len(got[p]), len(want[p]))
		}
	}
}

// windowSizes draws per-partition window capacities: 0 (permanently
// empty), 1, a few tuples, or exact (the partition's whole histogram
// count, so the window is seated once and never fills).
func windowSizes(rng *rand.Rand, src []byte, width int, shift, bits uint) []int {
	hist := make([]int, 1<<bits)
	for off := 0; off < len(src); off += width {
		hist[PartitionOf(binary.LittleEndian.Uint64(src[off:]), shift, bits)]++
	}
	sizes := make([]int, 1<<bits)
	for p := range sizes {
		switch rng.Intn(5) {
		case 0:
			sizes[p] = 0
		case 1:
			sizes[p] = 1
		case 2:
			sizes[p] = 2 + rng.Intn(7)
		default:
			sizes[p] = hist[p] // exact (0 for an empty partition)
		}
	}
	return sizes
}

// TestScatterWindowsEquivalence is the differential test of the window
// kernel: fast and generic paths against the scalar reference, across the
// three specialised widths and an odd one (generic only), random pass
// windows, random window sizes and random resume points.
func TestScatterWindowsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	for _, width := range []int{16, 32, 64, 24} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4099} {
			src := make([]byte, n*width)
			rng.Read(src)
			for trial := 0; trial < 4; trial++ {
				bits := uint(rng.Intn(9))
				shift := uint(rng.Intn(54))
				sizes := windowSizes(rng, src, width, shift, bits)
				chunk := 0
				if trial%2 == 1 {
					chunk = 1 + rng.Intn(50)
				}
				for _, kern := range []Kernel{KernelWC, KernelScalar} {
					runWindows(t, kern, src, width, shift, bits, sizes, chunk)
				}
			}
		}
	}
}

// TestScatterWindowsOneHotPartition sends every tuple to one partition
// with a one-tuple window: the kernel returns for every single tuple.
func TestScatterWindowsOneHotPartition(t *testing.T) {
	for _, width := range []int{16, 32, 64} {
		src := make([]byte, 500*width)
		for i := 0; i < 500; i++ {
			binary.LittleEndian.PutUint64(src[i*width:], 0xDEADBEEF)
			binary.LittleEndian.PutUint64(src[i*width+8:], uint64(i))
		}
		sizes := make([]int, 1<<6)
		sizes[0xDEADBEEF&63] = 1
		runWindows(t, KernelWC, src, width, 0, 6, sizes, 0)
	}
}

// FuzzScatterWindows fuzzes the same property over arbitrary tuple bytes,
// pass windows, window sizes and chunkings.
func FuzzScatterWindows(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(0), uint8(4), uint8(0), int64(1), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 192), uint8(13), uint8(7), uint8(2), int64(7), uint8(3))
	f.Add([]byte{}, uint8(3), uint8(1), uint8(3), int64(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shift, bits, widthSel uint8, seed int64, chunk uint8) {
		width := []int{16, 32, 64, 24}[widthSel%4]
		src := data[:len(data)/width*width]
		sh, b := uint(shift%57), uint(bits%9)
		sizes := windowSizes(rand.New(rand.NewSource(seed)), src, width, sh, b)
		for _, kern := range []Kernel{KernelWC, KernelScalar} {
			runWindows(t, kern, src, width, sh, b, sizes, int(chunk))
		}
	})
}
