package radix

import "unsafe"

// Window is one partition's write window of a ScatterWindows pass: a
// destination range the kernel may fill on its own, without returning to
// its caller. The caller owns the window — it alone points it at memory
// (Set), empties it (Clear) and reads how far the kernel got (Fill); the
// kernel only appends tuples and advances the fill level, and it returns
// the moment it meets a tuple whose window has no room left.
//
// That contract is what lets one kernel serve both kinds of destination
// the network pass has: a window laid over a slab range sized by the
// thread's own histogram count is exact, so the kernel never returns for
// it; a window laid over a fixed-size RDMA buffer fills up every
// capacity-many tuples, and the return is the caller's cue to ship the
// buffer and seat the window on a fresh one. A window that is never Set
// stays permanently empty, so every tuple of its partition is handed back
// to the caller — the escape hatch for partitions that need more than a
// copy (replication, dealing).
//
// The base pointer is an unsafe.Pointer, never a uintptr: the table keeps
// every destination alive and visible to the garbage collector. The hot
// loop mutates only the integer fill level, so it runs without write
// barriers.
type Window struct {
	base unsafe.Pointer // first tuple slot
	fill int            // tuples written so far
	cap  int            // tuples the window holds
}

// windowBytes is the table stride of the raw-pointer kernels.
const windowBytes = int(unsafe.Sizeof(Window{}))

// Set lays the window over buf, which holds len(buf)/width whole tuple
// slots, and resets the fill level.
func (w *Window) Set(buf []byte, width int) {
	*w = Window{base: unsafe.Pointer(unsafe.SliceData(buf)), cap: len(buf) / width}
}

// Clear empties the window and drops its destination: until the next Set
// every tuple of the partition returns to the caller.
func (w *Window) Clear() { *w = Window{} }

// Fill returns the number of tuples written since Set.
func (w *Window) Fill() int { return w.fill }

// ScatterWindows is the resumable scatter kernel: starting at byte offset
// off of src (whole width-byte tuples), it appends every tuple to the
// window of its partition ((key >> shift) & (2^bits − 1)) until it meets a
// tuple whose window is full. It then returns that tuple's offset and
// partition without consuming it; the caller makes room (or routes the
// tuple itself and skips it) and calls again with the returned offset.
// When the input is exhausted it returns (len(src), -1).
//
// kern is the pass's resolved kernel (Kernel.Resolve): KernelWC runs the
// width-specialised raw word-store loops of wc_fast.go where the platform
// has them; anything else — KernelScalar, -tags purego, widths without a
// fast path — runs the portable per-tuple loop below. Both produce
// identical window contents. wins must have 2^bits entries.
func ScatterWindows(kern Kernel, src []byte, off, width int, wins []Window, shift, bits uint) (next, full int) {
	_ = wins[1<<bits-1] // the kernels index the table unchecked
	if kern == KernelWC {
		if next, full, ok := scatterWindowsFast(src, off, width, wins, shift, bits); ok {
			return next, full
		}
	}
	return scatterWindowsGeneric(src, off, width, wins, shift, bits)
}

// scatterWindowsGeneric is the portable routing loop, and the single home
// of the per-tuple body the network pass used to carry itself.
//
//rack:hotpath
func scatterWindowsGeneric(src []byte, off, width int, wins []Window, shift, bits uint) (next, full int) {
	mask := uint64(1<<bits - 1)
	for ; off < len(src); off += width {
		p := int((le64(src[off:]) >> shift) & mask)
		w := &wins[p]
		if w.fill == w.cap {
			return off, p
		}
		dst := unsafe.Slice((*byte)(unsafe.Add(w.base, w.fill*width)), width)
		copy(dst, src[off:off+width])
		w.fill++
	}
	return len(src), -1
}
