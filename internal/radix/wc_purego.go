//go:build purego || !(amd64 || arm64)

package radix

// haveFastScatter gates KernelAuto: without a width-specialised fast
// path, auto stays scalar (the staged loop is a portability fallback, not
// a win).
const haveFastScatter = false

// scatterWCFast has no width-specialised implementation on this platform
// (or under -tags purego); ScatterWC runs the portable staged loop.
func scatterWCFast(sdata, ddata []byte, width int, cursors []int64, shift, bits uint) bool {
	return false
}

// scatterWindowsFast likewise: ScatterWindows runs the portable loop.
func scatterWindowsFast(src []byte, off, width int, wins []Window, shift, bits uint) (next, full int, ok bool) {
	return 0, 0, false
}
