package vm

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
)

// Machine memory images come from the kernel. A machine writes little of its
// image — the bottom of the heap and the stack at the top; a 256 MiB database
// holding TPC-H at sf 0.02 touches about 2 MiB — but once the Go heap reuses
// memory, a Go allocation of the image costs a clear of every byte, and a
// page fault per page once those pages went back to the operating system. An
// image mapped from the kernel costs the pages the machine touches. When no
// machine uses an image any more, its finalizer unmaps it. Nothing reuses an
// image's memory through the Go heap, so machine memory must be reached
// through a machine that is still referenced (db.M.Mem, the dispatch loop's
// st.mem), never through a slice kept past the last reference to it.
//
// Where mapImage has no mapping to give (other systems, and race-detector
// builds, so that the detector sees machine memory), an image is Go memory.

// image is the memory one machine and its workers share. The finalizer of a
// mapped image runs when none of them is reachable.
type image struct {
	mem []byte
}

// ballast is Go memory that nothing touches and whose pages go back to the
// kernel, allocated with the first mapped image and kept: the collector
// counts it as live heap. The collector paces its cycles by the live heap,
// which machine images were most of while they were Go memory; without them
// it ran far more often (the C back-end compiled TPC-H 1.8x slower). The size
// is fixed, not the images in use: an image leaves use only when a
// collection finalizes it, so a ballast that grew with them would postpone
// the collections that shrink it. A process with a memory limit
// (GOMEMLIMIT) gets no ballast, since it would count against the limit.
var ballast struct {
	sync.Once
	mem []byte
}

const ballastBytes = 512 << 20

// newImage returns a zeroed image of size bytes.
func newImage(size int) *image {
	mem := mapImage(size)
	if mem == nil {
		return &image{mem: make([]byte, size)}
	}
	ballast.Do(func() {
		if debug.SetMemoryLimit(-1) == math.MaxInt64 {
			ballast.mem = make([]byte, ballastBytes)
			releasePages(ballast.mem)
		}
	})
	img := &image{mem: mem}
	runtime.SetFinalizer(img, func(img *image) { unmapImage(img.mem) })
	return img
}
