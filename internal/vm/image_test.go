//go:build linux && !race

package vm

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// isMapped reports whether mem's range is mapped: madvise fails with ENOMEM
// on an unmapped range. It reads no byte of mem.
func isMapped(mem []byte) bool { return syscall.Madvise(mem, syscall.MADV_NORMAL) == nil }

// TestImageUnmapped: a machine's image stays mapped, and keeps what was
// written to it, while the base machine or any of its workers is reachable —
// dropping one worker changes nothing for the base machine and the other —
// and is unmapped once none of them is.
func TestImageUnmapped(t *testing.T) {
	const size = 8<<20 + 3*4096
	m := New(Config{MemSize: size})
	a1, a2 := m.Alloc(1<<20), m.Alloc(1<<20)
	w1, w2 := NewWorker(m, a1, a1+1<<20), NewWorker(m, a2, a2+1<<20)
	marks := []uint64{nullGuard, a1 + 100, a2 + 100, 5 << 20, size / 2, size - 1}
	for i, a := range marks {
		[]*Machine{m, w1, w2}[i%3].Mem[a] = byte(0xA0 + i)
	}
	img := m.Mem // only its range is probed, never its bytes, once the machines are gone
	w2 = nil
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !isMapped(img) {
		t.Fatal("the image was unmapped while its base machine and a worker were reachable")
	}
	for i, a := range marks {
		if m.Mem[a] != byte(0xA0+i) || w1.Mem[a] != byte(0xA0+i) {
			t.Fatalf("byte %#x is %#x / %#x, want %#x", a, m.Mem[a], w1.Mem[a], 0xA0+i)
		}
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(w1)
	m, w1 = nil, nil
	for i := 0; i < 1000 && isMapped(img); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if isMapped(img) {
		t.Fatal("an image no machine uses was not unmapped")
	}
}
