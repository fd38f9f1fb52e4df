//go:build linux && !race

package vm

import (
	"os"
	"syscall"
	"unsafe"
)

// mapImage maps size bytes of private anonymous memory, nil if it cannot.
func mapImage(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	return mem
}

// releasePages hands the whole pages in mem, which holds only zeros, back to
// the kernel (MADV_DONTNEED on the process's private anonymous memory): they
// read as zero pages on the next touch.
func releasePages(mem []byte) {
	page := os.Getpagesize()
	head := (page - int(uintptr(unsafe.Pointer(unsafe.SliceData(mem)))%uintptr(page))) % page
	if len(mem) < head+page {
		return
	}
	body := mem[head:]
	_ = syscall.Madvise(body[:len(body)/page*page], syscall.MADV_DONTNEED) // the pages stay resident if it fails
}

func unmapImage(mem []byte) { _ = syscall.Munmap(mem) } // nothing to do if it fails
