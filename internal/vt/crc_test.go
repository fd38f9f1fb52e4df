package vt

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestCrc32cMatchesStdlib: the table-driven updates must equal hash/crc32's
// Castagnoli update on random seeds, values and lengths, without allocating.
func TestCrc32cMatchesStdlib(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	rng := rand.New(rand.NewSource(1))
	var b [8]byte
	for i := 0; i < 100000; i++ {
		seed, v := rng.Uint64(), rng.Uint64()
		binary.LittleEndian.PutUint64(b[:], v)
		if got, want := Crc32c8(seed, v), uint64(crc32.Update(uint32(seed), tab, b[:])); got != want {
			t.Fatalf("Crc32c8(%#x, %#x) = %#x, crc32.Update gives %#x", seed, v, got, want)
		}
	}
	p := make([]byte, 64)
	for i := 0; i < 20000; i++ {
		rng.Read(p)
		seed, s := rng.Uint32(), p[:rng.Intn(len(p)+1)]
		if got, want := Crc32c(seed, s), crc32.Update(seed, tab, s); got != want {
			t.Fatalf("Crc32c(%#x, %x) = %#x, crc32.Update gives %#x", seed, s, got, want)
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		var s [13]byte
		sink += Crc32c8(sink, 0x0123456789abcdef) + uint64(Crc32c(uint32(sink), s[:]))
	}); n != 0 {
		t.Errorf("%v allocations per hash, want 0", n)
	}
}
