package vt

import (
	"encoding/binary"
	"hash/crc32"
)

// crcTabs are the slicing-by-8 tables of the Castagnoli polynomial:
// crcTabs[0] is the byte-at-a-time table, crcTabs[k] advances a byte that has
// k more bytes behind it.
var crcTabs = func() (t [8][256]uint32) {
	t[0] = *crc32.MakeTable(crc32.Castagnoli)
	for k := 1; k < 8; k++ {
		for i, v := range t[k-1] {
			t[k][i] = t[0][byte(v)] ^ v>>8
		}
	}
	return t
}()

// Crc32c8 is the Crc32 operation: the CRC-32C of the eight little-endian
// bytes of v, continued from seed (its low 32 bits). It equals
// crc32.Update(uint32(seed), castagnoli, v's bytes) and is what every engine
// and the runtime hash with. One table-driven step and no buffer: handing
// hash/crc32 a stack array moves the array to the heap, because Update calls
// through a function variable.
func Crc32c8(seed, v uint64) uint64 {
	x := v ^ uint64(^uint32(seed))
	t := &crcTabs
	return uint64(^(t[7][byte(x)] ^ t[6][byte(x>>8)] ^ t[5][byte(x>>16)] ^ t[4][byte(x>>24)] ^
		t[3][byte(x>>32)] ^ t[2][byte(x>>40)] ^ t[1][byte(x>>48)] ^ t[0][x>>56]))
}

// Crc32c continues the CRC-32C crc over p, as crc32.Update does with the
// Castagnoli table, without letting p escape.
func Crc32c(crc uint32, p []byte) uint32 {
	for ; len(p) >= 8; p = p[8:] {
		crc = uint32(Crc32c8(uint64(crc), binary.LittleEndian.Uint64(p)))
	}
	crc = ^crc
	for _, b := range p {
		crc = crcTabs[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}
