package qir

import "encoding/binary"

// AppendFuncKey appends to k an encoding of what a back-end reads of
// function f apart from the module's tables: its name, signature, blocks,
// every instruction and its Extra operand lists. Every integer goes in as
// eight little-endian bytes, every string behind its length. An instruction
// is written as Op, Type, A, B, C, Imm and Aux, where Imm is what imm
// returns for it; imm may append what the constant stands for (a string's
// content or address, a pool slot's address), which then follows the
// instruction. Cache keys over code are built on this one walk, so a field
// added to Func or Instr is added here and every key covers it.
func AppendFuncKey(k []byte, f *Func, imm func(k []byte, v Value, in *Instr) (uint64, []byte)) []byte {
	k = AppendKeyString(k, f.Name)
	k = AppendKeyInt(k, uint64(len(f.Params)))
	for _, t := range f.Params {
		k = AppendKeyInt(k, uint64(t))
	}
	k = AppendKeyInt(k, uint64(f.Ret))
	k = AppendKeyInt(k, uint64(len(f.Blocks)))
	for b := range f.Blocks {
		blk := &f.Blocks[b]
		k = AppendKeyInt(k, uint64(len(blk.Preds)))
		for _, p := range blk.Preds {
			k = AppendKeyInt(k, uint64(uint32(p)))
		}
		k = AppendKeyInt(k, uint64(len(blk.List)))
		for _, v := range blk.List {
			k = AppendKeyInt(k, uint64(uint32(v)))
		}
	}
	k = AppendKeyInt(k, uint64(len(f.Instrs)))
	for v := range f.Instrs {
		in := &f.Instrs[v]
		var e [56]byte
		binary.LittleEndian.PutUint64(e[0:], uint64(in.Op))
		binary.LittleEndian.PutUint64(e[8:], uint64(in.Type))
		binary.LittleEndian.PutUint64(e[16:], uint64(uint32(in.A)))
		binary.LittleEndian.PutUint64(e[24:], uint64(uint32(in.B)))
		binary.LittleEndian.PutUint64(e[32:], uint64(uint32(in.C)))
		binary.LittleEndian.PutUint64(e[48:], uint64(in.Aux))
		at := len(k) + 40
		k = append(k, e[:]...)
		var x uint64
		x, k = imm(k, Value(v), in)
		binary.LittleEndian.PutUint64(k[at:], x)
	}
	k = AppendKeyInt(k, uint64(len(f.Extra)))
	for _, x := range f.Extra {
		k = AppendKeyInt(k, uint64(uint32(x)))
	}
	return k
}

// AppendKeyInt appends v as AppendFuncKey writes integers.
func AppendKeyInt(k []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(k, v) }

// AppendKeyString appends s as AppendFuncKey writes strings.
func AppendKeyString(k []byte, s string) []byte {
	return append(AppendKeyInt(k, uint64(len(s))), s...)
}
