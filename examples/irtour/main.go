// IRtour: build a QIR function by hand, print it, compile it with several
// back-ends, disassemble the machine code, and call it — the low-level API
// the query compiler sits on.
package main

import (
	"fmt"
	"log"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/lbe"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func main() {
	// sumsq(n) = sum of i*i for i in [0, n), with overflow-checked adds.
	mod := qir.NewModule("irtour")
	b := qir.NewFunc(mod, "sumsq", qir.I64, qir.I64)
	n := b.Param(0)
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	zero := b.ConstInt(qir.I64, 0)
	one := b.ConstInt(qir.I64, 1)
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi(qir.I64, 0, zero)
	acc := b.Phi(qir.I64, 0, zero)
	cond := b.ICmp(qir.CmpSLT, i, n)
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	sq := b.Bin(qir.OpSMulTrap, i, i)
	acc2 := b.Bin(qir.OpSAddTrap, acc, sq)
	i2 := b.Bin(qir.OpAdd, i, one)
	b.AddPhiArg(i, body, i2)
	b.AddPhiArg(acc, body, acc2)
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(acc)

	if err := mod.VerifyModule(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("QIR:")
	fmt.Println(b.Func().String())

	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 16 << 20})
	db := rt.NewDB(m)
	env := &backend.Env{DB: db, Arch: vt.VX64}

	for _, eng := range []backend.Engine{direct.New(), clift.New(), lbe.NewOpt()} {
		ex, stats, err := eng.Compile(mod, env)
		if err != nil {
			log.Fatal(err)
		}
		res, err := ex.Call(0, 1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s sumsq(1000) = %-12d  %4d bytes of code, compiled in %v\n",
			eng.Name(), int64(res[0]), stats.CodeBytes, stats.Total)
	}

	// Disassemble the DirectEmit output.
	ex, _, err := direct.New().Compile(mod, env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nDirectEmit machine code (first 24 instructions):")
	lines := strings.SplitN(vt.DisasmAll(backend.ModuleOf(ex).Prog), "\n", 25)
	for _, l := range lines[:min(24, len(lines))] {
		fmt.Println(" ", l)
	}
}
