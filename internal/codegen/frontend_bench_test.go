package codegen_test

import (
	"testing"

	"qcc/internal/codegen"
)

var frontEndSink *codegen.Compiled

// BenchmarkFrontEnd times codegen.CompileOpts over the 103 TPC-DS plans at
// the three levels the benchmark's traced run separates: the generator
// alone, plus check elimination, plus constant hoisting. One op is one plan,
// so ns/op and allocs/op read per query.
//
//	go test ./internal/codegen -run '^$' -bench FrontEnd -benchmem
func BenchmarkFrontEnd(b *testing.B) {
	ds := goldenWorlds(b)[1]
	for _, level := range []struct {
		name string
		opts codegen.Options
	}{
		{"gen", codegen.Options{}},
		{"gen+elim", codegen.Options{Elim: true}},
		{"gen+elim+hoist", codegen.Options{Elim: true, Hoist: true}},
	} {
		b.Run(level.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := ds.queries[i%len(ds.queries)]
				c, err := codegen.CompileOpts(q.name, q.build(), ds.cat, level.opts)
				if err != nil {
					b.Fatal(err)
				}
				frontEndSink = c
			}
		})
	}
}
