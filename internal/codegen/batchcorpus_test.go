package codegen_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qcc/internal/codegen"
)

// batchCorpusDir is rt's FuzzDecodeBatchSpec corpus.
const batchCorpusDir = "../rt/testdata/fuzz/FuzzDecodeBatchSpec"

// TestBatchSpecCorpus: the fuzz corpus of rt.DecodeBatchSpec is the encoded
// kernel spec of every batch pipeline of the golden corpus (TPC-H and TPC-DS
// at sf 0.01, compiled as with qc.Open's defaults), one file per distinct
// spec. -update-golden rewrites it; a change of the spec encoding or of a
// batch pipeline moves it, as it moves the +batch lines of frontend.golden.
func TestBatchSpecCorpus(t *testing.T) {
	opts := codegen.Options{Elim: true, Hoist: true, Batch: true}
	want := map[string][]byte{}
	seen := map[string]bool{}
	for _, w := range goldenWorlds(t) {
		for _, q := range w.queries {
			c, err := codegen.CompileOpts("q", q.build(), w.cat, opts)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			n := 0
			for _, s := range c.Module.Strings {
				if !strings.HasPrefix(s, "BTCHQCB1") || seen[s] {
					continue
				}
				seen[s] = true
				want[fmt.Sprintf("%s-%d", strings.ReplaceAll(q.name, "/", "-"), n)] = []byte(s)
				n++
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("the golden corpus has no batch pipeline")
	}
	if *updateGolden {
		if err := os.RemoveAll(batchCorpusDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(batchCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, spec := range want {
			if err := os.WriteFile(filepath.Join(batchCorpusDir, name), corpusEntry(spec), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	files, err := os.ReadDir(batchCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(batchCorpusDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if spec, ok := want[f.Name()]; !ok || !bytes.Equal(got, corpusEntry(spec)) {
			stale = append(stale, f.Name())
		}
		delete(want, f.Name())
	}
	for name := range want {
		stale = append(stale, name)
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		t.Errorf("%s is out of date in %d entries (%s ...); regenerate with -update-golden", batchCorpusDir, len(stale), stale[0])
	}
}

// corpusEntry is spec in the file format of a go test fuzz corpus.
func corpusEntry(spec []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", spec))
}
