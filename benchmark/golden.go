package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/plan"
	"qcc/internal/sql"
	"qcc/internal/vt"
)

// The golden files are compiled into the binary, so a run checks results
// against the digests frozen with the benchmark wherever it is started from.
//
//go:embed golden/*.json
var goldenFS embed.FS

// digest identifies one result set: its row count and the SHA-256 of its
// canonical (sorted, "|"-joined) lines.
type digest struct {
	Rows   int    `json:"rows"`
	SHA256 string `json:"sha256"`
}

func digestOf(canonical []string) digest {
	sum := sha256.Sum256([]byte(strings.Join(canonical, "\n")))
	return digest{Rows: len(canonical), SHA256: hex.EncodeToString(sum[:])}
}

// canonicalRows renders stringified rows the way rt.OutBuffer.Canonical
// renders an output buffer, so both paths share one digest.
func canonicalRows(rows [][]string) []string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "|")
	}
	sort.Strings(lines)
	return lines
}

// golden is one committed reference file.
type golden struct {
	Dataset string            `json:"dataset"`
	SF      float64           `json:"sf"`
	Queries map[string]digest `json:"queries"`
}

func goldenName(dataset string, sf float64) string {
	return fmt.Sprintf("%s_sf%g.json", dataset, sf)
}

func loadGolden(dataset string, sf float64) (*golden, error) {
	data, err := goldenFS.ReadFile("golden/" + goldenName(dataset, sf))
	if err != nil {
		return nil, fmt.Errorf("golden: %w (regenerate with -update-golden)", err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(dataset, sf), err)
	}
	if g.Dataset != dataset || g.SF != sf {
		return nil, fmt.Errorf("golden %s: holds %s sf %g", goldenName(dataset, sf), g.Dataset, g.SF)
	}
	return &g, nil
}

func writeGolden(dir string, g *golden) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenName(g.Dataset, g.SF)), append(data, '\n'), 0o644)
}

// check compares one result with the golden entry for key.
func (g *golden) check(key string, got digest) error {
	want, ok := g.Queries[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s", key)
	}
	if got != want {
		return fmt.Errorf("%s: got %d rows %.12s, golden has %d rows %.12s", key, got.Rows, got.SHA256, want.Rows, want.SHA256)
	}
	return nil
}

// updateGolden recomputes every golden file with the interpreter, the engine
// with the least machinery between the plan and the rows. The benchmark then
// requires all six engines to match these digests, and the reference
// evaluator to match the ones it can compute itself.
func updateGolden(dir string) error {
	interp := bench.Engines(vt.VX64)[0]
	digestPlan := func(m *bench.World, name string, node plan.Node) (digest, error) {
		defer m.DB.ResetToCheckpoint()
		c, err := codegen.Compile(name, node, m.Cat)
		if err != nil {
			return digest{}, err
		}
		ex, _, err := interp.Compile(c.Module, &backend.Env{DB: m.DB, Arch: vt.VX64})
		if err != nil {
			return digest{}, err
		}
		if err := codegen.Run(m.DB, m.Cat, c, ex.Call); err != nil {
			return digest{}, err
		}
		return digestOf(m.DB.Out.Canonical()), nil
	}
	type suite struct {
		dataset string
		sf      float64
		queries []bench.Query
	}
	suites := []suite{
		{"tpcds", planSpecs["compile_tpcds"].sf, bench.DSQueries()},
		{"tpch", planSpecs["exec_tpch"].sf, bench.HQueries()},
		{"tpch", planSpecs["exec_tpch"].quickSF, bench.HQueries()},
	}
	for _, s := range suites {
		m, err := loadWorld(vt.VX64, 256, s.dataset, s.sf)
		if err != nil {
			return err
		}
		m.DB.Checkpoint()
		g := &golden{Dataset: s.dataset, SF: s.sf, Queries: map[string]digest{}}
		for _, q := range s.queries {
			if g.Queries[q.Name], err = digestPlan(m, q.Name, q.Build()); err != nil {
				return fmt.Errorf("%s %s: %w", s.dataset, q.Name, err)
			}
		}
		if err := writeGolden(dir, g); err != nil {
			return err
		}
	}
	m, err := loadWorld(vt.VX64, 256, "tpch", adhocSF)
	if err != nil {
		return err
	}
	m.DB.Checkpoint()
	g := &golden{Dataset: "adhoc", SF: adhocSF, Queries: map[string]digest{}}
	for f := 0; f < familyCount; f++ {
		for v := 0; v < variantCount; v++ {
			st := family(f, v)
			node, err := sql.Parse(st.SQL, m.Cat)
			if err != nil {
				return fmt.Errorf("%s: %w", st.Key, err)
			}
			if g.Queries[st.Key], err = digestPlan(m, st.Key, node); err != nil {
				return fmt.Errorf("%s: %w", st.Key, err)
			}
		}
	}
	return writeGolden(dir, g)
}
