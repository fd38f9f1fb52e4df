package sql_test

import (
	"strings"
	"testing"

	"qcc/internal/engine"
	"qcc/internal/sql"
)

// TestLiteralsWithAPoint holds a number with a point to what it writes, on
// every engine, as tuple code and with batch kernels. Against an F64 column
// it is that float (jp_f = 1/(i+3): 182 of its 200 values are below 0.05,
// 183 below 0.051, 18 at least 0.0499, all above -0.05); against a decimal
// column it is a count of hundredths, a trailing zero changes nothing and a
// third significant fractional digit is an error that names the literal.
func TestLiteralsWithAPoint(t *testing.T) {
	w := loadTPCH(t, 0.01)
	addJoinTables(w)
	counts := []struct {
		q    string
		want string
	}{
		{"SELECT COUNT(*) FROM jp WHERE jp_f < 0.05", "182"},
		{"SELECT COUNT(*) FROM jp WHERE jp_f < 0.051", "183"},
		{"SELECT COUNT(*) FROM jp WHERE 0.05 > jp_f", "182"},
		{"SELECT COUNT(*) FROM jp WHERE jp_f > -0.05", "200"},
		{"SELECT COUNT(*) FROM jp WHERE jp_f BETWEEN 0.0499 AND 0.34", "18"},
		{"SELECT COUNT(*) FROM jp WHERE jp_f * 100 < 5", "182"},
		{"SELECT COUNT(*) FROM lineitem WHERE l_discount < 0.05", ""},
	}
	// l_discount holds hundredths: 0.05 is 5, and 0.050 the same.
	ref := runExact(t, w, "interpreter", "SELECT COUNT(*) FROM lineitem WHERE l_discount < 5").rows[0]
	counts[len(counts)-1].want = ref
	counts = append(counts, struct{ q, want string }{"SELECT COUNT(*) FROM lineitem WHERE l_discount < 0.050", ref})
	for _, eng := range engine.BackendNames() {
		for _, c := range counts {
			tuple, batch, _, _ := runModes(t, w, eng, c.q)
			for mode, x := range map[string]exact{"tuple": tuple, "batch": batch} {
				if len(x.rows) != 1 || x.rows[0] != c.want {
					t.Errorf("%s %s: %q returned %v, want %s", eng, mode, c.q, x.rows, c.want)
				}
			}
		}
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_discount < 0.051",
		"SELECT COUNT(*) FROM jp WHERE jp_d < 0.001",
		"SELECT SUM(l_extendedprice * 0.125) FROM lineitem",
	} {
		_, err := sql.Parse(q, w.Cat)
		lit := strings.Fields(q[strings.LastIndexAny(q, "<*")+1:])[0]
		if err == nil || !strings.Contains(err.Error(), strings.TrimRight(lit, ")")) {
			t.Errorf("%q: error %v, want one that names the literal", q, err)
		}
	}
}
