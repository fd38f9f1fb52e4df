package sql

import "strings"

// OldParse is the oracle parser (oracle_test.go) for this package's external
// tests, which run plans on the engines.
var OldParse = oldParse

// Twin returns query with every literal ShapeKey lists replaced by what lit
// returns for it, given its position in that list, its text and whether it
// is a number with a point or a string (the text goes between the quotes).
func Twin(query string, lit func(i int, raw string, point, str bool) string) string {
	s := scanner{src: query}
	var b strings.Builder
	last := 0
	for {
		t, err := s.next()
		if err != nil || t.kind == tkEOF {
			break
		}
		if t.site < 0 {
			continue
		}
		end := s.i
		if t.kind == tkString {
			end-- // the closing quote
		}
		start := end - len(t.raw)
		l := Lit{t.kind, t.raw}
		b.WriteString(query[last:start])
		b.WriteString(lit(int(t.site), t.raw, l.point(), t.kind == tkString))
		last = end
	}
	b.WriteString(query[last:])
	return b.String()
}
