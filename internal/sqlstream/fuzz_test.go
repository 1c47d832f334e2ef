package sqlstream

import "testing"

// FuzzParse: arbitrary text yields an error or a query whose canonical
// rendering parses again to the same rendering — never a panic. Queries reach
// the engine through this parser from the SQL REPL and the generators.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`SELECT * FROM A, B [RANGE 20] [SLICE 5] WHERE A.KEY = B.KEY AND A.FIELD3 > 10 AND B.FIELD1 <= 4`,
		`SELECT SUM(A.FIELD1) FROM A [RANGE 10] [SLICE 10] WHERE A.F4 >= 7 GROUPBY A.KEY`,
		`SELECT COUNT(*) FROM A [SESSION 15] GROUPBY A.KEY`,
		`SELECT * FROM A, B, C [RANGE 10] WHERE A.KEY = B.KEY AND B.KEY = C.KEY`,
		`select max(a.f0) from a [range 5] group by a.key; -- comment`,
		`SELECT SUM(A.F0) FROM A [RANGE 99999999999999999999]`,
		`SELECT * FROM A WHERE A.F9 > `,
		`SELECT`,
		``,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q does not parse: %v", src, canon, err)
		}
		if again := q2.String(); again != canon {
			t.Fatalf("rendering is not a fixed point: %q -> %q", canon, again)
		}
	})
}
