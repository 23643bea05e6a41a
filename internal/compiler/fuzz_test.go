// Fuzz targets for the SQL frontend and the touch analysis: the parser must
// never panic on hostile statements, and TouchesOf must never under-report a
// storage-reading program to "touches nothing" — that would hand the result
// cache a key that no write ever rotates, serving stale data forever.
//
// Seed corpus: testdata/fuzz/FuzzParseSQL. CI runs this for a short
// -fuzztime as a smoke job; longer local runs with
//
//	go test ./internal/compiler/ -run '^$' -fuzz FuzzParseSQL -fuzztime 5m
package compiler_test

import (
	"testing"

	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
)

func FuzzParseSQL(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM patients",
		"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 5",
		"SELECT ward, count(*) AS n, avg(age) AS m FROM admissions GROUP BY ward",
		"SELECT a, b FROM t JOIN u ON a = b WHERE NOT (a < 3 AND b >= 2) OR a != 7",
		"SELECT sum(v) AS s FROM t WHERE name = 'x''y' AND flag = true",
		"SELECT 1 + 2 * 3 - 4 / 2 AS expr FROM t LIMIT 0",
		"select min(x) from t where y <= -9223372036854775808",
		"SELECT (a) FROM t WHERE ((a = 1))",
		"SELECT * FROM t WHERE s = 'unterminated",
		"SELECT FROM WHERE",
		"",
		"SELECT \x00 FROM \xff",
		"SELECT count(*) FROM t GROUP BY",
		"SELECT * FROM t LIMIT 99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		p := eide.NewProgram()
		if _, err := p.SQL("db", sql); err != nil { // parses; must never panic
			return
		}
		// The base table's scan is the first node of the lowering.
		from := p.Graph().Nodes()[0].StringAttr("table")
		if from == "" {
			t.Fatalf("SQL(%q) accepted a statement without a FROM table", sql)
		}
		// A statement the frontend accepts becomes a program whose touch set
		// must cover its engine and base table.
		tt := compiler.TouchesOf(p.Graph())
		if len(tt.Engines()) == 0 {
			t.Fatalf("TouchesOf(%q) reported no engines for a storage-reading program", sql)
		}
		tables, ok := tt.ByEngine["db"]
		if !ok {
			t.Fatalf("TouchesOf(%q) missing engine \"db\": %v", sql, tt.ByEngine)
		}
		if tables != nil && len(tables) == 0 {
			t.Fatalf("TouchesOf(%q) reported a pure-dataflow engine for a program that scans %q", sql, from)
		}
		if tables != nil {
			found := false
			for _, tb := range tables {
				if tb == from {
					found = true
				}
			}
			if !found {
				t.Fatalf("TouchesOf(%q) table set %v misses base table %q", sql, tables, from)
			}
		}
		// The full compiler must also hold up (structural validation, L1-L3
		// passes, staging) without panicking.
		if _, err := compiler.Compile(p.Graph(), compiler.Options{Level: 3, Accel: true}); err != nil {
			t.Fatalf("Compile rejected a frontend-accepted program %q: %v", sql, err)
		}
	})
}
