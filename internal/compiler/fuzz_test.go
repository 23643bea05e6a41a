// Fuzz targets for the SQL frontend and the touch analysis: the parser must
// never panic on hostile statements, TouchesOf must never under-report a
// storage-reading program to "touches nothing" — that would hand the result
// cache a key that no write ever rotates, serving stale data forever — and a
// statement's shape key (relational.Shape) must never pair it with a parse
// it would not produce itself.
//
// Seed corpus: testdata/fuzz/FuzzParseSQL. CI runs these for a short
// -fuzztime as a smoke job; longer local runs with
//
//	go test ./internal/compiler/ -run '^$' -fuzz FuzzParseSQL -fuzztime 5m
package compiler_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"polystorepp/internal/compiler"
	"polystorepp/internal/eide"
	"polystorepp/internal/relational"
)

// sqlSeeds are statements the frontend accepts and refuses, for both fuzz
// targets.
var sqlSeeds = []string{
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
	"SELECT id, value FROM events WHERE kind = 7 ORDER BY value DESC LIMIT 12",
	"SELECT id-1 AS x, value * 2.5 AS y FROM events WHERE id>-1 AND tag = 'a'",
	"SELECT value * 2 FROM events WHERE true",
	"SELECT * FROM true WHERE x = false LIMIT -5",
}

func FuzzParseSQL(f *testing.F) {
	for _, seed := range sqlSeeds {
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
		if len(tt.ByEngine) == 0 {
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

// FuzzStatementShape: a statement whose parse lifts exactly the literals
// Shape lexed, none of them shaping it by value, is a template: the server's
// plan cache maps its shape key to its plan, and serves every statement of
// that key from it, with the plan's key and touches. So any statement with
// that key — here the statement with its literals redrawn — must parse too,
// lift the constants Shape lexed from it, compile under the same plan key,
// and touch the same data.
func FuzzStatementShape(f *testing.F) {
	for i, seed := range sqlSeeds {
		f.Add(seed, uint8(i))
	}
	opts := compiler.Options{Level: 3, Accel: true}
	f.Fuzz(func(t *testing.T, sql string, k uint8) {
		key, lexed, err := relational.Shape(nil, sql, nil)
		if err != nil {
			return
		}
		p := eide.NewProgram()
		if _, err := p.SQL("db", sql); err != nil || p.ValueShaped() || !slices.Equal(lexed, p.Graph().Binds()) {
			return // not a template
		}
		other := redraw(sql, k)
		otherKey, otherLexed, err := relational.Shape(nil, other, nil)
		if err != nil || string(otherKey) != string(key) {
			return // the cache would not serve it from this template
		}
		q := eide.NewProgram()
		if _, err := q.SQL("db", other); err != nil {
			t.Fatalf("%q has the shape key of %q, which parses, but fails: %v", other, sql, err)
		}
		if q.ValueShaped() || !slices.Equal(otherLexed, q.Graph().Binds()) {
			t.Fatalf("%q: lexed %#v, parsed %#v (value-shaped %t)", other, otherLexed, q.Graph().Binds(), q.ValueShaped())
		}
		if compiler.Key(p.Graph(), opts) != compiler.Key(q.Graph(), opts) {
			t.Fatalf("%q and %q share a shape key but not a plan key", sql, other)
		}
		if got, want := compiler.TouchesOf(q.Graph()), compiler.TouchesOf(p.Graph()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q touches %v, but %q, which shares its shape key, touches %v", other, got.ByEngine, sql, want.ByEngine)
		}
	})
}

// redraw rewrites sql's literals with other constants of their class: each
// digit of a number shifted by k, each letter of a string rotated by k, true
// and false swapped when k is odd. Names are left alone.
func redraw(sql string, k uint8) string {
	var b strings.Builder
	quoted := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == '\'':
			quoted = !quoted
		case quoted && 'a' <= c && c <= 'z':
			c = 'a' + (c-'a'+k)%26
		case quoted:
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			j := i
			for j < len(sql) && (sql[j] == '_' || sql[j] == '.' || 'a' <= sql[j] && sql[j] <= 'z' || 'A' <= sql[j] && sql[j] <= 'Z' || '0' <= sql[j] && sql[j] <= '9') {
				j++
			}
			word := sql[i:j]
			if k%2 == 1 && strings.EqualFold(word, "true") {
				word = "false"
			} else if k%2 == 1 && strings.EqualFold(word, "false") {
				word = "true"
			}
			b.WriteString(word)
			i = j - 1
			continue
		case '0' <= c && c <= '9':
			c = '0' + (c-'0'+k)%10
		}
		b.WriteByte(c)
	}
	return b.String()
}
