package server_test

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"polystorepp"
	"polystorepp/internal/datagen"
)

// TestRequestSurfaceRefusals holds every 400 the request surface words
// itself: one case per refusal of the frontend switch (prepare.go) and of
// the program builder (program.go), each through /query, with its status and
// its exact message. The "bare" server is the clinical deployment with no
// default engines and no NL binding. The successful cases beside them run
// the defaults those refusals guard: a text query and a text step without
// "k", and a train step with a negative batch.
func TestRequestSurfaceRefusals(t *testing.T) {
	full := newTestServer(t, polystore.ServeConfig{})
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(7)), 120)
	if err != nil {
		t.Fatal(err)
	}
	bare := serveTest(t, polystore.ServeConfig{}, nil, polystore.WithClinical(data))

	const src = `{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT pid, age, prior_visits, gender_male FROM patients"}`
	for _, tc := range []struct {
		name, body string
		bare       bool
		want       string // the error message; "" for a 200
	}{
		// The frontend switch.
		{"sql without an engine", `{"frontend":"sql","statement":"SELECT pid FROM patients"}`, true, "sql frontend needs an engine"},
		{"sql without a statement", `{"frontend":"sql"}`, false, "sql frontend needs a statement"},
		{"nl not configured", `{"frontend":"nl","statement":"how many patients are there?"}`, true, "nl frontend not configured on this deployment"},
		{"nl without a statement", `{"frontend":"nl"}`, false, "nl frontend needs a statement"},
		{"text without an engine", `{"frontend":"text","statement":"sedation"}`, true, "text frontend needs an engine"},
		{"text without a statement", `{"frontend":"text"}`, false, "text frontend needs a statement"},
		{"text at the default k", `{"frontend":"text","statement":"sedation"}`, false, ""},
		{"unknown frontend", `{"frontend":"graphql","statement":"{}"}`, false, `unknown frontend "graphql" (want sql, nl, text or program)`},

		// The program builder: ids, engines and references.
		{"no steps", programBody(``), false, "program needs at least one step"},
		{"missing id", programBody(`{"op":"sql","engine":"db-clinical","sql":"SELECT pid FROM patients"}`), false, "step 0: missing id"},
		{"duplicate id", programBody(src + `,` + src), false, `step "a": duplicate id`},
		{"missing engine", programBody(`{"id":"a","op":"sql","sql":"SELECT pid FROM patients"}`), false, `step "a" (sql): missing engine`},
		{"unknown reference", programBody(src + `,{"id":"s","op":"sort","engine":"db-clinical","input":"ghost","col":"pid"}`), false, `step "s" (sort): input references unknown step "ghost"`},
		{"unknown op", programBody(`{"id":"a","op":"teleport","engine":"db-clinical"}`), false, `step "a": unknown op "teleport"`},
		{"sql that does not lex", programBody(`{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT 'open FROM patients"}`), false, `step "a": eide: frontend: relational: sql: unterminated string`},

		// The program builder: each op's missing field.
		{"sql without sql", programBody(`{"id":"a","op":"sql","engine":"db-clinical"}`), false, `step "a": sql op needs a sql field`},
		{"cypher without a query", programBody(`{"id":"a","op":"cypher","engine":"db-clinical"}`), false, `step "a": cypher op needs a query field`},
		{"text without a query", programBody(`{"id":"a","op":"text","engine":"txt-notes"}`), false, `step "a": text op needs a query field`},
		{"tswindow without a prefix", programBody(`{"id":"w","op":"tswindow","engine":"ts-vitals","agg":"mean"}`), false, `step "w": tswindow needs a series_prefix field`},
		{"join without left", programBody(src + `,{"id":"j","op":"join","engine":"db-clinical","right":"a","left_col":"pid","right_col":"pid"}`), false, `step "j" (join): missing left reference`},
		{"join without right", programBody(src + `,{"id":"j","op":"join","engine":"db-clinical","left":"a","left_col":"pid","right_col":"pid"}`), false, `step "j" (join): missing right reference`},
		{"join without columns", programBody(src + `,{"id":"j","op":"join","engine":"db-clinical","left":"a","right":"a","left_col":"pid"}`), false, `step "j": join needs left_col and right_col`},
		{"sort without input", programBody(`{"id":"s","op":"sort","engine":"db-clinical","col":"pid"}`), false, `step "s" (sort): missing input reference`},
		{"sort without col", programBody(src + `,{"id":"s","op":"sort","engine":"db-clinical","input":"a"}`), false, `step "s": sort needs a col field`},
		{"train without input", programBody(`{"id":"t","op":"train","engine":"ml","feature_cols":["age"],"label_col":"gender_male"}`), false, `step "t" (train): missing input reference`},
		{"train without a label", programBody(src + `,{"id":"t","op":"train","engine":"ml","input":"a","feature_cols":["age"]}`), false, `step "t": train needs feature_cols and label_col`},
		{"train without features", programBody(src + `,{"id":"t","op":"train","engine":"ml","input":"a","label_col":"gender_male"}`), false, `step "t": train needs feature_cols and label_col`},
		{"predict without model", programBody(src + `,{"id":"p","op":"predict","engine":"ml","input":"a","feature_cols":["age"]}`), false, `step "p" (predict): missing model reference`},
		{"predict without input", programBody(src + `,{"id":"t","op":"train","engine":"ml","input":"a","feature_cols":["age"],"label_col":"gender_male","epochs":1},{"id":"p","op":"predict","engine":"ml","model":"t","feature_cols":["age"]}`), false, `step "p" (predict): missing input reference`},
		{"predict without features", programBody(src + `,{"id":"t","op":"train","engine":"ml","input":"a","feature_cols":["age"],"label_col":"gender_male","epochs":1},{"id":"p","op":"predict","engine":"ml","model":"t","input":"a"}`), false, `step "p": predict needs feature_cols`},

		// The program builder: the training shape's bounds.
		{"hidden over 1024", programBody(src + `,{"id":"t","op":"train","engine":"ml","input":"a","feature_cols":["age"],"label_col":"gender_male","hidden":1025}`), false, `step "t": hidden 1025 exceeds limit 1024`},
		{"epochs over 100000", programBody(src + `,{"id":"t","op":"train","engine":"ml","input":"a","feature_cols":["age"],"label_col":"gender_male","epochs":100001}`), false, `step "t": epochs 100001 exceeds limit 100000`},

		// The program builder's defaults, run.
		{"text step at the default k", programBody(`{"id":"a","op":"text","engine":"txt-notes","query":"sedation"}`), false, ""},
		{"train at a negative batch", programBody(src + `,{"id":"t","op":"train","engine":"ml","input":"a","feature_cols":["age"],"label_col":"gender_male","epochs":1,"batch":-1}`), false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := full
			if tc.bare {
				ts = bare
			}
			code, raw := postRaw(t, ts, tc.body)
			if tc.want == "" {
				if code != http.StatusOK {
					t.Fatalf("status %d, want 200: %s", code, raw)
				}
				return
			}
			var e struct{ Error string }
			if err := json.Unmarshal(raw, &e); err != nil || code != http.StatusBadRequest || e.Error != tc.want {
				t.Fatalf("status %d, error %q; want 400 and %q (%s)", code, e.Error, tc.want, raw)
			}
		})
	}
}

// TestCompilerOptionsAreNotRequestFields: a request cannot choose its
// compiler options or its partition fan-out. A body naming "level", "accel"
// or "parts" is an unknown field on /query and /query/stream alike, refused
// before anything is prepared.
func TestCompilerOptionsAreNotRequestFields(t *testing.T) {
	ts := newTestServer(t, polystore.ServeConfig{})
	for _, field := range []string{`"level":0`, `"accel":false`, `"parts":7`} {
		body := `{"frontend":"sql","statement":"SELECT pid FROM patients",` + field + `}`
		name := strings.SplitN(field, ":", 2)[0]
		for _, path := range []string{"/query", "/query/stream"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if want := "bad request body: json: unknown field " + name; err != nil || resp.StatusCode != http.StatusBadRequest || e.Error != want {
				t.Errorf("%s with %s: status %d, error %q; want 400 and %q", path, field, resp.StatusCode, e.Error, want)
			}
		}
	}
}
