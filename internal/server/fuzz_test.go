// Fuzz target for the serving request surface: arbitrary POST bodies must
// never panic the handler on either the buffered or the streaming endpoint,
// and every outcome must be a well-formed HTTP response. Executed queries
// run against a tiny clinical system under a tight deadline, so hostile
// bodies cannot wedge the fuzz worker.
//
// Seed corpus: testdata/fuzz/FuzzQueryRequest. CI runs this for a short
// -fuzztime as a smoke job.
package server_test

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"polystorepp"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/server"
)

func FuzzQueryRequest(f *testing.F) {
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(3)), 8)
	if err != nil {
		f.Fatal(err)
	}
	sys := polystore.New(
		polystore.WithRelational("db-clinical", data.Relational),
		polystore.WithTimeseries("ts-vitals", data.Timeseries),
		polystore.WithText("txt-notes", data.Text),
		polystore.WithML("ml"),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA()),
	)
	h := server.CapTimeout(sys.Handler(polystore.ServeConfig{
		Workers: 2, QueueDepth: 8, DefaultTimeout: 250 * time.Millisecond,
		DefaultSQLEngine: "db-clinical", DefaultTextEngine: "txt-notes",
		NL: clinicalNL,
	}), 250*time.Millisecond)

	for _, seed := range []string{
		`{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60"}`,
		`{"frontend":"sql","statement":"SELECT * FROM patients","parts":7,"max_rows":3}`,
		`{"frontend":"nl","statement":"how many patients are there?"}`,
		`{"frontend":"text","statement":"sedation","k":5}`,
		`{"frontend":"program","program":[{"id":"w","op":"tswindow","engine":"ts-vitals","series_prefix":"vitals/","agg":"mean"}]}`,
		`{"frontend":"program","program":[{"id":"a","op":"sql","engine":"db-clinical","sql":"SELECT pid FROM patients"},{"id":"s","op":"sort","engine":"db-clinical","input":"a","col":"pid","desc":true}]}`,
		`{"frontend":"program","program":[{"id":"src","op":"sql","engine":"db-clinical","sql":"SELECT age, prior_visits, gender_male FROM patients"},{"id":"t","op":"train","engine":"ml","input":"src","feature_cols":["age"],"label_col":"gender_male","epochs":1}]}`,
		`{"frontend":"sql","statement":"SELECT 1 / 0 AS boom FROM patients"}`,
		`{"frontend":"program","program":[{"id":"t","op":"train","engine":"ml","input":"t","feature_cols":["x"],"label_col":"y","hidden":999999999}]}`,
		`{"frontend":"sql","statement":"SELECT","timeout_ms":-5}`,
		`{"frontend":"bogus"}`,
		`{"frontend":`,
		`[]`,
		`{}`,
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/query", "/query/stream"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req) // must not panic, whatever the body
			if rec.Code < 200 || rec.Code > 599 {
				t.Fatalf("%s returned impossible status %d for %q", path, rec.Code, body)
			}
			// Every non-OK response must still be a JSON error object, not a
			// half-written frame.
			if rec.Code != http.StatusOK && rec.Body.Len() > 0 {
				if !bytes.Contains(rec.Body.Bytes(), []byte("error")) {
					t.Fatalf("%s status %d without error body: %q", path, rec.Code, rec.Body.Bytes())
				}
			}
		}
	})
}
