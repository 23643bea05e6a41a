package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// freshDecode is decodeBody over a json.Decoder of the body's own, as every
// body was decoded before decoders were pooled: the reference the pooled
// decoder is held to. It returns the status and error text decodeBody must
// answer body with, and 0 and "" when body decodes into v.
func freshDecode(body string, v any) (int, string) {
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), 1<<20))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	err := dec.Decode(v)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("data after the JSON value")
		if errors.As(tail, new(*http.MaxBytesError)) {
			err = tail
		}
	}
	switch {
	case err == nil:
		return 0, ""
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge, "bad request body: " + err.Error()
	}
	return http.StatusBadRequest, "bad request body: " + err.Error()
}

// decodeCorpus is one valid body v of an endpoint turned into each body the
// decoder must answer as a fresh one does, with the status that answer has
// (200 for a body that decodes). str is a string field of the endpoint's
// request.
func decodeCorpus(v, str string) []struct {
	name, body string
	status     int
} {
	const limit = 1 << 20
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	return []struct {
		name, body string
		status     int
	}{
		{"valid", v, 200},
		{"valid, trailing whitespace", v + strings.Repeat(" ", 3<<10) + "\n", 200},
		{"valid, past the pooled bound", pad(v, maxPooledBody+1), 200},
		{"integer beyond 2^53", `{"timeout_ms":9007199254740993,` + v[1:], 200},
		{"unknown field", `{"bogus":1,` + v[1:], 400},
		{"two values", v + v, 400},
		{"trailing garbage", v + " x", 400},
		{"truncated", v[:len(v)/2], 400},
		{"wrong-typed field", `{"` + str + `":5,` + v[1:], 400},
		{"empty", "", 400},
		{"value over 1 MiB", pad(`{"`+str+`":"`, limit-1) + `",` + v[1:], 413},
		{"trailing whitespace past 1 MiB", pad(v, limit+1), 413},
	}
}

// TestPooledDecoderEqualsFresh sends one corpus — valid bodies (with
// trailing whitespace, and past maxPooledBody), an unknown field, two values,
// trailing garbage, a truncated body, a wrong-typed field, an empty body, a
// value and trailing whitespace past 1 MiB, an integer beyond 2^53 — to
// /query, /query/stream and /ingest of one server, one request at a time so
// each reads a decoder the one before it pooled or dropped. A body that fails
// answers the status and error text of a fresh decoder; after every body a
// valid one answers what a fresh server answers it (an /ingest row reads
// back exact), so a dropped or pooled decoder leaks no state into the next.
// Only a decoder that read a valid body within maxPooledBody is pooled.
func TestPooledDecoderEqualsFresh(t *testing.T) {
	data := clinicalData(t)
	s := clinicalServer(data)
	post := func(path, body string) (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	const read = `{"frontend":"sql","statement":"SELECT pid, age FROM patients WHERE age > 60"}`
	want := map[string]string{}
	for _, path := range []string{"/query", "/query/stream"} {
		want[path] = serveAnswer(clinicalServer(data), context.Background(), path, read)
	}
	aid := int64(1<<53 + 1) // an admission id float64 cannot hold
	ingest := func() string {
		aid++
		return fmt.Sprintf(`{"engine":"db-clinical","table":"admissions","row":[%d,3,1200000000000000000,"icu"]}`, aid)
	}
	// checkValid posts a valid body to path: a read answers what a fresh
	// server answers it, a write's row reads back exact.
	checkValid := func(path, after string) {
		t.Helper()
		if path != "/ingest" {
			if got := serveAnswer(s, context.Background(), path, read); got != want[path] {
				t.Fatalf("%s after %s:\n %.300s\nfresh server:\n %.300s", path, after, got, want[path])
			}
			return
		}
		if code, got := post(path, ingest()); code != http.StatusOK {
			t.Fatalf("/ingest after %s: %d %s", after, code, got)
		}
		_, got := post("/query", fmt.Sprintf(`{"frontend":"sql","statement":"SELECT aid FROM admissions WHERE aid = %d"}`, aid))
		if !strings.Contains(got, fmt.Sprintf(`"rows":[[%d]]`, aid)) {
			t.Fatalf("/ingest after %s: admission %d reads back as %s", after, aid, got)
		}
	}

	reused := 0
	for _, ep := range []struct {
		path, str string
		valid     func() string
		target    func() any
	}{
		{"/query", "frontend", func() string { return read }, func() any { return new(QueryRequest) }},
		{"/query/stream", "frontend", func() string { return read }, func() any { return new(QueryRequest) }},
		{"/ingest", "engine", ingest, func() any { return new(IngestRequest) }},
	} {
		for _, tc := range decodeCorpus(ep.valid(), ep.str) {
			if ep.path == "/ingest" && tc.name == "integer beyond 2^53" {
				tc.body, tc.status = ep.valid(), 200 // every row's id is one
			}
			status, text := freshDecode(tc.body, ep.target())
			if max(status, 200) != tc.status {
				t.Fatalf("%s %s: a fresh decoder answers %d %q, want %d", ep.path, tc.name, status, text, tc.status)
			}
			// dec is the decoder the post below most likely takes; n = -1
			// tells whether it did (a decode counts from 0).
			dec := bodyDecoders.Get().(*bodyDecoder)
			dec.n = -1
			bodyDecoders.Put(dec)
			code, got := post(ep.path, tc.body)
			if status != 0 {
				var e errorResponse
				if err := json.Unmarshal([]byte(got), &e); err != nil || code != status || e.Error != text {
					t.Fatalf("%s %s: %d %.300s\nfresh decoder: %d %q", ep.path, tc.name, code, got, status, text)
				}
			} else if code != http.StatusOK {
				t.Fatalf("%s %s: %d %.300s", ep.path, tc.name, code, got)
			}
			// The decoder goes back only after a body of at most
			// maxPooledBody bytes that decoded.
			again := bodyDecoders.Get()
			if again == dec && dec.n >= 0 {
				if tc.status != 200 || len(tc.body) > maxPooledBody {
					t.Fatalf("%s %s: its decoder went back to the pool", ep.path, tc.name)
				}
				reused++
			}
			bodyDecoders.Put(again)
			checkValid(ep.path, tc.name)
		}
	}
	// The pool may drop what it is handed (the race detector's build drops a
	// quarter at random), but not every time.
	if reused == 0 {
		t.Fatal("no body's decoder went back to the pool: nothing was tested")
	}
}
