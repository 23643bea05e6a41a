package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"polystorepp/internal/server"
)

// readSpec is one distinct read request of a workload's key space: the wire
// body the server receives plus the structured form the oracle and the layer
// pass rebuild the program from.
type readSpec struct {
	body  []byte
	sql   string               // sql frontend
	steps []server.ProgramStep // program frontend
	rows  int                  // expected row_count when known a priori, else -1
}

// workload is one traffic mix. Workloads differ by traffic only: every one
// runs against an identically configured deployment, and caches are defeated
// by key spaces larger than the cache, never by switching a cache off.
type workload struct {
	name string
	// path is the read endpoint: /query or /query/stream.
	path string
	// reads is the key space in seeded request order; position p of the
	// stream asks for reads[p % len(reads)].
	reads []readSpec
	// warmup is how many requests of the stream run before the window.
	warmup int
	// checkStride samples the oracle: keys 0, stride, 2*stride, ... have
	// their digest computed on the twin and every response for them compared.
	checkStride int
	// writeEvery > 0 makes every writeEvery-th request an /ingest.
	writeEvery int
	// auditKey is the read whose answer moves with the audit inserts
	// (checked against the acknowledged-write count, not the twin); -1 if none.
	auditKey int
	// guards are the workload's preconditions over the /stats delta.
	guards []guard
}

// guard is one precondition: a workload that no longer stresses what it is
// named for must say so.
type guard struct {
	what string
	ok   func(g guardInput) bool
}

// guardInput is what a guard may look at.
type guardInput struct {
	resultHitRatio float64
	subplanReuse   float64
	migrationsMin  int // fewest migrations any checked response reported
	rowMismatches  int // responses whose row count was not the expected one
}

// workloadNames is the catalogue order; BENCHMARK.json lists the same.
var workloadNames = []string{"hot_rw", "cold_analytic", "similar_family", "stream_scan", "cross_engine"}

var workloadWhy = map[string]string{
	"hot_rw":         "8 repeated statements served from the result cache beside 10% durable writes: server front half and WAL path do the work, the executor almost none",
	"cold_analytic":  "5000+ distinct filter/group-by/sort/join statements over events: every request misses plan and result cache, so compile and the relational executor dominate",
	"similar_family": "2048 LIMIT/kind variants of one statement, larger than plan and result cache: only the subplan cache (32 shared prefixes) can help",
	"stream_scan":    "NDJSON streams of ~10k rows from 1000 distinct scans: result encode and row boxing cost about as much as the executor, which runs in streaming mode",
	"cross_engine":   "the Figure-2 clinical pipeline (2 SQL, tswindow, 2 joins, train, predict) over 400 patient filters: scheduler, joins, migration and ML run per request, the vitals summary once",
}

func sqlBody(stmt string) []byte {
	b, err := json.Marshal(server.QueryRequest{Frontend: "sql", Statement: stmt})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

func sqlRead(stmt string, rows int) readSpec {
	return readSpec{body: sqlBody(stmt), sql: stmt, rows: rows}
}

// shuffled returns reads in a seeded order.
func shuffled(rng *rand.Rand, reads []readSpec) []readSpec {
	out := make([]readSpec, len(reads))
	for i, j := range rng.Perm(len(reads)) {
		out[i] = reads[j]
	}
	return out
}

// evenly returns up to n evenly spaced values in [lo, hi).
func evenly(lo, hi, n int) []int {
	if hi-lo < n {
		n = hi - lo
	}
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo)/n
	}
	return out
}

// newWorkload builds the named workload's request stream from seed. The
// server never sees the seed or the name, only the generated requests.
func newWorkload(name string, seed int64, sc scale) (*workload, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := &workload{name: name, path: "/query", auditKey: -1, checkStride: 8}
	resultMisses := guard{"result-cache hit ratio <= 0.02", func(g guardInput) bool { return g.resultHitRatio <= 0.02 }}
	switch name {
	case "hot_rw":
		stmts := []string{
			"SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 10",
			"SELECT count(*) AS n FROM patients",
			"SELECT gender_male, count(*) AS n, avg(age) AS mean_age FROM patients GROUP BY gender_male",
			"SELECT pid, prior_visits FROM patients WHERE prior_visits >= 6 LIMIT 20",
			"SELECT count(*) AS n FROM stays",
			"SELECT pid, icu_hours FROM stays WHERE icu_hours > 90 ORDER BY icu_hours DESC LIMIT 10",
			"SELECT long_stay, count(*) AS n FROM stays GROUP BY long_stay",
		}
		for _, s := range stmts {
			w.reads = append(w.reads, sqlRead(s, -1))
		}
		// The one statement that reads the table the relational writes hit.
		w.reads = append(w.reads, sqlRead("SELECT count(*) AS n FROM audit", 1))
		w.reads = shuffled(rng, w.reads)
		for i, r := range w.reads {
			if r.rows == 1 {
				w.auditKey = i
			}
		}
		w.warmup = 2000
		w.checkStride = 1
		w.writeEvery = 10
		w.guards = []guard{{"result-cache hit ratio >= 0.8", func(g guardInput) bool { return g.resultHitRatio >= 0.8 }}}

	case "cold_analytic":
		half := sc.Events / 2
		for _, k := range evenly(0, half, 1250) {
			w.reads = append(w.reads,
				sqlRead(fmt.Sprintf("SELECT kind, count(*) AS n, sum(value) AS total FROM events WHERE id >= %d GROUP BY kind", k), -1),
				sqlRead(fmt.Sprintf("SELECT id, value FROM events WHERE id >= %d ORDER BY value DESC LIMIT 50", k), 50),
				sqlRead(fmt.Sprintf("SELECT age, count(*) AS n FROM events JOIN patients ON kind = pid WHERE id >= %d GROUP BY age", k), -1),
				sqlRead(fmt.Sprintf("SELECT count(*) AS n, min(value) AS lo, max(value) AS hi, sum(value) AS total FROM events WHERE id < %d", half+k), 1),
			)
		}
		w.reads = shuffled(rng, w.reads)
		w.warmup = 40
		w.guards = []guard{resultMisses}

	case "similar_family":
		for k := 0; k < 32; k++ {
			for l := 1; l <= 64; l++ {
				w.reads = append(w.reads, sqlRead(fmt.Sprintf(
					"SELECT id, value FROM events WHERE kind = %d ORDER BY value DESC LIMIT %d", k, l), -1))
			}
		}
		w.reads = shuffled(rng, w.reads)
		w.warmup = 3000
		w.checkStride = 16
		w.guards = []guard{
			{"result-cache hit ratio <= 0.05", func(g guardInput) bool { return g.resultHitRatio <= 0.05 }},
			{"subplan reuse ratio >= 0.9", func(g guardInput) bool { return g.subplanReuse >= 0.9 }},
		}

	case "stream_scan":
		w.path = "/query/stream"
		lo := sc.Events * 78 / 100
		for _, k := range evenly(lo, lo+sc.Events/50, 1000) {
			w.reads = append(w.reads, sqlRead(fmt.Sprintf("SELECT * FROM events WHERE id >= %d", k), sc.Events-k))
		}
		w.reads = shuffled(rng, w.reads)
		w.warmup = 20
		w.checkStride = 4
		w.guards = []guard{{"every stream carried the expected row count", func(g guardInput) bool { return g.rowMismatches == 0 }}}

	case "cross_engine":
		features := []string{"age", "gender_male", "prior_visits", "icu_hours", "n_stays", "hr_mean", "spo2_mean"}
		for a := 20; a < 70; a++ {
			for v := 0; v < 8; v++ {
				steps := []server.ProgramStep{
					{ID: "p", Op: "sql", Engine: relEngine, SQL: fmt.Sprintf(
						"SELECT pid, age, gender_male, prior_visits FROM patients WHERE age > %d AND prior_visits >= %d", a, v)},
					{ID: "n", Op: "sql", Engine: relEngine, SQL: "SELECT pid AS npid, sum(icu_hours) AS icu_hours, count(*) AS n_stays, max(long_stay) AS long_stay FROM stays GROUP BY pid"},
					{ID: "s", Op: "tswindow", Engine: tsEngine, SeriesPrefix: "vitals/", Agg: "mean"},
					{ID: "pn", Op: "join", Engine: relEngine, Left: "p", Right: "n", LeftCol: "pid", RightCol: "npid"},
					{ID: "pns", Op: "join", Engine: relEngine, Left: "pn", Right: "s", LeftCol: "pid", RightCol: "vpid"},
					{ID: "m", Op: "train", Engine: mlEngine, Input: "pns", FeatureCols: features, LabelCol: "long_stay", Hidden: 16, Epochs: 2, Batch: 64, LR: 0.3},
					{ID: "y", Op: "predict", Engine: mlEngine, Model: "m", Input: "pns", FeatureCols: features},
				}
				body, err := json.Marshal(server.QueryRequest{Frontend: "program", Program: steps})
				if err != nil {
					return nil, err
				}
				w.reads = append(w.reads, readSpec{body: body, steps: steps, rows: -1})
			}
		}
		w.reads = shuffled(rng, w.reads)
		w.warmup = 20
		w.guards = []guard{
			resultMisses,
			{">= 2 migrations per request", func(g guardInput) bool { return g.migrationsMin >= 2 }},
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// op is one request of the stream.
type op struct {
	path  string
	body  []byte
	key   int // index into reads; -1 for a write
	write *write
}

// write is one /ingest request the harness remembers until the durability
// check: either a timeseries point or an audit row.
type write struct {
	series string // timeseries append when non-empty
	ts     int64
	id     int64 // audit row id otherwise
}

// at returns the op at stream position pos for the given client. Writes are
// spread evenly: every writeEvery-th position, alternating a timeseries
// append to a per-client series no read touches with a row insert into audit.
func (w *workload) at(pos, client int, wr *writeState) op {
	if w.writeEvery > 0 && pos%w.writeEvery == w.writeEvery-1 {
		if (pos/w.writeEvery)%2 == 0 {
			ts := wr.nextTS(client)
			series := fmt.Sprintf("bench/c%d/hr", client)
			return op{path: "/ingest", key: -1, write: &write{series: series, ts: ts},
				body: []byte(fmt.Sprintf(`{"engine":%q,"series":%q,"ts":%d,"value":%d}`, tsEngine, series, ts, 60+ts%40))}
		}
		id := wr.nextAuditID()
		return op{path: "/ingest", key: -1, write: &write{id: id},
			body: []byte(fmt.Sprintf(`{"engine":%q,"table":"audit","row":[%d,%d,%d]}`, relEngine, id, id%97, id%50))}
	}
	r := pos
	if w.writeEvery > 0 {
		r -= pos / w.writeEvery
	}
	key := r % len(w.reads)
	return op{path: w.path, body: w.reads[key].body, key: key}
}
