// Package datagen generates the synthetic workloads of the experiments:
// a MIMIC-III-like clinical dataset (Figure 2: relational admissions, ICU
// stay records, bedside vitals timeseries, clinical notes), a retail
// recommendation dataset (Figure 1: customers and transactions in the
// RDBMS, external events in the KV store, clickstreams in the timeseries
// store), and a Snorkel-style unlabeled corpus (Figure 3). The real MIMIC data is access-restricted; the generator
// reproduces the join keys, cardinality ratios and feature/label
// correlations the experiments exercise.
//
// The same seed gives the same data, and the same mutation counts in every
// store: the serving layer's cache keys, the oracle twin deployments and
// the experiments' numbers rest on it. The order in which a generator draws
// from its rng is part of that contract — buffering a series' points before
// appending them is free, drawing a value earlier or later is not.
// TestGeneratedDataPinned holds each generator to a digest of its output.
package datagen

import (
	"math/rand"
	"strconv"
	"strings"
	"time"

	"polystorepp/internal/cast"
	"polystorepp/internal/eide"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/relational"
	"polystorepp/internal/textstore"
	"polystorepp/internal/timeseries"
)

// MLEngine names the ML engine instance both demo deployments train on. It
// holds no data; it is named here beside the stores so that a deployment is
// spelled in one place.
const MLEngine = "ml"

// Clinical is the generated MIMIC-like dataset handle. Each store is named
// after the engine instance that serves it.
type Clinical struct {
	Relational *relational.Store // patients, admissions, stays
	Timeseries *timeseries.Store // vitals/<pid>/hr, vitals/<pid>/spo2
	Text       *textstore.Store  // clinical notes
}

// PatientsSchema is the schema of the patients table.
func PatientsSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "pid", Type: cast.Int64},
		cast.Column{Name: "age", Type: cast.Int64},
		cast.Column{Name: "gender_male", Type: cast.Int64},
		cast.Column{Name: "prior_visits", Type: cast.Int64},
	)
}

// AdmissionsSchema is the schema of the admissions table (the §III worked
// example joins Admission with Patients on pid and sorts by date).
func AdmissionsSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "aid", Type: cast.Int64},
		cast.Column{Name: "pid", Type: cast.Int64},
		cast.Column{Name: "date", Type: cast.Timestamp},
		cast.Column{Name: "ward", Type: cast.String},
	)
}

// StaysSchema is the schema of the ICU stays table.
func StaysSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "sid", Type: cast.Int64},
		cast.Column{Name: "pid", Type: cast.Int64},
		cast.Column{Name: "icu_hours", Type: cast.Float64},
		cast.Column{Name: "procedures", Type: cast.Int64},
		cast.Column{Name: "long_stay", Type: cast.Int64},
	)
}

var wards = []string{"cardiac", "surgical", "medical", "trauma", "neuro"}

var noteTerms = []string{
	"patient", "stable", "critical", "vital", "signs", "normal", "elevated",
	"heart", "rate", "oxygen", "saturation", "icu", "admission", "discharge",
	"monitor", "medication", "administered", "response", "improving",
	"deteriorating", "ventilator", "sedation", "recovery", "observation",
}

// NewClinical returns the clinical deployment's stores, empty:
// GenerateClinical fills them, and a restart over persisted state recovers
// into them.
func NewClinical() *Clinical {
	return &Clinical{
		Relational: relational.NewStore("db-clinical"),
		Timeseries: timeseries.New("ts-vitals"),
		Text:       textstore.New("txt-notes"),
	}
}

// Binding names the engines the clinical programs — the Figure 2 pipeline
// and the natural-language templates — run on.
func (c *Clinical) Binding() eide.Binding {
	return eide.Binding{
		Relational: c.Relational.Name(),
		Timeseries: c.Timeseries.Name(),
		Text:       c.Text.Name(),
		ML:         MLEngine,
	}
}

// must returns v, panicking on err; check panics on err. A generator writes
// its own fixed schemas, and rows of their column types, into stores it has
// just made, with no journal behind them: none of those writes can fail.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// GenerateClinical builds the full clinical dataset for n patients.
// Labels (long_stay) are a noisy function of age, ICU hours and SpO2 so the
// Figure 2 model has signal to learn. Like every generator's, its error is
// always nil (see must); the signature stays for its callers.
func GenerateClinical(rng *rand.Rand, n int) (*Clinical, error) {
	c := NewClinical()
	patients := must(c.Relational.CreateTable("patients", PatientsSchema()))
	admissions := must(c.Relational.CreateTable("admissions", AdmissionsSchema()))
	stays := must(c.Relational.CreateTable("stays", StaysSchema()))

	baseTS := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	aid, sid := int64(0), int64(0)
	hrPts, spo2Pts := make([]timeseries.Point, 48), make([]timeseries.Point, 48)
	words := make([]string, 24)
	for pid := 0; pid < n; pid++ {
		age := int64(20 + rng.Intn(70))
		male := int64(rng.Intn(2))
		prior := int64(rng.Intn(8))
		check(patients.Insert(int64(pid), age, male, prior))
		id := strconv.Itoa(pid)

		// Vitals: heart rate and SpO2 series, 48 samples each (once/30min),
		// each series appended as one batch.
		hrBase := 60 + rng.Float64()*40
		spo2Base := 90 + rng.Float64()*9
		var spo2Sum float64
		start := baseTS + int64(pid)*int64(time.Hour)
		for s := range hrPts {
			ts := start + int64(s)*int64(30*time.Minute)
			hrPts[s] = timeseries.Point{TS: ts, Value: hrBase + rng.NormFloat64()*5}
			spo2Pts[s] = timeseries.Point{TS: ts, Value: spo2Base + rng.NormFloat64()*1.5}
			spo2Sum += spo2Pts[s].Value
		}
		check(c.Timeseries.AppendPoints("vitals/"+id+"/hr", hrPts))
		check(c.Timeseries.AppendPoints("vitals/"+id+"/spo2", spo2Pts))
		spo2Mean := spo2Sum / 48

		// Admissions: 1-3 per patient.
		nAdm := 1 + rng.Intn(3)
		for a := 0; a < nAdm; a++ {
			date := baseTS + int64(rng.Intn(4*365*24))*int64(time.Hour)
			check(admissions.Insert(aid, int64(pid), date, wards[rng.Intn(len(wards))]))
			aid++
		}

		// Stays: 1-2 per patient with the label correlated to the features.
		nStays := 1 + rng.Intn(2)
		for s := 0; s < nStays; s++ {
			icuHours := rng.Float64() * 96
			procedures := int64(rng.Intn(6))
			risk := float64(age)/90 + icuHours/96 + (99-spo2Mean)/9 + rng.NormFloat64()*0.25
			long := int64(0)
			if risk > 1.6 {
				long = 1
			}
			check(stays.Insert(sid, int64(pid), icuHours, procedures, long))
			sid++
		}

		// One clinical note per patient.
		for w := range words {
			words[w] = noteTerms[rng.Intn(len(noteTerms))]
		}
		check(c.Text.Add(textstore.Doc{ID: int64(pid), Text: strings.Join(words, " ")}))
	}
	check(patients.CreateBTreeIndex("pid"))
	check(admissions.CreateBTreeIndex("pid"))
	return c, nil
}

// Retail is the generated recommendation dataset (Figure 1). Each store is
// named after the engine instance that serves it.
type Retail struct {
	Relational *relational.Store // customers, transactions
	KV         *kvstore.Store    // external events: event/<cid>
	Timeseries *timeseries.Store // clicks/<cid>/rate
}

// CustomersSchema is the customers table schema.
func CustomersSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "cid", Type: cast.Int64},
		cast.Column{Name: "segment", Type: cast.Int64},
		cast.Column{Name: "tenure_days", Type: cast.Int64},
	)
}

// TransactionsSchema is the transactions table schema.
func TransactionsSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "tid", Type: cast.Int64},
		cast.Column{Name: "cid", Type: cast.Int64},
		cast.Column{Name: "amount", Type: cast.Float64},
		cast.Column{Name: "ts", Type: cast.Timestamp},
	)
}

// NewRetail returns the retail deployment's stores, empty: GenerateRetail
// fills them, and a restart over persisted state recovers into them.
func NewRetail() *Retail {
	return &Retail{
		Relational: relational.NewStore("db-retail"),
		KV:         kvstore.New("kv-events"),
		Timeseries: timeseries.New("ts-clicks"),
	}
}

// GenerateRetail builds the recommendation dataset for n customers with
// txPerCustomer transactions each. Its error is always nil.
func GenerateRetail(rng *rand.Rand, n, txPerCustomer int) (*Retail, error) {
	r := NewRetail()
	customers := must(r.Relational.CreateTable("customers", CustomersSchema()))
	transactions := must(r.Relational.CreateTable("transactions", TransactionsSchema()))
	base := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	tid := int64(0)
	clicks := make([]timeseries.Point, 96)
	for cid := 0; cid < n; cid++ {
		check(customers.Insert(int64(cid), int64(rng.Intn(5)), int64(rng.Intn(2000))))
		for t := 0; t < txPerCustomer; t++ {
			ts := base + int64(rng.Intn(365*24))*int64(time.Hour)
			check(transactions.Insert(tid, int64(cid), 5+rng.Float64()*495, ts))
			tid++
		}
		// Clickstream: 96 samples of click rate, appended as one batch.
		id := strconv.Itoa(cid)
		start := base + int64(cid)*int64(time.Minute)
		for s := range clicks {
			clicks[s] = timeseries.Point{TS: start + int64(s)*int64(15*time.Minute), Value: rng.Float64() * 20}
		}
		check(r.Timeseries.AppendPoints("clicks/"+id+"/rate", clicks))
		// External events in the KV store.
		r.KV.Put("event/"+id, []byte("promo-"+strconv.Itoa(rng.Intn(10))))
	}
	check(customers.CreateBTreeIndex("cid"))
	check(transactions.CreateBTreeIndex("cid"))
	return r, nil
}

// SnorkelSchema is the Figure 3 unlabeled-data table: numeric features the
// training loop loads batch-by-batch with SQL, plus a weak label.
func SnorkelSchema() cast.Schema {
	return cast.MustSchema(
		cast.Column{Name: "id", Type: cast.Int64},
		cast.Column{Name: "f0", Type: cast.Float64},
		cast.Column{Name: "f1", Type: cast.Float64},
		cast.Column{Name: "f2", Type: cast.Float64},
		cast.Column{Name: "f3", Type: cast.Float64},
		cast.Column{Name: "weak_label", Type: cast.Int64},
	)
}

// GenerateSnorkel builds a relational store with one unlabeled table of n
// rows whose weak labels correlate with the features. Its error is always
// nil.
func GenerateSnorkel(rng *rand.Rand, n int) (*relational.Store, error) {
	s := relational.NewStore("db-snorkel")
	t := must(s.CreateTable("unlabeled", SnorkelSchema()))
	for i := 0; i < n; i++ {
		f0, f1 := rng.NormFloat64(), rng.NormFloat64()
		f2, f3 := rng.NormFloat64(), rng.NormFloat64()
		label := int64(0)
		if f0+f1*0.5-f2*0.25+rng.NormFloat64()*0.3 > 0 {
			label = 1
		}
		check(t.Insert(int64(i), f0, f1, f2, f3, label))
	}
	check(t.CreateBTreeIndex("id"))
	return s, nil
}
