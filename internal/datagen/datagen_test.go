package datagen

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"polystorepp/internal/relational"
	"polystorepp/internal/timeseries"
)

func TestGenerateClinicalShape(t *testing.T) {
	data, err := GenerateClinical(rand.New(rand.NewSource(1)), 40)
	if err != nil {
		t.Fatal(err)
	}
	patients, err := data.Relational.Table("patients")
	if err != nil {
		t.Fatal(err)
	}
	if patients.Snapshot().Rows() != 40 {
		t.Fatalf("patients = %d", patients.Snapshot().Rows())
	}
	adm, _ := data.Relational.Table("admissions")
	if adm.Snapshot().Rows() < 40 || adm.Snapshot().Rows() > 120 {
		t.Fatalf("admissions = %d", adm.Snapshot().Rows())
	}
	stays, _ := data.Relational.Table("stays")
	if stays.Snapshot().Rows() < 40 || stays.Snapshot().Rows() > 80 {
		t.Fatalf("stays = %d", stays.Snapshot().Rows())
	}
	// Vitals: two series per patient, 48 points each.
	if got := points(t, data.Timeseries, "vitals/0/hr"); got != 48 {
		t.Fatalf("hr points = %d", got)
	}
	if got := points(t, data.Timeseries, "vitals/39/spo2"); got != 48 {
		t.Fatalf("spo2 points = %d", got)
	}
	if data.Text.Len() != 40 {
		t.Fatalf("notes = %d", data.Text.Len())
	}
	// Indexes exist for the §III worked example.
	if !patients.HasBTree("pid") || !adm.HasBTree("pid") {
		t.Fatal("pid indexes missing")
	}
}

func TestClinicalLabelsHaveSignal(t *testing.T) {
	data, err := GenerateClinical(rand.New(rand.NewSource(2)), 300)
	if err != nil {
		t.Fatal(err)
	}
	e := relational.NewEngine(data.Relational)
	out, _, err := e.Query(context.Background(),
		"SELECT long_stay, avg(icu_hours) AS h FROM stays GROUP BY long_stay")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 {
		t.Fatalf("label classes = %d (labels degenerate)", out.Rows())
	}
	labels, _ := out.Ints(0)
	hours, _ := out.Floats(1)
	// Long stays correlate with more ICU hours by construction.
	byLabel := map[int64]float64{}
	for i := range labels {
		byLabel[labels[i]] = hours[i]
	}
	if byLabel[1] <= byLabel[0] {
		t.Fatalf("icu hours: long=%v short=%v", byLabel[1], byLabel[0])
	}
}

func TestGenerateClinicalDeterministic(t *testing.T) {
	a, err := GenerateClinical(rand.New(rand.NewSource(7)), 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateClinical(rand.New(rand.NewSource(7)), 20)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := a.Relational.Table("patients")
	tb, _ := b.Relational.Table("patients")
	if !ta.Snapshot().Equal(tb.Snapshot()) {
		t.Fatal("same seed produced different data")
	}
}

func TestGenerateRetailShape(t *testing.T) {
	data, err := GenerateRetail(rand.New(rand.NewSource(3)), 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	cust, _ := data.Relational.Table("customers")
	tx, _ := data.Relational.Table("transactions")
	if cust.Snapshot().Rows() != 50 || tx.Snapshot().Rows() != 200 {
		t.Fatalf("rows = %d/%d", cust.Snapshot().Rows(), tx.Snapshot().Rows())
	}
	if data.KV.Len() != 50 {
		t.Fatalf("kv events = %d", data.KV.Len())
	}
	if points(t, data.Timeseries, "clicks/0/rate") != 96 {
		t.Fatalf("clicks = %d", points(t, data.Timeseries, "clicks/0/rate"))
	}
	if !tx.HasBTree("cid") {
		t.Fatal("transactions cid index missing")
	}
}

func TestGenerateSnorkelShape(t *testing.T) {
	s, err := GenerateSnorkel(rand.New(rand.NewSource(4)), 500)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.Table("unlabeled")
	if err != nil || tb.Snapshot().Rows() != 500 {
		t.Fatalf("unlabeled = %v, %v", tb, err)
	}
	labels, _ := tb.Snapshot().Ints(5)
	ones := 0
	for _, l := range labels {
		if l == 1 {
			ones++
		}
	}
	// Weak labels are balanced-ish by construction.
	if ones < 100 || ones > 400 {
		t.Fatalf("label balance = %d/500", ones)
	}
}

// points counts the points of a series.
func points(t *testing.T, s *timeseries.Store, name string) int {
	t.Helper()
	pts, err := s.Range(name, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	return len(pts)
}
