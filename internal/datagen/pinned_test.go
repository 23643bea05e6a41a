package datagen

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"polystorepp/internal/kvstore"
	"polystorepp/internal/relational"
	"polystorepp/internal/textstore"
	"polystorepp/internal/timeseries"
)

// TestGeneratedDataPinned holds the generators to the data they made when
// it was written: same seed, same data, and the same mutation counts, which
// the serving layer's cache keys and the durable stores' watermarks are
// built from. It digests a canonical dump of every store rather than
// snapshot bytes, because a timeseries snapshot writes its series in map
// order. A change that moves a digest changes the data every experiment and
// benchmark runs on.
func TestGeneratedDataPinned(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (func(*digest), error)
		want uint64
	}{
		{"clinical/seed1/n40", func() (func(*digest), error) {
			c, err := GenerateClinical(rand.New(rand.NewSource(1)), 40)
			return c.dump, err
		}, 0x686996c0e6db990f},
		{"clinical/seed7/n2000", func() (func(*digest), error) {
			c, err := GenerateClinical(rand.New(rand.NewSource(7)), 2000)
			return c.dump, err
		}, 0x3dc199b07a462bc},
		{"retail/seed3/n300x4", func() (func(*digest), error) {
			r, err := GenerateRetail(rand.New(rand.NewSource(3)), 300, 4)
			return r.dump, err
		}, 0x603084fe4e873f5d},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dump, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			d := &digest{h: fnv.New64a()}
			dump(d)
			if d.err != nil {
				t.Fatal(d.err)
			}
			if got := d.h.Sum64(); got != tc.want {
				t.Errorf("digest = %#x, want %#x", got, tc.want)
			}
		})
	}
}

// digest feeds typed values into an FNV-64a hash, each with a tag byte so
// adjacent fields cannot run together.
type digest struct {
	h   hash.Hash64
	err error
}

func (d *digest) u64(v uint64) {
	var b [9]byte
	b[0] = 'u'
	binary.LittleEndian.PutUint64(b[1:], v)
	d.h.Write(b[:])
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte{'s'})
	d.h.Write([]byte(s))
}

func (d *digest) value(v any) {
	switch v := v.(type) {
	case int64:
		d.u64(uint64(v))
	case float64:
		d.u64(math.Float64bits(v))
	case string:
		d.str(v)
	case bool:
		d.str(fmt.Sprint(v))
	default:
		d.fail(fmt.Errorf("unexpected value %T", v))
	}
}

func (d *digest) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// relational digests the named tables' rows in heap order, each table's
// version and B-tree columns, and the store's version.
func (d *digest) relational(s *relational.Store, tables map[string][]string) {
	d.u64(s.Version())
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t, err := s.Table(name)
		if err != nil {
			d.fail(err)
			return
		}
		d.str(name)
		d.u64(s.TableVersion(name))
		for _, col := range tables[name] {
			d.str(col)
			d.str(fmt.Sprint(t.HasBTree(col)))
		}
		b := t.Snapshot()
		d.u64(uint64(b.Rows()))
		for r := 0; r < b.Rows(); r++ {
			row, err := b.Row(r)
			if err != nil {
				d.fail(err)
				return
			}
			for _, v := range row {
				d.value(v)
			}
		}
	}
}

// timeseries digests every series in name order with all of its points.
func (d *digest) timeseries(s *timeseries.Store) {
	d.u64(s.Version())
	for _, name := range s.SeriesNames() {
		pts, err := s.Range(name, math.MinInt64, math.MaxInt64)
		if err != nil {
			d.fail(err)
			return
		}
		d.str(name)
		d.u64(uint64(len(pts)))
		for _, p := range pts {
			d.u64(uint64(p.TS))
			d.u64(math.Float64bits(p.Value))
		}
	}
}

// text digests the notes with IDs 0..n-1 in ID order, with their text.
func (d *digest) text(s *textstore.Store, n int) {
	d.u64(s.Version())
	d.u64(uint64(s.Len()))
	for id := int64(0); id < int64(n); id++ {
		doc, ok := s.Doc(id)
		if !ok {
			d.fail(fmt.Errorf("note %d missing", id))
			return
		}
		d.u64(uint64(doc.ID))
		d.str(doc.Text)
	}
}

// kv digests every entry in key order.
func (d *digest) kv(s *kvstore.Store) {
	d.u64(s.Version())
	keys, values := s.ScanPrefix("")
	d.u64(uint64(len(keys)))
	for i := range keys {
		d.str(keys[i])
		d.str(values[i])
	}
}

func (c *Clinical) dump(d *digest) {
	d.relational(c.Relational, map[string][]string{
		"patients":   {"pid"},
		"admissions": {"pid"},
		"stays":      {"pid"},
	})
	d.timeseries(c.Timeseries)
	d.text(c.Text, c.Text.Len())
}

func (r *Retail) dump(d *digest) {
	d.relational(r.Relational, map[string][]string{
		"customers":    {"cid"},
		"transactions": {"cid"},
	})
	d.timeseries(r.Timeseries)
	d.kv(r.KV)
}
