package cast

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

// This file pins the lazy half of the package: a batch Take returns gathers
// nothing until a column is read, and is indistinguishable from one that was
// copied eagerly by every reader there is.

// eagerTake is Take as it used to be — every kept row copied, at once — and
// the reference the selection-backed batch is compared against. It goes
// through boxed rows on purpose: nothing here shares code with the gather.
func eagerTake(t testing.TB, b *Batch, sel []int32) *Batch {
	t.Helper()
	out := NewBatch(b.Schema(), len(sel))
	for _, r := range sel {
		row, err := b.Row(int(r))
		if err != nil {
			t.Fatal(err)
		}
		if err := out.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// eagerSort is SortBy by the book: a stable sort of row numbers on boxed
// values, then eagerTake.
func eagerSort(t testing.TB, b *Batch, key SortKey) *Batch {
	t.Helper()
	ci, err := b.Schema().Index(key.Col)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int32, b.Rows())
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		vx, _ := b.Value(int(order[x]), ci)
		vy, _ := b.Value(int(order[y]), ci)
		c, err := compareValues(vx, vy)
		if err != nil {
			t.Fatal(err)
		}
		if key.Desc {
			return c > 0
		}
		return c < 0
	})
	return eagerTake(t, b, order)
}

// sameEverywhere compares got with the eager reference through every reader
// a consumer has: Equal both ways, boxed rows, the logical size, and the two
// encoders byte for byte.
func sameEverywhere(t testing.TB, step string, got, want *Batch) {
	t.Helper()
	if got.Rows() != want.Rows() || got.ByteSize() != want.ByteSize() {
		t.Fatalf("%s: %d rows / %d bytes, eager reference has %d / %d", step, got.Rows(), got.ByteSize(), want.Rows(), want.ByteSize())
	}
	gj, gerr := got.AppendJSONRows(nil, 0, got.Rows())
	wj, werr := want.AppendJSONRows(nil, 0, want.Rows())
	if (gerr == nil) != (werr == nil) || !bytes.Equal(gj, wj) {
		t.Fatalf("%s: JSON rows differ (read through the selection):\n got %s (%v)\nwant %s (%v)", step, gj, gerr, wj, werr)
	}
	if got.ByteSize() != want.ByteSize() { // again, now that some reader may have gathered
		t.Fatalf("%s: ByteSize moved to %d after a read, want %d", step, got.ByteSize(), want.ByteSize())
	}
	for r := 0; r < want.Rows(); r++ {
		gr, err := got.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		wr, _ := want.Row(r)
		if !slices.Equal(gr, wr) {
			t.Fatalf("%s: row %d is %v, eager reference has %v", step, r, gr, wr)
		}
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: Equal says the batches differ", step)
	}
	var gb, wb bytes.Buffer
	if err := WriteBinary(&gb, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&wb, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: WriteBinary bytes differ", step)
	}
}

// fuzzBases are the two sources the fuzz program draws from: every column
// type, repeated values, strings JSON must escape; and a second batch of
// other names for HConcat.
func fuzzBases(t testing.TB) (*Batch, *Batch) {
	a := NewBatch(MustSchema(
		Column{Name: "i", Type: Int64}, Column{Name: "f", Type: Float64}, Column{Name: "s", Type: String},
		Column{Name: "b", Type: Bool}, Column{Name: "t", Type: Timestamp}), 24)
	z := NewBatch(MustSchema(Column{Name: "j", Type: Int64}, Column{Name: "u", Type: String}), 24)
	for r := 0; r < 24; r++ {
		if err := a.AppendRow(int64(r%5), float64(r%7)*0.25, fmt.Sprintf("<%c&%d>", 'a'+r%3, r%4), r%3 == 0, int64(1e9)*int64(r)); err != nil {
			t.Fatal(err)
		}
		if err := z.AppendRow(int64(100-r), fmt.Sprint("u", r%6)); err != nil {
			t.Fatal(err)
		}
	}
	return a, z
}

// FuzzSelectedBatch runs a byte-coded program of Take / ViewRange / Project /
// HConcat / AppendBatch / SortBy / Compact over a selection-backed
// batch and over its eager twin, and requires the two to agree through every
// reader whenever the program asks (op 8) and at its end. Programs that never
// ask exercise long chains of ungathered selections; programs that ask early
// exercise the mix of gathered and ungathered columns. The seed programs are
// the files under testdata/fuzz/FuzzSelectedBatch, named for what they do.
func FuzzSelectedBatch(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 1, 5, 9, 2, 6}) // the named programs are under testdata/fuzz
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		a, z := fuzzBases(t)
		start := []int32{23, 0, 7, 7, 12, 3, 19, 4, 4, 21, 1, 16}
		got, want := a.Take(slices.Clone(start)), eagerTake(t, a, start)
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			v := int(prog[0])
			prog = prog[1:]
			return v
		}
		for step := 0; len(prog) > 0; step++ {
			op, n := next()%9, got.Rows()
			name := fmt.Sprintf("step %d op %d", step, op)
			var err, werr error
			switch op {
			case 0: // Take: a selection drawn from the program, repeats allowed
				sel := make([]int32, next()%8)
				for i := range sel {
					if n == 0 {
						sel = nil
						break
					}
					sel[i] = int32((next() + 5*i) % n)
				}
				got, want = got.Take(slices.Clone(sel)), eagerTake(t, want, sel)
			case 1: // ViewRange
				lo := next() % (n + 1)
				hi := lo + next()%(n-lo+1)
				if got, err = got.ViewRange(lo, hi); err != nil {
					t.Fatal(err)
				}
				want, _ = want.ViewRange(lo, hi)
			case 2: // Project: a rotation of the columns, the first dropped if it can be
				cols := got.Schema().cols
				k := next() % len(cols)
				names := make([]string, 0, len(cols))
				for i := range cols {
					names = append(names, cols[(i+k)%len(cols)].Name)
				}
				if len(names) > 1 && next()%2 == 0 {
					names = names[1:]
				}
				if got, err = got.Project(names...); err != nil {
					t.Fatal(err)
				}
				want, _ = want.Project(names...)
			case 3: // HConcat with as many rows of the other base, themselves selected
				if got.Schema().Has("j") || got.Schema().Has("u") || n == 0 {
					continue
				}
				sel := make([]int32, n)
				for i := range sel {
					sel[i] = int32((next() + 3*i) % z.Rows())
				}
				s, serr := got.Schema().Concat(z.Schema())
				if serr != nil {
					t.Fatal(serr)
				}
				if got, err = HConcat(s, got, z.Take(slices.Clone(sel))); err != nil {
					t.Fatal(err)
				}
				want, _ = HConcat(s, want, eagerTake(t, z, sel))
			case 4: // two ranges (adjacent or overlapping) appended into a fresh batch
				lo := next() % (n + 1)
				mid := lo + next()%(n-lo+1)
				from := mid
				if next()%2 == 0 {
					from = lo
				}
				g, w := NewBatch(got.Schema(), 0), NewBatch(want.Schema(), 0)
				for _, r := range [][2]int{{lo, mid}, {from, n}} {
					gr, _ := got.ViewRange(r[0], r[1])
					wr, _ := want.ViewRange(r[0], r[1])
					if err = g.AppendBatch(gr); err != nil {
						t.Fatal(err)
					}
					if err = w.AppendBatch(wr); err != nil {
						t.Fatal(err)
					}
				}
				got, want = g, w
			case 5: // AppendBatch into a fresh batch, twice
				if n > 200 {
					continue // a program of nothing but doublings stays small
				}
				g, w := NewBatch(got.Schema(), 0), NewBatch(want.Schema(), 0)
				for i := 0; i < 2; i++ {
					err, werr = g.AppendBatch(got), w.AppendBatch(want)
					if err != nil || werr != nil {
						t.Fatal(err, werr)
					}
				}
				got, want = g, w
			case 6: // SortBy one column
				key := SortKey{Col: got.Schema().Col(next() % got.Schema().Len()).Name, Desc: next()%2 == 0}
				if got, err = got.SortBy(-1, key); err != nil {
					t.Fatal(err)
				}
				want = eagerSort(t, want, key)
			case 7: // Compact
				c := got.Compact()
				if c.selectionBytes() != 0 {
					t.Fatalf("%s: a compacted batch still holds %d selection bytes", name, c.selectionBytes())
				}
				got = c
			case 8:
				sameEverywhere(t, name, got, want)
			}
		}
		sameEverywhere(t, "end of program", got, want)
		sameEverywhere(t, "compacted", got.Compact(), want)
	})
}

// TestTakeGathersOnlyWhatIsRead: Take itself copies no row, a typed read
// gathers that column and no other, ranges and projections of the result
// gather nothing, and the result of a gather is shared by every holder.
func TestTakeGathersOnlyWhatIsRead(t *testing.T) {
	b := testBatch(t, 1000)
	sel := make([]int32, 0, 500)
	for r := 999; r >= 0; r -= 2 {
		sel = append(sel, int32(r))
	}
	taken := b.Take(sel)
	gathered := func(x *Batch) (n int) {
		for i := range x.cols {
			if s := x.cols[i].sel; s != nil && s.done.Load() {
				n++
			}
		}
		return n
	}
	view, err := taken.ViewRange(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := taken.Project("name", "id")
	if err != nil {
		t.Fatal(err)
	}
	if taken.ByteSize() != eagerTake(t, b, sel).ByteSize() || taken.selectionBytes() != 4*500 {
		t.Fatalf("ByteSize %d, SelectionBytes %d", taken.ByteSize(), taken.selectionBytes())
	}
	if n := gathered(taken) + gathered(view) + gathered(proj); n != 0 {
		t.Fatalf("Take, ViewRange, Project and ByteSize gathered %d columns", n)
	}
	if view.selectionBytes() != 4*10 {
		t.Fatalf("a 10-row range holds %d selection bytes: it must copy its part, not pin the whole", view.selectionBytes())
	}
	ids, _ := proj.Ints(1)
	if gathered(taken) != 1 || ids[0] != 999 || ids[499] != 1 {
		t.Fatalf("reading id through the projection gathered %d columns of the taken batch (ids %d..%d)", gathered(taken), ids[0], ids[499])
	}
	again, _ := taken.Ints(0)
	if &again[0] != &ids[0] {
		t.Fatal("the projection and the batch it came from gathered the column separately")
	}
	if gathered(view) != 0 {
		t.Fatal("a range cut before the read was gathered by it")
	}
	late, _ := taken.ViewRange(10, 20)
	lateIDs, _ := late.Ints(0)
	if &lateIDs[0] != &ids[10] || late.cols[0].sel != nil {
		t.Fatal("a range of a gathered column is not a plain view of the result")
	}
}

// TestCompactDropsTheSource: what Compact returns references neither the
// selection nor the source; a batch that owns its storage is returned itself.
func TestCompactDropsTheSource(t *testing.T) {
	b := testBatch(t, 100)
	if b.Compact() != b {
		t.Fatal("Compact of a dense batch made a new one")
	}
	view, _ := b.ViewRange(10, 20)
	if view.Compact() != view {
		t.Fatal("Compact of a dense view made a new one")
	}
	taken := b.Take([]int32{90, 5, 5, 40})
	c := taken.Compact()
	if c == taken || c.selectionBytes() != 0 {
		t.Fatalf("Compact kept the selection (%d bytes)", c.selectionBytes())
	}
	for i := range c.cols {
		if c.cols[i].sel != nil {
			t.Fatalf("column %d of the compacted batch is still selection-backed", i)
		}
	}
	if !c.Equal(eagerTake(t, b, []int32{90, 5, 5, 40})) || c.Compact() != c {
		t.Fatal("compacted batch differs from the eager take, or compacts again")
	}
}

// TestSelectedBatchConcurrentFirstReads: a published batch is read from many
// goroutines at once. Eight of them first-read the same and different
// columns through every kind of reader while a ninth cuts ranges of the
// batch (and reads those); every one must see the eager values. Run under
// -race in CI.
func TestSelectedBatchConcurrentFirstReads(t *testing.T) {
	b := testBatch(t, 4000)
	for round := 0; round < 20; round++ {
		sel := make([]int32, 2000)
		for i := range sel {
			sel[i] = int32((i*37 + round) % 4000)
		}
		want := eagerTake(t, b, sel)
		wantJSON, _ := want.AppendJSONRows(nil, 0, want.Rows())
		pub := b.Take(sel)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				switch g % 4 {
				case 0: // the same column, typed
					ids, _ := pub.Ints(0)
					wantIDs, _ := want.Ints(0)
					if !slices.Equal(ids, wantIDs) {
						t.Error("ids differ")
					}
				case 1: // a different column each, boxed
					for r := 0; r < pub.Rows(); r += 97 {
						v, _ := pub.Value(r, 1+g/4)
						w, _ := want.Value(r, 1+g/4)
						if v != w {
							t.Errorf("value (%d,%d) = %v, want %v", r, 1+g/4, v, w)
						}
					}
				case 2: // every column, read through the selection
					if js, err := pub.AppendJSONRows(nil, 0, pub.Rows()); err != nil || !bytes.Equal(js, wantJSON) {
						t.Errorf("JSON rows differ (%v)", err)
					}
				case 3: // every column, gathered by Equal or by the codec
					if g == 3 && !pub.Equal(want) {
						t.Error("Equal says the batches differ")
					}
					var gb, wb bytes.Buffer
					if WriteBinary(&gb, pub) != nil || WriteBinary(&wb, want) != nil || !bytes.Equal(gb.Bytes(), wb.Bytes()) {
						t.Error("binary encoding differs")
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for lo := 0; lo+100 <= pub.Rows(); lo += 100 {
				v, err := pub.ViewRange(lo, lo+100)
				w, _ := want.ViewRange(lo, lo+100)
				if err != nil || !v.Equal(w) {
					t.Errorf("range [%d,%d) differs (%v)", lo, lo+100, err)
				}
			}
		}()
		close(start)
		wg.Wait()
	}
}

// selectionBytes is the size of the selection vectors b holds beside its
// payload, each counted once however many columns share it.
func (b *Batch) selectionBytes() int64 {
	var total int64
	var last []int32
	for i := range b.cols {
		if s := b.cols[i].sel; s != nil && !sameRows(last, s.rows) {
			last = s.rows
			total += int64(len(last)) * 4
		}
	}
	return total
}
