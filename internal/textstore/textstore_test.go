package textstore

import (
	"errors"
	"fmt"
	"testing"
)

func seeded(t *testing.T) *Store {
	t.Helper()
	s := New("txt")
	docs := []Doc{
		{ID: 1, Text: "patient stable vital signs normal", Fields: map[string]string{"pid": "1"}},
		{ID: 2, Text: "patient critical icu admission required immediately"},
		{ID: 3, Text: "discharged patient normal recovery"},
		{ID: 4, Text: "icu patient vital signs critical monitor closely"},
	}
	for _, d := range docs {
		if err := s.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! x2: don't-stop")
	want := []string{"hello", "world", "x2", "don", "t", "stop"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAddGet(t *testing.T) {
	s := seeded(t)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if hits, err := s.Search("immediately", 10); err != nil || len(hits) != 1 || hits[0].DocID != 2 {
		t.Fatalf("Search(immediately) = %+v, %v", hits, err)
	}
	if err := s.Add(Doc{ID: -1, Text: "x"}); !errors.Is(err, ErrQuery) {
		t.Fatalf("negative id: %v", err)
	}
}

func TestReplaceDoc(t *testing.T) {
	s := seeded(t)
	if err := s.Add(Doc{ID: 1, Text: "completely different words here"}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("replace changed count: %d", s.Len())
	}
	hits, _ := s.Search("stable", 10)
	if len(hits) != 0 {
		t.Fatal("old terms still indexed after replace")
	}
	hits, _ = s.Search("different", 10)
	if len(hits) != 1 || hits[0].DocID != 1 {
		t.Fatalf("new terms not indexed: %v", hits)
	}
}

func TestSearchANDSemantics(t *testing.T) {
	s := seeded(t)
	hits, err := s.Search("patient critical", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	for _, h := range hits {
		if h.DocID != 2 && h.DocID != 4 {
			t.Fatalf("unexpected doc %d", h.DocID)
		}
	}
	// Missing term empties AND result.
	hits, err = s.Search("patient nonexistentterm", 10)
	if err != nil || hits != nil {
		t.Fatalf("AND with missing term: %v %v", hits, err)
	}
	if _, err := s.Search("", 10); !errors.Is(err, ErrQuery) {
		t.Fatalf("empty query: %v", err)
	}
}

func TestSearchRankingAndK(t *testing.T) {
	s := New("txt")
	// doc 1 mentions icu three times, doc 2 once: TF ranks doc 1 higher.
	if err := s.Add(Doc{ID: 1, Text: "icu icu icu ward"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Doc{ID: 2, Text: "icu ward"}); err != nil {
		t.Fatal(err)
	}
	hits, err := s.Search("icu", 0)
	if err != nil || len(hits) != 2 {
		t.Fatalf("hits = %v, %v", hits, err)
	}
	if hits[0].DocID != 1 || hits[0].Score <= hits[1].Score {
		t.Fatalf("ranking wrong: %v", hits)
	}
	hits, _ = s.Search("icu", 1)
	if len(hits) != 1 {
		t.Fatalf("k=1 returned %d", len(hits))
	}
}

func TestManyDocsSearchStable(t *testing.T) {
	s := New("txt")
	for i := int64(0); i < 500; i++ {
		text := "common filler"
		if i%10 == 0 {
			text += " rareterm"
		}
		if err := s.Add(Doc{ID: i, Text: fmt.Sprintf("%s doc%d", text, i)}); err != nil {
			t.Fatal(err)
		}
	}
	hits, err := s.Search("rareterm", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 50 {
		t.Fatalf("rareterm hits = %d", len(hits))
	}
	// Equal scores tie-break by doc id ascending.
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Score == hits[i].Score && hits[i-1].DocID > hits[i].DocID {
			t.Fatal("tie-break by id violated")
		}
	}
}
