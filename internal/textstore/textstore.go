// Package textstore implements the text engine of the polystore (the
// "Text Store" of Figure 2 holding doctors' and nurses' notes): an inverted
// index with TF-IDF ranking and conjunctive (AND) retrieval.
package textstore

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// ErrQuery reports a document or query the store cannot take.
var ErrQuery = errors.New("textstore: bad query")

// Doc is one stored document.
type Doc struct {
	ID   int64
	Text string
}

// posting records one document containing a term, and how often.
type posting struct {
	doc int64
	tf  int32
}

// Store is an inverted-index text store. Safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	name  string
	docs  map[int64]*Doc
	index map[string][]posting // term -> postings sorted by doc id
	// version counts mutations (adds, deletes); see Version.
	version uint64
}

// Version returns the store's monotonic mutation count. The subplan cache
// keys on it, so index changes invalidate cached results.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// New returns an empty text store.
func New(name string) *Store {
	return &Store{name: name, docs: make(map[int64]*Doc), index: make(map[string][]posting)}
}

// Name returns the store instance name.
func (s *Store) Name() string { return s.name }

// Tokenize lowercases and splits text into terms (letters and digits only).
// Exported because adapters and the NL query translator reuse it.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Add indexes one document. Re-adding an existing ID replaces it.
func (s *Store) Add(doc Doc) error {
	if doc.ID < 0 {
		return fmt.Errorf("%w: negative doc id", ErrQuery)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.docs[doc.ID]; exists {
		s.removeLocked(doc.ID)
	}
	s.docs[doc.ID] = &doc
	for _, term := range Tokenize(doc.Text) {
		// Postings stay sorted by doc id, and IDs may arrive in any order: a
		// repeat of the term bumps the document's posting wherever it is,
		// and a new one is inserted in place.
		ps := s.index[term]
		i := sort.Search(len(ps), func(j int) bool { return ps[j].doc >= doc.ID })
		if i < len(ps) && ps[i].doc == doc.ID {
			ps[i].tf++
			continue
		}
		ps = append(ps, posting{})
		copy(ps[i+1:], ps[i:])
		ps[i] = posting{doc: doc.ID, tf: 1}
		s.index[term] = ps
	}
	s.version++
	return nil
}

// removeLocked deletes a document from the index. Caller holds the lock.
func (s *Store) removeLocked(id int64) {
	doc, ok := s.docs[id]
	if !ok {
		return
	}
	for _, term := range Tokenize(doc.Text) {
		ps := s.index[term]
		i := sort.Search(len(ps), func(j int) bool { return ps[j].doc >= id })
		if i < len(ps) && ps[i].doc == id {
			s.index[term] = append(ps[:i], ps[i+1:]...)
			if len(s.index[term]) == 0 {
				delete(s.index, term)
			}
		}
	}
	delete(s.docs, id)
}

// Doc returns a copy of the stored document with the given ID.
func (s *Store) Doc(id int64) (Doc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return Doc{}, false
	}
	return *d, true
}

// Len returns the number of documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Hit is one ranked search result.
type Hit struct {
	DocID int64
	Score float64
}

// Search ranks documents containing ALL query terms by TF-IDF and returns
// up to k hits (k <= 0 means all).
func (s *Store) Search(query string, k int) ([]Hit, error) {
	terms := Tokenize(query)
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrQuery)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := float64(len(s.docs))
	scores := make(map[int64]float64)
	candidate := make(map[int64]int)
	for _, term := range terms {
		ps, ok := s.index[term]
		if !ok {
			return nil, nil // AND semantics: a missing term empties the result
		}
		idf := math.Log(1 + n/float64(len(ps)))
		for _, p := range ps {
			tf := 1 + math.Log(float64(p.tf))
			scores[p.doc] += tf * idf
			candidate[p.doc]++
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, sc := range scores {
		if candidate[doc] == len(terms) { // all terms present
			hits = append(hits, Hit{DocID: doc, Score: sc})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits, nil
}
