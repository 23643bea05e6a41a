// Package feedback is the runtime-statistics store that closes the loop
// from observed execution back into planning — the adaptive-optimization
// prerequisite Polystore++ §IV-D calls out. The executor feeds it one
// observation per executed plan node (input cardinality and host wall
// time — what its two consumers read), keyed by (engine, op kind,
// subtree-fingerprint prefix) so statistics follow the *shape* of the work
// rather than the request that carried it. Values are EWMA-smoothed, the
// store is sharded and bounded, and epoch-based decay evicts keys no
// recent workload touches — a store that has seen ten thousand distinct
// query shapes stays a few hundred kilobytes and never grows without
// bound.
//
// Two consumers read it back: adaptive partition sizing (the runtime caps
// a pinned fan-out when the observed input cardinality says the slabs
// would be absurdly small — results stay byte-identical at any fan-out,
// so this is purely a speed decision) and placement costing (the LogCA
// device choice blends static estimates with observed wall times once a
// key clears the confidence threshold; cold keys fall back to the static
// model). Every observation also folds into an aggregate (engine, op,
// "") key so placement can decide per operator kind before any one shape
// is individually confident.
package feedback

import (
	"sync"
	"sync/atomic"
	"time"
)

// Key addresses one statistics entry: the engine instance the operator ran
// on, its IR op kind, and a prefix of the node's position-independent
// subtree fingerprint (compiler.Plan.NodeFPs). An empty FP is the
// aggregate across all shapes of that (engine, op).
type Key struct {
	Engine string
	Op     string
	FP     string
}

// Obs is one node execution's contribution.
type Obs struct {
	RowsIn int64
	Wall   time.Duration
}

// Stat is the smoothed readback of one key. All values are EWMAs except
// Samples (total observations folded in since the entry was created or
// last evicted).
type Stat struct {
	Samples     int64
	RowsIn      float64
	WallSeconds float64
}

// Config tunes a Store. Zero values select the documented defaults.
type Config struct {
	// MaxKeys bounds distinct keys across all shards (default 8192). On
	// overflow the shard evicts its stalest entry (oldest epoch, fewest
	// samples) before inserting.
	MaxKeys int
	// Alpha is the EWMA weight of the newest observation (default 0.25).
	Alpha float64
	// DecayEvery advances the epoch after this many observations
	// (default 4096); Advance can also be called explicitly.
	DecayEvery int64
	// MaxIdleEpochs evicts entries not observed for this many epochs
	// (default 8).
	MaxIdleEpochs int64
	// ConfidenceSamples is the minimum sample count before Confident
	// returns an entry — below it consumers must fall back to static
	// models (default 3).
	ConfidenceSamples int64
}

func (c Config) withDefaults() Config {
	if c.MaxKeys <= 0 {
		c.MaxKeys = 8192
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	if c.DecayEvery <= 0 {
		c.DecayEvery = 4096
	}
	if c.MaxIdleEpochs <= 0 {
		c.MaxIdleEpochs = 8
	}
	if c.ConfidenceSamples <= 0 {
		c.ConfidenceSamples = 3
	}
	return c
}

// shardCount spreads key-level locking; a power of two so the shard pick
// is a mask.
const shardCount = 16

type entry struct {
	samples int64
	epoch   int64 // epoch of the last observation
	rowsIn  float64
	wall    float64 // seconds
}

type shard struct {
	mu sync.Mutex
	m  map[Key]*entry
}

// Store is a bounded, concurrency-safe feedback-statistics store. The zero
// value is not usable; construct with New.
type Store struct {
	cfg    Config
	shards [shardCount]shard

	obs       atomic.Int64 // total observations (keyed + aggregate)
	epoch     atomic.Int64
	evictions atomic.Int64
	sinceTick atomic.Int64 // observations since the last epoch advance
}

// New returns an empty store.
func New(cfg Config) *Store {
	s := &Store{cfg: cfg.withDefaults()}
	for i := range s.shards {
		s.shards[i].m = make(map[Key]*entry)
	}
	return s
}

// Config returns the store's effective (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

// fnv1a hashes a key onto its shard.
func shardOf(k Key) uint32 {
	h := uint32(2166136261)
	for _, str := range [...]string{k.Engine, k.Op, k.FP} {
		for i := 0; i < len(str); i++ {
			h ^= uint32(str[i])
			h *= 16777619
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= 16777619
	}
	return h
}

// Observe folds one node execution into k's entry and into the (engine,
// op, "") aggregate. Safe for concurrent use across plan executions.
func (s *Store) Observe(k Key, o Obs) {
	s.observeOne(k, o)
	if k.FP != "" {
		s.observeOne(Key{Engine: k.Engine, Op: k.Op}, o)
	}
	if s.sinceTick.Add(1) >= s.cfg.DecayEvery {
		// One goroutine wins the reset and pays for the sweep; the rest
		// race past.
		if s.sinceTick.Swap(0) >= s.cfg.DecayEvery {
			s.Advance()
		}
	}
}

func (s *Store) observeOne(k Key, o Obs) {
	s.obs.Add(1)
	sh := &s.shards[shardOf(k)&(shardCount-1)]
	epoch := s.epoch.Load()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[k]
	if e == nil {
		if len(sh.m) >= s.cfg.MaxKeys/shardCount {
			s.evictStalest(sh)
		}
		e = &entry{rowsIn: float64(o.RowsIn), wall: o.Wall.Seconds()}
		sh.m[k] = e
	} else {
		a := s.cfg.Alpha
		e.rowsIn += a * (float64(o.RowsIn) - e.rowsIn)
		e.wall += a * (o.Wall.Seconds() - e.wall)
	}
	e.samples++
	e.epoch = epoch
}

// evictStalest drops the shard's oldest-epoch (ties: fewest-samples) entry.
// Called with the shard lock held; the scan is bounded by the per-shard key
// budget (MaxKeys/shardCount), and only runs on overflow.
func (s *Store) evictStalest(sh *shard) {
	var victim Key
	found := false
	var vEpoch, vSamples int64
	for k, e := range sh.m {
		if !found || e.epoch < vEpoch || (e.epoch == vEpoch && e.samples < vSamples) {
			victim, vEpoch, vSamples, found = k, e.epoch, e.samples, true
		}
	}
	if found {
		delete(sh.m, victim)
		s.evictions.Add(1)
	}
}

// Lookup returns k's smoothed statistics regardless of confidence.
func (s *Store) Lookup(k Key) (Stat, bool) {
	sh := &s.shards[shardOf(k)&(shardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[k]
	if e == nil {
		return Stat{}, false
	}
	return statOf(e), true
}

// Confident returns k's statistics only once its sample count clears the
// confidence threshold — the gate that keeps cold keys on static models.
func (s *Store) Confident(k Key) (Stat, bool) {
	st, ok := s.Lookup(k)
	if !ok || st.Samples < s.cfg.ConfidenceSamples {
		return Stat{}, false
	}
	return st, true
}

func statOf(e *entry) Stat {
	return Stat{Samples: e.samples, RowsIn: e.rowsIn, WallSeconds: e.wall}
}

// Advance moves the store one epoch forward and evicts entries idle for
// more than MaxIdleEpochs — the decay that ages out workloads no longer
// running. Observe triggers it automatically every DecayEvery
// observations; tests and operators may call it directly.
func (s *Store) Advance() {
	epoch := s.epoch.Add(1)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if epoch-e.epoch > s.cfg.MaxIdleEpochs {
				delete(sh.m, k)
				s.evictions.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// Stats is the structural snapshot /stats and /metrics expose.
type Stats struct {
	Samples   int64 // observations folded in (keyed + aggregate)
	Keys      int   // distinct live keys
	Evictions int64 // overflow + idle-epoch evictions
	Epoch     int64
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	keys := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		keys += len(sh.m)
		sh.mu.Unlock()
	}
	return Stats{
		Samples:   s.obs.Load(),
		Keys:      keys,
		Evictions: s.evictions.Load(),
		Epoch:     s.epoch.Load(),
	}
}
