package main

// Attribution (-attr): diff two per-operator runtime dumps and rank
// operators by how much wall time they gained. When a benchmark run reports
// "handler_us rose 12%", this answers the follow-up question — WHICH
// operator got slower — from the /stats snapshots captured before and after
// the run:
//
//	curl -s localhost:8080/stats > before.json
//	... run the workload / apply the change ...
//	curl -s localhost:8080/stats > after.json
//	go run ./cmd/benchdiff -attr before.json after.json
//
// Inputs are either full /stats documents (the "op_stats" field is used) or
// bare op_stats maps. The report is diagnostic only: it ranks and
// never fails the build, because absolute wall deltas also grow with request
// volume — the per-call mean column is the regression signal.
//
// When the dumps are full /stats documents from a server with the subplan
// cache enabled, the report ends with a cache footer: how many plans and
// subtrees the cache absorbed between the two snapshots. An operator whose
// call count stalls while requests grow is usually being served from there,
// not getting faster.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// opSnap reads the ranked fields of one /stats "op_stats" row, as declared
// by opDefs in the server's stat table (internal/server/stats.go).
type opSnap struct {
	Engine      string  `json:"engine"`
	Op          string  `json:"op"`
	Count       int64   `json:"count"`
	RowsOut     int64   `json:"rows_out"`
	WallSeconds float64 `json:"wall_seconds"`
	P95US       int64   `json:"p95_us"`
}

// ParseOpStats decodes a per-operator dump from either a bare snapshot map
// or a full /stats document wrapping one under "op_stats".
func ParseOpStats(raw []byte) (map[string]opSnap, error) {
	var bare map[string]opSnap
	if err := json.Unmarshal(raw, &bare); err == nil && looksLikeOpStats(bare) {
		return bare, nil
	}
	var stats struct {
		OpStats map[string]opSnap `json:"op_stats"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		return nil, fmt.Errorf("not an op-stats dump or /stats document: %w", err)
	}
	if !looksLikeOpStats(stats.OpStats) {
		return nil, fmt.Errorf("no op_stats entries found (need a /stats document or a bare snapshot map)")
	}
	return stats.OpStats, nil
}

// looksLikeOpStats rejects JSON that decoded structurally but is not an
// operator dump — every real entry names its engine and operator.
func looksLikeOpStats(m map[string]opSnap) bool {
	if len(m) == 0 {
		return false
	}
	for _, s := range m {
		if s.Engine == "" || s.Op == "" {
			return false
		}
	}
	return true
}

// subplanSnap is the subplan-cache slice of a /stats document: cumulative
// counters of how much execution the cache absorbed since server boot.
type subplanSnap struct {
	Probed      int64 `json:"subplan_plans_probed"`
	Reused      int64 `json:"subplan_plans_reused"`
	Hits        int64 `json:"subplan_cache_hits"`
	Miss        int64 `json:"subplan_cache_miss"`
	NodesServed int64 `json:"subplan_nodes_served"`
	BytesServed int64 `json:"subplan_bytes_served"`
}

// ParseSubplanStats extracts the subplan-cache counters from a /stats
// document. ok is false when the dump shows no probe activity at all (bare
// op-stats maps, a disabled cache) so the footer can be omitted instead of
// printing zeros.
func ParseSubplanStats(raw []byte) (subplanSnap, bool) {
	var s subplanSnap
	if err := json.Unmarshal(raw, &s); err != nil {
		return subplanSnap{}, false
	}
	return s, s.Probed > 0 || s.Hits+s.Miss > 0
}

// SubplanDelta renders the subplan-cache footer: between two dumps, how much
// work the cache served instead of executing. Read alongside the operator
// table — a flat Δcalls under growing request volume means reuse upstream.
func SubplanDelta(before, after subplanSnap) string {
	return fmt.Sprintf(
		"\nsubplan cache (after - before): %d/%d plans reused, %d subtree hits / %d misses, %d node executions replayed, %.1f MiB served from cache\n",
		after.Reused-before.Reused, after.Probed-before.Probed,
		after.Hits-before.Hits, after.Miss-before.Miss,
		after.NodesServed-before.NodesServed,
		float64(after.BytesServed-before.BytesServed)/(1<<20))
}

// attrRow is one operator's before/after delta.
type attrRow struct {
	key           string
	dWall         float64 // seconds of wall time gained after - before
	dCount        int64
	meanBeforeUS  float64 // wall per call, before (0 when absent)
	meanAfterUS   float64
	p95BeforeUS   int64
	p95AfterUS    int64
	onlyInOneSide string // "new" / "gone" / ""
}

// Attribute ranks operators by wall-time growth between two dumps and
// renders the report. Counters are cumulative since server boot, so "after"
// taken later in the same process naturally dominates "before"; what matters
// is which operators own the growth and whether their per-call mean moved.
func Attribute(before, after map[string]opSnap) string {
	keys := make(map[string]bool, len(before)+len(after))
	for k := range before {
		keys[k] = true
	}
	for k := range after {
		keys[k] = true
	}
	rows := make([]attrRow, 0, len(keys))
	for k := range keys {
		b, inB := before[k]
		a, inA := after[k]
		r := attrRow{key: k, dWall: a.WallSeconds - b.WallSeconds, dCount: a.Count - b.Count}
		if b.Count > 0 {
			r.meanBeforeUS = b.WallSeconds / float64(b.Count) * 1e6
		}
		if a.Count > 0 {
			r.meanAfterUS = a.WallSeconds / float64(a.Count) * 1e6
		}
		r.p95BeforeUS, r.p95AfterUS = b.P95US, a.P95US
		switch {
		case !inB:
			r.onlyInOneSide = "new"
		case !inA:
			r.onlyInOneSide = "gone"
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].dWall != rows[j].dWall {
			return rows[i].dWall > rows[j].dWall
		}
		return rows[i].key < rows[j].key
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "operator wall-time attribution (after - before), slowest growth first\n")
	fmt.Fprintf(&sb, "%-32s %12s %10s %14s %14s %12s\n",
		"engine/op", "Δwall", "Δcalls", "mean µs/call", "", "p95 µs")
	fmt.Fprintf(&sb, "%-32s %12s %10s %14s %14s %12s\n",
		"", "", "", "before", "after", "before→after")
	for _, r := range rows {
		note := ""
		if r.onlyInOneSide != "" {
			note = " (" + r.onlyInOneSide + ")"
		}
		fmt.Fprintf(&sb, "%-32s %11.3fs %10d %14.1f %14.1f %5d→%-6d%s\n",
			r.key, r.dWall, r.dCount, r.meanBeforeUS, r.meanAfterUS,
			r.p95BeforeUS, r.p95AfterUS, note)
	}
	return sb.String()
}
