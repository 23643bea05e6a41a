package core

import (
	"context"
	"reflect"
	"testing"

	"polystorepp/internal/compiler"
	"polystorepp/internal/subplan"
)

// TestProbePoolHygiene: an Execute that publishes, a ProbeRoot hit and an
// Execute of a plan with a larger IDBound each hand their probe back to the
// pool, and the probe the pool hands out next holds no out batch, no serve or
// rec pointer and no pending publication, in its node table up to its
// capacity, its miss list and its lease list alike. Published entries keep
// what is theirs: after later executions have reused the probe, an entry's
// Costs still read the records they read when it was published.
func TestProbePoolHygiene(t *testing.T) {
	ctx := context.Background()
	rt := testRuntime(t, 2000, false)
	large := mustCompile(t, branchProgram(4), 3)
	// entry is what the cache holds for plan's outermost candidate.
	entry := func(plan *compiler.Plan) *subplan.Entry {
		st := &plan.Subtrees[0]
		key, _ := appendKey(nil, st, plan.Binds, rt.appendVersionVector(nil, st.Touches))
		return rt.subtreeEntry(st, key)
	}
	reused := 0
	clean := func(after string) {
		t.Helper()
		pr := probes.Get().(*planProbe)
		defer probes.Put(pr)
		if cap(pr.nodes) == 0 {
			return // the pool dropped it: a fresh one
		}
		reused++
		for id, pn := range pr.nodes[:cap(pr.nodes)] {
			if pn != (probeNode{}) {
				t.Fatalf("after %s: the pooled probe's node %d holds %+v", after, id, pn)
			}
		}
		for i, m := range pr.misses[:cap(pr.misses)] {
			if m != (pendingPub{}) {
				t.Fatalf("after %s: the pooled probe's miss %d holds %+v", after, i, m)
			}
		}
		for i, k := range pr.leases[:cap(pr.leases)] {
			if k != "" {
				t.Fatalf("after %s: the pooled probe's lease %d holds %q", after, i, k)
			}
		}
		if pr.rt != nil || pr.tenant != "" || pr.hits != 0 || pr.keys != "" || pr.costs != nil || len(pr.nodes)+len(pr.misses)+len(pr.leases) != 0 {
			t.Fatalf("after %s: the pooled probe holds %+v", after, pr)
		}
	}

	var published *subplan.Entry
	var records []subplan.NodeCost
	for round := range 5 {
		// Each round's limit is new: its Execute misses the whole plan and
		// publishes it, though the sort beneath is served.
		small := mustCompile(t, limitProgram(int64(75+round)), 3)
		if large.Graph.IDBound() <= small.Graph.IDBound() {
			t.Fatalf("IDBound %d is not larger than %d", large.Graph.IDBound(), small.Graph.IDBound())
		}
		if _, _, err := rt.Execute(ctx, small); err != nil {
			t.Fatal(err)
		}
		clean("an Execute that publishes")
		if published == nil {
			if published = entry(small); published == nil {
				t.Fatal("the Execute published no entry for the outermost candidate")
			}
			for _, c := range published.Costs {
				records = append(records, *c)
			}
		}
		if _, _, ok := rt.ProbeRoot(ctx, small, new(RootMiss)); !ok {
			t.Fatalf("round %d: the root probe missed a published plan", round)
		}
		clean("a ProbeRoot hit")
		if _, _, err := rt.Execute(ctx, large); err != nil {
			t.Fatal(err)
		}
		clean("an Execute of a plan with a larger IDBound")
	}
	if reused == 0 {
		t.Fatal("the pool handed back none of the released probes: nothing was tested")
	}
	for i, c := range published.Costs {
		if !reflect.DeepEqual(*c, records[i]) {
			t.Fatalf("the published entry's record %d was\n %+v\nis\n %+v", i, records[i], *c)
		}
	}
}
