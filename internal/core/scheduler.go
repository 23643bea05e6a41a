package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
	"polystorepp/internal/subplan"
)

// Concurrent dispatch mode of the plan driver (§IV-D).
//
// The paper's middleware executes plan DAGs with device-level parallelism,
// and BigDAWG-style polystores dispatch independent sub-plans to their
// engines concurrently. For plans with a stage wider than one node the
// driver (Runtime.Execute) hands real execution to a dataflow, which brings
// wall-clock time in line with the parallelism the simulated clock already
// models:
//
//   - Dispatch: each node that runs has a goroutine that waits for its
//     producers to finish, then takes one of its engine's engineWorkers
//     slots (migrations share the middleware's: opEngine keys the slots), so
//     one slow engine cannot starve the others and no engine is
//     oversubscribed. A node a subplan hit serves gets no goroutine: its
//     consumers read the hit's value from the probe at once.
//   - Real execution (runNode): adapter translation and native operators run
//     concurrently across engines — this is where host wall time is won.
//   - Simulated costing stays with the driver, which awaits the runs in the
//     topological order the inline mode executes them in, so Reports are
//     identical to the inline mode's (modulo host wall times) no matter how
//     real executions interleave.
//
// Errors surface at the earliest failing node in topological order — the
// same node the inline mode stops at. Consumers of a failed node never run:
// they take on its error, and the driver, which reaches the failed node
// first (producers precede consumers in topological order), stops there.

// engineWorkers bounds concurrent node executions per engine. Engines are
// independent systems in a polystore, so each gets its own slots; within one
// engine a handful captures branch parallelism without oversubscribing the
// host.
const engineWorkers = 4

// schedNode is one running node's state in a concurrently executed plan.
type schedNode struct {
	id ir.NodeID
	// run is written by the node's goroutine before it closes done.
	run  nodeRun
	done chan struct{}
}

// scheduler is the dispatch state of one concurrently executed plan.
type scheduler struct {
	nodes []schedNode // the nodes that run, in order: the k-th writes the k-th record

	// cancel stops every node goroutine still waiting; wg waits for all.
	cancel context.CancelFunc
	wg     sync.WaitGroup

	inflight    atomic.Int32
	maxInflight atomic.Int32
}

// dispatch starts one goroutine per node of order (bindNodes) that pr does
// not serve, the k-th of them writing recs[k]; order is topological, so a
// node's producers are dispatched first. The caller awaits each running
// node's run in that order and must call stop.
func (r *Runtime) dispatch(ctx context.Context, order []*ir.Node, recs []subplan.NodeCost, tr *obs.Trace, pr *planProbe) *scheduler {
	execCtx, cancel := context.WithCancel(ctx)
	s := &scheduler{nodes: make([]schedNode, len(recs)), cancel: cancel}
	slots := make(map[string]chan struct{}, 4)
	k := 0
	for _, n := range order {
		if pr.serves(n.ID) {
			continue
		}
		e := opEngine(n)
		if slots[e] == nil {
			slots[e] = make(chan struct{}, engineWorkers)
		}
		s.nodes[k] = schedNode{id: n.ID, run: nodeRun{NodeCost: &recs[k]}, done: make(chan struct{})}
		s.wg.Add(1)
		go func(k int, slot chan struct{}) {
			defer s.wg.Done()
			defer close(s.nodes[k].done)
			s.runWhenReady(execCtx, r, n, k, slot, tr, pr)
		}(k, slots[e])
		k++
	}
	return s
}

// runWhenReady waits for the producers of n, the k-th running node, takes
// one of slot's places and runs n. A failed producer's error becomes n's
// without n running; a producer pr serves is ready from the start.
func (s *scheduler) runWhenReady(ctx context.Context, r *Runtime, n *ir.Node, k int, slot chan struct{}, tr *obs.Trace, pr *planProbe) {
	run := &s.nodes[k].run
	in := make([]adapter.Value, len(n.Inputs))
	for i, id := range n.Inputs {
		if pr.serves(id) {
			in[i] = pr.nodes[id].out
			continue
		}
		p := s.producer(k, id)
		select {
		case <-p.done:
		case <-ctx.Done():
			run.err = ctx.Err()
			return
		}
		if p.run.err != nil {
			run.err = p.run.err
			return
		}
		in[i] = p.run.out
	}
	// The ready-to-slot wait is stamped for traced executions only, so
	// untraced runs skip the clock reads.
	var ready time.Time
	if tr != nil {
		ready = time.Now()
	}
	select {
	case slot <- struct{}{}:
		defer func() { <-slot }()
	case <-ctx.Done():
	}
	// A select with both cases ready picks either: a stopped execution must
	// not start the node even when a slot was free.
	if err := ctx.Err(); err != nil {
		run.err = err
		return
	}
	if tr != nil {
		run.queue = time.Since(ready)
	}
	cur := s.inflight.Add(1)
	for {
		m := s.maxInflight.Load()
		if cur <= m || s.maxInflight.CompareAndSwap(m, cur) {
			break
		}
	}
	defer s.inflight.Add(-1)
	r.runNode(ctx, n, in, run)
}

// producer returns the running node id, which precedes the k-th (and was
// filled in before the k-th's goroutine started): plans are small.
func (s *scheduler) producer(k int, id ir.NodeID) *schedNode {
	for i := k - 1; ; i-- {
		if s.nodes[i].id == id {
			return &s.nodes[i]
		}
	}
}

// await blocks until the k-th running node has run and returns its
// outcome, or the caller's context error if that comes first.
func (s *scheduler) await(ctx context.Context, k int) (*nodeRun, error) {
	sn := &s.nodes[k]
	select {
	case <-sn.done:
		return &sn.run, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stop cancels the node goroutines and waits for them to exit, so no node
// execution — and no stream emission — outlives the driver's call.
func (s *scheduler) stop() {
	s.cancel()
	s.wg.Wait()
}
