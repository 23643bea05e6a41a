package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
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

// schedNode is one node's outcome in a concurrently executed plan.
type schedNode struct {
	// run is written by the node's goroutine before it closes done.
	run  *nodeRun
	done chan struct{}
}

// scheduler is the dispatch state of one concurrently executed plan.
type scheduler struct {
	nodes []schedNode // by node id; only the nodes that run are filled in

	// cancel stops every node goroutine still waiting; wg waits for all.
	cancel context.CancelFunc
	wg     sync.WaitGroup

	inflight    atomic.Int32
	maxInflight atomic.Int32
}

// dispatch starts one goroutine per node of order (bindNodes) that pr does
// not serve, below span; order is topological, so a node's producers have
// their done channels first. The caller awaits each running node's run in
// that order and must call stop.
func (r *Runtime) dispatch(ctx context.Context, order []*ir.Node, span int, tr *obs.Trace, pr *planProbe) *scheduler {
	execCtx, cancel := context.WithCancel(ctx)
	s := &scheduler{nodes: make([]schedNode, span), cancel: cancel}
	slots := make(map[string]chan struct{}, 4)
	for _, n := range order {
		if pr.serves(n.ID) {
			continue
		}
		k := opEngine(n)
		if slots[k] == nil {
			slots[k] = make(chan struct{}, engineWorkers)
		}
		sn, slot := &s.nodes[n.ID], slots[k]
		sn.done = make(chan struct{})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer close(sn.done)
			sn.run = s.runWhenReady(execCtx, r, n, slot, tr, pr)
		}()
	}
	return s
}

// runWhenReady waits for n's producers, takes one of slot's places and runs
// n. A failed producer's error becomes n's without n running; a producer pr
// serves is ready from the start.
func (s *scheduler) runWhenReady(ctx context.Context, r *Runtime, n *ir.Node, slot chan struct{}, tr *obs.Trace, pr *planProbe) *nodeRun {
	inputs := make([]adapter.Value, len(n.Inputs))
	for i, in := range n.Inputs {
		if pr.serves(in) {
			inputs[i] = pr.nodes[in].out
			continue
		}
		p := &s.nodes[in]
		select {
		case <-p.done:
		case <-ctx.Done():
			return &nodeRun{err: ctx.Err()}
		}
		if p.run.err != nil {
			return &nodeRun{err: p.run.err}
		}
		inputs[i] = p.run.out
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
		return &nodeRun{err: err}
	}
	var queued time.Duration
	if tr != nil {
		queued = time.Since(ready)
	}
	cur := s.inflight.Add(1)
	for {
		m := s.maxInflight.Load()
		if cur <= m || s.maxInflight.CompareAndSwap(m, cur) {
			break
		}
	}
	defer s.inflight.Add(-1)
	run := r.runNode(ctx, n, inputs)
	run.queue = queued
	return run
}

// await blocks until node id, one that runs, has run and returns its
// outcome, or the caller's context error if that comes first.
func (s *scheduler) await(ctx context.Context, id ir.NodeID) (*nodeRun, error) {
	sn := &s.nodes[id]
	select {
	case <-sn.done:
		return sn.run, nil
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
