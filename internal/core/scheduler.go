package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
)

// Concurrent dispatch mode of the plan driver (§IV-D).
//
// The paper's middleware executes plan DAGs with device-level parallelism,
// and BigDAWG-style polystores dispatch independent sub-plans to their
// engines concurrently. For plans with a stage wider than one node the
// driver (Runtime.execute) hands real execution to this scheduler, which
// brings wall-clock time in line with the parallelism the simulated clock
// already models:
//
//   - Dispatch: a node becomes ready when all its producers have run; ready
//     nodes go to a bounded worker queue per engine (migrations get the
//     middleware queue), so one slow engine cannot starve the others and no
//     engine is oversubscribed. The compiler's stage schedule seeds the
//     queues and the initial ready set.
//   - Real execution (runNode): adapter translation and native operators run
//     concurrently across queues — this is where host wall time is won.
//   - Simulated costing stays with the driver, which awaits the runs in the
//     topological order the inline mode executes them in, so Reports are
//     identical to the inline mode's (modulo host wall times) no matter how
//     real executions interleave.
//
// Errors surface at the earliest failing node in topological order — the
// same node the inline mode stops at. Consumers of a failed node are never
// dispatched; the driver reaches the failure first (producers precede
// consumers in topological order) and tears the pools down.

// middlewareQueue is the dispatch queue for engine-less nodes (migrations).
const middlewareQueue = ""

// schedNode is the per-node scheduling state.
type schedNode struct {
	n *ir.Node
	// waits counts distinct producers that have not finished yet.
	waits atomic.Int32
	// run is the real-execution outcome; written by the worker that ran the
	// node before closing done.
	run *nodeRun
	// done closes when the real execution finished (run is set).
	done chan struct{}
	// enqueued is when the node entered its dispatch queue — stamped only for
	// traced executions (the happens-before of the queue send orders the
	// write before the worker's read), so untraced runs skip the clock reads.
	enqueued time.Time
}

// scheduler is the dispatch state of one concurrently executed plan.
type scheduler struct {
	rt        *Runtime
	nodes     map[ir.NodeID]*schedNode
	consumers map[ir.NodeID][]ir.NodeID
	queues    map[string]chan *schedNode
	// st streams the designated sink node's output; nil for buffered runs.
	// Only the single worker executing that node touches the sink.
	st *nodeStream
	// tr is the request's trace (nil when untraced); workers use it to decide
	// whether queue-wait stamping is worth the clock reads.
	tr *obs.Trace
	// pr is the execution's subplan-cache probe (nil when inactive); its
	// decision maps are read-only during execution, so workers consult it
	// without coordination.
	pr *planProbe

	// cancel stops every in-flight worker; wg waits for them to exit.
	cancel context.CancelFunc
	wg     sync.WaitGroup

	inflight    atomic.Int32
	maxInflight atomic.Int32
}

// dispatch starts the per-engine worker pools for plan and seeds them with
// the nodes that have no producers. order is the nodes to run (bindNodes).
// The caller awaits each node's run in topological order and must call stop.
func (r *Runtime) dispatch(ctx context.Context, plan *compiler.Plan, order []*ir.Node, st *nodeStream, tr *obs.Trace, pr *planProbe) *scheduler {
	s := &scheduler{
		rt:        r,
		nodes:     make(map[ir.NodeID]*schedNode, len(order)),
		consumers: plan.Graph.ConsumerIndex(),
		queues:    make(map[string]chan *schedNode),
		st:        st,
		tr:        tr,
		pr:        pr,
	}
	// Create every queue before any dispatch (workers never mutate the map),
	// each sized to the nodes it will ever receive so dispatching never
	// blocks, with workers capped likewise — a queue holding two nodes
	// never needs more than two goroutines.
	queueNodes := make(map[string]int, 4)
	for _, n := range order {
		sn := &schedNode{n: n, done: make(chan struct{})}
		producers := make(map[ir.NodeID]bool, len(n.Inputs))
		for _, in := range n.Inputs {
			producers[in] = true
		}
		sn.waits.Store(int32(len(producers)))
		s.nodes[n.ID] = sn
		queueNodes[queueKey(n)]++
	}
	execCtx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	for key, count := range queueNodes {
		q := make(chan *schedNode, count)
		s.queues[key] = q
		workers := r.engineWorkers
		if count < workers {
			workers = count
		}
		for w := 0; w < workers; w++ {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				for {
					select {
					case <-execCtx.Done():
						return
					case sn := <-q:
						s.runScheduled(execCtx, sn)
					}
				}
			}()
		}
	}
	// Seed the ready set in stage order — the compiler's schedule makes the
	// initial dispatch deterministic. Seed on the immutable "has no
	// producers" condition, NOT the live waits counter: workers are already
	// decrementing waits for downstream nodes, and reading 0 here would
	// dispatch such a node a second time.
	for _, stage := range plan.Stages {
		for _, id := range stage {
			if sn := s.nodes[id]; len(sn.n.Inputs) == 0 {
				s.enqueue(sn)
			}
		}
	}
	return s
}

// await blocks until node id has run and returns its outcome, or the
// caller's context error if that comes first.
func (s *scheduler) await(ctx context.Context, id ir.NodeID) (*nodeRun, error) {
	sn := s.nodes[id]
	select {
	case <-sn.done:
		return sn.run, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// stop cancels the workers and waits for them to exit, so no node execution
// — and no stream emission — outlives the driver's call.
func (s *scheduler) stop() {
	s.cancel()
	s.wg.Wait()
}

// enqueue hands a ready node to its queue. Queues are buffered to every node
// they will ever receive, so this never blocks.
func (s *scheduler) enqueue(sn *schedNode) {
	if s.tr != nil {
		sn.enqueued = time.Now()
	}
	s.queues[queueKey(sn.n)] <- sn
}

// queueKey maps a node to its dispatch queue: its engine, or the middleware
// queue for migrations.
func queueKey(n *ir.Node) string {
	if n.Kind == ir.OpMigrate {
		return middlewareQueue
	}
	return n.Engine
}

// runScheduled executes one dispatched node and releases its consumers.
func (s *scheduler) runScheduled(ctx context.Context, sn *schedNode) {
	cur := s.inflight.Add(1)
	for {
		m := s.maxInflight.Load()
		if cur <= m || s.maxInflight.CompareAndSwap(m, cur) {
			break
		}
	}
	defer s.inflight.Add(-1)

	if err := ctx.Err(); err != nil {
		sn.run = &nodeRun{err: err}
		close(sn.done)
		return
	}
	var queued time.Duration
	if s.tr != nil && !sn.enqueued.IsZero() {
		queued = time.Since(sn.enqueued)
	}
	inputs := make([]adapter.Value, len(sn.n.Inputs))
	for i, in := range sn.n.Inputs {
		// Producers finished before this node was dispatched; the queue
		// send/receive and the waits counter order these reads after their
		// writes.
		inputs[i] = s.nodes[in].run.out
	}
	sn.run = s.rt.runNode(ctx, sn.n, inputs, s.st, s.pr)
	sn.run.queue = queued
	close(sn.done)
	if sn.run.err != nil {
		return // consumers stay undispatched; the driver stops first
	}
	for _, c := range s.consumers[sn.n.ID] {
		if cn := s.nodes[c]; cn.waits.Add(-1) == 0 {
			s.enqueue(cn)
		}
	}
}
