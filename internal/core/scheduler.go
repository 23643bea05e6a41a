package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/obs"
)

// Concurrent stage-aware DAG executor (§IV-D).
//
// The paper's middleware executes plan DAGs with device-level parallelism,
// and BigDAWG-style polystores dispatch independent sub-plans to their
// engines concurrently. This scheduler brings real wall-clock time in line
// with the parallelism the simulated clock already models:
//
//   - Dispatch: a node becomes ready when all its producers have run; ready
//     nodes go to a bounded worker queue per engine (migrations get the
//     middleware queue), so one slow engine cannot starve the others and no
//     engine is oversubscribed. The compiler's stage schedule seeds the
//     queues and the initial ready set.
//   - Real execution (runNode): adapter translation and native operators run
//     concurrently across queues — this is where host wall time is won.
//   - Simulated costing (costNode): applied by the coordinator in the exact
//     topological order the sequential executor uses, over one
//     hw.Reservations ledger. Reservation order decides device contention,
//     so serializing it keeps Reports identical to the sequential baseline
//     (modulo host wall times) no matter how real executions interleave.
//
// Errors surface at the earliest failing node in topological order — the
// same node the sequential executor stops at. Consumers of a failed node are
// never dispatched; the coordinator reaches the failure first (producers
// precede consumers in topological order) and tears the pools down.

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

// executeConcurrent runs the plan through the concurrent DAG scheduler.
// st, when non-nil, streams the designated sink node's batches (stream.go);
// only the single worker executing that node touches the sink, and the
// coordinator's cancel+wait teardown guarantees no emission outlives this
// call.
func (r *Runtime) executeConcurrent(ctx context.Context, plan *compiler.Plan, st *nodeStream) (*Results, *Report, error) {
	t0 := time.Now()
	g := plan.Graph
	order, err := g.TopoSort()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrExec, err)
	}
	r.st.execConcurrent.Inc()
	tr := obs.From(ctx)
	pr := r.prepareSubplan(ctx, plan)
	defer pr.close()
	fb := r.prepareFeedback(plan)

	// execCtx cancels every in-flight worker when the coordinator returns
	// early (error or caller cancellation).
	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	consumers := g.ConsumerIndex()
	nodes := make(map[ir.NodeID]*schedNode, len(order))
	for _, id := range order {
		n := g.MustNode(id)
		sn := &schedNode{n: n, done: make(chan struct{})}
		producers := make(map[ir.NodeID]bool, len(n.Inputs))
		for _, in := range n.Inputs {
			producers[in] = true
		}
		sn.waits.Store(int32(len(producers)))
		nodes[id] = sn
	}

	sched := &scheduler{
		rt:        r,
		nodes:     nodes,
		consumers: consumers,
		queues:    make(map[string]chan *schedNode),
		st:        st,
		tr:        tr,
		pr:        pr,
		fb:        fb,
	}
	// Create every queue before any dispatch (workers never mutate the map),
	// each sized to the nodes it will ever receive so dispatching never
	// blocks, with workers capped likewise — a queue holding two nodes
	// never needs more than two goroutines.
	queueNodes := make(map[string]int, 4)
	for _, id := range order {
		queueNodes[queueKey(nodes[id].n)]++
	}
	var wg sync.WaitGroup
	for _, id := range order {
		key := queueKey(nodes[id].n)
		if _, ok := sched.queues[key]; ok {
			continue
		}
		q := make(chan *schedNode, queueNodes[key])
		sched.queues[key] = q
		workers := r.engineWorkers
		if n := queueNodes[key]; n < workers {
			workers = n
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-execCtx.Done():
						return
					case sn := <-q:
						sched.runScheduled(execCtx, sn)
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
			if sn := nodes[id]; len(sn.n.Inputs) == 0 {
				if tr != nil {
					sn.enqueued = time.Now()
				}
				sched.queues[queueKey(sn.n)] <- sn
			}
		}
	}

	// Coordinator: cost finished nodes in sequential topological order.
	values := make(map[ir.NodeID]adapter.Value, len(order))
	finish := make(map[ir.NodeID]float64, len(order))
	led := hw.NewReservations()
	rep := &Report{}
	var execErr error
	for _, id := range order {
		sn := nodes[id]
		select {
		case <-sn.done:
		case <-ctx.Done():
			execErr = ctx.Err()
		}
		if execErr != nil {
			break
		}
		if sn.run.err != nil {
			execErr = fmt.Errorf("%w: node %d (%s): %w", ErrExec, id, sn.n.Kind, sn.run.err)
			break
		}
		start := 0.0
		for _, in := range sn.n.Inputs {
			if finish[in] > start {
				start = finish[in]
			}
		}
		nr, err := r.costNode(sn.n, sn.run, start, led)
		if err != nil {
			execErr = fmt.Errorf("%w: node %d (%s): %w", ErrExec, id, sn.n.Kind, err)
			break
		}
		if tr != nil {
			tr.AddSpan(nodeSpan(tr, sn.n, sn.run, nr))
		}
		values[id] = sn.run.out
		finish[id] = nr.Finish
		rep.absorb(nr, sn.run)
		pr.onNodeCosted(id, sn.run)
		fb.observe(sn.n, sn.run)
	}

	// Tear down the pools; in-flight adapter calls observe the cancellation.
	cancel()
	wg.Wait()
	if execErr != nil {
		// Pure cancellation surfaces as the bare context error, matching the
		// sequential path.
		if ctxErr := ctx.Err(); ctxErr != nil && execErr == ctxErr {
			return nil, nil, ctxErr
		}
		return nil, nil, execErr
	}
	r.st.maxParallel.SetMax(float64(sched.maxInflight.Load()))
	rep.finalize(t0, g, finish)
	return &Results{Values: values, Sinks: g.Sinks()}, rep, nil
}

// queueKey maps a node to its dispatch queue: its engine, or the middleware
// queue for migrations.
func queueKey(n *ir.Node) string {
	if n.Kind == ir.OpMigrate {
		return middlewareQueue
	}
	return n.Engine
}

// scheduler is the shared dispatch state of one executeConcurrent call.
type scheduler struct {
	rt        *Runtime
	nodes     map[ir.NodeID]*schedNode
	consumers map[ir.NodeID][]ir.NodeID
	queues    map[string]chan *schedNode
	// st streams the designated sink node's output; nil for buffered runs.
	st *nodeStream
	// tr is the request's trace (nil when untraced); workers use it to decide
	// whether queue-wait stamping is worth the clock reads.
	tr *obs.Trace
	// pr is the execution's subplan-cache probe (nil when inactive); its
	// decision maps are read-only during execution, so workers consult it
	// without coordination.
	pr *planProbe
	// fb is the execution's feedback state (nil when disabled); the override
	// map is read-only during execution, so workers consult it without
	// coordination, and only the coordinator feeds observations back.
	fb *fbExec

	inflight    atomic.Int32
	maxInflight atomic.Int32
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
	sn.run = s.rt.runNode(ctx, sn.n, inputs, s.st, s.pr, s.fb)
	sn.run.queue = queued
	close(sn.done)
	if sn.run.err != nil {
		return // consumers stay undispatched; the coordinator stops first
	}
	for _, c := range s.consumers[sn.n.ID] {
		cn := s.nodes[c]
		if cn.waits.Add(-1) == 0 {
			if s.tr != nil {
				cn.enqueued = time.Now()
			}
			// Buffered to the full plan; never blocks.
			s.queues[queueKey(cn.n)] <- cn
		}
	}
}
