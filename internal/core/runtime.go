// Package core implements the Polystore++ middleware (Figure 4): the
// runtime that executes compiled plans across data-processing engines and
// hardware accelerators. It owns the executor (stage-ordered node
// execution, §IV-D), the runtime optimizer's device selection (LogCA-style
// cost comparison per kernel call), the data migrator invocation on
// cross-engine edges, and the runtime statistics the paper calls out as a
// prerequisite for optimization (§IV-D-d): counters declared in stats.go and
// per-operator aggregates in obs.OpStats.
//
// Simulated time is scheduled explicitly: each node starts when its inputs
// have finished and its device is free, so the report's end-to-end latency
// reflects DAG parallelism and device contention rather than host wall
// time.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/cast"
	"polystorepp/internal/compiler"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/migrate"
	"polystorepp/internal/obs"
	"polystorepp/internal/relational"
	"polystorepp/internal/subplan"
)

// Sentinel errors.
var (
	ErrNoAdapter = errors.New("core: no adapter for engine")
	ErrExec      = errors.New("core: execution")
	ErrNoDevice  = errors.New("core: unknown device")
	// ErrDurability marks a write that applied in memory but that the storage
	// backend could not confirm durable: the server's condition, not the
	// client's, and the write must not be acknowledged.
	ErrDurability = errors.New("core: durability barrier")
)

// Runtime executes compiled plans. Construct with NewRuntime; register one
// adapter per engine instance.
type Runtime struct {
	adapters map[string]adapter.Adapter
	host     *hw.Device
	accels   []*hw.Device
	mode     hw.Mode
	migrator *migrate.Migrator
	st       coreStats
	ops      *obs.OpStats

	// sequential forces the driver's inline mode.
	sequential bool

	// subplan is the content-addressed subplan cache (subplan.go), sized
	// once from subplanBytes (WithSubplanCacheBytes) and shared by every
	// server over the runtime; nil disables it.
	subplan      *subplan.Cache
	subplanBytes int64

	// barrier, when non-nil, is awaited after every applied ingest so a
	// write is only acknowledged once the storage backend has made it
	// durable (WAL group commit). Nil for in-memory deployments.
	barrier DurabilityBarrier
}

// DurabilityBarrier is the slice of the storage backend contract the runtime
// needs: block until an fsync covers every journaled mutation so far, or
// fail. Satisfied by backend.Backend.
type DurabilityBarrier interface {
	Barrier(ctx context.Context) error
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithAccelerators attaches accelerator devices in the given deployment
// mode; the runtime offloads kernels to them when profitable.
func WithAccelerators(mode hw.Mode, devices ...*hw.Device) Option {
	return func(r *Runtime) {
		r.mode = mode
		r.accels = append(r.accels, devices...)
	}
}

// WithSequentialExecutor forces the driver's inline mode (one node at a
// time on the calling goroutine) for every plan — the baseline the
// concurrent scheduler is verified against, and an ablation knob for
// experiments.
func WithSequentialExecutor() Option {
	return func(r *Runtime) { r.sequential = true }
}

// WithDurabilityBarrier attaches the storage backend's durability barrier:
// Ingest blocks on it after the engine applies a write, so acknowledgement
// implies the mutation is journaled and fsynced. Nil (the default)
// acknowledges on apply, the in-memory contract.
func WithDurabilityBarrier(b DurabilityBarrier) Option {
	return func(r *Runtime) { r.barrier = b }
}

// NewRuntime returns a runtime with the given host CPU model.
func NewRuntime(host *hw.Device, opts ...Option) *Runtime {
	r := &Runtime{
		adapters: make(map[string]adapter.Adapter),
		host:     host,
		mode:     hw.Coprocessor,
		migrator: migrate.New(host, hw.NewRDMANIC()),
		ops:      obs.NewOpStats(),
	}
	for _, o := range opts {
		o(r)
	}
	r.st = newCoreStats(r.accels)
	r.subplan = newSubplanCache(r.subplanBytes)
	r.preloadKernels()
	return r
}

// preloadKernels loads the deployment's standing kernel library onto the
// reconfigurable devices (the "configuration parameters" of Figure 4:
// bitstreams are synthesized offline and loaded at deployment, so steady
// state pays no reconfiguration). Kernels that do not fit the area budget
// are simply not preloaded; a later Offload may still swap them in.
func (r *Runtime) preloadKernels() {
	fpgaSet := []hw.KernelClass{
		hw.KSort, hw.KFilter, hw.KProject, hw.KSerialize, hw.KDeserialize, hw.KWindowAgg,
	}
	cgraSet := []hw.KernelClass{
		hw.KSort, hw.KFilter, hw.KProject, hw.KGEMM, hw.KWindowAgg, hw.KKMeansAssign,
	}
	for _, d := range r.accels {
		var set []hw.KernelClass
		switch d.Kind {
		case hw.FPGA:
			set = fpgaSet
		case hw.CGRA:
			set = cgraSet
		default:
			continue
		}
		for _, k := range set {
			// Best effort: budget overruns just leave the kernel unloaded.
			_, _ = d.ConfigureKernel(k.String(), hw.LUTCost(k))
		}
	}
}

// Register adds an adapter for its engine name.
func (r *Runtime) Register(a adapter.Adapter) {
	r.adapters[a.Engine()] = a
}

// OpStats returns the per-(engine, op-kind) execution aggregates — the
// op_stats rows of /stats and /metrics, which benchdiff -attr diffs.
func (r *Runtime) OpStats() *obs.OpStats { return r.ops }

// HasEngine reports whether an adapter is registered under name.
func (r *Runtime) HasEngine(name string) bool {
	_, ok := r.adapters[name]
	return ok
}

// Engines returns the registered engine instance names, sorted.
func (r *Runtime) Engines() []string {
	out := make([]string, 0, len(r.adapters))
	for name := range r.adapters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DataVersion sums the mutation counters of every registered adapter's
// backing store (see adapter.DataVersioner): any store mutation changes it.
// Nothing keys on the sum; it is reported (/stats data_version, the /query
// and /ingest replies). Caches key on VersionVector, the versions of just the
// stores a plan reads.
func (r *Runtime) DataVersion() uint64 {
	var v uint64
	for _, a := range r.adapters {
		if dv, ok := a.(adapter.DataVersioner); ok {
			v += dv.DataVersion()
		}
	}
	return v
}

// Ingest routes one serving-path write to the named engine's adapter. With a
// durability barrier attached, the write is acknowledged only after the
// backend reports it durable — an error from the barrier means the mutation
// applied in memory but its journal entry may be lost, and the caller must
// not acknowledge it.
func (r *Runtime) Ingest(ctx context.Context, engine string, w adapter.Ingest) error {
	a, ok := r.adapters[engine]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoAdapter, engine)
	}
	ing, ok := a.(adapter.Ingestor)
	if !ok {
		return fmt.Errorf("%w: engine %q does not accept writes", ErrExec, engine)
	}
	if err := ing.Ingest(ctx, w); err != nil {
		return err
	}
	if r.barrier != nil {
		if err := r.barrier.Barrier(ctx); err != nil {
			return fmt.Errorf("%w: %w", ErrDurability, err)
		}
	}
	return nil
}

// VersionVector renders the data versions of exactly the engines (and, for
// relational engines, tables) in t as a canonical "engine=version,..."
// string — the per-engine version vector that subplan cache keys and the
// serving layer's single-flight keys end in. Engines whose reads are
// table-scoped use the adapter's ScopedVersion; whole-engine reads use
// DataVersion; engines that read no stored data (pure operators over
// migrated inputs) contribute the seed of a Seeded adapter (the ML engine)
// and nothing otherwise. Every component is monotonic or fixed, so two
// equal vectors bracket an interval in which none of the touched data changed — writes to untouched engines change nothing here,
// which is what keeps their cached results addressable.
func (r *Runtime) VersionVector(t compiler.Touches) string {
	return string(r.appendVersionVector(make([]byte, 0, 128), t))
}

// appendVersionVector appends t's version vector (VersionVector) to dst.
func (r *Runtime) appendVersionVector(dst []byte, t compiler.Touches) []byte {
	engines := make([]string, 0, 8)
	for e := range t.ByEngine {
		engines = append(engines, e)
	}
	slices.Sort(engines)
	for _, e := range engines {
		a, ok := r.adapters[e]
		if !ok {
			continue
		}
		tables := t.ByEngine[e]
		var v uint64
		switch {
		case tables != nil && len(tables) == 0: // pure dataflow on this engine
			sd, ok := a.(adapter.Seeded)
			if !ok {
				continue // no version dependency
			}
			v = uint64(sd.Seed())
		case tables != nil:
			sv, ok := a.(adapter.ScopedVersioner)
			if ok {
				v = sv.ScopedVersion(tables)
				break
			}
			fallthrough
		default:
			dv, ok := a.(adapter.DataVersioner)
			if !ok {
				continue
			}
			v = dv.DataVersion()
		}
		dst = strconv.AppendUint(append(append(dst, e...), '='), v, 10)
		dst = append(dst, ',')
	}
	return dst
}

// NodeReport records one node's execution.
type NodeReport struct {
	Node    ir.NodeID
	Kind    ir.OpKind
	Engine  string
	Device  string
	Native  string
	RowsIn  int64
	RowsOut int64
	Wall    time.Duration
	Sim     hw.Cost
	// Start/Finish are simulated times on the global clock.
	Start, Finish float64
}

// Report is the execution outcome of a plan: a summary, and the per-node
// rows (Nodes) of an execution traced or asked for them (WithNodeReports).
type Report struct {
	Nodes     []NodeReport
	NodeCount int // the plan's nodes, whether or not Nodes holds their rows
	// Latency is the simulated end-to-end latency (max sink finish time).
	Latency float64
	// Energy is the total simulated energy across devices.
	Energy float64
	// Wall is the measured host execution time.
	Wall time.Duration
	// Migrations counts cross-engine transfers; MigratedBytes their volume.
	Migrations    int
	MigratedBytes int64
}

// String renders the summary and a compact table of the rows.
func (rep *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "latency=%.6fs energy=%.3fJ wall=%s migrations=%d (%d bytes)\n",
		rep.Latency, rep.Energy, rep.Wall, rep.Migrations, rep.MigratedBytes)
	for _, n := range rep.Nodes {
		fmt.Fprintf(&sb, "  %3d %-14s %-10s dev=%-14s rows=%d->%d sim=%.6fs %s\n",
			n.Node, n.Kind, n.Engine, n.Device, n.RowsIn, n.RowsOut, n.Sim.Seconds, n.Native)
	}
	return sb.String()
}

// Results holds every node's output, indexed by node id, and the sink ids.
type Results struct {
	Values []adapter.Value
	Sinks  []ir.NodeID
}

// First returns the first sink's value (plans with one output).
func (res *Results) First() adapter.Value {
	if len(res.Sinks) == 0 {
		return adapter.Value{}
	}
	return res.Values[res.Sinks[0]]
}

// isChain reports whether the nodes of order that run — those pr does not
// serve — form a chain: each reads the running node before it, so no two of
// them can ever run at once.
func isChain(order []*ir.Node, pr *planProbe) bool {
	var prev *ir.Node
	for _, n := range order {
		if pr.serves(n.ID) {
			continue
		}
		if prev != nil && !slices.Contains(n.Inputs, prev.ID) {
			return false
		}
		prev = n
	}
	return true
}

// rowsKey is the context key WithNodeReports marks a context with.
type rowsKey struct{}

// WithNodeReports returns a context under which an execution builds its
// Report's rows and their labels, as a traced one does; any other fills the
// summary only.
func WithNodeReports(ctx context.Context) context.Context {
	return context.WithValue(ctx, rowsKey{}, true)
}

// Execute runs the plan and returns its sink values and the report: it
// probes the subplan cache for the plan's candidates (prepareSubplan), then
// drives the plan.
func (r *Runtime) Execute(ctx context.Context, plan *compiler.Plan) (*Results, *Report, error) {
	return r.ExecuteAfterMiss(ctx, plan, nil)
}

// ExecuteAfterMiss is Execute for a plan whose root probe just missed into
// miss (ProbeRoot): it does not render or probe that key again. A nil miss,
// or one holding no key of the plan's, is Execute.
func (r *Runtime) ExecuteAfterMiss(ctx context.Context, plan *compiler.Plan, miss *RootMiss) (*Results, *Report, error) {
	t0 := time.Now()
	if len(plan.Binds) < plan.Slots {
		return nil, nil, fmt.Errorf("%w: %w: the plan holds %d slots, %d are bound", ErrExec, relational.ErrUnbound, plan.Slots, len(plan.Binds))
	}
	pr := r.prepareSubplan(ctx, plan, miss)
	defer pr.close()
	return r.drive(ctx, t0, plan, pr)
}

// drive is the plan driver: it walks the nodes in topological order
// (Plan.Order, each node holding holes first bound to the plan's constants
// by bindNodes) and, for each, obtains the node's real execution (a
// nodeRun), charges it to the simulated clock and hands the outcome to the
// report, the trace and the subplan cache. Costing in one deterministic
// order over one reservation ledger is what makes Reports independent of how
// the real executions were dispatched.
//
// A node a subplan hit serves never runs: the driver costs it from the
// entry's record, and a plan served whole is dispatched in no mode at all.
// The dispatch mode is chosen on the nodes that run. When
// they form a chain (isChain), and under WithSequentialExecutor, they run
// inline: runNode is called on this goroutine, one node at a time, into one
// reused run, and nothing is allocated for coordination — the reference the
// concurrent mode is verified against. Otherwise they run as a dataflow of
// one goroutine per node, at most engineWorkers per engine (scheduler.go).
// Either way each running node's record lives in one slab (recs). The
// report's Wall is the host time since t0. Its rows and labels are built
// only for a traced execution or a caller that asked (WithNodeReports). Its
// clock is pr's, so a plan served whole allocates values and a Results/Report.
func (r *Runtime) drive(ctx context.Context, t0 time.Time, plan *compiler.Plan, pr *planProbe) (*Results, *Report, error) {
	tr := obs.From(ctx)
	rows := tr != nil || ctx.Value(rowsKey{}) != nil
	order, runs, err := bindNodes(plan, pr, rows)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]subplan.NodeCost, runs)

	var sched *scheduler
	switch {
	case runs == 0: // served whole: nothing to dispatch
	case !r.sequential && !isChain(order, pr):
		r.st.execConcurrent.Inc()
		sched = r.dispatch(ctx, order, recs, tr, pr)
		// Stops the node goroutines on every exit path, before the probe
		// goes back to the pool; in-flight adapter calls observe the cancellation.
		defer sched.stop()
	default:
		r.st.execSequential.Inc()
	}

	span := plan.Graph.IDBound()
	values := make([]adapter.Value, span)
	finish, led := pr.clock(span, new(ledger))
	out := &struct { // what is returned, in one allocation
		res Results
		rep Report
	}{rep: Report{NodeCount: len(order)}}
	rep := &out.rep
	if rows {
		rep.Nodes = make([]NodeReport, 0, len(order))
	}
	var cur nodeRun            // the inline or served run in turn: nothing keeps a run past its node's turn
	var inputs []adapter.Value // the inline run's inputs, reused likewise
	k := 0                     // the next running node's rank: its record, and its run in the dataflow
	for _, n := range order {
		id := n.ID
		run := &cur
		switch {
		case pr.serves(id):
			cur = nodeRun{NodeCost: pr.nodes[id].serve, out: pr.nodes[id].out, cached: true}
		case sched != nil:
			if run, err = sched.await(ctx, k); err != nil {
				return nil, nil, err
			}
			k++
		default:
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			inputs = inputs[:0]
			for _, in := range n.Inputs {
				inputs = append(inputs, values[in])
			}
			cur = nodeRun{NodeCost: &recs[k]}
			k++
			r.runNode(ctx, n, inputs, &cur)
		}
		if run.err != nil {
			return nil, nil, fmt.Errorf("%w: node %d (%s): %w", ErrExec, id, n.Kind, run.err)
		}
		start := 0.0
		for _, in := range n.Inputs {
			if finish[in] > start {
				start = finish[in]
			}
		}
		nr, err := r.costNode(n, run, start, led, rows)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: node %d (%s): %w", ErrExec, id, n.Kind, err)
		}
		if tr != nil {
			tr.AddSpan(nodeSpan(tr, n, run, nr))
		}
		values[id] = run.out
		finish[id] = nr.Finish
		if rows {
			rep.Nodes = append(rep.Nodes, nr)
		}
		if rep.Energy += nr.Sim.Joules; run.Migration != nil {
			rep.Migrations++
			rep.MigratedBytes += run.Migration.WireBytes
		}
		pr.onNodeCosted(id, run)
	}
	if sched != nil {
		r.st.maxParallel.SetMax(float64(sched.maxInflight.Load()))
	}
	for _, s := range plan.Sinks { // the latency is the last sink's finish
		rep.Latency = max(rep.Latency, finish[s])
	}
	rep.Wall = time.Since(t0)
	slices.SortFunc(rep.Nodes, func(a, b NodeReport) int { return cmp.Compare(a.Node, b.Node) })
	out.res = Results{Values: values, Sinks: plan.Sinks}
	return &out.res, rep, nil
}

// bindNodes returns an execution's nodes in plan.Order, and how many of
// them run (pr does not serve). They are the plan's own, except that a
// running node whose attributes hold holes is a copy, in one slab, that
// shares the plan node's Attrs and carries in Bound the values
// relational.Bind gives them for plan.Binds. With all, a served node is
// bound too, for the labels of its row or span.
func bindNodes(plan *compiler.Plan, pr *planProbe, all bool) (order []*ir.Node, runs int, err error) {
	copies := 0
	for _, n := range plan.Order {
		if !pr.serves(n.ID) {
			runs++
		} else if !all {
			continue
		}
		copies += min(len(plan.Bound[n.ID]), 1)
	}
	if copies == 0 {
		return plan.Order, runs, nil
	}
	// A node mostly binds one attribute; bound grows past that, and the
	// copies before keep the values they took.
	order = slices.Clone(plan.Order)
	nodes, bound := make([]ir.Node, 0, copies), make([]ir.BoundAttr, 0, copies)
	for i, n := range plan.Order {
		keys := plan.Bound[n.ID]
		if len(keys) == 0 || !all && pr.serves(n.ID) {
			continue
		}
		lo := len(bound)
		for _, k := range keys {
			v, shared := scanBound(nodes, n, k)
			if !shared {
				if v, err = relational.Bind(n.Attrs[k], plan.Binds); err != nil {
					return nil, 0, fmt.Errorf("%w: node %d (%s): %w", ErrExec, n.ID, n.Kind, err)
				}
			}
			bound = append(bound, ir.BoundAttr{Key: k, Value: v})
		}
		nodes = append(nodes, *n)
		nodes[len(nodes)-1].Bound = bound[lo:len(bound):len(bound)]
		order[i] = &nodes[len(nodes)-1]
	}
	return order, runs, nil
}

// scanBound returns what a filter's predicate is bound to when the index
// scan it reads is among the bound nodes: the L2 access-path pass gives an
// IndexScan its one consumer filter's very "pred" (compiler.selectIndexScans),
// so the filter takes the scan's bound value instead of binding the same
// expression again.
func scanBound(nodes []ir.Node, n *ir.Node, key string) (any, bool) {
	if n.Kind != ir.OpFilter || key != "pred" || len(n.Inputs) != 1 {
		return nil, false
	}
	for i := range nodes {
		if s := &nodes[i]; s.ID == n.Inputs[0] && s.Kind == ir.OpIndexScan {
			return s.Attr(key), true
		}
	}
	return nil, false
}

// nodeRun is the outcome of a node's real (host) execution, before simulated
// costing. The split lets the concurrent scheduler run the expensive host
// work in parallel while costing stays in deterministic topological order.
type nodeRun struct {
	// NodeCost is what costing, stats and the subplan cache read (Rows, not
	// out.Rows(): a served interior node has no output). An executed run
	// points at its node's record in the execution's record slab, which
	// runNode writes; a served one (cached) at the hit entry's, which
	// nothing writes.
	*subplan.NodeCost
	out  adapter.Value
	wall time.Duration
	err  error
	// hostStart is when the real execution began on the host clock; queue is
	// the wait from inputs ready to engine slot taken in the concurrent mode
	// (zero on the inline mode, and only measured for traced executions).
	hostStart time.Time
	queue     time.Duration
	cached    bool
}

// runNode performs a node's real work — adapter translation and native
// execution, or data migration — into run, whose NodeCost the caller has
// pointed at the node's record, without touching the simulated clock.
func (r *Runtime) runNode(ctx context.Context, n *ir.Node, inputs []adapter.Value, run *nodeRun) {
	t0 := time.Now()
	run.hostStart = t0
	for _, in := range inputs {
		run.BytesIn += valueBytes(in)
	}
	switch a, ok := r.adapters[n.Engine]; {
	case n.Kind == ir.OpMigrate:
		run.Migration = new(migrate.Breakdown)
		run.out.Batch, *run.Migration, run.err = r.executeMigrate(ctx, n, inputs)
	case !ok:
		run.err = fmt.Errorf("%w: %q", ErrNoAdapter, n.Engine)
	default:
		run.out, run.Info, run.err = a.Execute(ctx, n, inputs)
	}
	if run.err != nil {
		return
	}
	run.wall = time.Since(t0)
	run.BytesOut = valueBytes(run.out)
	if run.Migration != nil {
		// A migration passes its rows through.
		run.Info.RowsIn, run.Info.RowsOut = int64(run.out.Rows()), int64(run.out.Rows())
		r.st.migrations.Inc()
	} else {
		r.st.ruleNodes.Inc() // an adapter translates a node by one rule (§III-A4)
	}
	r.st.nodes.Inc()
	r.observeOp(n, run)
}

// costNode charges a finished node's kernel calls to devices and schedules
// it on the simulated clock: the node starts once its inputs have finished
// (start) and each kernel waits for its device to free up in the ledger.
// Callers must cost nodes in a deterministic topological order — reservation
// order decides contention, and the reports are compared across dispatch
// modes. Its labels, Native and Device, are rendered only with label.
func (r *Runtime) costNode(n *ir.Node, run *nodeRun, start float64, led *ledger, label bool) (NodeReport, error) {
	nr := NodeReport{Node: n.ID, Kind: n.Kind, Engine: n.Engine, Start: start, Wall: run.wall,
		RowsIn: run.Info.RowsIn, RowsOut: run.Info.RowsOut} // a migration's are its rows (runNode)
	if run.Migration != nil {
		if nr.Sim, nr.Finish = run.Migration.Sim, start+run.Migration.Sim.Seconds; label {
			nr.Native, nr.Device = adapter.Native(n, run.Info), "dm/"+migrate.Transport(n.IntAttr("transport")).String()
		}
		return nr, nil
	}

	// Cost the kernel calls, choosing devices at runtime (§IV-D-a: "IR
	// mapping to local accelerators ... will ultimately depend on runtime
	// environment and data-dependent analyses").
	clock := start
	devices := make([]string, 0, 4) // the names of the devices the calls ran on, once each, for the label
	for _, call := range run.Info.Kernels {
		for range max(call.Repeat, 1) {
			dev, cost, err := r.chargeKernel(n, call)
			if err != nil {
				return nr, err
			}
			clock = led.reserve(dev, clock, cost.Seconds)
			nr.Sim = nr.Sim.AddSeq(cost)
			if label && !slices.Contains(devices, dev.Name) {
				devices = append(devices, dev.Name)
			}
		}
	}
	if nr.Finish = clock; label {
		nr.Native, nr.Device = adapter.Native(n, run.Info), r.host.Name
		if len(devices) > 0 {
			slices.Sort(devices)
			nr.Device = strings.Join(devices, "+") // one name is returned as is
		}
	}
	return nr, nil
}

// ledger is one execution's device reservations on the simulated clock:
// when each booked device is free again (bookings keep the driver's order).
type ledger []booking

type booking struct {
	dev  *hw.Device
	free float64
}

// reserve books seconds on d from earliest or, if later, d's free time.
func (l *ledger) reserve(d *hw.Device, earliest, seconds float64) float64 {
	i := slices.IndexFunc(*l, func(b booking) bool { return b.dev == d })
	if i < 0 {
		i, *l = len(*l), append(*l, booking{dev: d})
	}
	if f := (*l)[i].free; f > earliest {
		earliest = f
	}
	(*l)[i].free = earliest + seconds
	return earliest + seconds
}

// chargeKernel selects the device for one kernel call (honoring the node's
// Device annotation) and charges the cost to it. An empty annotation runs on
// the host; "auto" lets the runtime pick the cheapest device; any other name
// pins the call to that device, and naming a device the deployment does not
// have is an execution error rather than a silent host fallback.
func (r *Runtime) chargeKernel(n *ir.Node, call adapter.KernelCall) (*hw.Device, hw.Cost, error) {
	switch n.Device {
	case "", "auto":
		// Handled below.
	case r.host.Name:
		return r.hostCharge(call)
	default:
		for _, d := range r.accels {
			if d.Name != n.Device {
				continue
			}
			c, err := d.Offload(r.mode, call.Class, call.Work, call.OutBytes)
			if err != nil {
				return nil, hw.Zero, fmt.Errorf("pinned device %q: %w", n.Device, err)
			}
			r.st.offloads[d].Inc()
			return d, c, nil
		}
		attached := []string{r.host.Name}
		for _, d := range r.accels {
			attached = append(attached, d.Name)
		}
		return nil, hw.Zero, fmt.Errorf("%w: %q (attached: %s)", ErrNoDevice, n.Device, strings.Join(attached, ", "))
	}
	if n.Device == "" || len(r.accels) == 0 {
		return r.hostCharge(call)
	}
	// Runtime device choice: estimate end-to-end cost on the host and on
	// every accelerator supporting the kernel, pick the cheapest, charge it.
	bestDev := r.host
	bestCost, err := r.host.KernelCost(call.Class, call.Work)
	if err != nil {
		bestCost = hw.Zero
	}
	for _, d := range r.accels {
		est, err := d.OffloadCost(r.mode, call.Class, call.Work, call.OutBytes)
		if err != nil {
			continue
		}
		if est.Seconds < bestCost.Seconds {
			bestDev, bestCost = d, est
		}
	}
	if bestDev == r.host {
		return r.hostCharge(call)
	}
	c, err := bestDev.Offload(r.mode, call.Class, call.Work, call.OutBytes)
	if err != nil {
		// Offload refused (e.g. area budget): run on the host instead.
		return r.hostCharge(call)
	}
	r.st.offloads[bestDev].Inc()
	return bestDev, c, nil
}

// hostCharge costs a kernel call on the host CPU. Kernels the host cannot
// model are charged zero rather than failing the query.
func (r *Runtime) hostCharge(call adapter.KernelCall) (*hw.Device, hw.Cost, error) {
	c, err := r.host.HostCost(call.Class, call.Work)
	if err != nil {
		return r.host, hw.Zero, nil
	}
	return r.host, c, nil
}

// executeMigrate moves the single tabular input across engines. When the
// compiler named the columns the far side reads ("cols", resolved as the
// consumers resolve them), only those cross, in the input's order; the
// projection shares the input's storage, so a selection-backed input gathers
// only what it sends. A named column the input lacks is not sent, and the
// consumer that asked for it reports it missing; when it lacks them all,
// every column crosses, since a batch of no columns has no CSV form.
func (r *Runtime) executeMigrate(ctx context.Context, n *ir.Node, inputs []adapter.Value) (*cast.Batch, migrate.Breakdown, error) {
	if len(inputs) != 1 || inputs[0].Batch == nil {
		return nil, migrate.Breakdown{}, fmt.Errorf("%w: migrate wants one tabular input", ErrExec)
	}
	b := inputs[0].Batch
	if cols, ok := n.Attr("cols").([]string); ok {
		s := b.Schema()
		keep := make([]string, 0, len(cols))
		for i := 0; i < s.Len(); i++ {
			name := s.Col(i).Name
			if slices.ContainsFunc(cols, func(c string) bool { return relational.BaseName(c) == name }) {
				keep = append(keep, name)
			}
		}
		if len(keep) > 0 && len(keep) < s.Len() {
			b, _ = b.Project(keep...) // cannot fail: the names are b's own, once each
		}
	}
	return r.migrator.Migrate(ctx, b, migrate.Transport(n.IntAttr("transport")))
}
