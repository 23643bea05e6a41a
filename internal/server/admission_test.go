package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
	"polystorepp/internal/kvstore"
	"polystorepp/internal/tenant"
)

// anonFlow is the degenerate single-tenant flow all pre-multitenancy tests
// use: one flow makes the round-robin scheduler behave exactly like the
// FIFO semaphore it replaced.
const anonFlow = tenant.Anon

// noShed is the high-water mark of a controller that only queues and
// overflows: the scheduling tests below fill queues the shedder would cut.
const noShed = -1

func TestAdmissionRejectsBeyondLimit(t *testing.T) {
	a := newAdmission(1, 1, noShed)
	ctx := context.Background()

	if err := a.acquire(ctx, anonFlow); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second request queues; run it in a goroutine so we can fill the queue.
	queued := make(chan error, 1)
	go func() {
		err := a.acquire(ctx, anonFlow)
		if err == nil {
			a.release(0) // before the send: the test reads inflight right after receiving
		}
		queued <- err
	}()
	// Wait until the queued request is counted.
	for i := 0; a.queueDepth() < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// Third request exceeds workers+queue and is refused immediately, with
	// the queue depth recorded in the message.
	err := a.acquire(ctx, anonFlow)
	var ref *refusal
	if !errors.As(err, &ref) || ref.cause != causeQueueFull || ref.status != 429 {
		t.Fatalf("third acquire = %v, want a queue-full refusal", err)
	}
	if !strings.Contains(ref.msg, "(1 queued)") {
		t.Fatalf("refusal = %q, want the depth (1 queued)", ref.msg)
	}
	a.release(0) // frees the queued one
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if got := a.inflight(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
}

// TestInflightCountsOnlyRunning: /stats and /healthz report inflight as the
// executions holding a worker slot, beside a separate queued gauge. With one
// request running on the only worker and one waiting, both read inflight 1
// and queued 1 — not inflight 2.
func TestInflightCountsOnlyRunning(t *testing.T) {
	store := kvstore.New("kv-slow")
	store.Put("user/1", []byte("v"))
	entered, release := make(chan struct{}, 2), make(chan struct{})
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(&mutatingAdapter{Adapter: adapter.NewKV("kv-slow", store), hook: func() {
		entered <- struct{}{}
		<-release
	}})
	s := New(rt, compiler.Options{}, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(WithoutSingleFlight(s))
	defer ts.Close()
	free := sync.OnceFunc(func() { close(release) })
	defer free() // before ts.Close, which waits for the handlers

	body := `{"frontend":"program","program":[{"id":"k","op":"kvscan","engine":"kv-slow","prefix":"user/"}]}`
	done := make(chan error, 2)
	for range 2 {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}()
	}
	<-entered // one request holds the worker
	for deadline := time.Now().Add(5 * time.Second); s.adm.queueDepth() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second request never queued")
		}
	}
	for _, path := range []string{"/stats", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var got struct{ Inflight, Queued int64 }
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Inflight != 1 || got.Queued != 1 {
			t.Errorf("%s: inflight %d, queued %d; want 1 and 1", path, got.Inflight, got.Queued)
		}
	}
	free()
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// blockingAdapter executes nothing: Execute returns once its context ends,
// with the context's error.
type blockingAdapter struct{ adapter.Adapter }

func (blockingAdapter) Execute(ctx context.Context, _ *ir.Node, _ []adapter.Value) (adapter.Value, adapter.ExecInfo, error) {
	<-ctx.Done()
	return adapter.Value{}, adapter.ExecInfo{}, ctx.Err()
}

// TestDeadlineExceeded: an execution that outlives the request's timeout_ms
// answers 504. The plan's one node blocks until the request's context ends,
// so the answer does not depend on machine load: a deadline timer that fires
// late still ends the execution with the deadline's error, never a 200.
func TestDeadlineExceeded(t *testing.T) {
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(blockingAdapter{adapter.NewKV("kv-slow", kvstore.New("kv-slow"))})
	ts := httptest.NewServer(New(rt, compiler.Options{}, Config{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(
		`{"frontend":"program","timeout_ms":1,"program":[{"id":"k","op":"kvscan","engine":"kv-slow","prefix":"user/"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, raw)
	}
}

func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	a := newAdmission(1, 4, noShed)
	if err := a.acquire(context.Background(), anonFlow); err != nil {
		t.Fatal(err)
	}
	defer a.release(0)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx, anonFlow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire = %v, want DeadlineExceeded", err)
	}
	if got := a.inflight(); got != 1 {
		t.Fatalf("inflight = %d after queue timeout, want 1", got)
	}
	if got := a.queueDepth(); got != 0 {
		t.Fatalf("queueDepth = %d after queue timeout, want 0", got)
	}
}

func TestAdmissionConcurrentChurn(t *testing.T) {
	a := newAdmission(4, 8, noShed)
	var wg sync.WaitGroup
	var admitted, rejected int64
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := a.acquire(context.Background(), anonFlow)
			mu.Lock()
			if err != nil {
				rejected++
			} else {
				admitted++
			}
			mu.Unlock()
			if err == nil {
				time.Sleep(time.Millisecond)
				a.release(0)
			}
		}()
	}
	wg.Wait()
	if admitted == 0 {
		t.Fatal("no request admitted")
	}
	if got := a.inflight(); got != 0 {
		t.Fatalf("inflight = %d after churn, want 0", got)
	}
}

// TestAdmissionFairInterleaving queues many waiters for a heavy tenant and a
// few for a light one behind a single busy worker, then drains grants one at
// a time. The ring must interleave grants 1:1 — the heavy tenant's backlog
// cannot starve the light tenant the way the old FIFO queue did.
func TestAdmissionFairInterleaving(t *testing.T) {
	a := newAdmission(1, 32, noShed)
	if err := a.acquire(context.Background(), anonFlow); err != nil {
		t.Fatal(err)
	}

	type grant struct {
		tenant string
		order  int
	}
	var mu sync.Mutex
	var grants []grant
	var wg sync.WaitGroup
	enqueue := func(ten string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := a.acquire(context.Background(), ten); err != nil {
					t.Errorf("%s acquire: %v", ten, err)
					return
				}
				mu.Lock()
				grants = append(grants, grant{tenant: ten, order: len(grants)})
				mu.Unlock()
				a.release(0)
			}()
		}
	}
	// Fill the heavy tenant's backlog first so FIFO order would drain all of
	// it before the light tenant gets a single grant.
	enqueue("heavy", 12)
	for a.queueDepth() < 12 {
		time.Sleep(time.Millisecond)
	}
	enqueue("light", 4)
	for a.queueDepth() < 16 {
		time.Sleep(time.Millisecond)
	}
	a.release(0) // open the single worker; grants now chain via release()
	wg.Wait()

	if len(grants) != 16 {
		t.Fatalf("got %d grants, want 16", len(grants))
	}
	// All four light grants must land in the first half of the schedule:
	// the ring alternates flows, so light finishes
	// by grant 8 even though 12 heavy waiters were queued ahead of it.
	lightLast := -1
	for _, g := range grants {
		if g.tenant == "light" {
			lightLast = g.order
		}
	}
	if lightLast > 8 {
		t.Fatalf("last light grant at position %d of 16; heavy backlog starved the light tenant", lightLast)
	}
	if got := a.inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

// TestAdmissionRoundRobinOrder pins the ring: behind one busy worker, three
// waiters of tenant a, three of b and one of c queue in that order, then one
// of d that is cancelled while queued. Each tenant takes one grant per
// round, oldest waiter first, so the grants come in exactly the order
// a, b, c, a, b, a, b; the cancelled waiter takes no turn, and its tenant
// leaves the ring.
func TestAdmissionRoundRobinOrder(t *testing.T) {
	a := newAdmission(1, 32, noShed)
	if err := a.acquire(context.Background(), anonFlow); err != nil {
		t.Fatal(err)
	}
	type waiter struct {
		tenant string
		err    chan error
		cancel context.CancelFunc
	}
	var waiters []waiter
	enqueue := func(ten string) waiter {
		ctx, cancel := context.WithCancel(context.Background())
		w := waiter{tenant: ten, err: make(chan error, 1), cancel: cancel}
		depth := a.queueDepth()
		go func() { w.err <- a.acquire(ctx, ten) }()
		// Queue one at a time, so arrival order is the order of this loop.
		for a.queueDepth() == depth {
			time.Sleep(100 * time.Microsecond)
		}
		waiters = append(waiters, w)
		return w
	}
	for _, ten := range []string{"a", "a", "a", "b", "b", "b", "c"} {
		enqueue(ten)
	}
	gone := enqueue("d")
	waiters = waiters[:len(waiters)-1]
	gone.cancel()
	if err := <-gone.err; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
	}

	// Release the worker one grant at a time and see who holds it next.
	var got []string
	for range waiters {
		a.release(0)
		granted := ""
		for granted == "" {
			for i, w := range waiters {
				select {
				case err := <-w.err:
					if err != nil {
						t.Fatalf("%s acquire: %v", w.tenant, err)
					}
					granted = w.tenant
					waiters[i].err = nil // a nil channel never receives again
				default:
				}
			}
		}
		got = append(got, granted)
	}
	if want := "a b c a b a b"; strings.Join(got, " ") != want {
		t.Fatalf("grant order = %v, want %s", got, want)
	}
	a.release(0)
	if n := a.inflight(); n != 0 {
		t.Fatalf("inflight = %d, want 0", n)
	}
	if n := a.queueDepth(); n != 0 {
		t.Fatalf("queueDepth = %d, want 0", n)
	}
}

// TestAdmissionCancellationStorm hammers the queue with acquires that cancel
// mid-wait, racing grants against cancellations under -race, and asserts no
// worker slot leaks: inflight returns to zero and the full worker count is
// still grantable afterwards.
func TestAdmissionCancellationStorm(t *testing.T) {
	const (
		workers    = 4
		queue      = 16
		goroutines = 128
		rounds     = 20
	)
	a := newAdmission(workers, queue, noShed)
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, goroutines)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(500)) * time.Microsecond
	}

	var admitted atomic.Int64
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), delays[i])
				defer cancel()
				err := a.acquire(ctx, fmt.Sprintf("t%d", i%3))
				if err == nil {
					admitted.Add(1)
					time.Sleep(50 * time.Microsecond)
					a.release(0)
				}
			}(i)
		}
		wg.Wait()
	}

	if got := a.inflight(); got != 0 {
		t.Fatalf("inflight = %d after storm, want 0 (slot leak)", got)
	}
	if got := a.queueDepth(); got != 0 {
		t.Fatalf("queueDepth = %d after storm, want 0", got)
	}
	// Every worker slot must still be grantable — a leaked slot would make
	// one of these block.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < workers; i++ {
		if err := a.acquire(ctx, anonFlow); err != nil {
			t.Fatalf("post-storm acquire %d: %v (leaked slot)", i, err)
		}
	}
	for i := 0; i < workers; i++ {
		a.release(0)
	}
	if admitted.Load() == 0 {
		t.Fatal("storm admitted nothing; test not exercising grant path")
	}
}

// shedAt asks a 4-worker, 6-slot controller (capacity 10) for its shed
// decision on one arrival at the given load; nil admits.
func shedAt(ctx context.Context, a *admission, running, queued int) *refusal {
	a.running = running
	return a.shedLocked(ctx, queued)
}

func TestShedderOrder(t *testing.T) {
	a := newAdmission(4, 6, 0.8)
	ctx := context.Background()
	// Below high water: admitted.
	if ref := shedAt(ctx, a, 4, 3); ref != nil {
		t.Fatalf("shed at 70%% load: %v", ref)
	}
	// At high water: shed.
	ref := shedAt(ctx, a, 4, 4)
	if ref == nil || ref.cause != causeShedCold || ref.status != 503 || ref.msg != "server: overloaded, cold work shed" {
		t.Fatalf("at 80%% = %+v", ref)
	}
	if got := ceilSecond(ref.retryAfter); got < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s floor", got)
	}
}

func TestShedderDeadlineAware(t *testing.T) {
	a := newAdmission(4, 96, 0.8)
	a.svc = 100 * time.Millisecond
	est := a.estWaitLocked(8) // 8 queued / 4 workers ~ 2 service times ~ 200ms
	if est < 100*time.Millisecond || est > 400*time.Millisecond {
		t.Fatalf("estWait = %v", est)
	}
	within := func(d time.Duration) context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		t.Cleanup(cancel)
		return ctx
	}
	// 50ms of budget left but ~200ms of queue ahead: shed regardless of the
	// load fraction.
	if ref := shedAt(within(50*time.Millisecond), a, 0, 8); ref == nil || ref.cause != causeShedDeadline {
		t.Fatalf("deadline verdict = %+v", ref)
	}
	// Plenty of budget: admitted.
	if ref := shedAt(within(5*time.Second), a, 0, 8); ref != nil {
		t.Fatalf("shed with ample budget: %+v", ref)
	}
	// No deadline: deadline shedding skipped.
	if ref := shedAt(context.Background(), a, 0, 8); ref != nil {
		t.Fatal("shed with unknown budget")
	}
}

func TestShedderDisabled(t *testing.T) {
	a := newAdmission(1, 9, noShed)
	a.svc = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if ref := shedAt(ctx, a, 1, 50); ref != nil {
		t.Fatalf("negative high water must disable shedding: %+v", ref)
	}
}

func TestShedderEWMAConverges(t *testing.T) {
	a := newAdmission(1, 0, noShed)
	finish := func(svc time.Duration) {
		t.Helper()
		if err := a.acquire(context.Background(), anonFlow); err != nil {
			t.Fatal(err)
		}
		a.release(svc)
	}
	finish(0) // a failed execution teaches nothing
	if got := a.serviceEWMA(); got != 0 {
		t.Fatalf("estimate before any success = %v", got)
	}
	finish(80 * time.Millisecond)
	if got := a.serviceEWMA(); got != 80*time.Millisecond {
		t.Fatalf("first observation = %v", got)
	}
	for i := 0; i < 100; i++ {
		finish(10 * time.Millisecond)
	}
	if got := a.serviceEWMA(); got > 15*time.Millisecond {
		t.Fatalf("EWMA did not converge down: %v", got)
	}
}
