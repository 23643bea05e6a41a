package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"polystorepp/internal/adapter"
	"polystorepp/internal/compiler"
	"polystorepp/internal/core"
	"polystorepp/internal/hw"
	"polystorepp/internal/kvstore"
)

// freeLoopbackAddr returns a loopback address no listener holds: one the
// kernel picked for a listener that is closed again.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// post sends body to /query at addr and returns the status.
func post(addr, body string) (int, error) {
	resp, err := http.Post("http://"+addr+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestListenAndServeDrainsOnCancel: ListenAndServe serves on its address
// until its context is canceled, then drains. A request in flight when the
// context ends completes with 200, one arriving during the drain is refused
// with 503, and ListenAndServe returns nil once the drain is over.
func TestListenAndServeDrainsOnCancel(t *testing.T) {
	store := kvstore.New("kv-slow")
	store.Put("user/1", []byte("v"))
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rt := core.NewRuntime(hw.NewHostCPU())
	rt.Register(&mutatingAdapter{Adapter: adapter.NewKV("kv-slow", store), hook: func() {
		once.Do(func() { close(entered) })
		<-release
	}})
	s := New(rt, compiler.Options{}, Config{})
	free := sync.OnceFunc(func() { close(release) })
	defer free()

	addr := freeLoopbackAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- ListenAndServe(ctx, addr, s) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the server never listened on %s: %v", addr, err)
		}
	}

	body := `{"frontend":"program","program":[{"id":"k","op":"kvscan","engine":"kv-slow","prefix":"user/"}]}`
	slow := make(chan error, 1)
	go func() {
		code, err := post(addr, body)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("in-flight request: status %d, want 200", code)
		}
		slow <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the adapter")
	}
	cancel()
	for deadline := time.Now().Add(5 * time.Second); !s.draining.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never started draining")
		}
	}
	if code, err := post(addr, body); err != nil || code != http.StatusServiceUnavailable {
		t.Errorf("a request during the drain: status %d (%v), want 503", code, err)
	}
	select {
	case err := <-served:
		t.Fatalf("ListenAndServe returned %v with a request in flight", err)
	default:
	}
	free()
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ListenAndServe: %v, want nil after a drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after the drain")
	}
}

// TestListenAndServeAddressInUse: an address another listener holds fails
// ListenAndServe at once, with the bind error.
func TestListenAndServeAddressInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	s := New(core.NewRuntime(hw.NewHostCPU()), compiler.Options{}, Config{})
	if err := ListenAndServe(context.Background(), ln.Addr().String(), s); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("ListenAndServe on a bound address: %v, want EADDRINUSE", err)
	}
}
