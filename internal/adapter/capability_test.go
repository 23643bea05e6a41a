package adapter

import (
	"context"
	"strings"
	"testing"

	"polystorepp/internal/backend"
	"polystorepp/internal/ir"
	"polystorepp/internal/kvstore"
)

// TestKVPrefixScanCapabilityFallback pins capability negotiation at the
// adapter seam: when the negotiated capabilities withhold PrefixScan, the KV
// adapter must compensate with a full scan plus client-side filtering and
// return exactly the rows a pushdown-capable backend returns — only the
// ExecInfo.Native string may differ, so operators can see which plan ran.
func TestKVPrefixScanCapabilityFallback(t *testing.T) {
	seed := func() *kvstore.Store {
		s := kvstore.New("kv")
		s.Put("user/1", []byte("a"))
		s.Put("user/2", []byte("b"))
		s.Put("other/1", []byte("c"))
		return s
	}
	scan := &ir.Node{Kind: ir.OpKVScan, Engine: "kv", Attrs: map[string]any{"prefix": "user/"}}

	native := NewKV("kv", seed())
	offered := backend.Full()
	offered.PrefixScan = false
	fallback := NewKVWithCapabilities("kv", seed(), offered)
	if fallback.caps.PrefixScan {
		t.Fatal("negotiation granted PrefixScan the backend never offered")
	}

	nv, ni, err := native.Execute(context.Background(), scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	fv, fi, err := fallback.Execute(context.Background(), scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Rows() != 2 || fv.Rows() != 2 {
		t.Fatalf("rows: native %d fallback %d, want 2", nv.Rows(), fv.Rows())
	}
	for i := 0; i < nv.Rows(); i++ {
		nr, _ := nv.Batch.Row(i)
		fr, _ := fv.Batch.Row(i)
		if len(nr) != len(fr) || nr[0] != fr[0] || nr[1] != fr[1] {
			t.Fatalf("row %d diverged: native %v fallback %v", i, nr, fr)
		}
	}
	if !strings.Contains(ni.Native, "ScanPrefix") {
		t.Fatalf("native path reports %q, want a ScanPrefix pushdown", ni.Native)
	}
	if !strings.Contains(fi.Native, "filter") {
		t.Fatalf("fallback path reports %q, want a full-scan+filter plan", fi.Native)
	}
}
