package tenant

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestFromHTTP(t *testing.T) {
	cases := []struct {
		header string
		want   string
	}{
		{"", Anon},
		{"alice", "alice"},
		{"team-7.staging_x", "team-7.staging_x"},
		{"bad tenant!", Invalid},
		{"{\"x\":1}", Invalid},
		{string(make([]byte, MaxIDLen+1)), Invalid},
	}
	for _, c := range cases {
		r, _ := http.NewRequest(http.MethodPost, "/query", nil)
		if c.header != "" {
			r.Header.Set(Header, c.header)
		}
		if got := FromHTTP(r); got != c.want {
			t.Errorf("FromHTTP(%q) = %q, want %q", c.header, got, c.want)
		}
	}
}

func TestBucketRefill(t *testing.T) {
	b := NewBucket(10, 2) // 10/s, burst 2
	now := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(now); !ok {
			t.Fatalf("burst take %d rejected", i)
		}
	}
	ok, retry := b.Allow(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > 150*time.Millisecond {
		t.Fatalf("retryAfter = %v, want ~100ms", retry)
	}
	// One token refills after 100ms at rate 10/s.
	if ok, _ := b.Allow(now.Add(110 * time.Millisecond)); !ok {
		t.Fatal("refilled bucket rejected")
	}
	// Refill never exceeds burst: after a long idle gap only 2 tokens exist.
	later := now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(later); !ok {
			t.Fatalf("post-idle take %d rejected", i)
		}
	}
	if ok, _ := b.Allow(later); ok {
		t.Fatal("burst cap not enforced after idle")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := b.Allow(time.Now()); !ok {
			t.Fatal("unlimited bucket rejected")
		}
	}
	var nilBucket *Bucket
	if ok, _ := nilBucket.Allow(time.Now()); !ok {
		t.Fatal("nil bucket must admit")
	}
}

func TestParseQuotas(t *testing.T) {
	m, err := ParseQuotas("alice=100:200,bob=5:5")
	if err != nil {
		t.Fatal(err)
	}
	if q := m["alice"]; q.Rate != 100 || q.Burst != 200 {
		t.Fatalf("alice = %+v", q)
	}
	if q := m["bob"]; q.Rate != 5 || q.Burst != 5 {
		t.Fatalf("bob = %+v", q)
	}
	// Any field count but two is refused, naming the entry.
	for _, bad := range []string{"=1:2", "a b=1:2", "x=1", "x=1:2:3", "x=1:2:3:4", "x=y:2"} {
		if _, err := ParseQuotas(bad); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("ParseQuotas(%q) = %v, want an error naming the entry", bad, err)
		}
	}
	if m, err := ParseQuotas("  "); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}
}

// TestParseQuotasRejectsNonFinite: NaN or an infinity in any field is refused
// and the error names the field. A NaN rate made the bucket refuse every
// request with a negative Retry-After.
func TestParseQuotasRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ spec, field string }{
		{"a=NaN:5", "rate"},
		{"a=+Inf:5", "rate"},
		{"a=-Inf:5", "rate"},
		{"a=5:NaN", "burst"},
		{"a=5:Inf", "burst"},
		{"a=5:-infinity", "burst"},
		{"ok=1:1,a=nan:5", "rate"},
	} {
		_, err := ParseQuotas(tc.spec)
		if err == nil || !strings.Contains(err.Error(), "bad "+tc.field) {
			t.Errorf("ParseQuotas(%q) = %v, want an error naming the %s", tc.spec, err, tc.field)
		}
	}
}

func TestContextTenant(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != Anon {
		t.Fatal("unset context must resolve to Anon")
	}
	if got := From(With(ctx, "alice")); got != "alice" {
		t.Fatalf("From = %q", got)
	}
	if got := From(With(ctx, "")); got != Anon {
		t.Fatalf("empty id From = %q", got)
	}
}
