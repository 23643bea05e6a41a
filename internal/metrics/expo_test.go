package metrics

import (
	"strings"
	"testing"
)

func TestWriteText(t *testing.T) {
	var sb strings.Builder
	WriteHeader(&sb, "core_nodes", "counter", "")
	WriteSample(&sb, "core_nodes", "", int64(7))
	WriteHeader(&sb, "tenant_requests_total", "counter", "Requests per tenant.")
	WriteSample(&sb, "tenant_requests_total", `tenant="a"`, 3)
	WriteSample(&sb, "server_queue_depth", "", 3.5)
	h := NewHistogram([]float64{0.1, 0.5})
	h.Observe(0.25)
	h.WriteProm(&sb, "lat_seconds", "Latency.")
	out := sb.String()
	for _, want := range []string{
		"# TYPE core_nodes counter\ncore_nodes 7\n",
		"# HELP tenant_requests_total Requests per tenant.\n# TYPE tenant_requests_total counter\ntenant_requests_total{tenant=\"a\"} 3\n",
		"server_queue_depth 3.5\n",
		"# HELP lat_seconds_p95 Latency.\n# TYPE lat_seconds_p95 gauge\nlat_seconds_p95 0.5\n",
		"# TYPE lat_seconds_count counter\nlat_seconds_count 1\n",
		"lat_seconds_sum 0.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# HELP core_nodes") {
		t.Error("empty help must not render a HELP line")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"core.nodes":          "core_nodes",
		"core.offloads.fpga0": "core_offloads_fpga0",
		"a..b//c":             "a_b_c",
		"9lives":              "_9lives",
		"ok_name":             "ok_name",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
