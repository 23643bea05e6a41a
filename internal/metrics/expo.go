package metrics

import (
	"fmt"
	"io"
	"strings"
)

// WriteHeader opens one metric family in the Prometheus text exposition
// format (version 0.0.4): a `# HELP` line when help is non-empty, then
// `# TYPE`. Every exposition the repository emits goes through WriteHeader
// and WriteSample, so there is one spelling of the format.
func WriteHeader(w io.Writer, family, typ, help string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", family, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", family, typ)
}

// WriteSample writes one sample of a family; labels is the rendered label
// set without braces (`tenant="a"`), empty for an unlabelled family. value
// is any integer or float.
func WriteSample(w io.Writer, family, labels string, value any) {
	if labels != "" {
		family += "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s %v\n", family, value)
}

// WriteProm renders the histogram as five families under name: _count and
// _sum counters plus _p50/_p95/_p99 gauges, in the unit observed.
func (h *Histogram) WriteProm(w io.Writer, name, help string) {
	n, sum := h.Snapshot()
	for _, f := range []struct {
		suffix, typ string
		value       any
	}{
		{"_count", "counter", n},
		{"_p50", "gauge", h.Quantile(0.50)},
		{"_p95", "gauge", h.Quantile(0.95)},
		{"_p99", "gauge", h.Quantile(0.99)},
		{"_sum", "counter", sum},
	} {
		WriteHeader(w, name+f.suffix, f.typ, help)
		WriteSample(w, name+f.suffix, "", f.value)
	}
}

// SanitizeMetricName maps a declared stat name onto the exposition
// alphabet: runs of characters outside [a-zA-Z0-9_] become single
// underscores, and a leading digit gets an underscore prefix — hierarchical
// names ("core.subplan.hits", "core.offloads.fpga-stratix") become flat
// families ("core_subplan_hits", "core_offloads_fpga_stratix").
func SanitizeMetricName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name) + 1)
	prevUnderscore := false
	for i, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if i == 0 && c >= '0' && c <= '9' {
			sb.WriteByte('_')
		}
		if ok {
			sb.WriteRune(c)
			prevUnderscore = c == '_'
			continue
		}
		if !prevUnderscore {
			sb.WriteByte('_')
			prevUnderscore = true
		}
	}
	return sb.String()
}
