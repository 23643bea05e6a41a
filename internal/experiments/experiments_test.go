package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"polystorepp/internal/core"
	"polystorepp/internal/hw"
)

// parseSecs extracts the float from a "%fs" cell.
func parseSecs(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		t.Fatalf("bad seconds cell %q: %v", cell, err)
	}
	return v
}

func TestE01OrderingHolds(t *testing.T) {
	tab := E01Recommendation(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	osfa := parseSecs(t, tab.Rows[0][1])
	poly := parseSecs(t, tab.Rows[1][1])
	pp := parseSecs(t, tab.Rows[2][1])
	if !(osfa > poly && poly > pp) {
		t.Fatalf("ordering violated: osfa=%v poly=%v pp=%v", osfa, poly, pp)
	}
}

func TestE02AccelWins(t *testing.T) {
	tab := E02Clinical(1)
	cpu := parseSecs(t, tab.Rows[0][1])
	acc := parseSecs(t, tab.Rows[1][1])
	if acc >= cpu {
		t.Fatalf("accelerated clinical pipeline (%v) should beat CPU (%v)", acc, cpu)
	}
	if tab.Rows[0][4] != tab.Rows[1][4] {
		t.Fatalf("prediction row counts differ: %v vs %v", tab.Rows[0][4], tab.Rows[1][4])
	}
}

func TestE03LoadShareShrinks(t *testing.T) {
	tab := E03Snorkel(1)
	base := parseSecs(t, tab.Rows[0][3])
	best := parseSecs(t, tab.Rows[2][3])
	if best >= base {
		t.Fatalf("offloaded epoch (%v) should beat CPU epoch (%v)", best, base)
	}
}

func TestE04AcceleratedPathWins(t *testing.T) {
	tab := E04CrossDBJoin(1)
	baseline := parseSecs(t, tab.Rows[0][1])
	accel := parseSecs(t, tab.Rows[1][1])
	if accel >= baseline {
		t.Fatalf("accelerated cross-DB join (%v) should beat baseline (%v)", accel, baseline)
	}
	if tab.Rows[0][4] != tab.Rows[1][4] {
		t.Fatalf("row counts differ: %v vs %v", tab.Rows[0][4], tab.Rows[1][4])
	}
}

func TestE05Crossover(t *testing.T) {
	tab := E05ScanOffload(1)
	// FPGA bump-in-the-wire filtering beats the host at every selectivity
	// for this item count (it processes at line rate).
	for _, row := range tab.Rows {
		cpu := parseSecs(t, row[1])
		fpga := parseSecs(t, row[2])
		if fpga >= cpu {
			t.Fatalf("selectivity %s: fpga %v >= cpu %v", row[0], fpga, cpu)
		}
	}
}

func TestE06TransportOrdering(t *testing.T) {
	tab := E06Migration(1)
	// For each size: sim(csv) > sim(pipe) > sim(rdma).
	bySize := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		size := row[0]
		if bySize[size] == nil {
			bySize[size] = map[string]float64{}
		}
		bySize[size][row[1]] = parseSecs(t, row[5])
	}
	for size, m := range bySize {
		if !(m["csv"] > m["pipe"] && m["pipe"] > m["rdma"]) {
			t.Fatalf("size %s: transport ordering violated: %+v", size, m)
		}
		if m["pipe+fpga-serdes"] >= m["pipe"] {
			t.Fatalf("size %s: fpga serdes did not help: %+v", size, m)
		}
	}
}

func TestE07AllNodesExecuted(t *testing.T) {
	tab := E07HeteroDFG(1)
	kinds := map[string]bool{}
	for _, row := range tab.Rows {
		kinds[row[1]] = true
	}
	for _, want := range []string{"graph-match", "hash-join", "group-by", "sort", "kmeans", "migrate"} {
		if !kinds[want] {
			t.Fatalf("missing op %q in E7 schedule: %v", want, kinds)
		}
	}
}

func TestE08LadderMonotone(t *testing.T) {
	tab := E08OptLevels(1)
	prev := parseSecs(t, tab.Rows[0][1])
	for _, row := range tab.Rows[1:] {
		cur := parseSecs(t, row[1])
		if cur > prev*1.02 { // small tolerance: L2 may equal L1 on this plan
			t.Fatalf("ladder not monotone at %s: %v -> %v", row[0], prev, cur)
		}
		prev = cur
	}
	last := parseSecs(t, tab.Rows[len(tab.Rows)-1][1])
	first := parseSecs(t, tab.Rows[0][1])
	if first/last < 1.5 {
		t.Fatalf("L0->L3+accel speedup only %.2fx", first/last)
	}
}

func TestE09DevicesAgreeAndAccelerate(t *testing.T) {
	tab := E09KMeans(1)
	inertia := tab.Rows[0][5]
	cpu := parseSecs(t, tab.Rows[0][1])
	for _, row := range tab.Rows[1:] {
		if row[5] != inertia {
			t.Fatalf("device changed clustering: %v vs %v", row[5], inertia)
		}
		if parseSecs(t, row[1]) >= cpu {
			t.Fatalf("%s did not beat cpu", row[0])
		}
	}
}

func TestE10ActiveLearningBeatsRandom(t *testing.T) {
	tab := E10ActiveLearningDSE(1)
	parsePct := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad pct %q", cell)
		}
		return v
	}
	random := parsePct(tab.Rows[0][3])
	active := parsePct(tab.Rows[1][3])
	if active < random {
		t.Fatalf("active learning (%v%%) below random (%v%%)", active, random)
	}
	if active < 70 {
		t.Fatalf("active learning found only %v%% of true front HV", active)
	}
}

func TestE11AcceleratorsWin(t *testing.T) {
	tab := E11Operators(1)
	wins := 0
	for _, row := range tab.Rows {
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "x"), 64)
		if err != nil {
			t.Fatalf("bad speedup %q", row[4])
		}
		if sp > 1 {
			wins++
		}
	}
	if wins < len(tab.Rows)/2 {
		t.Fatalf("only %d/%d offloads profitable at 1M+ items", wins, len(tab.Rows))
	}
	// A row for every pair the device implements: one kernel's area may not
	// crowd another out of the table.
	rows := map[[2]string]bool{}
	for _, row := range tab.Rows {
		rows[[2]string{row[0], row[1]}] = true
	}
	for _, k := range []hw.KernelClass{hw.KSort, hw.KFilter, hw.KHashBuild, hw.KGEMM, hw.KWindowAgg} {
		for _, d := range []*hw.Device{hw.NewGPU(), hw.NewFPGA(), hw.NewCGRA(), hw.NewTPU()} {
			_, err := d.KernelCost(k, hw.Work{Items: 1 << 20, Bytes: 8 << 20, M: 64, K: 64, N: 64})
			if errors.Is(err, hw.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !rows[[2]string{k.String(), d.Name}] {
				t.Errorf("E11 has no row for %s on %s, which implements it", k, d.Name)
			}
		}
	}
}

func TestE12RuleOffload(t *testing.T) {
	tab := E12AdapterOffload(1)
	cpu := parseSecs(t, tab.Rows[0][2])
	fpga := parseSecs(t, tab.Rows[1][2])
	if fpga >= cpu {
		t.Fatalf("fpga rule matching (%v) should beat cpu (%v)", fpga, cpu)
	}
}

func TestE13PipelineSpeedupGrows(t *testing.T) {
	tab := E13Pipelining(1)
	var prev float64
	for _, row := range tab.Rows {
		sp, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if sp < prev {
			t.Fatalf("pipeline speedup shrank: %v after %v", sp, prev)
		}
		prev = sp
	}
	if prev < 1.5 {
		t.Fatalf("max pipeline speedup only %vx", prev)
	}
}

func TestE14ModelsSane(t *testing.T) {
	tab := E14Models(1)
	if len(tab.Rows) < 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		ach, _ := strconv.ParseFloat(row[3], 64)
		ceil, _ := strconv.ParseFloat(row[4], 64)
		if ach > ceil*1.05 {
			t.Fatalf("%s/%s achieved %v above ceiling %v", row[0], row[1], ach, ceil)
		}
	}
	logcaNotes := 0
	for _, n := range tab.Notes {
		if strings.HasPrefix(n, "logca") {
			logcaNotes++
		}
	}
	if logcaNotes != 3 {
		t.Fatalf("logca notes = %d", logcaNotes)
	}
}

func TestE15TextualBlowup(t *testing.T) {
	tab := E15WeightFormats(1)
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio <= 1.5 {
			t.Fatalf("textual blow-up only %vx", ratio)
		}
	}
}

func TestByIDAndTableString(t *testing.T) {
	fn, ok := ByID("E5")
	if !ok {
		t.Fatal("ByID(E5) missing")
	}
	tab := fn(1)
	s := tab.String()
	if !strings.Contains(s, "E5") || !strings.Contains(s, "selectivity") {
		t.Fatalf("table render:\n%s", s)
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should miss")
	}
}

// TestCounterFailsOnUnknownName: E12 reads its rule-node count by declared
// name, and a name the runtime does not declare stops the run rather than
// reading 0.
func TestCounterFailsOnUnknownName(t *testing.T) {
	rt := core.NewRuntime(hw.NewHostCPU())
	if n := counter(rt, "core.rule_nodes"); n != 0 {
		t.Fatalf("core.rule_nodes = %d on a fresh runtime", n)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "core.rule_node") {
			t.Fatalf("recovered %v, want a panic naming the missing counter", r)
		}
	}()
	counter(rt, "core.rule_node")
	t.Fatal("an undeclared name read as a value")
}
