package hw

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCostCombinators(t *testing.T) {
	a := Cost{Cycles: 10, Seconds: 1, Joules: 5, Bytes: 100}
	b := Cost{Cycles: 20, Seconds: 3, Joules: 7, Bytes: 50}

	seq := a.AddSeq(b)
	if seq.Seconds != 4 || seq.Cycles != 30 || seq.Joules != 12 || seq.Bytes != 150 {
		t.Fatalf("AddSeq = %+v", seq)
	}
	if a.Duration() != time.Second {
		t.Fatalf("Duration = %v", a.Duration())
	}
}

func TestCatalogSanity(t *testing.T) {
	names := map[string]bool{}
	for _, d := range []*Device{NewHostCPU(), NewGPU(), NewFPGA(), NewCGRA(), NewTPU(), NewRDMANIC()} {
		if names[d.Name] {
			t.Fatalf("two catalog devices are named %q", d.Name)
		}
		names[d.Name] = true
		if d.ClockHz <= 0 || d.ActiveWatts <= 0 {
			t.Fatalf("device %q has nonsense spec %+v", d.Name, d.Spec)
		}
	}
	if NewHostCPU().Kind != CPU || NewTPU().Kind != ASIC {
		t.Fatal("catalog kinds wrong")
	}
}

func TestKindAndModeStrings(t *testing.T) {
	if CPU.String() != "cpu" || NIC.String() != "nic" || Kind(99).String() == "" {
		t.Fatal("Kind.String broken")
	}
	if Coprocessor.String() != "coprocessor" || Mode(42).String() == "" {
		t.Fatal("Mode.String broken")
	}
	if KSort.String() != "sort" || KernelClass(99).String() == "" {
		t.Fatal("KernelClass.String broken")
	}
}

func TestTransferCost(t *testing.T) {
	gpu := NewGPU()
	c := gpu.TransferCost(12e9) // one second at link bandwidth
	if c.Seconds <= 1 || c.Seconds > 1.001 {
		t.Fatalf("transfer seconds = %v", c.Seconds)
	}
	if c.Bytes != 12e9 {
		t.Fatalf("transfer bytes = %d", c.Bytes)
	}
	cpu := NewHostCPU()
	if cpu.TransferCost(1000) != Zero {
		t.Fatal("host transfer should be free")
	}
}

func TestConfigureKernel(t *testing.T) {
	f := NewFPGA()
	c1, err := f.ConfigureKernel("sort", lutCosts[KSort])
	if err != nil {
		t.Fatal(err)
	}
	if c1.Seconds != f.ReconfigSeconds {
		t.Fatalf("first configure cost = %v", c1.Seconds)
	}
	c2, err := f.ConfigureKernel("sort", lutCosts[KSort])
	if err != nil || c2 != Zero {
		t.Fatalf("repeat configure should be free: %v %v", c2, err)
	}
	if !f.HasKernel("sort") || f.HasKernel("filter") {
		t.Fatal("HasKernel wrong")
	}
	// A second kernel fits alongside the first (multi-region device).
	if _, err := f.ConfigureKernel("filter", lutCosts[KFilter]); err != nil {
		t.Fatal(err)
	}
	if !f.HasKernel("sort") || !f.HasKernel("filter") {
		t.Fatal("loading filter evicted sort")
	}
	if _, err := f.ConfigureKernel("huge", f.AreaLUTs+1); err == nil {
		t.Fatal("over-budget kernel should fail")
	}
}

func TestKernelCostUnsupported(t *testing.T) {
	tpu := NewTPU()
	if _, err := tpu.KernelCost(KSort, Work{Items: 100}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("TPU sort: %v", err)
	}
	nic := NewRDMANIC()
	if _, err := nic.KernelCost(KGEMM, Work{M: 2, K: 2, N: 2}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("NIC gemm: %v", err)
	}
	if _, err := NewGPU().HostCost(KFilter, Work{Items: 1}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("HostCost on GPU: %v", err)
	}
}

// The central calibration property: for large streaming workloads the FPGA
// filter beats the CPU on compute, and the TPU crushes the CPU on GEMM.
func TestAcceleratorWinsAtScale(t *testing.T) {
	cpu, fpga, tpu := NewHostCPU(), NewFPGA(), NewTPU()
	w := Work{Items: 1 << 24, Bytes: 8 << 24}
	cf, err := cpu.KernelCost(KFilter, w)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := fpga.KernelCost(KFilter, w)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Seconds >= cf.Seconds {
		t.Fatalf("FPGA filter (%v) should beat CPU (%v) at 16M items", ff.Seconds, cf.Seconds)
	}
	g := Work{M: 2048, K: 2048, N: 2048, Bytes: 2 * 2048 * 2048 * 8}
	cg, err := cpu.KernelCost(KGEMM, g)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tpu.KernelCost(KGEMM, g)
	if err != nil {
		t.Fatal(err)
	}
	if tg.Seconds*50 > cg.Seconds {
		t.Fatalf("TPU GEMM (%v) should be >50x faster than CPU (%v)", tg.Seconds, cg.Seconds)
	}
}

// Small offloads must lose to the host — the LogCA overhead effect the
// kernel-selection pass depends on.
func TestSmallOffloadLoses(t *testing.T) {
	cpu, gpu := NewHostCPU(), NewGPU()
	w := Work{Items: 64, Bytes: 64 * 8}
	host, err := cpu.KernelCost(KFilter, w)
	if err != nil {
		t.Fatal(err)
	}
	off, err := gpu.Offload(Coprocessor, KFilter, w, w.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if off.Seconds <= host.Seconds {
		t.Fatalf("64-item GPU offload (%v) should lose to host (%v)", off.Seconds, host.Seconds)
	}
}

func TestOffloadModes(t *testing.T) {
	w := Work{Items: 1 << 20, Bytes: 8 << 20}
	co, err := NewFPGA().Offload(Coprocessor, KFilter, w, w.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := NewFPGA().Offload(BumpInTheWire, KFilter, w, w.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewFPGA().Offload(Standalone, KFilter, w, w.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if !(sa.Seconds < bw.Seconds && bw.Seconds < co.Seconds) {
		t.Fatalf("mode ordering violated: standalone=%v bump=%v coproc=%v", sa.Seconds, bw.Seconds, co.Seconds)
	}
	if _, err := NewFPGA().Offload(Mode(0), KFilter, w, 0); err == nil {
		t.Fatal("invalid mode should fail")
	}
}

// TestOffloadCostEqualsCharge holds placement and charging to one formula:
// what OffloadCost predicts is what Offload charges, to the bit, in every
// mode — with the reconfiguration when the kernel is not loaded yet, without
// it once it is — and predicting loads nothing.
func TestOffloadCostEqualsCharge(t *testing.T) {
	work := map[Kind]struct {
		class KernelClass
		w     Work
	}{
		// Under BumpInTheWire the FPGA's line time dominates its kernel (the
		// case where the estimate used to drop the reconfiguration), the
		// GPU's kernel its line time.
		FPGA: {KFilter, Work{Items: 1 << 10, Bytes: 8 << 10}},
		GPU:  {KGEMM, Work{M: 4096, K: 4096, N: 4096, Bytes: 2 * 4096 * 4096 * 8}},
		ASIC: {KGEMM, Work{M: 256, K: 128, N: 64, Bytes: (256*128 + 128*64) * 8}},
	}
	for _, mode := range []Mode{Standalone, Coprocessor, BumpInTheWire} {
		for _, newDev := range []func() *Device{NewFPGA, NewGPU, NewTPU} {
			d := newDev()
			k := work[d.Kind]
			var charges [2]Cost
			for i := range charges { // kernel not loaded, then loaded
				est, err := d.OffloadCost(mode, k.class, k.w, 4096)
				if err != nil {
					t.Fatal(err)
				}
				if loaded := d.HasKernel(k.class.String()); loaded != (i == 1 && d.Kind == FPGA) {
					t.Fatalf("%s/%s call %d: kernel loaded = %t after the estimate", d.Name, mode, i, loaded)
				}
				if charges[i], err = d.Offload(mode, k.class, k.w, 4096); err != nil {
					t.Fatal(err)
				}
				if est != charges[i] {
					t.Errorf("%s/%s call %d: estimate %v != charge %v", d.Name, mode, i, est, charges[i])
				}
			}
			if paid := charges[0].Seconds - charges[1].Seconds; (d.Kind == FPGA) != (paid > 0.99*d.ReconfigSeconds && paid > 0) {
				t.Errorf("%s/%s: first call paid %vs over the second, reconfiguration is %vs", d.Name, mode, paid, d.ReconfigSeconds)
			}
		}
	}
}

func TestReconfigChargedOncePerKernel(t *testing.T) {
	f := NewFPGA()
	w := Work{Items: 1 << 10, Bytes: 8 << 10}
	first, err := f.Offload(Coprocessor, KFilter, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Offload(Coprocessor, KFilter, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Seconds <= second.Seconds {
		t.Fatalf("first call should pay reconfig: %v vs %v", first.Seconds, second.Seconds)
	}
	if diff := first.Seconds - second.Seconds; diff < f.ReconfigSeconds*0.99 {
		t.Fatalf("reconfig delta = %v, want ~%v", diff, f.ReconfigSeconds)
	}
	// Switching kernels pays reconfiguration again.
	third, err := f.Offload(Coprocessor, KSort, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if third.Seconds < f.ReconfigSeconds {
		t.Fatalf("kernel switch should pay reconfig: %v", third.Seconds)
	}
}

func TestLogCABasics(t *testing.T) {
	m := LogCA{O: 1e-5, L: 1e-10, C: 1e-9, Beta: 1, A: 16}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tiny granularity: overhead dominates, speedup < 1.
	if s := m.Speedup(16); s >= 1 {
		t.Fatalf("speedup(16B) = %v, want < 1", s)
	}
	// Huge granularity: approaches the limit.
	limit := m.SpeedupLimit()
	if s := m.Speedup(1e12); s < 0.95*limit {
		t.Fatalf("speedup(1e12) = %v, limit %v", s, limit)
	}
	g1, err := m.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	// Closed form for beta=1: g1 = O / (C(1-1/A) - L).
	want := m.O / (m.C*(1-1/m.A) - m.L)
	if g1 < want*0.99 || g1 > want*1.01 {
		t.Fatalf("BreakEven = %v, closed form %v", g1, want)
	}
	gh, err := m.GHalf()
	if err != nil {
		t.Fatal(err)
	}
	if gh <= g1 {
		t.Fatalf("gHalf (%v) must exceed g1 (%v)", gh, g1)
	}
	if s := m.Speedup(gh); s < 0.49*limit || s > 0.51*limit {
		t.Fatalf("speedup(gHalf) = %v, want ~%v", s, limit/2)
	}
}

func TestLogCAUnreachable(t *testing.T) {
	// Link slower than host compute: offload never profitable.
	m := LogCA{O: 1e-5, L: 1e-6, C: 1e-9, Beta: 1, A: 100}
	if _, err := m.BreakEven(); !errors.Is(err, ErrModel) {
		t.Fatalf("want ErrModel, got %v", err)
	}
	bad := LogCA{O: -1, L: 0, C: 1, Beta: 1, A: 2}
	if err := bad.Validate(); !errors.Is(err, ErrModel) {
		t.Fatalf("validate: %v", err)
	}
}

func TestDeriveLogCA(t *testing.T) {
	cpu, fpga := NewHostCPU(), NewFPGA()
	m, err := DeriveLogCA(cpu, fpga, KFilter)
	if err != nil {
		t.Fatal(err)
	}
	if m.A <= 1 {
		t.Fatalf("derived A = %v, want > 1", m.A)
	}
	g1, err := m.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	if g1 <= 0 || g1 > 1e9 {
		t.Fatalf("implausible break-even %v bytes", g1)
	}
	if _, err := DeriveLogCA(fpga, cpu, KFilter); !errors.Is(err, ErrModel) {
		t.Fatalf("non-CPU host: %v", err)
	}
}

func TestRoofline(t *testing.T) {
	r := Roofline{PeakFLOPS: 100, MemBW: 10}
	if got := r.Ridge(); got != 10 {
		t.Fatalf("ridge = %v", got)
	}
	if got := r.Attainable(1); got != 10 {
		t.Fatalf("attainable(1) = %v", got)
	}
	if got := r.Attainable(100); got != 100 {
		t.Fatalf("attainable(100) = %v", got)
	}
	if !r.ComputeBound(20) || r.ComputeBound(5) {
		t.Fatal("ComputeBound misclassifies")
	}
}

func TestMeasureRoofline(t *testing.T) {
	tpu := NewTPU()
	w := Work{M: 1024, K: 1024, N: 1024, Bytes: 3 * 1024 * 1024 * 8}
	p, err := MeasureRoofline(tpu, KGEMM, w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Achieved <= 0 || p.Attain <= 0 {
		t.Fatalf("roofline point %+v", p)
	}
	// The cycle model must never beat the roofline ceiling by more than
	// pipeline-fill slack.
	if p.Achieved > p.Attain*1.05 {
		t.Fatalf("achieved %v exceeds ceiling %v", p.Achieved, p.Attain)
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: offload cost is monotonically non-decreasing in work size.
func TestPropertyOffloadMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := int64(rng.Intn(1<<18) + 1)
		n2 := n1 + int64(rng.Intn(1<<18)+1)
		g := NewGPU()
		c1, err := g.Offload(Coprocessor, KFilter, Work{Items: n1, Bytes: n1 * 8}, 0)
		if err != nil {
			return false
		}
		c2, err := g.Offload(Coprocessor, KFilter, Work{Items: n2, Bytes: n2 * 8}, 0)
		if err != nil {
			return false
		}
		return c2.Seconds >= c1.Seconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: LogCA speedup is monotone increasing in granularity.
func TestPropertyLogCAMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := LogCA{
			O:    1e-6 * (1 + rng.Float64()*100),
			L:    1e-11 * (1 + rng.Float64()*100),
			C:    1e-10 * (1 + rng.Float64()*100),
			Beta: 1 + rng.Float64()*0.2,
			A:    2 + rng.Float64()*100,
		}
		prev := 0.0
		for g := 1.0; g < 1e12; g *= 10 {
			s := m.Speedup(g)
			if s+1e-12 < prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
