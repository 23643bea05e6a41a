package hw

import (
	"fmt"
	"math"

	"polystorepp/internal/tensor"
)

// KernelClass enumerates the operator kernels a Polystore++ deployment can
// offload (§III-A1: sort, filter/project, join phases, GEMM; §III-A3:
// serialization; §III-A4: adapter rule matching).
type KernelClass int

// Kernel classes.
const (
	KSort KernelClass = iota + 1
	KFilter
	KProject
	KHashBuild
	KHashProbe
	KGEMM
	KSerialize
	KDeserialize
	KWindowAgg
	KRuleMatch
	KKMeansAssign
)

var kernelClassNames = [...]string{
	KSort: "sort", KFilter: "filter", KProject: "project",
	KHashBuild: "hash-build", KHashProbe: "hash-probe", KGEMM: "gemm",
	KSerialize: "serialize", KDeserialize: "deserialize",
	KWindowAgg: "window-agg", KRuleMatch: "rule-match",
	KKMeansAssign: "kmeans-assign",
}

// String implements fmt.Stringer.
func (k KernelClass) String() string {
	if k >= KSort && int(k) < len(kernelClassNames) {
		return kernelClassNames[k]
	}
	return fmt.Sprintf("KernelClass(%d)", int(k))
}

// Work describes the size of one kernel invocation. Fill the fields the
// kernel class consumes: Items/Bytes for streaming kernels, M/K/N for GEMM.
type Work struct {
	Items int64
	Bytes int64
	M     int
	K     int
	N     int
}

// FLOPs returns the floating-point work implied by the shape fields.
func (w Work) FLOPs() int64 {
	switch {
	case w.M > 0 && w.K > 0 && w.N > 0:
		return tensor.FLOPsMatMul(w.M, w.K, w.N)
	default:
		return 0
	}
}

// lutCosts is the FPGA area demand per kernel class (§IV-A-d: a Polystore++
// system must allocate area and bandwidth on reconfigurable devices).
var lutCosts = map[KernelClass]int64{
	KSort:         420_000,
	KFilter:       60_000,
	KProject:      45_000,
	KHashBuild:    180_000,
	KHashProbe:    150_000,
	KSerialize:    90_000,
	KDeserialize:  95_000,
	KWindowAgg:    110_000,
	KRuleMatch:    70_000,
	KKMeansAssign: 200_000,
	KGEMM:         550_000,
}

// LUTCost returns the FPGA area demand of a kernel class.
func LUTCost(k KernelClass) int64 { return lutCosts[k] }

func log2(n int64) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// KernelCost returns the simulated busy cost of running one kernel
// invocation on the device, excluding transfers and reconfiguration (see
// Offload for the end-to-end cost). ErrUnsupported is returned when the
// device class has no implementation of the kernel.
func (d *Device) KernelCost(class KernelClass, w Work) (Cost, error) {
	cycles, err := d.kernelCycles(class, w)
	if err != nil {
		return Zero, err
	}
	return d.cyclesToCost(cycles), nil
}

// bwFloorCycles converts the device-memory streaming time of `bytes` into
// cycles — no kernel can beat the local memory system.
func (d *Device) bwFloorCycles(bytes int64) int64 {
	if d.MemBandwidth <= 0 {
		return 0
	}
	return int64(float64(bytes) / d.MemBandwidth * d.ClockHz)
}

func maxCycles(model, floor int64) int64 {
	if floor > model {
		return floor
	}
	return model
}

// kernelCycles is the per-(class, device-kind) cycle model. Constants are
// cycles-per-item/byte calibrations; see catalog.go for the philosophy.
// Streaming kernels on wide devices take the max of the compute model and
// the device-memory bandwidth floor.
func (d *Device) kernelCycles(class KernelClass, w Work) (int64, error) {
	lanes := float64(d.Lanes)
	switch d.Kind {
	case CPU:
		switch class {
		case KSort:
			// Comparison sort: ~1.5 cycles per item per log2(n) level.
			return int64(1.5 * float64(w.Items) * log2(w.Items)), nil
		case KFilter:
			// Row-at-a-time predicate evaluation with branches.
			return 8 * w.Items, nil
		case KProject:
			return w.Bytes / 2, nil
		case KHashBuild:
			return 12 * w.Items, nil
		case KHashProbe:
			return 10 * w.Items, nil
		case KGEMM:
			// 8 FLOPs/cycle (fused SIMD) on one core.
			return w.FLOPs() / 8, nil
		case KSerialize:
			return w.Bytes, nil // ~1 cycle/byte for binary encode
		case KDeserialize:
			return w.Bytes * 5 / 4, nil
		case KWindowAgg:
			return 4 * w.Items, nil
		case KRuleMatch:
			return 220 * w.Items, nil // tree-walk per IR node
		case KKMeansAssign:
			// Items distance evaluations of K dims × N centroids.
			return int64(float64(w.Items) * float64(w.K) * float64(w.N) * 3 / 4), nil
		}
	case GPU:
		switch class {
		case KSort:
			// Radix-partition sort across lanes; multiple passes over memory.
			model := int64(4*float64(w.Items)*log2(w.Items)/lanes) + 2000
			return maxCycles(model, 4*d.bwFloorCycles(w.Bytes)), nil
		case KFilter:
			model := int64(8*float64(w.Items)/lanes) + 1000
			return maxCycles(model, d.bwFloorCycles(w.Bytes)), nil
		case KHashBuild:
			model := int64(24*float64(w.Items)/lanes) + 1500
			return maxCycles(model, 2*d.bwFloorCycles(w.Bytes)), nil
		case KHashProbe:
			model := int64(20*float64(w.Items)/lanes) + 1500
			return maxCycles(model, 2*d.bwFloorCycles(w.Bytes)), nil
		case KGEMM:
			// 2 FLOPs per lane per cycle at 25% sustained efficiency.
			return int64(float64(w.FLOPs()) / (2 * lanes * 0.25)), nil
		case KKMeansAssign:
			model := int64(float64(w.Items)*float64(w.K)*float64(w.N)/lanes) + 2000
			return maxCycles(model, d.bwFloorCycles(w.Bytes)), nil
		}
	case FPGA:
		switch class {
		case KSort:
			// Streaming merge-sort tree: Lanes elements/cycle per pass, a
			// 16-way tree resolves 4 bits of order per pass.
			passes := max(math.Ceil(log2(w.Items)/4), 1)
			return int64(passes*float64(w.Items)/lanes) + 64, nil
		case KFilter, KProject:
			// Fully pipelined II=1 stream: Lanes elements per cycle.
			model := int64(float64(w.Items)/lanes) + 32
			return maxCycles(model, d.bwFloorCycles(w.Bytes)), nil
		case KSerialize, KDeserialize:
			// Byte-oriented pipeline: Lanes bytes/cycle.
			model := int64(float64(w.Bytes)/lanes) + 32
			return maxCycles(model, d.bwFloorCycles(w.Bytes)), nil
		case KWindowAgg:
			model := int64(float64(w.Items)/lanes) + 64
			return maxCycles(model, d.bwFloorCycles(w.Bytes)), nil
		case KRuleMatch:
			// Rule table encoded as a dataflow match network: 1 node/cycle.
			return w.Items + 16, nil
		case KHashBuild:
			return int64(2*float64(w.Items)/lanes) + 64, nil
		case KHashProbe:
			return int64(2*float64(w.Items)/lanes) + 64, nil
		case KKMeansAssign:
			// K×N MACs per item on a dedicated distance array (~8 MACs per
			// lane from DSP blocks), fully pipelined.
			return int64(float64(w.Items)*float64(w.K)*float64(w.N)/(lanes*8)) + 128, nil
		}
	case CGRA:
		switch class {
		case KSort:
			passes := max(math.Ceil(log2(w.Items)/3), 1)
			return int64(passes*float64(w.Items)/lanes) + 32, nil
		case KFilter, KProject:
			model := int64(float64(w.Items)/lanes) + 16
			return maxCycles(model, d.bwFloorCycles(w.Bytes)), nil
		case KGEMM:
			return int64(float64(w.FLOPs()) / (2 * lanes * float64(d.Cores) * 0.5)), nil
		case KWindowAgg:
			model := int64(float64(w.Items)/lanes) + 16
			return maxCycles(model, d.bwFloorCycles(w.Bytes)), nil
		case KKMeansAssign:
			return int64(float64(w.Items)*float64(w.K)*float64(w.N)/(lanes*float64(d.Cores))) + 64, nil
		}
	case ASIC:
		switch class {
		case KGEMM:
			// Systolic array: tile the output into 128×128 blocks; each block
			// streams K partial sums with a 2×128 pipeline fill.
			tilesM := (w.M + 127) / 128
			tilesN := (w.N + 127) / 128
			perTile := int64(w.K) + 256
			return int64(tilesM) * int64(tilesN) * perTile, nil
		}
	case NIC:
		switch class {
		case KSerialize, KDeserialize:
			// Inline scatter/gather DMA: line-rate, 8 bytes/cycle.
			return w.Bytes / 8, nil
		}
	}
	return 0, unsupported(class, d.Kind)
}

// unsupportedErrs holds one error per (device kind, kernel class) mismatch:
// runtime placement probes every accelerator for every kernel call and drops
// the refusals, so building one per probe would allocate on the hot path.
var unsupportedErrs = func() (errs [NIC + 1][len(kernelClassNames)]error) {
	for k := CPU; k <= NIC; k++ {
		for c := KSort; int(c) < len(kernelClassNames); c++ {
			errs[k][c] = fmt.Errorf("%w: %s on %s", ErrUnsupported, c, k)
		}
	}
	return errs
}()

// unsupported returns the error for running class on a device of kind.
func unsupported(class KernelClass, kind Kind) error {
	if kind >= CPU && kind <= NIC && class >= KSort && int(class) < len(kernelClassNames) {
		return unsupportedErrs[kind][class]
	}
	return fmt.Errorf("%w: %s on %s", ErrUnsupported, class, kind)
}

// hostCostErrs is HostCost's refusal per non-CPU device kind, built once for
// the same reason.
var hostCostErrs = func() (errs [NIC + 1]error) {
	for k := CPU; k <= NIC; k++ {
		errs[k] = fmt.Errorf("%w: HostCost on %s", ErrUnsupported, k)
	}
	return errs
}()

// OffloadCost is the end-to-end cost of offloading one kernel call to the
// device under the given deployment mode: reconfiguration (if the kernel is
// not loaded), input transfer, kernel, and output transfer. outBytes is the
// result size crossing back. It changes nothing, so placement compares
// devices with the formula Offload charges.
func (d *Device) OffloadCost(mode Mode, class KernelClass, w Work, outBytes int64) (Cost, error) {
	kc, err := d.KernelCost(class, w)
	if err != nil {
		return Zero, err
	}
	var total Cost
	switch mode {
	case Coprocessor:
		total = d.TransferCost(w.Bytes).AddSeq(kc).AddSeq(d.TransferCost(outBytes))
	case BumpInTheWire:
		// Data flows through the device on its way to the host anyway; the
		// device must keep line rate, so cost is max(kernel, line time).
		total = kc
		if line := d.TransferCost(w.Bytes); line.Seconds >= kc.Seconds {
			line.Cycles = kc.Cycles
			line.Joules += kc.Joules
			total = line
		}
	case Standalone:
		total = kc
	default:
		return Zero, fmt.Errorf("hw: invalid mode %d", int(mode))
	}
	if d.reconfigurable() && !d.HasKernel(class.String()) {
		total = d.reconfigCost().AddSeq(total)
	}
	return total, nil
}

// Offload charges one kernel call — exactly OffloadCost — and leaves the
// kernel loaded, so the next call pays no reconfiguration. It fails when the
// device's area budget cannot take the kernel.
func (d *Device) Offload(mode Mode, class KernelClass, w Work, outBytes int64) (Cost, error) {
	c, err := d.OffloadCost(mode, class, w, outBytes)
	if err != nil {
		return Zero, err
	}
	if d.reconfigurable() {
		if _, err := d.ConfigureKernel(class.String(), lutCosts[class]); err != nil {
			return Zero, err
		}
	}
	return c, nil
}

// reconfigurable reports whether kernels must be loaded before they run.
func (d *Device) reconfigurable() bool { return d.Kind == FPGA || d.Kind == CGRA }

// HostCost is KernelCost on a CPU device — the baseline path. Provided so
// call sites read symmetrically with Offload.
func (d *Device) HostCost(class KernelClass, w Work) (Cost, error) {
	if d.Kind != CPU {
		if d.Kind > CPU && d.Kind <= NIC {
			return Zero, hostCostErrs[d.Kind]
		}
		return Zero, fmt.Errorf("%w: HostCost on %s", ErrUnsupported, d.Kind)
	}
	return d.KernelCost(class, w)
}
