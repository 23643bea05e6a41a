package hw

import (
	"errors"
	"fmt"
	"sync"
)

// Kind identifies a device class from the paper's accelerator taxonomy
// (§II-B). Enums start at 1.
type Kind int

// Device classes.
const (
	CPU Kind = iota + 1
	GPU
	FPGA
	CGRA
	ASIC // fixed-function accelerators, e.g. a TPU-like systolic array
	NIC  // RDMA-capable network interface (bump-in-the-wire transport)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case GPU:
		return "gpu"
	case FPGA:
		return "fpga"
	case CGRA:
		return "cgra"
	case ASIC:
		return "asic"
	case NIC:
		return "nic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Mode is the accelerator deployment mode (§I / Najafi et al. taxonomy).
type Mode int

// Deployment modes.
const (
	// Standalone devices own the workload end to end (e.g. a TPU); no
	// per-call transfer is charged beyond initial placement.
	Standalone Mode = iota + 1
	// Coprocessor devices hang off the host PCIe; inputs and outputs cross
	// the link on every call.
	Coprocessor
	// BumpInTheWire devices sit on the data path between store and engine;
	// data flows through them anyway, so no extra transfer is charged, but
	// they are rate-limited by the line bandwidth.
	BumpInTheWire
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Standalone:
		return "standalone"
	case Coprocessor:
		return "coprocessor"
	case BumpInTheWire:
		return "bump-in-the-wire"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Spec is the static description of one device. All rates are per-second,
// all powers in watts.
type Spec struct {
	Name string
	Kind Kind
	// ClockHz is the device clock.
	ClockHz float64
	// Lanes is the SIMD width / number of processing elements working in
	// parallel (1 for a scalar CPU model core).
	Lanes int
	// Cores is the number of independent cores/compute units.
	Cores int
	// ActiveWatts is power drawn while busy; IdleWatts while idle.
	ActiveWatts float64
	IdleWatts   float64
	// MemBandwidth is the device-local memory bandwidth in bytes/sec (DRAM
	// for CPUs, HBM for GPUs, DDR for FPGA boards, unified buffer for
	// TPU-like ASICs). Streaming kernels cannot beat this floor.
	MemBandwidth float64
	// LinkBandwidth is the host<->device interface bandwidth in bytes/sec
	// (PCIe for coprocessors, line rate for bump-in-the-wire).
	LinkBandwidth float64
	// LinkLatency is the fixed per-transfer latency in seconds (driver call,
	// DMA setup, PCIe round trip).
	LinkLatency float64
	// ReconfigSeconds is the time to load a new kernel/bitstream: hours-scale
	// synthesis is assumed done offline; this is runtime (re)configuration
	// (large for FPGA, tiny for CGRA, zero for fixed-function).
	ReconfigSeconds float64
	// AreaLUTs is the reconfigurable-area budget for FPGA-like devices; 0
	// means not area-constrained.
	AreaLUTs int64
}

// ErrUnsupported reports a kernel/device mismatch.
var ErrUnsupported = errors.New("hw: kernel not supported on device")

// Device is a simulated device instance: an immutable Spec plus the table of
// kernels loaded onto a reconfigurable device. Costing a call reads the Spec
// alone (and, for OffloadCost, whether the kernel is loaded), so one Device
// is shared by every concurrent executor; mu guards only the
// kernel-configuration table.
type Device struct {
	Spec

	mu sync.Mutex
	// configured tracks the loaded kernels of reconfigurable devices (a
	// device region per kernel) so repeat calls do not pay reconfiguration
	// again. usedLUTs is the area consumed by loaded kernels.
	configured map[string]int64
	usedLUTs   int64
}

// NewDevice returns a device with the given spec.
func NewDevice(spec Spec) *Device { return &Device{Spec: spec} }

// cyclesToCost converts busy cycles on this device into a Cost, charging
// active power for the busy period.
func (d *Device) cyclesToCost(cycles int64) Cost {
	secs := float64(cycles) / d.ClockHz
	return Cost{
		Cycles:  cycles,
		Seconds: secs,
		Joules:  secs * d.ActiveWatts,
	}
}

// TransferCost models moving n bytes across the device link: fixed latency
// plus bandwidth time. Link energy is charged at the device's idle power
// (the DMA engine, not the compute array).
func (d *Device) TransferCost(bytes int64) Cost {
	if d.LinkBandwidth <= 0 {
		return Zero
	}
	secs := d.LinkLatency + float64(bytes)/d.LinkBandwidth
	return Cost{
		Seconds: secs,
		Joules:  secs * d.IdleWatts,
		Bytes:   bytes,
	}
}

// ConfigureKernel loads the named kernel into a free region of the device,
// charging partial-reconfiguration cost; already-loaded kernels are free.
// lutCost is the area demand for FPGA-like devices; the cumulative demand is
// validated against the budget (§IV-A-d: area allocation).
func (d *Device) ConfigureKernel(name string, lutCost int64) (Cost, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.configured == nil {
		d.configured = make(map[string]int64)
	}
	if _, loaded := d.configured[name]; loaded {
		return Zero, nil
	}
	if d.AreaLUTs > 0 && d.usedLUTs+lutCost > d.AreaLUTs {
		return Zero, fmt.Errorf("hw: kernel %q needs %d LUTs, device %q has %d of %d free",
			name, lutCost, d.Name, d.AreaLUTs-d.usedLUTs, d.AreaLUTs)
	}
	d.configured[name] = lutCost
	d.usedLUTs += lutCost
	return d.reconfigCost(), nil
}

// reconfigCost is the cost of loading one kernel: the device idles for
// ReconfigSeconds.
func (d *Device) reconfigCost() Cost {
	return Cost{Seconds: d.ReconfigSeconds, Joules: d.ReconfigSeconds * d.IdleWatts}
}

// HasKernel reports whether the named kernel is loaded.
func (d *Device) HasKernel(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.configured[name]
	return ok
}
