package hw

// The device catalog: calibrated specs for the accelerator classes the
// paper discusses. Numbers are order-of-magnitude calibrations against
// public figures (V100-class GPU, Stratix-class FPGA, TPUv1-class systolic
// ASIC, Plasticine-class CGRA, 100G RDMA NIC); experiments depend on the
// *relationships* between them (clock ratios, lane counts, link bandwidths,
// power ratios), not on any absolute value.

// NewHostCPU returns the host CPU model: one fast out-of-order core of a
// server-class part. Engine operators run here by default.
func NewHostCPU() *Device {
	return NewDevice(Spec{
		Name:         "cpu-server",
		Kind:         CPU,
		ClockHz:      3.0e9,
		Lanes:        4, // effective SIMD lanes for streaming ops
		Cores:        16,
		ActiveWatts:  150,
		IdleWatts:    60,
		MemBandwidth: 60e9,
		// No link: the host is where the data already lives.
	})
}

// NewGPU returns a V100-class GPU model: thousands of low-clocked lanes
// behind a PCIe link.
func NewGPU() *Device {
	return NewDevice(Spec{
		Name:          "gpu-hbm",
		Kind:          GPU,
		ClockHz:       1.4e9,
		Lanes:         5120,
		Cores:         80,
		ActiveWatts:   300,
		IdleWatts:     30,
		MemBandwidth:  900e9,
		LinkBandwidth: 12e9, // PCIe 3 x16 effective
		LinkLatency:   10e-6,
	})
}

// NewFPGA returns a Stratix-class FPGA model: modest clock, deeply pipelined
// streaming kernels, partial reconfiguration on kernel switch, and a finite
// LUT area budget (§IV-A-d).
func NewFPGA() *Device {
	return NewDevice(Spec{
		Name:            "fpga-stratix",
		Kind:            FPGA,
		ClockHz:         0.25e9,
		Lanes:           16, // elements consumed per cycle by a streaming kernel
		Cores:           1,
		ActiveWatts:     25,
		IdleWatts:       5,
		MemBandwidth:    38e9,
		LinkBandwidth:   12e9,
		LinkLatency:     5e-6,
		ReconfigSeconds: 0.025, // partial reconfiguration of one region; synthesis is offline
		AreaLUTs:        1_000_000,
	})
}

// NewCGRA returns a Plasticine-class CGRA model: FPGA-like pipelining at a
// higher clock with near-instant reconfiguration (§II-B).
func NewCGRA() *Device {
	return NewDevice(Spec{
		Name:            "cgra-plasticine",
		Kind:            CGRA,
		ClockHz:         1.0e9,
		Lanes:           64,
		Cores:           16,
		ActiveWatts:     50,
		IdleWatts:       10,
		MemBandwidth:    100e9,
		LinkBandwidth:   25e9,
		LinkLatency:     2e-6,
		ReconfigSeconds: 20e-6, // standard PEs reconfigure in microseconds
	})
}

// NewTPU returns a TPUv1-class systolic-array model for GEMM.
func NewTPU() *Device {
	return NewDevice(Spec{
		Name:          "tpu-systolic",
		Kind:          ASIC,
		ClockHz:       0.7e9,
		Lanes:         128 * 128, // MACs per cycle at full utilisation
		Cores:         1,
		ActiveWatts:   75,
		IdleWatts:     25,
		MemBandwidth:  600e9,
		LinkBandwidth: 14e9,
		LinkLatency:   10e-6,
	})
}

// NewRDMANIC returns a 100 Gb/s RDMA NIC model used by the data migrator to
// bypass the host network stack (§III-A3).
func NewRDMANIC() *Device {
	return NewDevice(Spec{
		Name:          "nic-rdma-100g",
		Kind:          NIC,
		ClockHz:       1.0e9,
		Lanes:         1,
		Cores:         1,
		ActiveWatts:   20,
		IdleWatts:     8,
		MemBandwidth:  12.5e9,
		LinkBandwidth: 12.5e9, // 100 Gb/s
		LinkLatency:   2e-6,
	})
}
