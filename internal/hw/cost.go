// Package hw simulates the hardware accelerators a Polystore++ deployment
// offloads work to (§II-B, §III-A of the paper): GPUs, FPGAs, CGRAs,
// TPU-like ASICs and RDMA NICs, alongside the host CPUs.
//
// Real hardware is not available in this reproduction, so every device is a
// calibrated analytic model: the engines execute the *real* computation on
// the host and report it as kernel calls (class and work size), and the
// package charges *simulated* time and energy derived from the device's
// clock, parallelism, pipeline and interface parameters. The package also
// implements the two analytic performance models the paper leans on: LogCA
// (Altaf & Wood) for offload profitability and the Roofline model for
// compute/bandwidth ceilings.
//
// Simulated cost is kept strictly separate from host wall-clock time: all
// quantities flow through the Cost type.
package hw

import (
	"fmt"
	"time"
)

// Cost is the simulated expense of an operation on a device: busy cycles on
// that device, wall-clock seconds of simulated time, energy in joules, and
// bytes moved over the device interface.
type Cost struct {
	Cycles  int64
	Seconds float64
	Joules  float64
	Bytes   int64
}

// Zero is the no-op cost.
var Zero = Cost{}

// AddSeq composes costs of operations executed one after another.
func (c Cost) AddSeq(o Cost) Cost {
	return Cost{
		Cycles:  c.Cycles + o.Cycles,
		Seconds: c.Seconds + o.Seconds,
		Joules:  c.Joules + o.Joules,
		Bytes:   c.Bytes + o.Bytes,
	}
}

// Duration converts simulated seconds to a time.Duration for reporting.
func (c Cost) Duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// String implements fmt.Stringer.
func (c Cost) String() string {
	return fmt.Sprintf("{%.3gs %.3gJ %d cycles %dB}", c.Seconds, c.Joules, c.Cycles, c.Bytes)
}
