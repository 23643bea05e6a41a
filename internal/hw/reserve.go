package hw

import "sync"

// Reservations is the simulated-clock device-reservation ledger for one plan
// execution: it tracks, per device, the earliest simulated time the device is
// free again, and books kernel invocations onto it. The executor used to keep
// this as a private map inside its scheduling loop; it is an explicit API so
// a concurrent executor can share one ledger across goroutines race-free.
//
// Reservation order determines contention outcomes: two kernels wanting the
// same busy device are serialized in the order Reserve is called. Schedulers
// that need deterministic reports must therefore call Reserve in a
// deterministic order (the runtime costs nodes in topological order).
type Reservations struct {
	mu   sync.Mutex
	free map[*Device]float64
}

// NewReservations returns an empty ledger; every device is free at time 0.
func NewReservations() *Reservations {
	return &Reservations{free: make(map[*Device]float64)}
}

// Reserve books seconds of exclusive time on d starting no earlier than
// earliest, and no earlier than the device's previous reservations end. It
// returns the booked interval.
func (r *Reservations) Reserve(d *Device, earliest, seconds float64) (start, finish float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start = earliest
	if f := r.free[d]; f > start {
		start = f
	}
	finish = start + seconds
	r.free[d] = finish
	return start, finish
}
