package experiments

import (
	"math/rand"

	"polystorepp/internal/adapter"
	"polystorepp/internal/core"
	"polystorepp/internal/datagen"
	"polystorepp/internal/graphstore"
	"polystorepp/internal/hw"
	"polystorepp/internal/mlengine"
	"polystorepp/internal/relational"
	"polystorepp/internal/tensor"
)

// must returns v, panicking on err; check panics on err. The experiments
// run fixed tables, kernels and programs, so an error in one is a bug in
// this repository, not an input to recover from: it stops the run with a
// stack instead of a line on stderr.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// counter reads the runtime counter declared under name; a name the runtime
// does not declare stops the run instead of reading 0.
func counter(rt *core.Runtime, name string) int64 {
	for _, st := range rt.Stats() {
		if st.Name == name && st.Counter != nil {
			return st.Counter.Value()
		}
	}
	panic("experiments: the runtime declares no counter " + name)
}

// registerClinical wires the clinical dataset's engines into a runtime.
func registerClinical(rt *core.Runtime, data *datagen.Clinical) {
	b := data.Binding()
	rt.Register(adapter.NewRelational(b.Relational, relational.NewEngine(data.Relational)))
	rt.Register(adapter.NewTimeseries(b.Timeseries, data.Timeseries))
	rt.Register(adapter.NewText(b.Text, data.Text))
	rt.Register(adapter.NewML(b.ML, 7))
}

// clinicalRuntime builds a runtime over the clinical dataset, optionally
// with the standard accelerator pool.
func clinicalRuntime(data *datagen.Clinical, accel bool) *core.Runtime {
	var opts []core.Option
	if accel {
		opts = append(opts, core.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	}
	rt := core.NewRuntime(hw.NewHostCPU(), opts...)
	registerClinical(rt, data)
	return rt
}

// registerRetail wires the retail dataset plus a warehouse store.
func registerRetail(rt *core.Runtime, data *datagen.Retail, warehouse *relational.Store) {
	rt.Register(adapter.NewRelational(data.Relational.Name(), relational.NewEngine(data.Relational)))
	rt.Register(adapter.NewRelational("warehouse", relational.NewEngine(warehouse)))
	rt.Register(adapter.NewTimeseries(data.Timeseries.Name(), data.Timeseries))
	rt.Register(adapter.NewKV(data.KV.Name(), data.KV))
	rt.Register(adapter.NewML(datagen.MLEngine, 3))
}

// registerExtraRelational registers one more relational engine.
func registerExtraRelational(rt *core.Runtime, name string, s *relational.Store) {
	rt.Register(adapter.NewRelational(name, relational.NewEngine(s)))
}

// newGraphAdapter wraps a graph store under the engine name "graph".
func newGraphAdapter(s *graphstore.Store) adapter.Adapter {
	return adapter.NewGraph("graph", s)
}

// newMLAdapter returns the standard ML adapter for experiments.
func newMLAdapter() adapter.Adapter { return adapter.NewML("ml", 13) }

// clusterPoints samples n points around k separated centers (the E9
// workload).
func clusterPoints(rng *rand.Rand, n, dims, k int) *tensor.Tensor {
	centers := tensor.New(k, dims)
	cd := centers.Data()
	for i := range cd {
		cd[i] = float64(rng.Intn(40)) * 5
	}
	pts := tensor.New(n, dims)
	pd := pts.Data()
	for i := 0; i < n; i++ {
		c := i % k
		for j := 0; j < dims; j++ {
			pd[i*dims+j] = cd[c*dims+j] + rng.NormFloat64()
		}
	}
	return pts
}

// kmeansOnDevice runs k-means with the assignment phase charged to dev.
func kmeansOnDevice(pts *tensor.Tensor, k int, dev *hw.Device, mode hw.Mode) *mlengine.KMeansResult {
	return must(mlengine.KMeansOn(rand.New(rand.NewSource(99)), pts, k, 25, dev, mode))
}
