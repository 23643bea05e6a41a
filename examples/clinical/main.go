// Clinical: the Figure 2 end-to-end heterogeneous program on a synthetic
// MIMIC-III-like dataset — extract admission features (relational), ICU
// stay aggregates (relational), vitals summaries (timeseries), join into
// feature vectors, train an MLP, and predict ICU length-of-stay class.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"polystorepp"
	"polystorepp/internal/datagen"
	"polystorepp/internal/eide"
	"polystorepp/internal/hw"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(42)), 500)
	if err != nil {
		return err
	}
	sys := polystore.New(
		polystore.WithClinical(data),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()),
	)

	p := sys.NewProgram()
	pred, err := eide.BuildClinicalPipeline(p, data.Binding())
	if err != nil {
		return err
	}
	res, rep, err := sys.Run(ctx, p)
	if err != nil {
		return err
	}
	out := res.Values[pred].Batch
	probs, err := out.Floats(1)
	if err != nil {
		return err
	}
	long := 0
	for _, pr := range probs {
		if pr >= 0.5 {
			long++
		}
	}
	fmt.Printf("predicted long ICU stay for %d of %d stays\n", long, len(probs))
	fmt.Printf("simulated end-to-end latency: %.3f ms, energy %.3f J, %d migrations\n",
		rep.Latency*1e3, rep.Energy, rep.Migrations)

	// The same question through the natural-language frontend (§IV-A-e).
	nl := sys.NLTranslator(data.Binding())
	p2, rule, err := nl.Translate("Will patients have a long stay at the hospital when they exit the ICU?")
	if err != nil {
		return err
	}
	if _, _, err := sys.Run(ctx, p2); err != nil {
		return err
	}
	fmt.Printf("natural-language route: matched rule %q and produced the same pipeline\n", rule)
	return nil
}
