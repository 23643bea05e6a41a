// NLQuery: the §IV-A-e natural-language frontend — restricted English
// questions compiled to heterogeneous programs and executed across the
// polystore.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"polystorepp"
	"polystorepp/internal/datagen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(42)), 300)
	if err != nil {
		return err
	}
	sys := polystore.New(polystore.WithClinical(data))
	nl := sys.NLTranslator(data.Binding())

	questions := []string{
		"How many patients are there?",
		"What is the average icu_hours of stays by pid?",
		"Find notes mentioning ventilator",
		"Will patients have a long stay at the hospital when they exit the ICU?",
	}
	for _, q := range questions {
		prog, rule, err := nl.Translate(q)
		if err != nil {
			return err
		}
		res, rep, err := sys.Run(ctx, prog)
		if err != nil {
			return err
		}
		fmt.Printf("Q: %s\n   rule=%s", q, rule)
		if b := res.First().Batch; b != nil {
			fmt.Printf(" rows=%d schema=%s", b.Rows(), b.Schema())
			if b.Rows() == 1 && b.Schema().Len() == 1 {
				v, _ := b.Value(0, 0)
				fmt.Printf(" answer=%v", v)
			}
		}
		fmt.Printf(" (sim %.3f ms)\n", rep.Latency*1e3)
	}
	return nil
}
