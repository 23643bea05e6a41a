// Recommendation: the Figure 1 enterprise-analytics scenario — customers
// and transactions live in the RDBMS, clickstreams in the timeseries store,
// external events in the KV store. The program federates all three: it
// clusters customers for next-best-offer targeting and reads the promo mix
// of their external events.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"polystorepp"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/ir"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	data, err := datagen.GenerateRetail(rand.New(rand.NewSource(7)), 600, 5)
	if err != nil {
		return err
	}
	sys := polystore.New(
		polystore.WithRetail(data),
		polystore.WithAccelerators(hw.Coprocessor, hw.NewFPGA(), hw.NewGPU()),
	)
	db := data.Relational.Name()

	p := sys.NewProgram()
	g := p.Graph()
	// Per-customer spend from the RDBMS (aggregated at the source engine).
	spend, err := p.SQL(db,
		"SELECT cid AS tcid, sum(amount) AS spend, count(*) AS n_tx FROM transactions GROUP BY cid")
	if err != nil {
		return err
	}
	// Per-customer click-rate summary from the timeseries store.
	clicks := g.Add(ir.OpTSWindow, data.Timeseries.Name(), map[string]any{"series_prefix": "clicks/"})
	// Customer master data.
	cust, err := p.SQL(db, "SELECT cid, segment, tenure_days FROM customers")
	if err != nil {
		return err
	}
	j1 := p.Join(db, cust, spend, "cid", "tcid")
	j2 := p.Join(db, j1, clicks, "cid", "vpid")
	// Cluster customers on spend and click behaviour for offer targeting.
	clusters := p.KMeans(datagen.MLEngine, j2, []string{"spend", "n_tx", "rate_mean"}, 4, 20)
	// The external events each customer carries, from the KV store.
	events := p.KVScan(data.KV.Name(), "event/")

	res, rep, err := sys.Run(ctx, p)
	if err != nil {
		return err
	}
	out := res.Values[clusters].Batch
	counts := map[int64]int{}
	cl, err := out.Ints(1)
	if err != nil {
		return err
	}
	for _, c := range cl {
		counts[c]++
	}
	fmt.Printf("clustered %d customers into %d offer segments: %v\n", out.Rows(), len(counts), counts)
	promos, err := res.Values[events].Batch.Strings(1)
	if err != nil {
		return err
	}
	mix := map[string]int{}
	for _, promo := range promos {
		mix[promo]++
	}
	fmt.Printf("%d customers carry an external event across %d promos: %v\n", len(promos), len(mix), mix)
	fmt.Printf("simulated latency %.3f ms, %d cross-engine migrations (%d bytes)\n",
		rep.Latency*1e3, rep.Migrations, rep.MigratedBytes)

	return nil
}
