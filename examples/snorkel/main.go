// Snorkel: the Figure 3 weak-supervision training loop — mini-batch SGD
// where every batch is fetched from the relational store with SQL
// (load_data), the tight SQL/ML integration a Polystore++ system detects
// and accelerates.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
	"polystorepp/internal/mlengine"
	"polystorepp/internal/relational"
	"polystorepp/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	const (
		rows      = 20000
		batchSize = 512
		epochs    = 3
	)
	store, err := datagen.GenerateSnorkel(rand.New(rand.NewSource(5)), rows)
	if err != nil {
		return err
	}
	engine := relational.NewEngine(store)
	model, err := mlengine.NewMLP(rand.New(rand.NewSource(1)), 4, 16, 1)
	if err != nil {
		return err
	}
	ws, err := model.NewWorkspace(batchSize)
	if err != nil {
		return err
	}

	fpga := hw.NewFPGA()
	if _, err := fpga.ConfigureKernel(hw.KFilter.String(), hw.LUTCost(hw.KFilter)); err != nil {
		return err
	}
	var loadWall, trainWall time.Duration
	var loadSim, trainSim float64
	cpu := hw.NewHostCPU()

	for epoch := 0; epoch < epochs; epoch++ {
		var lastLoss float64
		for lo := 0; lo < rows; lo += batchSize {
			// load_data: SQL interspersed in the training loop (Figure 3).
			t0 := time.Now()
			sql := fmt.Sprintf(
				"SELECT f0, f1, f2, f3, weak_label FROM unlabeled WHERE id >= %d AND id < %d",
				lo, lo+batchSize)
			batch, _, err := engine.Query(ctx, sql)
			if err != nil {
				return err
			}
			loadWall += time.Since(t0)
			w := hw.Work{Items: int64(batch.Rows()), Bytes: batch.ByteSize()}
			if c, err := fpga.KernelCost(hw.KFilter, w); err == nil {
				loadSim += c.Seconds
			}

			// Assemble tensors and take the gradient step.
			t1 := time.Now()
			x, y := tensor.New(batch.Rows(), 4), tensor.New(batch.Rows(), 1)
			for i := 0; i < batch.Rows(); i++ {
				for j := 0; j < 4; j++ {
					v, err := batch.Value(i, j)
					if err != nil {
						return err
					}
					if err := x.Set(v.(float64), i, j); err != nil {
						return err
					}
				}
				lv, err := batch.Value(i, 4)
				if err != nil {
					return err
				}
				if err := y.Set(float64(lv.(int64)), i, 0); err != nil {
					return err
				}
			}
			loss, err := model.TrainBatch(ws, x, y, 0.3)
			if err != nil {
				return err
			}
			lastLoss = loss
			trainWall += time.Since(t1)
			for _, gw := range model.AppendGEMMs(nil, batch.Rows(), true) {
				if c, err := cpu.KernelCost(hw.KGEMM, gw); err == nil {
					trainSim += c.Seconds
				}
			}
		}
		fmt.Printf("epoch %d: loss %.4f\n", epoch, lastLoss)
	}
	fmt.Printf("wall: load_data %s, train %s (load share %.1f%%)\n",
		loadWall, trainWall, 100*float64(loadWall)/float64(loadWall+trainWall))
	fmt.Printf("simulated: fpga-accelerated load %.6fs vs cpu train %.6fs\n", loadSim, trainSim)
	return nil
}
