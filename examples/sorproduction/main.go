// SOR in production: a miniature of the paper's Platform 2 evaluation.
// Monitor a bursty simulated platform with the NWS reimplementation,
// predict each distributed Red-Black SOR run as a stochastic value, execute
// it, and compare interval predictions against point predictions.
//
//	go run ./examples/sorproduction
package main

import (
	"fmt"
	"log"
	"math"

	"prodpred"
	"prodpred/internal/sor"
)

func main() {
	const (
		n     = 800
		iters = 10
		runs  = 8
	)
	plat := prodpred.Platform2()

	// Bursty 4-modal load on every machine, long-tailed ethernet.
	cpu := make([]prodpred.LoadProcess, plat.Size())
	for i := range cpu {
		p, err := prodpred.BurstyLoad(int64(100 + i*17))
		if err != nil {
			log.Fatal(err)
		}
		cpu[i] = p
	}
	net, err := prodpred.EthernetContentionLoad(999)
	if err != nil {
		log.Fatal(err)
	}
	env, err := prodpred.NewEnv(plat, cpu, net)
	if err != nil {
		log.Fatal(err)
	}

	// NWS monitors per machine, 5-second cadence as in the paper.
	monitors := make([]*prodpred.Monitor, plat.Size())
	for i := range monitors {
		if monitors[i], err = prodpred.NewCPUMonitor(env, i, 5, 512); err != nil {
			log.Fatal(err)
		}
	}
	t := 900.0 // warm up the forecasters

	// Capacity-balanced strips from the first forecasts.
	weights := make([]float64, plat.Size())
	machines := make([]prodpred.Machine, plat.Size())
	for i := range weights {
		v, err := monitors[i].Report(t)
		if err != nil {
			log.Fatal(err)
		}
		machines[i] = plat.Machine(i)
		weights[i] = machines[i].ElemRate * math.Max(v.Mean, 0.05)
	}
	part, err := prodpred.NewWeightedPartition(n, weights)
	if err != nil {
		log.Fatal(err)
	}
	link, err := plat.Link(0, 1)
	if err != nil {
		log.Fatal(err)
	}
	model := &prodpred.SORConfig{
		N: n, Iterations: iters, Partition: part, Machines: machines,
		MachineIdx: sor.IdentityMapping(plat.Size()), Link: link,
		MaxStrategy: prodpred.LargestMean,
	}
	backend, err := sor.NewSimBackend(env, part, sor.IdentityMapping(plat.Size()))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%dx%d Red-Black SOR on Platform 2, %d iterations/run, bursty load\n\n", n, n, iters)
	fmt.Printf("%-8s %-20s %-9s %-9s %-12s\n", "t", "stochastic pred", "point", "actual", "verdict")
	captured, pointErr, intErr := 0, 0.0, 0.0
	for r := 0; r < runs; r++ {
		params := prodpred.Params{prodpred.BWAvailParam: prodpred.Point(1)}
		for i, mon := range monitors {
			v, err := mon.Report(t)
			if err != nil {
				log.Fatal(err)
			}
			params[prodpred.LoadParam(i)] = v
		}
		pred, err := model.Predict(params)
		if err != nil {
			log.Fatal(err)
		}
		res, err := backend.Run(iters, t)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "inside"
		if pred.Contains(res.ExecTime) {
			captured++
		} else {
			e := pred.RelativeErrorOutside(res.ExecTime)
			intErr = math.Max(intErr, e)
			verdict = fmt.Sprintf("out by %.0f%%", e*100)
		}
		pointErr = math.Max(pointErr, math.Abs(res.ExecTime-pred.Mean)/res.ExecTime)
		fmt.Printf("%-8.0f %-20s %-9.2f %-9.2f %-12s\n",
			t, pred.String(), pred.Mean, res.ExecTime, verdict)
		t += res.ExecTime + 30
	}
	fmt.Printf("\nStochastic intervals captured %d/%d runs (max error outside %.0f%%).\n",
		captured, runs, intErr*100)
	fmt.Printf("Point (mean) predictions missed by up to %.0f%% — the paper's core result.\n",
		pointErr*100)
}
