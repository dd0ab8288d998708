// Failover recovery: a worker machine dies mid-run. Slots fail over to
// the survivors, per-instance rates drop under the oversubscription, QoS
// degrades — and the MAPE controller detects the violation and re-plans
// onto a configuration that fits the shrunken cluster. When the machine
// comes back, the controller trims the excess away again.
//
// Run with:
//
//	go run ./examples/failover_recovery
package main

import (
	"fmt"
	"log"

	"autrascale"
)

func main() {
	spec := autrascale.WordCount()
	engine, err := autrascale.NewEngine(spec, autrascale.EngineOptions{Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := autrascale.NewController(engine, autrascale.ControllerConfig{
		TargetLatencyMS: spec.TargetLatencyMS,
		MaxIterations:   10,
		Seed:            13,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("phase 1: healthy cluster — initial planning")
	events := must(ctl.Run(engine.Now() + 1200))
	report(engine)

	fmt.Println("\nphase 2: machines r730xd-2 and r730xd-3 fail (40 of 60 cores gone)")
	if err := engine.FailMachine("r730xd-2"); err != nil {
		log.Fatal(err)
	}
	if err := engine.FailMachine("r730xd-3"); err != nil {
		log.Fatal(err)
	}
	events = append(events, must(ctl.Run(engine.Now()+2400))...)
	report(engine)

	fmt.Println("\nphase 3: machines recover")
	if err := engine.RecoverMachine("r730xd-2"); err != nil {
		log.Fatal(err)
	}
	if err := engine.RecoverMachine("r730xd-3"); err != nil {
		log.Fatal(err)
	}
	events = append(events, must(ctl.Run(engine.Now()+2400))...)
	report(engine)

	fmt.Println("\ncontroller decisions:")
	for _, ev := range events {
		if ev.Action == "none" {
			continue
		}
		fmt.Printf("  t=%-6.0f %-11s -> %v (%s)\n", ev.TimeSec, ev.Action, ev.Par, ev.Reason)
	}
}

// must returns v, or exits on err.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func report(engine *autrascale.Engine) {
	m := engine.MeasureSteady(30, 120)
	fmt.Printf("  parallelism %v  throughput %.0f rps  latency %.0f ms  lag %.0f\n",
		engine.Parallelism(), m.ThroughputRPS, m.ProcLatencyMS, m.LagRecords)
}
