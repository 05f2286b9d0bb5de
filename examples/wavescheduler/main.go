// Wave scheduler: how the grid turns declared read/write footprints into a
// concurrent sweep schedule. Every capability's Meta names the telemetry
// regions it reads and the actuation surfaces it writes; the grid packs
// write-disjoint capabilities into shared waves and orders conflicting
// ones by registration, instead of holding every actuator behind one global
// lock. The example prints the production schedule for the full 4x4 grid,
// runs one sweep against a simulated center, and reports the scheduler's
// observability counters.
//
// Run with: go run ./examples/wavescheduler
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	grid, err := repro.FullGrid()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("full grid: %d capabilities packed into %d waves\n\n", grid.Len(), len(grid.Waves()))
	for i, wave := range grid.Waves() {
		writers := 0
		for _, name := range wave {
			c, _ := grid.Get(name)
			if len(c.Meta().Writes) > 0 {
				writers++
			}
		}
		fmt.Printf("  wave %d (%2d capabilities, %d writers): %s\n",
			i, len(wave), writers, strings.Join(wave, ", "))
	}

	fmt.Println("\nsimulating 3 hours of a 16-node center...")
	exp := repro.StandardExperiment(11, 16, 3)
	grid.SetWorkers(8)
	results, errs := grid.RunAll(exp.Ctx)
	fmt.Printf("sweep done: %d results, %d capabilities without enough telemetry\n",
		len(results), len(errs))

	st := grid.ScheduleStats()
	fmt.Println("\nscheduler counters:")
	fmt.Printf("  sweeps                %d\n", st.Sweeps)
	fmt.Printf("  waves executed        %d\n", st.Waves)
	fmt.Printf("  max wave width        %d\n", st.MaxWaveWidth)
	fmt.Printf("  conflicts deferred    %d\n", st.ConflictsDeferred)
	fmt.Printf("  actuators overlapped  %d\n", st.ActuatorsOverlapped)
	fmt.Printf("  panics recovered      %d\n", st.Panics)

	// The actuators left their marks on disjoint surfaces concurrently.
	state := exp.DC.ActuatorState()
	fmt.Printf("\nactuator state after the sweep: cooling=%s setpoint=%.1fC budget=%.0fW queue=%d\n",
		state.CoolingMode, state.SetpointC, state.PowerBudgetW, state.QueueLength)
}
