package experiments

import (
	"runtime"
)

// parallelism is the worker count RunAll uses for independent
// simulations. Each Run cell owns a private sim.Engine, device models
// and workload generator, so cells are embarrassingly parallel; the
// default saturates the machine.
var parallelism = runtime.NumCPU()

// SetParallelism bounds the number of simulations RunAll executes
// concurrently (n < 1 is clamped to 1). cmd/craidbench threads its
// -parallel flag through here.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism = n
}
