package experiments

import "dicer/internal/par"

// execute runs fn(i) for every i in [0, n) through the sharded
// work-stealing executor in internal/par, bounded by the suite's worker
// setting. Every fan-out here (RunMany, the figure sweeps, FleetSuite,
// Soak, MultiHPGrid, the sensitivity sweeps and ablations) routes through
// it, so parallelism is bounded in exactly one place (Config.Workers).
func (s *Suite) execute(n int, fn func(i int) error) error {
	return par.Execute(n, s.workers(), fn)
}
