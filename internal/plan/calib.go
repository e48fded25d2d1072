package plan

// Throughput calibration for the planner's duration predictions.
//
// The constants below are the Mcells/s rates measured by the committed
// BENCH_<CalibrationRev>.json baseline (cmd/benchsuite, GOMAXPROCS=1,
// seeded workloads). They are deliberately committed as code, not read
// from disk at runtime: plans must be reproducible in environments that
// have no checkout (the alignd container), and drift is policed by CI
// instead — `benchsuite -calibrate` re-derives the table from the newest
// committed BENCH_*.json and fails when any kernel moved more than
// CalibrationDriftMax, at which point this file is regenerated by hand
// from the tool's output.

// CalibrationRev is the git revision of the BENCH_*.json baseline the
// table was last checked against. Only the rows whose kernels changed are
// re-derived when it moves; the others are kept while they stay within
// CalibrationDriftMax of the new baseline, so plans for unchanged kernels
// do not shift with measurement noise.
const CalibrationRev = "456a3d5"

// CalibrationDriftMax is the relative Mcells/s drift past which
// `benchsuite -calibrate` fails the build (the satellite CI gate).
const CalibrationDriftMax = 0.25

// ParallelEfficiency scales the single-worker rate for parallel kernels:
// predicted rate = base × (1 + ParallelEfficiency × (workers − 1)).
// 0.9 reflects the blocked wavefront's measured scaling on the
// strong-scaling (E2) experiment: near-linear with a scheduling tax.
const ParallelEfficiency = 0.9

// rateFor predicts a kernel's Mcells/s at the planned worker count. A
// kernel with a solo rate key predicts its one-worker run from that row.
func rateFor(spec *KernelSpec, workers int) float64 {
	if workers <= 1 && spec.soloRateKey != "" {
		return Calibration[spec.soloRateKey] * spec.RateScale
	}
	r := Calibration[spec.RateKey] * spec.RateScale
	if spec.Parallel && workers > 1 {
		r *= 1 + ParallelEfficiency*float64(workers-1)
	}
	return r
}

// Calibration maps benchsuite kernel names to single-worker Mcells/s.
var Calibration = map[string]float64{
	"full-packed":     1331.86,
	"parallel-packed": 636.59,
	"score":           1391.16,
	"linear":          663.69,
	"affine7":         49.22,
	"pairwise-global": 594.78,
	"pairwise-gotoh":  226.99,
	// The bounded-search rate is per *evaluated* cell (the benchsuite row
	// divides by PruneStats.EvaluatedCells, not the lattice size). It is
	// far below the dense kernels because sparse band storage trades
	// per-cell locality for memory that scales with the band.
	"bounded": 35.59,
}
