package sqlengine

import "testing"

// TestTemplateConcatBatchFloor is the columnar-execution acceptance gate
// (BENCH_8.json): the batch path must run the template-mode a-query —
// equi self-join plus CONCAT projection — at least 3x faster than the
// row-at-a-time fallback in the same process, within a hard allocation
// budget. Measuring both paths side by side makes the floor
// machine-independent; note the fallback itself got faster in this PR
// (scratch-key probes), so the floor is conservative against the recorded
// BENCH_5 baseline.
func TestTemplateConcatBatchFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing floor skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing floor is meaningless under the race detector")
	}

	const (
		speedupFloor = 3.0
		allocCeiling = 20_000
		reps         = 3
	)
	// Best-of-reps per side, with the two sides' trials interleaved pairwise
	// and the same rep count on both: load inflates a measurement but never
	// deflates it, so the minimum is the stable comparison point, and
	// alternating A/B spreads any burst of background load over both sides
	// instead of landing it on whichever side happened to run second.
	var batchNs, fallbackNs float64
	var batchAllocs int64
	for i := 0; i < reps; i++ {
		b := testing.Benchmark(BenchmarkAQueryTemplateConcat)
		f := testing.Benchmark(BenchmarkAQueryTemplateConcatFallback)
		if ns := float64(b.NsPerOp()); i == 0 || ns < batchNs {
			batchNs = ns
		}
		if a := b.AllocsPerOp(); i == 0 || a < batchAllocs {
			batchAllocs = a
		}
		if ns := float64(f.NsPerOp()); i == 0 || ns < fallbackNs {
			fallbackNs = ns
		}
	}

	ratio := fallbackNs / batchNs
	t.Logf("TemplateConcat: batch %.0f ns/op (%d allocs/op), fallback %.0f ns/op, speedup %.2fx",
		batchNs, batchAllocs, fallbackNs, ratio)
	if ratio < speedupFloor {
		t.Fatalf("batch TemplateConcat speedup %.2fx below the %.1fx floor (batch %.0f ns/op, fallback %.0f ns/op)",
			ratio, speedupFloor, batchNs, fallbackNs)
	}
	if batchAllocs > allocCeiling {
		t.Fatalf("batch TemplateConcat allocs/op = %d, budget %d", batchAllocs, allocCeiling)
	}
}
