package experiments

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// The abstract claims BKRUS cost is empirically at most 1.19x the
// optimal BMST. Measured over our random set the mean ratio is ~1.03
// but the worst case reaches ~1.55 (4% of runs exceed 1.19) — the 1.19
// figure is specific to the paper's own benchmark pool. This study test
// keeps the measurement reproducible on a reduced sample; EXPERIMENTS.md
// records the 1000-run numbers.
func TestAbstractClaim119(t *testing.T) {
	cfg := Config{}
	worst := 0.0
	worstDesc := ""
	var sum float64
	over119 := 0
	n := 0
	for _, size := range bench.RandomSetSizes {
		for k := 0; k < 10; k++ {
			for _, eps := range []float64{0.0, 0.1, 0.2, 0.5} {
				in := bench.RandomCase(size, k)
				bk, err := core.BKRUSBuild(context.Background(), in, core.UpperOnly(in, eps), core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				opt, err := optimalTree(cfg, in, eps)
				if err != nil {
					t.Fatal(err)
				}
				r := bk.Cost() / opt.Cost()
				sum += r
				if r > 1.19 {
					over119++
				}
				if r > worst {
					worst = r
					worstDesc = fmt.Sprintf("size=%d case=%d eps=%.1f", size, k, eps)
				}
				n++
			}
		}
	}
	fmt.Printf("BKRUS/optimal over %d runs: mean %.4f, worst %.4f (%s), >1.19 in %d runs\n",
		n, sum/float64(n), worst, worstDesc, over119)
}
