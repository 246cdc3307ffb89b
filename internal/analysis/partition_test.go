package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestPartitionKernelsProved is the static half of the partition
// property pact (the dynamic half is TestEdgeStreamMatchesSortEdges in
// internal/graph): indexbound must classify subscripts inside the edge
// stream's bucket scatter kernel — the prefix sum over the bucket
// offsets — as PROVED, not merely fail to report them through a
// data/guarded exemption. If a kernel edit demotes every such subscript
// to "unknown" the invariant still lints clean (the positive-evidence
// doctrine stays quiet), but this test fails, which is the point:
// kernel changes are gated on the proofs, not the silence.
func TestPartitionKernelsProved(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: loads a real package with dependencies")
	}
	mod, err := LoadModule(filepath.Join("..", ".."), "./internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	// kernelFile -> classification counts observed inside it.
	kernels := map[string]map[string]int{
		filepath.Join("graph", "stream.go"): {},
	}
	for _, pkg := range mod.Pkgs {
		fset := pkg.Fset
		indexBoundHook = func(pos token.Pos, class string) {
			file := fset.Position(pos).Filename
			for suffix, counts := range kernels {
				if strings.HasSuffix(file, string(filepath.Separator)+suffix) {
					counts[class]++
				}
			}
		}
		diags := Run(pkg, []*Analyzer{IndexBound})
		indexBoundHook = nil
		for _, d := range diags {
			t.Errorf("unexpected indexbound finding in %s: %s", pkg.ImportPath, d)
		}
	}
	for suffix, counts := range kernels {
		if counts["finding"] > 0 {
			t.Errorf("%s: %d kernel subscripts classified as findings", suffix, counts["finding"])
		}
		if counts["proved"] == 0 {
			t.Errorf("%s: no kernel subscript classified proved (got %v); the static witness is gone", suffix, counts)
		}
	}
}
