//go:build mutants

package analysis

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runTestRe extracts the test name from a row's `-run ^Name$`.
var runTestRe = regexp.MustCompile(`-run \^?(\w+)\$?`)

// TestMutationKills checks the mutation table's test column: each
// row's edit is made to one copy of the module in turn, and the row's
// `go test` run must fail in the named test — not pass, and not fail
// to build. It compiles a test binary per row, so it is left out of the
// default build; run it with `make mutants`.
func TestMutationKills(t *testing.T) {
	dir := t.TempDir()
	copyModule(t, filepath.Join("..", ".."), dir)
	for i, m := range mutants {
		if m.test == "" {
			continue
		}
		file := filepath.Join(dir, m.file)
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		mutated, ok := m.apply(string(src))
		if !ok {
			t.Errorf("row %d: the edit's old text must occur exactly once in %s", i, m.file)
			continue
		}
		if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", append([]string{"test", "-count=1"}, strings.Fields(m.test)...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if werr := os.WriteFile(file, src, 0o644); werr != nil {
			t.Fatal(werr)
		}
		name := runTestRe.FindStringSubmatch(m.test)
		switch {
		case err == nil:
			t.Errorf("row %d (%s, %s): go test %s passes on the mutant", i, m.file, m.kind, m.test)
		case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
			t.Errorf("row %d (%s, %s): the mutant does not build:\n%s", i, m.file, m.kind, out)
		case name == nil || !strings.Contains(string(out), name[1]):
			t.Errorf("row %d (%s, %s): go test %s failed outside the named test:\n%s", i, m.file, m.kind, m.test, out)
		default:
			t.Logf("row %d (%s, %s): killed by %s", i, m.file, m.kind, m.test)
		}
	}
}

// copyModule copies the module at root into dir: every directory but
// dot directories and nested modules.
func copyModule(t *testing.T, root, dir string) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); rel != "." && err == nil {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
