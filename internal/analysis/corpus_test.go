package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// moduleRoot walks up from the test's working directory to the
// directory containing go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// sharedLoader builds one Loader (one `go list -deps -export` run) for
// all tests in the package.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	root := moduleRoot(t)
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// wantRe matches the corpus expectation markers: `want "regex"` expects
// a finding on the marker's line, `want-below "regex"` on the next line
// (for lines that cannot carry a second comment, like a lint-ignore
// directive under test).
var wantRe = regexp.MustCompile(`want(-below)? "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectExpectations(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[2])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[2], err)
					}
					line := pos.Line
					if m[1] == "-below" {
						line++
					}
					out = append(out, &expectation{file: pos.Filename, line: line, re: re})
				}
			}
		}
	}
	return out
}

// TestGoldenCorpus runs the suite over each seeded-violation corpus
// under testdata/src and checks the findings against the want comments
// — both directions: every want must be hit, every finding must be
// wanted.
func TestGoldenCorpus(t *testing.T) {
	loader := sharedLoader(t)
	for _, corpus := range []string{"lockblock", "hotpath", "errcheck", "ignore"} {
		t.Run(corpus, func(t *testing.T) {
			dir := filepath.Join(moduleRoot(t), "internal", "analysis", "testdata", "src", corpus)
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			findings := Run([]*Package{pkg})
			expects := collectExpectations(t, pkg)
			if len(expects) == 0 {
				t.Fatalf("corpus %s has no want comments", corpus)
			}
			for _, f := range findings {
				ok := false
				for _, e := range expects {
					if !e.matched && e.file == f.File && e.line == f.Line && e.re.MatchString(f.Message) {
						e.matched = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, e := range expects {
				if !e.matched {
					t.Errorf("%s:%d: expected finding matching %q, got none", e.file, e.line, e.re)
				}
			}
		})
	}
}

// TestSeededCorpusFailsTheDriver asserts the driver contract the CI
// gate relies on: a package with violations yields a non-empty, sorted
// finding list.
func TestSeededCorpusFailsTheDriver(t *testing.T) {
	loader := sharedLoader(t)
	dir := filepath.Join(moduleRoot(t), "internal", "analysis", "testdata", "src", "errcheck")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pkg})
	if len(findings) == 0 {
		t.Fatal("seeded corpus produced no findings; the lint gate would pass vacuously")
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Fatalf("findings not sorted: %s before %s", a, b)
		}
	}
	for _, f := range findings {
		if f.Analyzer == "" || f.Message == "" || f.File == "" || f.Line == 0 {
			t.Fatalf("incomplete finding: %+v", f)
		}
	}
}

// TestRepoRunsClean is the self-check: the suite must report nothing on
// the repository itself — the invariant `make lint` enforces in CI.
func TestRepoRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := sharedLoader(t)
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the module", len(pkgs))
	}
	var msgs []string
	for _, f := range Run(pkgs) {
		msgs = append(msgs, f.String())
	}
	if len(msgs) > 0 {
		t.Errorf("gengar-lint is not clean on the repo:\n%s", fmt.Sprint(msgs))
	}
}
