package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// raceSibling describes the race-mode counterpart a `//go:build !race`
// file must have: a test file with no build constraint that drives the
// same entry points, so excluding the allocation counts from -race
// never excludes the code path itself.
type raceSibling struct {
	file    string   // module-relative path of the race-mode twin
	symbols []string // entry points both files must exercise
}

// raceExcludeAllowlist are the only files permitted to carry a
// `//go:build !race` constraint: allocation-count tests, because
// testing.AllocsPerRun measures nothing under the race detector's
// instrumented allocator. Everything else must run under `make race` —
// excluding a test from -race is how data races hide (policy: see
// "Static analysis" in DESIGN.md). Every entry names its race-mode
// sibling; the audit fails if the sibling disappears, grows its own
// constraint, or stops exercising the shared entry points.
var raceExcludeAllowlist = map[string]raceSibling{
	"internal/core/scratch_alloc_test.go": {
		file:    "internal/core/multiwrite_test.go",
		symbols: []string{"ReadMulti", "WriteMulti"},
	},
	"internal/tcpnet/wire_alloc_test.go": {
		file:    "internal/tcpnet/wire_path_test.go",
		symbols: []string{"Read", "ReadMulti", "WriteMulti", "enqueue", "read"},
	},
	"internal/engine/malloc_alloc_test.go": {
		file:    "internal/engine/objindex_test.go",
		symbols: []string{"Malloc", "Free"},
	},
	"internal/engine/plan_alloc_test.go": {
		file:    "internal/engine/plan_test.go",
		symbols: []string{"digest", "Submit"},
	},
	"internal/hotness/alloc_test.go": {
		file:    "internal/hotness/hotness_test.go",
		symbols: []string{"Observe", "Add", "Rebalance"},
	},
	"internal/proxy/flush_alloc_test.go": {
		file:    "internal/proxy/coalesce_test.go",
		symbols: []string{"sortByNVMOff", "runSpan", "assembleRun", "Submit"},
	},
	"internal/rpc/alloc_test.go": {
		file:    "internal/rpc/rpc_test.go",
		symbols: []string{"Call"},
	},
	"internal/simnet/gate_alloc_test.go": {
		file:    "internal/simnet/gate_test.go",
		symbols: []string{"Join", "Advance"},
	},
}

// TestRaceGuardAudit walks every Go file in the module and fails if a
// file outside the allowlist opts out of the race detector, if an
// allowlisted file stops existing (stale allowlist), no longer contains
// an AllocsPerRun measurement (no reason to be excluded), or lacks a
// valid race-mode sibling per raceExcludeAllowlist.
func TestRaceGuardAudit(t *testing.T) {
	root := moduleRoot(t)
	found := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "//go:build") {
				continue
			}
			if strings.Contains(line, "!race") {
				rel := filepath.ToSlash(rel)
				found[rel] = true
				if _, ok := raceExcludeAllowlist[rel]; !ok {
					t.Errorf("%s opts out of -race (%s); only AllocsPerRun tests may (see allowlist in raceguard_test.go)", rel, line)
				}
				if !strings.Contains(string(data), "AllocsPerRun") {
					t.Errorf("%s excludes -race but has no AllocsPerRun measurement; remove the constraint", rel)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rel, sib := range raceExcludeAllowlist {
		if !found[rel] {
			t.Errorf("allowlist entry %s has no //go:build !race file behind it; prune the allowlist", rel)
			continue
		}
		excluded, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			t.Errorf("reading %s: %v", rel, err)
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(sib.file)))
		if err != nil {
			t.Errorf("%s has no race-mode sibling %s: %v", rel, sib.file, err)
			continue
		}
		text := string(data)
		if strings.Contains(text, "//go:build") {
			t.Errorf("race-mode sibling %s carries a build constraint; it must run under -race unconditionally", sib.file)
		}
		for _, sym := range sib.symbols {
			if !strings.Contains(text, "."+sym+"(") {
				t.Errorf("race-mode sibling %s no longer exercises %s; the -race exclusion of %s leaves that path uncovered", sib.file, sym, rel)
			}
			if !strings.Contains(string(excluded), "."+sym+"(") {
				t.Errorf("allowlist entry %s no longer exercises %s; update its sibling contract in raceguard_test.go", rel, sym)
			}
		}
	}
}
