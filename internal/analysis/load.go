package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// Loader type-checks module packages using the toolchain's export data
// for dependencies, so loading stays stdlib-only (go/parser + go/types;
// no x/tools) and costs one `go list` invocation per module.
type Loader struct {
	Root string // module root (directory containing go.mod)

	modulePath string
	exports    map[string]string // import path -> export data file
	listed     map[string]*listedPkg
	fset       *token.FileSet
	imp        types.Importer
}

// NewLoader runs `go list -deps -export` over the whole module rooted at
// root and prepares an importer backed by the resulting export data.
func NewLoader(root string) (*Loader, error) {
	l := &Loader{
		Root:    root,
		exports: make(map[string]string),
		listed:  make(map[string]*listedPkg),
		fset:    token.NewFileSet(),
	}
	mod, err := goCmd(root, "list", "-m")
	if err != nil {
		return nil, fmt.Errorf("analysis: resolve module path: %w", err)
	}
	l.modulePath = strings.TrimSpace(string(mod))

	out, err := goCmd(root, "list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		cp := p
		l.listed[p.ImportPath] = &cp
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})
	return l, nil
}

// Load type-checks every module package matched by the patterns (the
// usual go tool patterns; "./..." loads the whole module) and returns
// them in import-path order. Test files are not loaded: the analyzers
// guard production invariants, and want-comment corpora live under
// testdata where the go tool never builds them.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	out, err := goCmd(l.Root, append([]string{"list"}, patterns...)...)
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %w", patterns, err)
	}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if line == l.modulePath || strings.HasPrefix(line, l.modulePath+"/") {
			paths = append(paths, line)
		}
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		lp := l.listed[path]
		if lp == nil || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.check(path, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks a single directory of Go files (outside the build
// graph, e.g. a testdata corpus) against the module's export data. The
// directory's files may import the standard library and any module
// package the module itself builds.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	sort.Strings(names)
	return l.check("testdata/"+filepath.Base(dir), dir, names)
}

func (l *Loader) check(path, dir string, names []string) (*Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
