package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Facts is the shared guarded-field fact layer: whole-batch knowledge
// computed once per Run over every loaded package, consumed by the
// concurrency-protocol analyzers. Packages are type-checked one at a
// time against export data, so the same field seen from two packages
// yields two distinct types.Object values; facts are therefore keyed by
// stable string keys ("pkgPath.Type.field" for struct fields,
// "pkgPath.var" for package-level variables) that both sides resolve
// identically.
type Facts struct {
	// atomicFields maps the key of every field or package-level var
	// whose address is passed to a sync/atomic function anywhere in the
	// batch to one such call site (for diagnostics). atomic-mixed-access
	// flags every plain access to these objects.
	atomicFields map[string]token.Position

	// guarded maps a //gengar:guardedby-annotated field's key to its
	// contract: the declared writer mutex and whether the field is an
	// atomic.Pointer (the COW shape cow-snapshot checks).
	guarded map[string]*guardFact

	// badGuards records malformed annotations (mutex name that is not a
	// sibling field) to report as findings in the declaring package.
	badGuards []badGuard

	// lockEdges is the interprocedurally-closed mutex acquisition graph:
	// one entry per (held-class, acquired-class) observation site.
	lockEdges []lockEdge

	// lockChains are the declared lock-order chains: the checked-in
	// defaultLockOrder plus every //gengar:lockorder directive in the
	// batch. before[x][y] means x is blessed to be acquired before y.
	before map[string]map[string]bool
}

// guardFact is one //gengar:guardedby contract.
type guardFact struct {
	fieldKey  string         // annotated field, e.g. "gengar/internal/cache.RemapTable.buckets"
	fieldName string         // display name, e.g. "RemapTable.buckets"
	muName    string         // declared sibling mutex field name
	muKey     string         // its key
	declPos   token.Position // annotation position (suppression anchor)
	isCOWPtr  bool           // field type is sync/atomic.Pointer[...]
}

// badGuard is a malformed //gengar:guardedby annotation.
type badGuard struct {
	pos     token.Position
	fileDir string
	msg     string
}

// lockEdge is one observed "acquired while held" pair, attributed to
// the source position of the inner acquisition (or the call leading to
// it).
type lockEdge struct {
	from, to string         // lock class keys, e.g. "engine.Engine.mu"
	pos      token.Position // where the ordering is established
	via      string         // callee chain for interprocedural edges ("" if direct)
}

// computeFacts builds the fact layer over the whole batch.
func computeFacts(pkgs []*Package) *Facts {
	f := &Facts{
		atomicFields: make(map[string]token.Position),
		guarded:      make(map[string]*guardFact),
		before:       make(map[string]map[string]bool),
	}
	for _, pkg := range pkgs {
		f.collectAtomicFields(pkg)
		f.collectGuardedBy(pkg)
		f.collectLockChains(pkg)
	}
	f.declareChain(defaultLockOrder)
	f.buildLockGraph(pkgs)
	return f
}

// ---- stable keys ----

// objectKey returns the cross-package key of a field or variable
// object, resolving struct fields through the selection that reached
// them. ok is false for locals and objects without a home package.
func objectKey(info *types.Info, sel *ast.SelectorExpr, id *ast.Ident) (string, bool) {
	var obj types.Object
	if sel != nil {
		if s, found := info.Selections[sel]; found {
			obj = s.Obj()
			if named := namedOf(s.Recv()); named != nil && obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name(), true
			}
		}
		id = sel.Sel
	}
	if obj == nil && id != nil {
		obj = info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
	}
	v, isVar := obj.(*types.Var)
	if !isVar || v.Pkg() == nil {
		return "", false
	}
	if v.IsField() {
		// A field reached without selection info (e.g. a composite
		// literal key); the enclosing type is not recoverable here.
		return "", false
	}
	// Package-scope variable.
	if v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name(), true
	}
	return "", false
}

// exprKey resolves an addressable expression (x.f, pkgvar, f) to its
// fact key.
func exprKey(info *types.Info, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return objectKey(info, x, nil)
	case *ast.Ident:
		return objectKey(info, nil, x)
	}
	return "", false
}

// displayKey shortens a full key for diagnostics: the package path
// collapses to its base ("gengar/internal/cache.RemapTable.buckets" ->
// "cache.RemapTable.buckets").
func displayKey(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// ---- atomic field collection ----

// atomicFns are the sync/atomic package functions whose first argument
// is the address of the word they operate on.
var atomicFns = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func (f *Facts) collectAtomicFields(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			c, ok := resolveCallee(pkg.Info, call)
			if !ok || c.pkgPath != "sync/atomic" || c.recv != "" || !atomicFns[c.name] {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			if key, ok := exprKey(pkg.Info, addr.X); ok {
				if _, seen := f.atomicFields[key]; !seen {
					f.atomicFields[key] = pkg.Fset.Position(call.Pos())
				}
			}
			return true
		})
	}
}

// ---- //gengar:guardedby annotations ----

const guardedByPrefix = "//gengar:guardedby"

func (f *Facts) collectGuardedBy(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				f.collectStructGuards(pkg, ts.Name.Name, st)
			}
		}
	}
}

func (f *Facts) collectStructGuards(pkg *Package, typeName string, st *ast.StructType) {
	fieldNames := make(map[string]bool)
	for _, fd := range st.Fields.List {
		for _, n := range fd.Names {
			fieldNames[n.Name] = true
		}
	}
	for _, fd := range st.Fields.List {
		muName, pos, ok := guardedByDirective(pkg, fd)
		if !ok {
			continue
		}
		if len(fd.Names) == 0 {
			continue // embedded field: nothing to key on
		}
		if muName == "" || !fieldNames[muName] {
			f.badGuards = append(f.badGuards, badGuard{
				pos:     pos,
				fileDir: pkg.Dir,
				msg:     "gengar:guardedby must name a sibling mutex field of " + typeName,
			})
			continue
		}
		for _, n := range fd.Names {
			key := pkg.Path + "." + typeName + "." + n.Name
			f.guarded[key] = &guardFact{
				fieldKey:  key,
				fieldName: typeName + "." + n.Name,
				muName:    muName,
				muKey:     pkg.Path + "." + typeName + "." + muName,
				declPos:   pos,
				isCOWPtr:  isAtomicPointerField(pkg, fd.Type),
			}
		}
	}
}

// guardedByDirective extracts a //gengar:guardedby directive from a
// struct field's doc or trailing comment.
func guardedByDirective(pkg *Package, fd *ast.Field) (mu string, pos token.Position, ok bool) {
	for _, cg := range []*ast.CommentGroup{fd.Doc, fd.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, guardedByPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, guardedByPrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				mu = fields[0]
			}
			return mu, pkg.Fset.Position(c.Pos()), true
		}
	}
	return "", token.Position{}, false
}

// isAtomicPointerField reports whether the field type is
// sync/atomic.Pointer[...].
func isAtomicPointerField(pkg *Package, t ast.Expr) bool {
	tv, ok := pkg.Info.Types[t]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic" && named.Obj().Name() == "Pointer"
}

// ---- lock-order graph ----

const lockOrderPrefix = "//gengar:lockorder"

// collectLockChains parses //gengar:lockorder directives: a chain of
// lock class names separated by "<", earliest-acquired first, e.g.
//
//	//gengar:lockorder engine.Engine.mu < cache.RemapTable.mu
func (f *Facts) collectLockChains(pkg *Package) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, lockOrderPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, lockOrderPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				var chain []string
				for _, part := range strings.Split(rest, "<") {
					if part = strings.TrimSpace(part); part != "" {
						chain = append(chain, part)
					}
				}
				f.declareChain(chain)
			}
		}
	}
}

// declareChain blesses each ordered pair of the chain, transitively.
func (f *Facts) declareChain(chain []string) {
	for i, a := range chain {
		for _, b := range chain[i+1:] {
			if f.before[a] == nil {
				f.before[a] = make(map[string]bool)
			}
			f.before[a][b] = true
		}
	}
}

// orderedBefore reports whether the blessed hierarchy says a is
// acquired before b.
func (f *Facts) orderedBefore(a, b string) bool { return f.before[a][b] }

// fnSummary is one function's locking behavior, from a linear
// source-order scan of its body (branch-insensitive: precise enough for
// edge discovery, and the approximation errs toward missing an edge
// rather than fabricating one — see lockorder.go).
type fnSummary struct {
	key      string
	acquires map[string]bool // every lock class the body acquires
	calls    []fnCall
	edges    []lockEdge // direct held->acquired pairs with positions
}

type fnCall struct {
	callee string
	pos    token.Position
	held   []string // classes held at the call site
}

// buildLockGraph summarizes every function in the batch, closes the
// call graph, and materializes the global edge list.
func (f *Facts) buildLockGraph(pkgs []*Package) {
	sums := make(map[string]*fnSummary)
	var anon []*fnSummary // function literals: edges count, never callable
	for _, pkg := range pkgs {
		for _, fn := range funcDecls(pkg) {
			s, lits := summarizeFn(pkg, fn)
			sums[s.key] = s
			anon = append(anon, lits...)
		}
	}

	// Transitive acquisition closure over the call graph.
	closure := make(map[string]map[string]bool)
	var acquiresAll func(key string, seen map[string]bool) map[string]bool
	acquiresAll = func(key string, seen map[string]bool) map[string]bool {
		if got, ok := closure[key]; ok {
			return got
		}
		if seen[key] {
			return nil // recursive cycle: members' own summaries cover it
		}
		seen[key] = true
		s := sums[key]
		if s == nil {
			return nil
		}
		out := make(map[string]bool, len(s.acquires))
		for c := range s.acquires {
			out[c] = true
		}
		for _, call := range s.calls {
			for c := range acquiresAll(call.callee, seen) {
				out[c] = true
			}
		}
		closure[key] = out
		return out
	}

	all := make([]*fnSummary, 0, len(sums)+len(anon))
	for _, s := range sums {
		all = append(all, s)
	}
	all = append(all, anon...)
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })

	for _, s := range all {
		f.lockEdges = append(f.lockEdges, s.edges...)
		for _, call := range s.calls {
			if len(call.held) == 0 {
				continue
			}
			acq := acquiresAll(call.callee, make(map[string]bool))
			for _, held := range call.held {
				for c := range acq {
					if c == held {
						continue // same class through a call: instance unknown, don't fabricate
					}
					f.lockEdges = append(f.lockEdges, lockEdge{
						from: held, to: c,
						pos: call.pos,
						via: displayKey(call.callee),
					})
				}
			}
		}
	}
	// Dedupe identical (from, to, position) observations and order the
	// list for deterministic reporting.
	seen := make(map[lockEdgeKey]bool, len(f.lockEdges))
	keep := f.lockEdges[:0]
	for _, e := range f.lockEdges {
		k := lockEdgeKey{e.from, e.to, e.pos.Filename, e.pos.Line, e.pos.Column}
		if seen[k] {
			continue
		}
		seen[k] = true
		keep = append(keep, e)
	}
	f.lockEdges = keep
	sort.Slice(f.lockEdges, func(i, j int) bool {
		a, b := f.lockEdges[i], f.lockEdges[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
}

type lockEdgeKey struct {
	from, to, file string
	line, col      int
}
