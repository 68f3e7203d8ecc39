package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// callee describes the resolved target of a call expression.
type callee struct {
	pkgPath string // defining package ("" for builtins)
	name    string // function or method name
	recv    string // receiver named-type name ("" for plain functions)
	recvX   ast.Expr
}

// resolveCallee resolves a call's target through the type info. It
// handles plain identifiers (locals, package functions), selector calls
// (pkg.Func, value.Method), and parenthesized forms. ok is false for
// builtins, conversions, and calls through unresolvable expressions.
func resolveCallee(info *types.Info, call *ast.CallExpr) (callee, bool) {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	var c callee
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
		c.recvX = f.X
	default:
		return callee{}, false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return callee{}, false
	}
	c.name = fn.Name()
	if fn.Pkg() != nil {
		c.pkgPath = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Named receivers cover both concrete and interface methods
		// (net.Conn is a named interface type).
		if named := namedOf(sig.Recv().Type()); named != nil {
			c.recv = named.Obj().Name()
		}
	} else {
		// Selector on a package name yields a plain function; recvX is
		// the package identifier, not a value.
		if c.recvX != nil {
			if pid, ok := c.recvX.(*ast.Ident); ok {
				if _, isPkg := info.Uses[pid].(*types.PkgName); isPkg {
					c.recvX = nil
				}
			}
		}
	}
	return c, true
}

// namedOf unwraps pointers and aliases to the underlying named type.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex, possibly
// behind a pointer.
func isMutexType(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// returnsError reports whether the call's callee returns an error in any
// result position.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// exprText renders a (small) expression for diagnostics: c.mu, buf.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.UnaryExpr:
		return exprText(x.X)
	case *ast.CallExpr:
		return exprText(x.Fun) + "(…)"
	default:
		return "expr"
	}
}

// isConstExpr reports whether e has a compile-time constant value.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// pkgBase returns the last path element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcDecls returns every function declaration in the package that has
// a body.
func funcDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}

// isGuardedPath reports whether the package path is one of the Gengar
// layers whose locking discipline lock-across-blocking enforces.
// Corpus packages (path testdata/…) are always guarded.
func isGuardedPath(path string) bool {
	// Corpus packages are guarded however they were loaded: LoadDir
	// synthesizes "testdata/<dir>", while the CLI pointed at a corpus
	// directory resolves the real import path through go list.
	if strings.HasPrefix(path, "testdata/") || strings.Contains(path, "/testdata/") {
		return true
	}
	switch pkgBase(path) {
	case "rdma", "proxy", "lock", "cache", "server", "core", "rpc", "tcpnet", "engine":
		return strings.HasPrefix(path, "gengar/internal/")
	}
	return false
}
