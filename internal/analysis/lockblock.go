package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockAcrossBlocking flags critical sections in the pool's guarded
// layers (rdma, proxy, lock, cache, server, core, rpc, tcpnet) that
// hold a sync.Mutex or sync.RWMutex across a wall-clock blocking
// operation: a channel send/receive, a call into tcpnet or rpc (other
// than rpc's Writer and Reader codecs), a
// stdlib net call, an RDMA queue-pair post, a gate advance, a
// sync.WaitGroup.Wait, or a time.Sleep. A stalled peer inside such a
// section freezes every other goroutine that touches the lock — the
// availability hazard the proxy's bounded worker channels exist to
// avoid.
//
// The check is intraprocedural and branch-sensitive: branches that
// terminate (return, panic) drop out of the merge, so the common
// "unlock-and-return on error" shape does not leak held state. Function
// literals and go statements start fresh — a spawned goroutine does not
// inherit the creator's critical section.
//
// A deliberate critical section is suppressed either at the offending
// line or at the mutex field's declaration; the latter marks every
// section of that mutex as intentional (e.g. core.Client.mu, which
// serializes a single application actor by design).
const lockBlockName = "lock-across-blocking"

var lockAcrossBlocking = &Analyzer{
	Name: lockBlockName,
	Doc:  "mutex held across a blocking network, channel, or RDMA operation",
	Run:  runLockAcrossBlocking,
}

func runLockAcrossBlocking(p *Pass) []Finding {
	if !isGuardedPath(p.Pkg.Path) {
		return nil
	}
	var out []Finding
	for _, fn := range funcDecls(p.Pkg) {
		w := &lockWalker{pass: p, pkgPath: p.Pkg.Path}
		w.block(fn.Body.List, newLockSet())
		out = append(out, w.findings...)
	}
	return out
}

// heldLock is one tracked acquisition.
type heldLock struct {
	text       string // rendered mutex expression, e.g. "c.mu"
	acquirePos token.Pos
}

// lockSet maps a mutex key (object pointer when resolvable, else the
// rendered expression) to its acquisition.
type lockSet map[any]heldLock

func newLockSet() lockSet { return make(lockSet) }

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockSet) union(o lockSet) {
	for k, v := range o {
		if _, ok := s[k]; !ok {
			s[k] = v
		}
	}
}

type lockWalker struct {
	pass     *Pass
	pkgPath  string
	findings []Finding
	// inSelectComm suppresses blocking reports while walking a select
	// case's comm statement: the select itself is the blocking point
	// (and with a default clause the comm ops never block at all).
	inSelectComm bool
}

// block walks a statement list sequentially, threading the held-lock
// set through it, and returns (resulting set, terminated).
func (w *lockWalker) block(stmts []ast.Stmt, held lockSet) (lockSet, bool) {
	for _, s := range stmts {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held lockSet) (lockSet, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
		w.blockingOp(s.Arrow, "channel send", held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing construct; treating
		// them as terminating keeps the merge conservative without
		// modeling jump targets.
		return held, true
	case *ast.BlockStmt:
		return w.block(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		thenSet, thenTerm := w.block(s.Body.List, held.clone())
		elseSet, elseTerm := held.clone(), false
		if s.Else != nil {
			elseSet, elseTerm = w.stmt(s.Else, held.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseSet, false
		case elseTerm:
			return thenSet, false
		default:
			thenSet.union(elseSet)
			return thenSet, false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body, _ := w.block(s.Body.List, held.clone())
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		held.union(body)
		return held, false
	case *ast.RangeStmt:
		w.expr(s.X, held)
		if isChanType(w.pass, s.X) {
			w.blockingOp(s.For, "range over channel", held)
		}
		body, _ := w.block(s.Body.List, held.clone())
		held.union(body)
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		return w.switchBody(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		return w.switchBody(s.Body, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blockingOp(s.Select, "select without default", held)
		}
		merged := newLockSet()
		any := false
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			caseSet := held.clone()
			if cc.Comm != nil {
				w.inSelectComm = true
				caseSet, _ = w.stmt(cc.Comm, caseSet)
				w.inSelectComm = false
			}
			caseSet, term := w.block(cc.Body, caseSet)
			if !term {
				merged.union(caseSet)
				any = true
			}
		}
		if !any {
			return held, true
		}
		return merged, false
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return — the lock stays held
		// for the rest of the body, which is exactly what the current
		// set already says, so a deferred unlock changes nothing here.
		// Other deferred calls run after the section too; skip their
		// bodies but still classify locking on the call itself is not
		// needed.
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
	case *ast.GoStmt:
		// A spawned goroutine does not run inside this critical
		// section; only evaluate the (synchronous) arguments.
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.EmptyStmt:
	}
	return held, false
}

// switchBody merges the case clauses of a switch the same way if merges
// its branches.
func (w *lockWalker) switchBody(body *ast.BlockStmt, held lockSet) (lockSet, bool) {
	merged := held.clone() // no-match path falls through with entry set
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.expr(e, held)
		}
		caseSet, term := w.block(cc.Body, held.clone())
		if !term {
			merged.union(caseSet)
		}
	}
	return merged, false
}

// expr scans an expression for channel receives, lock transitions, and
// blocking calls. Function literal bodies are skipped: they run later,
// in a context of their own.
func (w *lockWalker) expr(e ast.Expr, held lockSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blockingOp(n.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			w.call(n, held)
		}
		return true
	})
}

func (w *lockWalker) call(call *ast.CallExpr, held lockSet) {
	c, ok := resolveCallee(w.pass.Pkg.Info, call)
	if !ok {
		return
	}
	// Lock transitions: methods on sync.Mutex/RWMutex values.
	if c.pkgPath == "sync" && c.recvX != nil && isMutexType(typeOf(w.pass, c.recvX)) {
		key, declPos := mutexKey(w.pass, c.recvX)
		switch c.name {
		case "Lock", "RLock":
			// A reasoned ignore at the Lock site or at the mutex
			// field's declaration marks every section of this mutex as
			// deliberate; the lock is then not tracked at all.
			if w.pass.SuppressedAt(lockBlockName, call.Pos()) {
				return
			}
			if declPos.IsValid() && w.pass.SuppressedAt(lockBlockName, declPos) {
				return
			}
			held[key] = heldLock{text: exprText(c.recvX), acquirePos: call.Pos()}
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return
	}
	if why, blocking := w.blockingCall(c); blocking {
		w.blockingOp(call.Pos(), why, held)
	}
}

// blockingCall classifies a resolved callee as wall-clock blocking.
// Same-package calls are never classified (the check is intraprocedural;
// a package's own helpers are analyzed where they block).
func (w *lockWalker) blockingCall(c callee) (string, bool) {
	if c.pkgPath == w.pkgPath {
		return "", false
	}
	switch c.pkgPath {
	case "gengar/internal/tcpnet":
		return "call into tcpnet", true
	case "gengar/internal/rpc":
		// Writer and Reader are in-memory codecs: encoding a table under
		// its own lock waits on nothing. Calls and dials wait on the peer.
		if c.recv != "Writer" && c.recv != "Reader" {
			return "call into rpc", true
		}
	case "net":
		return "net call", true
	case "time":
		if c.name == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if c.recv == "WaitGroup" && c.name == "Wait" {
			return "sync.WaitGroup.Wait", true
		}
	case "gengar/internal/rdma":
		if c.recv == "QP" {
			switch c.name {
			case "Write", "Read", "Send", "Recv", "ReadBatch", "WriteBatch",
				"CompareAndSwap", "FetchAdd":
				return "RDMA post " + c.name, true
			}
		}
	case "gengar/internal/simnet":
		if c.recv == "GateHandle" && c.name == "Advance" {
			return "gate advance", true
		}
	}
	return "", false
}

func (w *lockWalker) blockingOp(pos token.Pos, why string, held lockSet) {
	if w.inSelectComm {
		return
	}
	for _, l := range held {
		if w.pass.SuppressedAt(lockBlockName, l.acquirePos) {
			continue
		}
		acq := w.pass.Pkg.Fset.Position(l.acquirePos)
		w.findings = append(w.findings, w.pass.finding(lockBlockName, pos,
			"%s held across %s (acquired at line %d)", l.text, why, acq.Line))
	}
}

// mutexKey returns a stable identity for the mutex operand — the
// types.Object of its final identifier when resolvable (the field or
// variable declaration), else the rendered expression — plus the
// declaration position for decl-level suppression lookup.
func mutexKey(p *Pass, operand ast.Expr) (any, token.Pos) {
	switch x := ast.Unparen(operand).(type) {
	case *ast.Ident:
		if obj := objOf(p, x); obj != nil {
			return obj, obj.Pos()
		}
	case *ast.SelectorExpr:
		if obj := objOf(p, x.Sel); obj != nil {
			return obj, obj.Pos()
		}
	}
	return exprText(operand), token.NoPos
}

func objOf(p *Pass, id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// typeOf returns the static type of e, or nil when untyped.
func typeOf(p *Pass, e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isChanType reports whether e's type is a channel.
func isChanType(p *Pass, e ast.Expr) bool {
	t := typeOf(p, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
