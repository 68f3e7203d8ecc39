// Package analysis is gengar-lint's engine: a stdlib-only static
// analysis driver (go/parser + go/ast + go/types, no x/tools) that
// loads every package in the module and runs three Gengar-specific
// analyzers over them — the rules that have led to code fixes and that
// no dynamic test covers:
//
//   - lock-across-blocking: a sync.Mutex/RWMutex must not be held
//     across a wall-clock blocking operation (a call into tcpnet/rpc, a
//     channel send or receive, an RDMA post) — the availability hazard
//     of a stalled peer freezing every caller of the lock.
//   - hotpath-alloc: functions annotated //gengar:hotpath must not call
//     time.Now or fmt.Sprint*, and must not allocate outside pooled or
//     amortized storage.
//   - errcheck-core: errors returned by core/proxy/rdma (and the other
//     pool APIs) must not be silently discarded.
//
// Concurrency protocols (seqlock, COW publication, atomic access, lock
// order) are checked dynamically under -race; DESIGN.md "Static
// analysis" lists which test covers which property.
//
// A finding is suppressed with an explicit, reasoned annotation:
//
//	//gengar:lint-ignore <analyzer> <reason>
//
// on the finding's line, the line above it, or — for
// lock-across-blocking — on the mutex field's declaration (which marks
// every critical section of that mutex as intentional, e.g. a
// single-actor serialization lock). A suppression without a reason is
// itself a finding.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one analyzer diagnostic.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// An Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass) []Finding
}

// Pass is the per-package context handed to each analyzer.
type Pass struct {
	Pkg      *Package
	suppress *suppressions
}

// finding constructs a Finding for the analyzer at pos.
func (p *Pass) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	position := p.Pkg.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// SuppressedAt reports whether an ignore directive for the analyzer
// covers the given position (same line or the line above). Analyzers
// use it for secondary anchor points — e.g. lock-across-blocking checks
// the mutex field declaration and the Lock() site in addition to the
// blocking call the finding is reported at.
func (p *Pass) SuppressedAt(analyzer string, pos token.Pos) bool {
	return p.suppress.covers(analyzer, p.Pkg.Fset.Position(pos))
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		lockAcrossBlocking,
		hotpathAlloc,
		errcheckCore,
	}
}

// Run applies the suite to the packages, filters findings through the
// suppression directives, and appends a finding for every broken
// directive (missing reason, unknown analyzer name) and every stale one
// (a well-formed directive that suppressed nothing). Results are sorted
// by position.
func Run(pkgs []*Package) []Finding {
	suite := Analyzers()
	known := make(map[string]bool)
	for _, a := range suite {
		known[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		pass := &Pass{Pkg: pkg, suppress: sup}
		for _, a := range suite {
			for _, f := range a.Run(pass) {
				if sup.covers(a.Name, f.Pos) {
					continue
				}
				out = append(out, f)
			}
		}
		out = append(out, sup.directiveFindings(known)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
