package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// ignoreAnalyzerName is the pseudo analyzer that reports malformed
// //gengar:lint-ignore directives. It cannot be suppressed.
const ignoreAnalyzerName = "lint-ignore"

const ignorePrefix = "//gengar:lint-ignore"

// directive is one parsed //gengar:lint-ignore comment.
type directive struct {
	pos      token.Position
	analyzer string // "" when missing
	reason   string // "" when missing
}

// suppLine is one well-formed directive's line, with a used bit set
// when it actually covers a finding (or a secondary anchor an analyzer
// consulted): an unused directive is stale and itself reported.
type suppLine struct {
	line int
	used bool
}

// suppressions indexes a package's ignore directives by file and line.
type suppressions struct {
	// byKey maps "<analyzer>\x00<file>" to the sorted lines holding a
	// well-formed directive for that analyzer.
	byKey  map[string][]*suppLine
	broken []directive
}

// collectSuppressions parses every //gengar:lint-ignore directive in the
// package. A directive must name an analyzer and give a reason; ones
// that do not are recorded as broken and reported as findings.
func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byKey: make(map[string][]*suppLine)}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //gengar:lint-ignorexyz — not ours
				}
				d := directive{pos: pkg.Fset.Position(c.Pos())}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					d.analyzer = fields[0]
				}
				if len(fields) > 1 {
					d.reason = strings.Join(fields[1:], " ")
				}
				if d.analyzer == "" || d.reason == "" {
					s.broken = append(s.broken, d)
					continue
				}
				key := d.analyzer + "\x00" + d.pos.Filename
				s.byKey[key] = append(s.byKey[key], &suppLine{line: d.pos.Line})
			}
		}
	}
	for _, lines := range s.byKey {
		sort.Slice(lines, func(i, j int) bool { return lines[i].line < lines[j].line })
	}
	return s
}

// covers reports whether a well-formed directive for the analyzer sits
// on the finding's line or on the line directly above it, marking every
// matching directive as used.
func (s *suppressions) covers(analyzer string, pos token.Position) bool {
	hit := false
	for _, l := range s.byKey[analyzer+"\x00"+pos.Filename] {
		if l.line == pos.Line || l.line == pos.Line-1 {
			l.used = true
			hit = true
		}
	}
	return hit
}

// directiveFindings reports the directives that are themselves wrong:
// missing an analyzer name or a reason, naming an analyzer that does
// not exist (a typo would otherwise silently suppress nothing — or
// worse, the author believes it does), or well-formed but stale — they
// suppressed nothing. Call it after every analyzer has run.
func (s *suppressions) directiveFindings(known map[string]bool) []Finding {
	at := func(file string, line, col int, msg string) Finding {
		return Finding{
			Analyzer: ignoreAnalyzerName,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			File:     file,
			Line:     line,
			Col:      col,
			Message:  msg,
		}
	}
	var out []Finding
	for _, d := range s.broken {
		out = append(out, at(d.pos.Filename, d.pos.Line, d.pos.Column,
			"lint-ignore directive needs an analyzer name and a reason: //gengar:lint-ignore <analyzer> <reason>"))
	}
	for key, lines := range s.byKey {
		name, file, _ := strings.Cut(key, "\x00")
		for _, line := range lines {
			switch {
			case !known[name]:
				out = append(out, at(file, line.line, 1, "lint-ignore names unknown analyzer "+strconv.Quote(name)))
			case !line.used:
				out = append(out, at(file, line.line, 1, "lint-ignore for "+name+" suppresses nothing: remove the stale directive"))
			}
		}
	}
	return out
}

// hasHotpathDirective reports whether the function declaration carries a
// //gengar:hotpath annotation in its doc comment.
func hasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == "//gengar:hotpath" || strings.HasPrefix(text, "//gengar:hotpath ") {
			return true
		}
	}
	return false
}
