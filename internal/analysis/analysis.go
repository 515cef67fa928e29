// Package analysis is the mnmvet framework: a self-contained
// reimplementation of the golang.org/x/tools/go/analysis pattern
// (Analyzer / Pass / Diagnostic) on the standard library alone, so the
// repo stays dependency-free while its invariants are machine-checked.
//
// The analyzers encode rules the compiler cannot see but the m&m
// protocols die without: per-seed byte-identical simulation, a payload
// codec for every wire-crossing type, no blocking work under a
// peer lock, no timer leaks in loops, and stop-interruptible channel
// waits in the runtime layer. See DESIGN.md "Machine-checked
// invariants" for the rule-to-theorem mapping.
//
// # Directives
//
// Two comment directives tune the rules, both greppable under the
// common prefix //mnmvet::
//
//	//mnmvet:scope <rule>           (file level) opt the whole package
//	                                into a scoped rule — how fixture
//	                                packages activate simdeterminism
//	                                and stopselect.
//	//mnmvet:allow <rule> [reason]  (line level) suppress one finding on
//	                                this line or the next; the reason
//	                                should say why the invariant still
//	                                holds.
//
// The scope directive must appear before the package clause ends (in
// practice: in the file header); allow directives sit on or immediately
// above the offending line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"

	"github.com/mnm-model/mnm/internal/analysis/loader"
)

// Analyzer is one mnmvet rule.
type Analyzer struct {
	// Name identifies the rule in output and directives.
	Name string
	// Doc is a one-paragraph description (shown by mnmvet -list).
	Doc string
	// Scope restricts the rule to packages whose import path ends in one
	// of these suffixes (path-segment aligned). Empty means every
	// package. A //mnmvet:scope directive opts additional packages in.
	Scope []string
	// Run reports the rule's findings on one package.
	Run func(*Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Rule is the reporting analyzer's name.
	Rule string
	// Message states the violation and the fix direction.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// Program is the whole-load context shared by every pass of one Check or
// CheckAll invocation: the full package set plus a fact cache, so
// interprocedural analyzers can build expensive whole-program structures
// (the call graph, the effect summaries) exactly once per run instead of
// once per package. Facts are keyed by string; builders run at most once
// per key (the classic once-per-fact driver pattern from go/analysis,
// flattened because this framework runs single-load).
type Program struct {
	// Pkgs is every package of the load, in import-path order.
	Pkgs []*loader.Package

	mu    sync.Mutex
	facts map[string]any
}

// NewProgram wraps a package set for analysis.
func NewProgram(pkgs []*loader.Package) *Program {
	return &Program{Pkgs: pkgs, facts: map[string]any{}}
}

// Fact returns the cached fact under key, building it on first use. Safe
// for concurrent passes; build runs while the lock is held, so builders
// must not recursively request facts (compose inside one builder instead).
func (p *Program) Fact(key string, build func() any) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.facts[key]; ok {
		return v
	}
	v := build()
	p.facts[key] = v
	return v
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *loader.Package
	// Prog is the whole-program context of this run; per-package syntactic
	// analyzers can ignore it, interprocedural ones pull the call graph and
	// summaries from its fact cache.
	Prog *Program

	directives *directives
	diags      []Diagnostic
}

// Reportf records a finding at pos unless an //mnmvet:allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.directives.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:     position,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// active reports whether a runs on pkg: unscoped analyzers run
// everywhere; scoped ones on matching import paths or packages carrying
// a //mnmvet:scope directive.
func active(a *Analyzer, pkg *loader.Package, dirs *directives) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, suffix := range a.Scope {
		if pkg.ImportPath == suffix || strings.HasSuffix(pkg.ImportPath, "/"+suffix) {
			return true
		}
	}
	return dirs.scoped(a.Name)
}

// Check runs the analyzers over one package and returns the surviving
// diagnostics in position order. The package is its own whole program:
// interprocedural analyzers see only its internal calls.
func Check(pkg *loader.Package, analyzers ...*Analyzer) []Diagnostic {
	return CheckAll([]*loader.Package{pkg}, analyzers...)
}

// CheckAll runs the analyzers over every package — all sharing one
// Program, so interprocedural facts span the whole load — and returns all
// diagnostics, ordered by position.
func CheckAll(pkgs []*loader.Package, analyzers ...*Analyzer) []Diagnostic {
	prog := NewProgram(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := parseDirectives(pkg)
		for _, a := range analyzers {
			if !active(a, pkg, dirs) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, directives: dirs}
			a.Run(pass)
			out = append(out, pass.diags...)
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// directives is the parsed //mnmvet: directive set of one package.
type directives struct {
	// scopes holds rules the package opted into via //mnmvet:scope.
	scopes map[string]bool
	// allows maps rule → file → set of lines with an allow directive.
	// A directive on line L suppresses findings on L and L+1, so both
	// trailing and preceding-line placements work.
	allows map[string]map[string]map[int]bool
}

const directivePrefix = "//mnmvet:"

func parseDirectives(pkg *loader.Package) *directives {
	d := &directives{
		scopes: map[string]bool{},
		allows: map[string]map[string]map[int]bool{},
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue
				}
				verb, rule := fields[0], fields[1]
				pos := pkg.Fset.Position(c.Pos())
				switch verb {
				case "scope":
					d.scopes[rule] = true
				case "allow":
					if d.allows[rule] == nil {
						d.allows[rule] = map[string]map[int]bool{}
					}
					if d.allows[rule][pos.Filename] == nil {
						d.allows[rule][pos.Filename] = map[int]bool{}
					}
					d.allows[rule][pos.Filename][pos.Line] = true
				}
			}
		}
	}
	return d
}

func (d *directives) scoped(rule string) bool { return d.scopes[rule] }

func (d *directives) suppressed(rule string, pos token.Position) bool {
	lines := d.allows[rule][pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// --- shared AST/type helpers for the analyzers ---

// CalleeFunc returns the identifier naming a call's callee — the plain
// identifier or the selector's Sel — or nil when the call's Fun is
// neither (a literal, an index or call expression). Its Uses entry is
// the *types.Func of a static call, or the variable a func value is
// called through.
func CalleeFunc(pkg *loader.Package, call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}
