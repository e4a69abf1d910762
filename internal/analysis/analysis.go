// Package analysis is sfcpvet's analyzer suite: project-specific static
// checks that turn the codebase's concurrency and dispatch conventions
// into mechanically enforced invariants. The five analyzers are
//
//	enginedispatch — internal/coarsest solver entry points may only be
//	                 invoked from package sfcp's dispatch table
//	ctxpath        — request- and job-scoped packages must not mint
//	                 context.Background()/TODO() detached from a caller
//	                 or lifecycle context
//	lockhold       — no channel operations, solver invocations or I/O
//	                 while a sync.Mutex/RWMutex is held
//	metricname     — every sfcpd_* metric family name is a package
//	                 constant with exactly one # TYPE line and at least
//	                 one sample site
//	scratchalias   — slices handed out by a coarsest.Scratch arena must
//	                 not be returned or stored without a copy
//
// The module is deliberately dependency-free, so instead of building on
// golang.org/x/tools/go/analysis this package carries a minimal clone of
// that API's shape (Analyzer/Pass/Diagnostic) driven purely by the
// standard library's parser. The analyzers are syntactic: they resolve
// package identity from import paths and spelling rather than go/types,
// which keeps them fast and hermetic at the cost of being heuristics —
// a renamed import is followed, but an aliased type is not. Findings a
// human has judged acceptable are silenced in place with
//
//	//sfcpvet:ignore <analyzer>[,<analyzer>] -- reason
//
// on (or immediately above) the offending line, or file-wide with
// //sfcpvet:ignore-file. A directive without a reason is itself a
// finding: suppressions must say why.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Analyzer is one named check. Run inspects a package and reports
// findings through the pass; it returns an error only for internal
// failures, never for findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// File is one parsed source file plus the metadata analyzers key on.
type File struct {
	AST    *ast.File
	Name   string // file name as given to the parser
	IsTest bool   // *_test.go — most analyzers exempt tests
}

// Package is the unit an analyzer runs over: every file of one
// directory, test files included, under the directory's import path.
type Package struct {
	Path  string // import path, e.g. "sfcp/internal/server"
	Name  string // package name of the non-test files
	Fset  *token.FileSet
	Files []*File
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet
	report   func(Diagnostic)
}

// Diagnostic is a single finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a resolved diagnostic: analyzer name plus concrete position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzers returns the full suite in canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{EngineDispatch, CtxPath, LockHold, MetricName, ScratchAlias}
}

// Run executes the analyzers over the packages, applies //sfcpvet:ignore
// suppressions, and returns the surviving findings sorted by position.
// Malformed directives (no reason) surface as findings themselves.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		ign, bad := collectIgnores(pkg)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Fset: pkg.Fset}
			pass.report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if ign.suppressed(a.Name, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// importName returns the local name under which f imports path, or
// "", false when it does not. Renamed imports follow the rename; dot
// and blank imports return their spelling so callers can reject them.
func importName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p, true
	}
	return "", false
}

// isPkgSel reports whether expr is pkgName.sym where pkgName is a bare
// package identifier (not a field access on a local variable).
func isPkgSel(expr ast.Expr, pkgName, sym string) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != sym {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkgName && id.Obj == nil
}

// exprString renders a small expression (a lock receiver, a callee) the
// way it is spelled, for matching and messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "<expr>"
}
