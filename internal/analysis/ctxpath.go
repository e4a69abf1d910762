package analysis

import "go/ast"

// CtxPath keeps the cancellation chain unbroken in request- and
// job-scoped code: inside internal/server, internal/jobs, internal/pool,
// internal/store and cmd/sfcpd, a context.Background() or
// context.TODO() severs a solve from the request or daemon lifecycle
// that should be able to cancel it — the exact bug the job dispatcher
// shipped with, where daemon shutdown could not cancel running solves. Contexts there must derive from a
// caller's ctx, an *http.Request, or an explicitly-managed lifecycle
// context. func main is exempt: the process root context legitimately
// starts from Background. A deliberate root elsewhere (e.g. a manager's
// lifecycle context cancelled in Close) carries an //sfcpvet:ignore
// with its justification.
var CtxPath = &Analyzer{
	Name: "ctxpath",
	Doc:  "forbid context.Background/TODO in request- and job-scoped packages",
	Run:  runCtxPath,
}

// ctxScoped are the packages whose code runs per-request or per-job.
var ctxScoped = map[string]bool{
	"sfcp/internal/server": true,
	"sfcp/internal/jobs":   true,
	"sfcp/internal/pool":   true,
	"sfcp/internal/store":  true,
	"sfcp/cmd/sfcpd":       true,
}

func runCtxPath(p *Pass) error {
	if !ctxScoped[p.Pkg.Path] {
		return nil
	}
	for _, f := range p.Pkg.Files {
		if f.IsTest {
			continue
		}
		local, ok := importName(f.AST, "context")
		if !ok || local == "." || local == "_" {
			continue
		}
		httpName, _ := importName(f.AST, "net/http")
		for _, decl := range f.AST.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "main" && p.Pkg.Name == "main" {
				continue
			}
			inScope := callerCtxInScope(decl, local, httpName)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, sym := range []string{"Background", "TODO"} {
					if isPkgSel(call.Fun, local, sym) {
						detail := "derive it from a lifecycle context cancelled on shutdown"
						if inScope {
							detail = "a caller context is in scope; use it"
						}
						p.Reportf(call.Pos(),
							"context.%s() in request/job-scoped package %s; %s", sym, p.Pkg.Path, detail)
					}
				}
				return true
			})
		}
	}
	return nil
}

// callerCtxInScope reports whether decl is a function with a
// context.Context or *http.Request parameter — i.e. a caller already
// handed it the context it should be deriving from.
func callerCtxInScope(decl ast.Decl, ctxName, httpName string) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		t := field.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if sel, ok := t.(*ast.SelectorExpr); ok {
			if isPkgSel(sel, ctxName, "Context") || (httpName != "" && isPkgSel(sel, httpName, "Request")) {
				return true
			}
		}
	}
	return false
}
