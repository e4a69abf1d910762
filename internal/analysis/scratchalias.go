package analysis

import "go/ast"

// ScratchAlias guards the scratch-arena contract: buffers handed out by
// a coarsest.Scratch (bufI32/bufI32Raw) are recycled by the next solve,
// so a slice derived from one must never outlive the call — returning
// it, storing it into a field, or sending it on a channel publishes
// memory that the arena will scribble over. Escaping data must be copied
// into a fresh allocation first.
//
// The taint tracking is syntactic and per-function: a variable assigned
// from an arena call (or sliced/appended from a tainted variable) is
// tainted; copy(dst, src) and fresh make()+copy idioms launder as
// expected because dst was never tainted.
var ScratchAlias = &Analyzer{
	Name: "scratchalias",
	Doc:  "forbid returning or storing slices derived from a Scratch arena without a copy",
	Run:  runScratchAlias,
}

var scratchBufFuncs = map[string]bool{"bufI32": true, "bufI32Raw": true}

func runScratchAlias(p *Pass) error {
	for _, f := range p.Pkg.Files {
		if f.IsTest {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkScratchEscapes(p, fn.Body)
				}
			case *ast.FuncLit:
				checkScratchEscapes(p, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkScratchEscapes taints arena-derived variables within one body and
// flags returns, field stores and channel sends of tainted values.
func checkScratchEscapes(p *Pass, body *ast.BlockStmt) {
	tainted := map[string]bool{}
	isTainted := func(e ast.Expr) bool { return scratchTainted(e, tainted) }

	// Taint to a fixpoint: assignments can forward taint through
	// intermediate variables declared in any order within the body.
	for changed := true; changed; {
		changed = false
		inspectSameFunc(body, func(n ast.Node) {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || tainted[id.Name] {
					continue
				}
				if isTainted(assign.Rhs[i]) {
					tainted[id.Name] = true
					changed = true
				}
			}
		})
	}

	inspectSameFunc(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isTainted(res) {
					p.Reportf(res.Pos(),
						"returning a slice backed by the Scratch arena; the next solve reuses it — copy into a fresh slice first")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if _, isSel := lhs.(*ast.SelectorExpr); isSel && isTainted(n.Rhs[i]) {
					p.Reportf(n.Rhs[i].Pos(),
						"storing a Scratch-arena slice in a field; it outlives the solve — copy into a fresh slice first")
				}
			}
		case *ast.SendStmt:
			if isTainted(n.Value) {
				p.Reportf(n.Value.Pos(),
					"sending a Scratch-arena slice on a channel; the receiver outlives the solve — copy into a fresh slice first")
			}
		}
	})
}

// scratchTainted reports whether expr is arena-derived: a direct
// bufI32/bufI32Raw call, a tainted variable, or a slice/append/conversion
// built from one.
func scratchTainted(expr ast.Expr, tainted map[string]bool) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return tainted[e.Name]
	case *ast.ParenExpr:
		return scratchTainted(e.X, tainted)
	case *ast.SliceExpr:
		return scratchTainted(e.X, tainted)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && scratchBufFuncs[sel.Sel.Name] {
			return true
		}
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range e.Args {
				if scratchTainted(arg, tainted) {
					return true
				}
			}
		}
		return false
	}
	return false
}
