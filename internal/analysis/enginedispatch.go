package analysis

import "go/ast"

// EngineDispatch keeps package sfcp's dispatch table the only place a
// coarsest-partition solver may be invoked. Outside package sfcp, the
// solver packages themselves and test files, any reference to a solver
// entry point — call, function value, anything — is a finding.
// Non-solver helpers (Instance, Scratch, NumClasses, SamePartition, the
// incr.Edit/Info types, ...) stay free to use. The same rule covers the
// incremental path: incr.Build constructs live decomposition state, so it
// must flow through sfcp.NewIncremental, whose sessions
// sfcp.Incremental.Apply then advances.
var EngineDispatch = &Analyzer{
	Name: "enginedispatch",
	Doc:  "forbid direct use of solver entry points (coarsest solvers, incr.Build) outside package sfcp",
	Run:  runEngineDispatch,
}

// dispatchRule scopes one guarded package: its solver entry points and
// the packages allowed to touch them directly.
type dispatchRule struct {
	path    string          // guarded import path
	entries map[string]bool // entry-point identifiers in that package
	exempt  map[string]bool // packages allowed direct use
}

// dispatchRules lists every guarded solver surface. Adding a solver
// means adding its name here alongside its sfcp dispatch row.
var dispatchRules = []dispatchRule{
	{
		path: "sfcp/internal/coarsest",
		entries: map[string]bool{
			"Moore":                   true,
			"Hopcroft":                true,
			"LinearSequential":        true,
			"LinearSequentialScratch": true,
			"ParallelPRAM":            true,
			"ParallelPRAMContext":     true,
			"DoublingHashPRAM":        true,
			"DoublingHashPRAMContext": true,
			"DoublingSortPRAM":        true,
			"DoublingSortPRAMContext": true,
			"ChoHuynhPRAM":            true,
		},
		exempt: map[string]bool{
			"sfcp":                   true,
			"sfcp/internal/coarsest": true,
		},
	},
	{
		path:    "sfcp/internal/incr",
		entries: map[string]bool{"Build": true},
		exempt: map[string]bool{
			"sfcp":                   true,
			"sfcp/internal/coarsest": true,
			"sfcp/internal/incr":     true,
		},
	},
}

func runEngineDispatch(p *Pass) error {
	for _, rule := range dispatchRules {
		if rule.exempt[p.Pkg.Path] {
			continue
		}
		for _, f := range p.Pkg.Files {
			if f.IsTest {
				continue
			}
			local, ok := importName(f.AST, rule.path)
			if !ok {
				continue
			}
			if local == "." {
				// A dot import makes entry-point references untrackable.
				p.Reportf(f.AST.Name.Pos(), "dot import of %s hides solver entry points; import it by name", rule.path)
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !rule.entries[sel.Sel.Name] || !isPkgSel(sel, local, sel.Sel.Name) {
					return true
				}
				p.Reportf(sel.Pos(),
					"direct use of %s.%s outside package sfcp; route the solve through its dispatch table",
					local, sel.Sel.Name)
				return true
			})
		}
	}
	return nil
}
