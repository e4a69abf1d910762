package analysis_test

import (
	"testing"

	"sfcp/internal/analysis"
	"sfcp/internal/analysis/analysistest"
)

// The fixtures live in testdata and are analyzed under the package
// paths the analyzers key on, so each flagged fixture reproduces the
// exact shape of a violation in the scoped package (including the
// pre-fix jobs.go dispatcher) and each clean fixture pins the sanctioned
// pattern.

func TestEngineDispatch(t *testing.T) {
	analysistest.Run(t, analysis.EngineDispatch, "sfcp/internal/other", "testdata/enginedispatch/flagged")
	analysistest.Run(t, analysis.EngineDispatch, "sfcp", "testdata/enginedispatch/clean")
}

func TestCtxPath(t *testing.T) {
	analysistest.Run(t, analysis.CtxPath, "sfcp/internal/jobs", "testdata/ctxpath/flagged")
	analysistest.Run(t, analysis.CtxPath, "sfcp/internal/jobs", "testdata/ctxpath/clean")
	analysistest.Run(t, analysis.CtxPath, "sfcp/cmd/sfcpd", "testdata/ctxpath/cleanmain")
	analysistest.Run(t, analysis.CtxPath, "sfcp/internal/store", "testdata/ctxpath/storeflagged")
	analysistest.Run(t, analysis.CtxPath, "sfcp/internal/store", "testdata/ctxpath/storeclean")
	analysistest.Run(t, analysis.CtxPath, "sfcp/internal/pool", "testdata/ctxpath/poolflagged")
	analysistest.Run(t, analysis.CtxPath, "sfcp/internal/pool", "testdata/ctxpath/poolclean")
}

// TestCtxPathOutOfScope runs the flagged fixture under an unscoped
// package path: the same Background calls draw no findings there.
func TestCtxPathOutOfScope(t *testing.T) {
	root, modPath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadDir(root, modPath, "testdata/ctxpath/flagged")
	if err != nil {
		t.Fatal(err)
	}
	pkg.Path = "sfcp/internal/bench"
	findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.CtxPath})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding outside scoped packages: %s", f)
	}
}

func TestLockHold(t *testing.T) {
	analysistest.Run(t, analysis.LockHold, "sfcp/internal/server", "testdata/lockhold/flagged")
	analysistest.Run(t, analysis.LockHold, "sfcp/internal/server", "testdata/lockhold/clean")
	analysistest.Run(t, analysis.LockHold, "sfcp/internal/store", "testdata/lockhold/storeflagged")
	analysistest.Run(t, analysis.LockHold, "sfcp/internal/store", "testdata/lockhold/storeclean")
	analysistest.Run(t, analysis.LockHold, "sfcp/internal/pool", "testdata/lockhold/poolflagged")
	analysistest.Run(t, analysis.LockHold, "sfcp/internal/pool", "testdata/lockhold/poolclean")
}

func TestMetricName(t *testing.T) {
	analysistest.Run(t, analysis.MetricName, "sfcp/internal/server", "testdata/metricname/flagged")
	analysistest.Run(t, analysis.MetricName, "sfcp/internal/server", "testdata/metricname/clean")
}

func TestScratchAlias(t *testing.T) {
	analysistest.Run(t, analysis.ScratchAlias, "sfcp/internal/coarsest", "testdata/scratchalias/flagged")
	analysistest.Run(t, analysis.ScratchAlias, "sfcp/internal/coarsest", "testdata/scratchalias/clean")
}

// TestTreeClean is the in-repo gate: the full module must pass every
// analyzer, so `go test` fails the moment an invariant regresses even
// before CI runs the sfcpvet binary.
func TestTreeClean(t *testing.T) {
	root, modPath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadTree(root, modPath, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages from module tree")
	}
	findings, err := analysis.Run(pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}
