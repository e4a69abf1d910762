package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockHold flags work performed while a sync.Mutex/RWMutex is held in
// internal/server, internal/jobs, internal/pool and internal/store:
// channel sends/receives, selects, solver invocations, blocking waits,
// sleeps and I/O. Mutexes there guard in-memory maps and counters on
// request hot paths — holding one across anything that can block turns
// every other request into a convoy (or, with channels, a deadlock).
//
// The check is syntactic and per-function: a region starts at a
// x.Lock()/x.RLock() call and ends at the next x.Unlock()/x.RUnlock()
// with the same spelled receiver (a deferred unlock extends the region
// to the end of the function). Nested function literals are analyzed as
// their own bodies — a closure defined under a lock usually runs
// elsewhere. sync.Cond receivers are exempt from the Wait rule: waiting
// with the mutex held is the condvar protocol.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "forbid channel operations, solver calls and I/O while a mutex is held",
	Run:  runLockHold,
}

var lockScoped = map[string]bool{
	"sfcp/internal/server": true,
	"sfcp/internal/jobs":   true,
	"sfcp/internal/pool":   true,
	"sfcp/internal/store":  true,
}

// lockBlockingIO names callees that perform (or can perform) blocking
// I/O or scheduling waits when reached with a lock held.
var lockBlockingIO = map[string]bool{
	"Read": true, "Write": true, "ReadAll": true, "ReadFull": true,
	"Copy": true, "WriteString": true, "WriteTo": true, "ReadFrom": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true, "Flush": true,
	"Do": true, "Encode": true, "Decode": true, "Sleep": true,
}

func runLockHold(p *Pass) error {
	if !lockScoped[p.Pkg.Path] {
		return nil
	}
	for _, f := range p.Pkg.Files {
		if f.IsTest {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockRegions(p, fn.Body)
				}
			case *ast.FuncLit:
				checkLockRegions(p, fn.Body)
			}
			return true
		})
	}
	return nil
}

type lockEvent struct {
	pos    token.Pos
	recv   string
	unlock bool
}

type lockRegion struct {
	recv     string
	from, to token.Pos
}

// checkLockRegions computes the held intervals of one function body and
// flags blocking work inside them. Nested function literals are skipped
// here (the caller visits them as separate bodies).
func checkLockRegions(p *Pass, body *ast.BlockStmt) {
	deferred := map[*ast.CallExpr]bool{}
	var events []lockEvent
	inspectSameFunc(body, func(n ast.Node) {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			events = append(events, lockEvent{pos: call.Pos(), recv: exprString(sel.X)})
		case "Unlock", "RUnlock":
			if !deferred[call] {
				events = append(events, lockEvent{pos: call.Pos(), recv: exprString(sel.X), unlock: true})
			}
		}
	})
	if len(events) == 0 {
		return
	}
	var regions []lockRegion
	used := make([]bool, len(events))
	for i, ev := range events {
		if ev.unlock {
			continue
		}
		region := lockRegion{recv: ev.recv, from: ev.pos, to: body.End()}
		for j := i + 1; j < len(events); j++ {
			if events[j].unlock && !used[j] && events[j].recv == ev.recv {
				region.to = events[j].pos
				used[j] = true
				break
			}
		}
		regions = append(regions, region)
	}
	held := func(pos token.Pos) (string, bool) {
		for _, r := range regions {
			if pos > r.from && pos < r.to {
				return r.recv, true
			}
		}
		return "", false
	}
	flag := func(pos token.Pos, what string) {
		if recv, ok := held(pos); ok {
			p.Reportf(pos, "%s while %s is locked; shrink the critical section", what, recv)
		}
	}
	inspectSameFunc(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			flag(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				flag(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			flag(n.Pos(), "select")
		case *ast.CallExpr:
			if what, ok := blockingCall(n); ok {
				flag(n.Pos(), what)
			}
		}
	})
}

// blockingCall classifies a call as blocking work by callee name.
func blockingCall(call *ast.CallExpr) (string, bool) {
	var name, recv string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		recv = exprString(fun.X)
	default:
		return "", false
	}
	lower := strings.ToLower(name)
	switch {
	case strings.HasPrefix(lower, "solve"):
		return "solver invocation " + name, true
	case lower == "submit":
		return "pool submission", true
	case name == "Wait":
		// cond.Wait with the mutex held is the sync.Cond protocol.
		if strings.HasSuffix(strings.ToLower(recv), "cond") {
			return "", false
		}
		return "blocking Wait", true
	case lockBlockingIO[name]:
		return "I/O call " + name, true
	}
	return "", false
}

// inspectSameFunc visits every node of body without descending into
// nested function literals.
func inspectSameFunc(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
