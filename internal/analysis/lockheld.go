package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockheldIOPackages lists the packages whose I/O entry points must not
// be reached while a mutex is held. Settable via -lockheld.iopackages.
var LockheldIOPackages = NewPackageList(
	"net",
	"rpcscale/internal/wire",
)

// RPCCallNames are the method names treated as RPC issue/dispatch points
// by lockheld. Settable via -lockheld.callnames.
var RPCCallNames = NewStringSet("Invoke", "Call", "CallHedged", "OpenStream")

// LockheldAnalyzer flags blocking operations — channel sends/receives,
// network and wire I/O, RPC dispatch — reachable while a sync.Mutex or
// sync.RWMutex is held in the same function body.
//
// The analysis is intraprocedural and interval-based: a lock is held from
// its Lock/RLock call to the matching Unlock/RUnlock in the same body (to
// the end of the body when the release is deferred or absent). Channel
// operations in a `select` that has a `default` clause are non-blocking
// and exempt. Goroutine and closure bodies (func literals) are analyzed
// as their own scopes: a lock held at `go func(){...}()` spawn time is
// not held inside the goroutine.
var LockheldAnalyzer = &Analyzer{
	Name: "lockheld",
	Doc: "flag channel operations, " + LockheldIOPackages.String() + " I/O, and " +
		RPCCallNames.String() + " dispatch while a sync.Mutex/RWMutex is held in the same " +
		"function body; blocking under a lock stalls every other path through it",
	Run: runLockheld,
}

// ioNamePrefixes select the I/O-performing functions of
// LockheldIOPackages; pure helpers (net.JoinHostPort, wire frame
// constructors) pass.
var ioNamePrefixes = []string{"Read", "Write", "Dial", "Listen", "Accept", "Send", "Recv", "Flush"}

func isIOName(name string) bool {
	for _, p := range ioNamePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// lockEvent is one Lock/Unlock (or RLock/RUnlock) call on a sync lock.
type lockEvent struct {
	pos      token.Pos
	key      string // printed receiver expression, "/R" suffix for read locks
	acquire  bool
	deferred bool
}

// riskOp is one potentially blocking operation.
type riskOp struct {
	pos  token.Pos
	desc string
}

// heldRegion is one [acquire, release] interval.
type heldRegion struct {
	from, to token.Pos
	key      string
	line     int
}

func runLockheld(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lockheldScope(pass, fn.Body)
				}
			case *ast.FuncLit:
				lockheldScope(pass, fn.Body)
				// Children that are themselves func literals are found by
				// the enclosing Inspect; scopes never nest here because
				// lockheldScope does not descend into literals.
			}
			return true
		})
	}
	return nil
}

// lockheldScope analyzes one function body, treating nested func literals
// as opaque.
func lockheldScope(pass *Pass, body *ast.BlockStmt) {
	var (
		events []lockEvent
		ops    []riskOp
		exempt []span // comm headers of selects that have a default clause
	)
	var walk func(n ast.Node, inDefer bool)
	collect := func(n ast.Node, inDefer bool) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, lock not held inside
		case *ast.DeferStmt:
			walk(x.Call, true)
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, c := range x.Body.List {
					cc := c.(*ast.CommClause)
					if cc.Comm != nil {
						exempt = append(exempt, span{cc.Comm.Pos(), cc.Comm.End()})
					}
				}
			}
		case *ast.SendStmt:
			ops = append(ops, riskOp{x.Arrow, "channel send"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ops = append(ops, riskOp{x.OpPos, "channel receive"})
			}
		case *ast.CallExpr:
			if ev, ok := lockCall(pass.TypesInfo, x); ok {
				ev.deferred = inDefer && !ev.acquire
				events = append(events, ev)
				return true
			}
			if desc, ok := riskyCall(pass.TypesInfo, x); ok {
				ops = append(ops, riskOp{x.Pos(), desc})
			}
		}
		return true
	}
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			return collect(m, inDefer)
		})
	}
	walk(body, false)
	if len(events) == 0 || len(ops) == 0 {
		return
	}

	regions := pairRegions(events, body.End())
	for i := range regions {
		regions[i].line = pass.Fset.Position(regions[i].from).Line
	}
	inExempt := func(p token.Pos) bool {
		for _, s := range exempt {
			if s.from <= p && p < s.to {
				return true
			}
		}
		return false
	}
	for _, op := range ops {
		if strings.HasPrefix(op.desc, "channel") && inExempt(op.pos) {
			continue
		}
		for _, r := range regions {
			if r.from < op.pos && op.pos < r.to {
				pass.Reportf(op.pos,
					"%s while %s is held (locked at line %d); move the blocking operation outside the critical section or //rpclint:ignore with a reason",
					op.desc, strings.TrimSuffix(r.key, "/R"), r.line)
				break
			}
		}
	}
}

type span struct{ from, to token.Pos }

// lockCall recognizes X.Lock/RLock/Unlock/RUnlock where X is a
// sync.Mutex or sync.RWMutex.
func lockCall(info *types.Info, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return lockEvent{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isSyncLock(tv.Type) {
		return lockEvent{}, false
	}
	key := types.ExprString(sel.X)
	if strings.HasPrefix(name, "R") {
		key += "/R"
	}
	return lockEvent{
		pos:     call.Pos(),
		key:     key,
		acquire: name == "Lock" || name == "RLock",
	}, true
}

// riskyCall classifies a call as I/O or RPC dispatch.
func riskyCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn != nil {
		if pkg := funcPkgPath(fn); pkg != "" && LockheldIOPackages.Match(pkg) && isIOName(fn.Name()) {
			return pkg + "." + fn.Name() + " I/O", true
		}
	}
	// RPC dispatch is matched by name so that func-typed fields
	// (interceptor chains) count too.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && RPCCallNames.Has(sel.Sel.Name) {
		return "RPC dispatch via " + sel.Sel.Name, true
	}
	if fn != nil && fn.Signature().Recv() != nil && RPCCallNames.Has(fn.Name()) {
		return "RPC dispatch via " + fn.Name(), true
	}
	return "", false
}

// pairRegions matches acquires to releases in position order (LIFO per
// lock key); an acquire whose release is deferred or missing holds to the
// end of the body.
func pairRegions(events []lockEvent, bodyEnd token.Pos) []heldRegion {
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	open := make(map[string][]int) // key -> stack of indexes into regions
	var regions []heldRegion
	for _, ev := range events {
		if ev.acquire {
			open[ev.key] = append(open[ev.key], len(regions))
			regions = append(regions, heldRegion{from: ev.pos, to: bodyEnd, key: ev.key})
			continue
		}
		if ev.deferred {
			continue // holds to end of body, which is the default
		}
		if stack := open[ev.key]; len(stack) > 0 {
			idx := stack[len(stack)-1]
			open[ev.key] = stack[:len(stack)-1]
			regions[idx].to = ev.pos
		}
	}
	return regions
}
