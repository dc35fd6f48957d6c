package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// protocolPackages are the import paths whose code must be a pure
// deterministic state machine: the Figure-1 core, the comparison protocols,
// the replay/model-checking layers that re-execute them, and the quorum
// arithmetic they share. The WAL is listed too: recovery replays it to
// rebuild protocol state, so a hidden clock or goroutine there would unsound
// crash-recovery the same way it unsounds replay — which is why the WAL owns
// no fsync timer: its host's I/O scheduler commits it (smr.IOScheduler), and
// a host that wants timed fsyncs calls Sync itself. The simulator and the live
// host are deliberately NOT listed — they own the clock and the network on
// the protocols' behalf.
var protocolPackages = map[string]bool{
	"repro/internal/consensus":  true,
	"repro/internal/core":       true,
	"repro/internal/paxos":      true,
	"repro/internal/fastpaxos":  true,
	"repro/internal/epaxos":     true,
	"repro/internal/lowerbound": true,
	"repro/internal/mc":         true,
	"repro/internal/quorum":     true,
	"repro/internal/wal":        true,
	// The lease table is replayed from the log on recovery, so it must be
	// as deterministic as the protocols: all time flows in as arguments.
	"repro/internal/lease": true,
	// A replica's slot log is replayed input for input and must yield the
	// same effects, byte for byte; its host carries out the I/O and clocks.
	"repro/internal/smr/slotlog": true,
	// Geo topologies are pure arithmetic over the RTT matrix; a hidden
	// clock or random jitter there would make WAN delay schedules
	// unreproducible across runs of the same topology and scale.
	"repro/internal/wan": true,
}

// IsProtocolPackage reports whether path is subject to the determinism
// contract.
func IsProtocolPackage(path string) bool { return protocolPackages[path] }

// seededPackages are subject to the weaker seed-reproducibility contract:
// the chaos harness and the linearizability checker promise that a seed
// fully determines the schedule and the verdict (scenario.go derives every
// rng from the seed; CHAOS.md documents replayability). They legitimately
// own clocks, timeouts and goroutines — they drive the system under test —
// so only the two checks that break seed→outcome reproducibility apply:
// unseeded global randomness and order-sensitive map iteration. The sharded
// runtime is in this tier for its router — two processes disagreeing on a
// key's group split its history across two logs — while shard.Runtime is the
// live host of a process and owns its clocks (Ω, gossip).
var seededPackages = map[string]bool{
	"repro/internal/chaos":  true,
	"repro/internal/linear": true,
	"repro/internal/shard":  true,
}

// IsSeededPackage reports whether path is subject to the
// seed-reproducibility subset of the determinism contract.
func IsSeededPackage(path string) bool { return seededPackages[path] }

// timerPackages are the live hosts whose timers are deadlines of the
// process's one scheduler, internal/deadline: a Go timer there would wake on
// the netpoller's millisecond instead of on time, and outside the one heap
// that item 6's virtual clock is to drive. Only the timer constructors are
// flagged; the hosts read the clock and own goroutines.
var timerPackages = map[string]bool{
	"repro/internal/smr":       true,
	"repro/internal/shard":     true,
	"repro/internal/transport": true,
}

// hostTimerFuncs are the time package's timer constructors.
var hostTimerFuncs = map[string]bool{
	"NewTimer": true, "AfterFunc": true, "NewTicker": true, "After": true, "Tick": true,
}

// hostContextTimerFuncs are the context constructors that start a runtime
// timer: a Go timer hidden in a context.
var hostContextTimerFuncs = map[string]bool{
	"WithTimeout": true, "WithDeadline": true, "WithTimeoutCause": true, "WithDeadlineCause": true,
}

// bannedTimeFuncs are the time package functions that read or depend on the
// wall clock or a runtime timer. Pure conversions (time.Duration arithmetic,
// time.Unix) are fine.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
	"Sleep": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// allowedRandFuncs are the math/rand constructors that are fine to call:
// building an explicitly seeded generator is the approved pattern. Everything
// else at package level draws from the shared, unseeded global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// Determinism enforces the protocol determinism contract on the packages in
// protocolPackages: no wall-clock reads, no unseeded global randomness, no
// goroutines, and no order-sensitive iteration over maps. Its host-timer
// tier (timerPackages) flags only the Go timer constructors, those the
// context package calls for a deadline included. Protocols are
// replayed byte-for-byte by internal/consensus/replay, internal/sim and
// internal/mc, and the paper's Appendix-B adversarial schedules are spliced
// from such replays — any hidden source of nondeterminism silently unsounds
// all three.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/Since, unseeded math/rand, go statements, and " +
		"order-sensitive map iteration in protocol packages, and Go timers " +
		"in the hosts whose timers are internal/deadline's",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	full := IsProtocolPackage(pass.Pkg.Path())
	seeded := IsSeededPackage(pass.Pkg.Path())
	timers := timerPackages[pass.Pkg.Path()]
	if !full && !seeded && !timers {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if full {
					pass.Reportf(n.Pos(), "go statement in protocol package %s: protocols must be single-threaded deterministic state machines", pass.Pkg.Path())
				}
			case *ast.CallExpr:
				checkDeterministicCall(pass, n, full, full || seeded, timers)
			case *ast.RangeStmt:
				if full || seeded {
					checkMapRange(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkDeterministicCall flags calls to wall-clock and global-randomness
// functions. Clock reads are only banned under the full protocol contract;
// seeded packages own timeouts and may read the clock, but a draw from the
// unseeded global rand breaks their seed→schedule reproducibility the same
// way it breaks a protocol replay. In the timer tier only Go timers are
// flagged, a context's deadline included.
func checkDeterministicCall(pass *Pass, call *ast.CallExpr, full, seeded, timers bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch {
		case full && bannedTimeFuncs[fn.Name()]:
			pass.Reportf(call.Pos(), "time.%s in protocol package: protocols must not read the clock — take time as input (consensus.Time) or emit a timer effect", fn.Name())
		case timers && hostTimerFuncs[fn.Name()]:
			pass.Reportf(call.Pos(), "time.%s in %s: a Go timer here bypasses the process's deadline scheduler — use internal/deadline", fn.Name(), pass.Pkg.Path())
		}
	case "context":
		if timers && hostContextTimerFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "context.%s in %s: its deadline is a Go timer that bypasses the process's deadline scheduler — cancel the context from an internal/deadline timer", fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if seeded && !allowedRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s uses the unseeded global source: construct an explicitly seeded rand.New(rand.NewSource(seed)) and thread it through", fn.Name())
		}
	}
}

// checkMapRange flags `range` over a map whose body is order-sensitive.
// Allowed bodies are (a) pure key/value collection into a slice that is
// sorted after the loop, and (b) order-insensitive accumulation: map writes,
// delete, numeric/boolean commutative updates, max/min folds, and early
// returns of values independent of the iteration variables.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	c := &mapRangeChecker{
		pass:      pass,
		loopVars:  map[types.Object]bool{},
		bodyStart: rs.Body.Pos(),
		bodyEnd:   rs.Body.End(),
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				c.loopVars[obj] = true
			}
		}
	}
	if reason := c.checkBlock(rs.Body); reason != "" {
		pass.Reportf(rs.Pos(), "map iteration order is observable here (%s): collect the keys, sort them, and iterate the sorted slice", reason)
		return
	}
	// Collection loops are only deterministic if the collected slice is
	// sorted before anything observes it.
	for obj := range c.collected {
		if !sortedAfter(pass, rs, obj) {
			pass.Reportf(rs.Pos(), "map keys are collected into %q but never sorted in this block: sort the slice before iterating or returning it", obj.Name())
		}
	}
}

// mapRangeChecker walks a map-range body and decides whether it is
// order-insensitive. collected records slices that receive appends and must
// therefore be sorted after the loop.
type mapRangeChecker struct {
	pass               *Pass
	loopVars           map[types.Object]bool
	collected          map[types.Object]bool
	bodyStart, bodyEnd token.Pos
}

// checkBlock returns "" if every statement is order-insensitive, else a short
// human-readable reason naming the first offending construct.
func (c *mapRangeChecker) checkBlock(b *ast.BlockStmt) string {
	for _, s := range b.List {
		if reason := c.checkStmt(s, nil); reason != "" {
			return reason
		}
	}
	return ""
}

func (c *mapRangeChecker) checkStmt(s ast.Stmt, cond ast.Expr) string {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.checkAssign(s, cond)
	case *ast.IncDecStmt:
		// Counting (m[k]++, total++) is commutative.
		return ""
	case *ast.IfStmt:
		if s.Init != nil {
			if reason := c.checkStmt(s.Init, nil); reason != "" {
				return reason
			}
		}
		for _, inner := range s.Body.List {
			if reason := c.checkStmt(inner, s.Cond); reason != "" {
				return reason
			}
		}
		if s.Else != nil {
			if reason := c.checkStmt(s.Else, s.Cond); reason != "" {
				return reason
			}
		}
		return ""
	case *ast.BlockStmt:
		return c.checkBlock(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return ""
			}
		}
		return "statement with side effects runs once per key, in map order"
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return ""
		}
		return "break exits after an order-dependent prefix of the keys"
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if c.mentionsLoopVar(r) {
				return "returns a value derived from an arbitrary map element"
			}
		}
		return "" // existence checks (return true/false/constant) are fine
	case *ast.DeclStmt:
		return ""
	case *ast.RangeStmt:
		// A nested loop: its body is held to the same order-insensitivity
		// rules, with the inner loop variables treated like the outer ones.
		// (A nested range over a map is additionally checked on its own by
		// the top-level walk.)
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.loopVars[obj] = true
				}
			}
		}
		return c.checkBlock(s.Body)
	case *ast.ForStmt:
		if s.Init != nil {
			if reason := c.checkStmt(s.Init, nil); reason != "" {
				return reason
			}
		}
		return c.checkBlock(s.Body)
	default:
		return "unrecognised statement form inside map iteration"
	}
}

func (c *mapRangeChecker) checkAssign(a *ast.AssignStmt, cond ast.Expr) string {
	// x op= y: commutative operators over numeric/boolean types fold the
	// same regardless of order. String += concatenation does not.
	switch a.Tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		if len(a.Lhs) == 1 && !isStringExpr(c.pass, a.Lhs[0]) {
			return ""
		}
		return "string concatenation accumulates in map order"
	case token.ASSIGN, token.DEFINE:
	default:
		return "order-dependent compound assignment inside map iteration"
	}
	for i, lhs := range a.Lhs {
		var rhs ast.Expr
		if len(a.Rhs) == len(a.Lhs) {
			rhs = a.Rhs[i]
		} else if len(a.Rhs) == 1 {
			rhs = a.Rhs[0]
		}
		if reason := c.checkSingleAssign(lhs, rhs, cond); reason != "" {
			return reason
		}
	}
	return ""
}

func (c *mapRangeChecker) checkSingleAssign(lhs, rhs ast.Expr, cond ast.Expr) string {
	// Writes into a map build a set/index; insertion order is invisible.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if t := c.pass.TypesInfo.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return ""
			}
		}
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return "assignment to a non-local target inside map iteration"
	}
	// x = append(x, ...): collection — must be sorted after the loop.
	if call, ok := rhs.(*ast.CallExpr); ok {
		if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
				if c.collected == nil {
					c.collected = map[types.Object]bool{}
				}
				c.collected[obj] = true
			}
			return ""
		}
		// x = f(x, v) for a commutative fold such as consensus.MaxValue,
		// or the builtin max/min.
		if isCommutativeFold(call, id) {
			return ""
		}
	}
	// Max/min via comparison: `if v > best { best = v }` — the condition
	// guards the assignment with a comparison over the same operands.
	if cond != nil && isExtremumGuard(cond, lhs, rhs) {
		return ""
	}
	// Re-assignment of the loop variables or of a variable declared inside
	// the loop body is local to one iteration and harmless.
	if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil {
		if c.loopVars[obj] || c.definedInLoop(obj) {
			return ""
		}
	}
	return "assignment overwrites an outer variable with an order-dependent value"
}

// definedInLoop reports whether obj's declaration lies inside the range body
// being checked. Scope nesting is a reliable proxy: loop-body objects live in
// scopes strictly inside the function scope that also contains the loop.
func (c *mapRangeChecker) definedInLoop(obj types.Object) bool {
	// The checker only ever asks about objects it encountered while walking
	// the body, so a position inside the body's extent is sufficient.
	return c.bodyContains(obj.Pos())
}

func (c *mapRangeChecker) bodyContains(pos token.Pos) bool {
	return c.bodyStart <= pos && pos <= c.bodyEnd
}

func (c *mapRangeChecker) mentionsLoopVar(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && c.loopVars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isCommutativeFold recognises x = f(x, ...) where f is a known commutative
// combiner (MaxValue, MinValue, max, min).
func isCommutativeFold(call *ast.CallExpr, target *ast.Ident) bool {
	name := ""
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	}
	switch name {
	case "MaxValue", "MinValue", "max", "min", "Max", "Min":
	default:
		return false
	}
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok && id.Name == target.Name {
			return true
		}
	}
	return false
}

// isExtremumGuard reports whether cond is a comparison whose operands are
// (syntactically) the assignment's source and destination — the
// `if v > best { best = v }` max/min idiom.
func isExtremumGuard(cond ast.Expr, lhs, rhs ast.Expr) bool {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case token.GTR, token.LSS, token.GEQ, token.LEQ:
	default:
		return false
	}
	l, r := exprString(lhs), exprString(rhs)
	x, y := exprString(b.X), exprString(b.Y)
	return (x == r && y == l) || (x == l && y == r)
}

// exprString renders a simple expression for syntactic comparison.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = exprString(a)
		}
		return exprString(e.Fun) + "(" + strings.Join(parts, ",") + ")"
	case *ast.BasicLit:
		return e.Value
	default:
		return ""
	}
}

// sortFuncs are the sort/slices functions accepted as establishing a
// deterministic order for a collected slice.
var sortFuncs = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true,
}

// sortedAfter reports whether, in the statements following rs in its
// enclosing block, the collected slice obj is passed to a sort function.
func sortedAfter(pass *Pass, rs *ast.RangeStmt, obj types.Object) bool {
	block, ok := pass.Parent(rs).(*ast.BlockStmt)
	if !ok {
		return false
	}
	after := false
	for _, s := range block.List {
		if s == ast.Stmt(rs) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !sortFuncs[sel.Sel.Name] {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isStringExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
