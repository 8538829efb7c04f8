package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const determinismRule = "determinism"

// Determinism enforces the replica property the paper's machine comparison
// rests on: the four machine models must be deterministic functions of their
// inputs, and the experiment reports diffed across runs (and archived in
// EXPERIMENTS.md) must be byte-identical. Three sources of nondeterminism
// are banned in the simulator packages:
//
//   - wall-clock reads (time.Now and friends): simulated time is cycle
//     counts, never the host clock;
//   - the global math/rand state (rand.Intn, rand.Seed, ...): randomized
//     components must thread an explicitly seeded *rand.Rand;
//   - map iteration that feeds ordered output (printing, table rows, JSON
//     encoding, or building a slice declared outside the loop): Go
//     randomizes map iteration order per run, so such loops must iterate a
//     sorted key slice instead. Collecting into a slice that is afterwards
//     passed to a sort call is the sanctioned fix and is not flagged.
//
// The map-order check runs at two levels: the syntactic pass flags sinks
// inside the range body itself, and a dataflow pass (taint.go, on the §14
// CFG solver) follows values that carry iteration order through one level
// of intraprocedural assignment — the variable captured in the loop and
// printed after it, the shape of the PR-2 figure1 ordering bug. A sort
// call on the tainted value launders it; reassignment from a clean
// right-hand side kills the taint.
//
// Wall-clock timing that is genuinely wanted (the check suite's duration
// reporting) is marked with //rblint:allow determinism at the call site.
var Determinism = &Analyzer{
	Name: determinismRule,
	Doc:  "forbid wall-clock, global math/rand, and map-range feeding ordered output in simulator packages",
	Run:  runDeterminism,
}

// determinismScope names the simulator packages the rule applies to, by
// package name: the timing core and its scheduler (including the calendar
// queue behind the event-driven backend), the bypass-schedule algebra the
// wakeup cycles are computed from, the machine configurations, the
// experiment harness, the stats renderer, and the differential check suite
// (which earns explicit allow directives for its wall-clock duration
// measurements).
var determinismScope = map[string]bool{
	"core": true, "sched": true, "bypass": true, "machine": true,
	"experiments": true, "stats": true, "check": true, "fault": true,
	// The serving layer sits on top of the simulator and must not smuggle
	// nondeterminism into it: wall-clock reads are legal only for service
	// metrics (request latency, uptime) and carry allow directives. The grid
	// (cell routing, worker breakers, retry backoff) is held to the same
	// standard: cells stay deterministic, only the plumbing may read clocks.
	"server": true, "pool": true, "rcache": true, "grid": true,
}

// wallClockFuncs are the time package functions that read or depend on the
// host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. Constructors (New, NewSource, NewZipf) are fine:
// they produce explicitly seeded generators.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runDeterminism(pkg *Package) []Diagnostic {
	if !determinismScope[pkg.Name] {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				path, name := pkg.selectorPkg(n)
				switch {
				case path == "time" && wallClockFuncs[name]:
					out = append(out, pkg.diag(n.Pos(), determinismRule,
						"time.%s reads the wall clock; simulators must be deterministic (use cycle counts, or allowlist deliberate timing)", name))
				case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name]:
					out = append(out, pkg.diag(n.Pos(), determinismRule,
						"rand.%s uses the global math/rand state; thread an explicitly seeded *rand.Rand instead", name))
				}
			case *ast.RangeStmt:
				out = append(out, pkg.checkMapRange(f, n)...)
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, pkg.taintMapOrder(n.Body)...)
				}
			case *ast.FuncLit:
				out = append(out, pkg.taintMapOrder(n.Body)...)
			}
			return true
		})
	}
	return out
}

// checkMapRange flags a range over a map whose body feeds ordered output.
func (pkg *Package) checkMapRange(f *ast.File, r *ast.RangeStmt) []Diagnostic {
	t := pkg.TypesInfo.TypeOf(r.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	sink, obj := pkg.orderedSink(r)
	if sink == "" {
		return nil
	}
	// Collect-then-sort is the sanctioned fix: an append target that is
	// later handed to a sort call is deterministic by the time anyone reads
	// its order.
	if obj != nil && pkg.sortedLater(f, obj, r.End()) {
		return nil
	}
	return []Diagnostic{pkg.diag(r.Pos(), determinismRule,
		"map iteration order is randomized but this loop %s; iterate a sorted key slice instead", sink)}
}

// sortedLater reports whether obj is passed to a sort.* or slices.Sort*
// call after pos. The object is function-scoped, so scanning the file
// cannot cross into another function's uses.
func (pkg *Package) sortedLater(f *ast.File, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		path, name := pkg.selectorPkg(call.Fun)
		isSort := path == "sort" ||
			(path == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pkg.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// orderedSink reports how (if at all) the loop body produces order-sensitive
// output: writing to a stream, adding table rows, JSON-encoding, or
// appending to a slice that outlives the loop. For an escaping append, the
// appended-to object is also returned so the caller can look for a later
// sort.
func (pkg *Package) orderedSink(r *ast.RangeStmt) (string, types.Object) {
	sink := ""
	var sinkObj types.Object
	ast.Inspect(r.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if s := pkg.outputCall(n); s != "" {
				sink = s
				return false
			}
		case *ast.AssignStmt:
			if s, obj := pkg.escapingAppend(n, r); s != "" {
				sink, sinkObj = s, obj
				return false
			}
		}
		return true
	})
	return sink, sinkObj
}

// printFuncs are fmt functions that emit directly to a stream.
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// outputCall classifies a call as ordered output.
func (pkg *Package) outputCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if path, name := pkg.selectorPkg(call.Fun); path != "" {
		switch {
		case path == "fmt" && printFuncs[name]:
			return "writes output with fmt." + name
		case path == "encoding/json" && (name == "Marshal" || name == "MarshalIndent"):
			return "JSON-encodes with json." + name
		case path == "io" && name == "WriteString":
			return "writes output with io.WriteString"
		}
		return ""
	}
	// Method calls: table-row emission and JSON encoding.
	switch sel.Sel.Name {
	case "AddRow":
		if named := namedRecv(pkg.TypesInfo.TypeOf(sel.X)); named == "repro/internal/stats.Table" {
			return "emits table rows with Table.AddRow"
		}
	case "Encode":
		if named := namedRecv(pkg.TypesInfo.TypeOf(sel.X)); named == "encoding/json.Encoder" {
			return "JSON-encodes with json.Encoder.Encode"
		}
	case "WriteString", "Write":
		if t := pkg.TypesInfo.TypeOf(sel.X); t != nil && implementsWriter(t) {
			return "writes output with " + sel.Sel.Name
		}
	}
	return ""
}

// namedRecv returns "pkgpath.TypeName" of a (possibly pointer) named type.
func namedRecv(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// implementsWriter recognizes output streams: *os.File, and interface
// values with a Write method (io.Writer parameters). Concrete accumulators
// like strings.Builder are deliberately not matched — their contents can
// still be sorted before emission.
func implementsWriter(t types.Type) bool {
	switch namedRecv(t) {
	case "os.File":
		return true
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if m.Name() == "Write" {
				return true
			}
		}
	}
	return false
}

// escapingAppend reports an append whose destination is declared outside the
// range statement — the classic nondeterministic-slice-order bug — and the
// destination object. Besides the builtin, x = f(x, …) counts as an append
// when x is a slice: the append-style formatters (strconv.AppendInt,
// stats.AppendFixed, Table.Append) grow their first argument the same way.
func (pkg *Package) escapingAppend(as *ast.AssignStmt, r *ast.RangeStmt) (string, types.Object) {
	if len(as.Lhs) != len(as.Rhs) {
		return "", nil
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := pkg.TypesInfo.ObjectOf(id)
		if obj == nil || obj.Pos() >= r.Pos() && obj.Pos() <= r.End() {
			continue
		}
		if fn, ok := call.Fun.(*ast.Ident); ok && pkg.TypesInfo.Uses[fn] == types.Universe.Lookup("append") {
			return "appends to " + id.Name + ", declared outside the loop", obj
		}
		if pkg.threadsSlice(call, obj) {
			return "appends to " + id.Name + " through " + calleeName(call.Fun) + ", declared outside the loop", obj
		}
	}
	return "", nil
}

// threadsSlice reports whether call passes the slice obj as its first
// argument: the x of x = f(x, …).
func (pkg *Package) threadsSlice(call *ast.CallExpr, obj types.Object) bool {
	if len(call.Args) == 0 {
		return false
	}
	if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pkg.TypesInfo.ObjectOf(arg) == obj
}

// calleeName is the called function's or method's name.
func calleeName(fun ast.Expr) string {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return "a call"
}
