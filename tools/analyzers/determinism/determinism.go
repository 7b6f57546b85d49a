// Package determinism keeps the simulator's runs and reports
// reproducible. Trace replay, fault campaigns, and the real-vs-model
// plane agreement tests assume that the same seed reproduces the same
// run bit for bit; the differential test battery asserts
// byte-identical text/CSV/JSON at -parallel 1 and -parallel N, and the
// golden-output tests assert byte-identical runs across processes. One
// time.Now, one global math/rand draw, or one map range flowing into
// output silently breaks those guarantees, and only occasionally —
// precisely the failure mode static checking beats testing on.
//
// The analyzer applies one of two rule sets per package:
//
//   - the numeric core (internal/core, internal/fault), test files
//     included, gets the input rules: no wall-clock reads, no global
//     math/rand draws, no crypto/rand. The only sanctioned randomness
//     is a seeded *rand.Rand threaded through explicitly, and the only
//     sanctioned clock is the simulator's own;
//   - the deterministic-output packages (internal/hetsim, internal/obs,
//     internal/experiments, internal/server, internal/reliability, and
//     cmd/abftchol) get the input rules plus two output rules, on
//     non-test files only — tests may legitimately range maps into
//     t.Logf.
//
// The output rules: a range over a map must not feed an emit sink (fmt
// printing, an encoder, a writer) inside the loop body, and must not
// append to an accumulator declared outside the loop unless the
// function sorts that accumulator; and pointer formatting (%p) is
// banned, since addresses differ per run. Accumulating into another
// map, summing into a scalar, and appends whose target is declared
// inside the loop body are all order-insensitive and allowed.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; docs/LINTING.md's table shows it.
const Doc = "forbid wall-clock time and unseeded randomness in the numeric core and the deterministic-output packages, and, in the output packages, map iteration order reaching emitted output (range over map into a print/encode/append sink without a sort) and %p pointer formatting"

// The two rule sets: the numeric core gets the clock and randomness
// rules on every file, tests included; the output packages get those
// rules plus map order and %p, on non-test files.
var (
	inNumericCore = analysis.PathIn(
		"abftchol/internal/core",
		"abftchol/internal/fault",
	)
	inOutput = analysis.PathIn(
		"abftchol/internal/obs",
		"abftchol/internal/experiments",
		"abftchol/internal/hetsim",
		"abftchol/internal/server",
		"abftchol/internal/reliability",
		"abftchol/cmd/abftchol",
	)
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:      "determinism",
	Doc:       Doc,
	Scope:     "internal/core, internal/fault (with tests); internal/obs, internal/experiments, internal/hetsim, internal/server, internal/reliability, cmd/abftchol (plus map order and %p)",
	AppliesTo: func(p string) bool { return inNumericCore(p) || inOutput(p) },
	Run:       run,
}

// emitMethods are method names that move bytes toward output; calling
// one inside a map-range body stamps iteration order into the stream.
var emitMethods = map[string]bool{
	"Encode": true, "Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Print": true, "Printf": true, "Println": true,
}

func run(pass *analysis.Pass) error {
	if inNumericCore(pass.ImportPath) {
		for _, f := range pass.Files {
			checkInputs(pass, f)
		}
		return nil
	}
	for _, f := range pass.NonTestFiles() {
		checkInputs(pass, f)
		checkPointerFormat(pass, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd)
		}
	}
	return nil
}

// ---- clock and randomness --------------------------------------------

// wallClock lists the time-package functions that read the machine's
// clock or schedule against it. time.Duration arithmetic and constants
// remain fine — only real-time observation breaks replay.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true,
	"NewTimer": true, "Sleep": true,
}

// seededConstructors are the math/rand functions that build an
// explicitly seeded generator rather than drawing from the hidden
// global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 spellings.
	"NewPCG": true, "NewChaCha8": true,
}

// checkInputs reports every non-deterministic input in one file:
// crypto/rand imports, wall-clock reads, and global math/rand draws.
func checkInputs(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"crypto/rand"` {
			pass.Reportf(imp.Pos(), "crypto/rand is non-deterministic and forbidden here; thread a seeded *math/rand.Rand through instead")
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "time":
			if wallClock[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock and breaks deterministic replay; use the simulated clock threaded through the run", sel.Sel.Name)
			}
		case "math/rand", "math/rand/v2":
			// Only package-level functions draw from the hidden
			// global source; types (rand.Rand, rand.Source) and
			// methods on a seeded generator are the sanctioned path.
			if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && !seededConstructors[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "global rand.%s draws from the unseeded process-wide source; thread a seeded *rand.Rand through instead", sel.Sel.Name)
			}
		}
		return true
	})
}

// ---- map-range order -------------------------------------------------

func checkMapRanges(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, has := info.Types[rng.X]
		if !has || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkRangeBody(pass, fd, rng)
		return true
	})
}

// checkRangeBody scans one map-range body for order-sensitive sinks.
func checkRangeBody(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isEmitCall(info, n) {
				pass.Reportf(n.Pos(), "emit inside a range over a map: iteration order is randomized per run, so this output is not reproducible; collect and sort the keys first")
				return true
			}
			if id, isID := n.Fun.(*ast.Ident); isID && id.Name == "append" && len(n.Args) >= 1 {
				checkAppend(pass, fd, rng, n)
			}
		}
		return true
	})
}

// isEmitCall reports whether call moves data toward output: any fmt
// package function, or a method whose name marks an encoder/writer.
func isEmitCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, isID := sel.X.(*ast.Ident); isID {
		if pkg, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return pkg.Imported().Path() == "fmt"
		}
	}
	return emitMethods[sel.Sel.Name]
}

// checkAppend flags append to an accumulator declared outside the
// range statement unless the function later sorts that accumulator.
// Per-iteration locals are fine (their order dies with the iteration),
// and a sorted accumulator launders the map order away.
func checkAppend(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, call *ast.CallExpr) {
	info := pass.TypesInfo
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return // declared inside the loop; order dies each iteration
	}
	if functionSorts(info, fd, obj) {
		return
	}
	pass.Reportf(call.Pos(), "append to %s inside a range over a map without a sort anywhere in %s; the slice order changes run to run — sort %s (or iterate sorted keys)", id.Name, fd.Name.Name, id.Name)
}

// functionSorts reports whether fd contains a sort or slices package
// call whose arguments mention obj. Deliberately flow-insensitive: a
// conditional `if len(xs) > 0 { sort.Strings(xs) }` still launders the
// order, and demanding post-dominance would flag it spuriously.
func functionSorts(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkg.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if mid, isID := m.(*ast.Ident); isID && info.Uses[mid] == obj {
					mentioned = true
				}
				return !mentioned
			})
			if mentioned {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// ---- pointer formatting ---------------------------------------------

// checkPointerFormat flags %p in constant format strings of fmt calls:
// addresses are per-run values, so a %p in output breaks byte-identity.
func checkPointerFormat(pass *analysis.Pass, f *ast.File) {
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := info.Uses[id].(*types.PkgName)
		if !ok || pkg.Imported().Path() != "fmt" {
			return true
		}
		for _, arg := range call.Args {
			lit, isLit := ast.Unparen(arg).(*ast.BasicLit)
			if !isLit || lit.Kind.String() != "STRING" {
				continue
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				continue
			}
			if strings.Contains(s, "%p") {
				pass.Reportf(lit.Pos(), "%%p formats a pointer address, which differs every run; print a stable identifier instead")
			}
		}
		return true
	})
}
