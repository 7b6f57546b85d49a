package abftprotocol

// The local well-formedness checks: a kernel launch's declared Class
// against the BLAS work its body performs, and checksum.Update* call
// sites against the update's argument contract.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"abftchol/tools/analyzers/analysis"
)

// launchClass matches Device.Launch(stream, Kernel{...}) calls and
// resolves the kernel's Class constant name. Unresolvable classes are
// left to injectortick, which already polices them.
func launchClass(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Launch" || len(call.Args) != 2 {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !namedFrom(tv.Type, hetsimPath, "Device") {
		return "", false
	}
	lit, ok := call.Args[1].(*ast.CompositeLit)
	if !ok {
		return "", false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Class" {
			continue
		}
		var id *ast.Ident
		switch v := kv.Value.(type) {
		case *ast.Ident:
			id = v
		case *ast.SelectorExpr:
			id = v.Sel
		default:
			return "", false
		}
		if c, ok := info.Uses[id].(*types.Const); ok && namedFrom(c.Type(), hetsimPath, "Class") {
			return c.Name(), true
		}
		return "", false
	}
	return "ClassGEMM", true // zero value
}

// namedFrom reports whether t is (a pointer to) the named type from
// the given package path.
func namedFrom(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// ---- launch class vs body kind -------------------------------------

// checkLaunchBodies flags kernel launches whose declared Class
// disagrees with the BLAS work their real-plane body performs: the
// cost model, fault campaign, and this analyzer would all classify the
// kernel wrongly.
func checkLaunchBodies(pass *analysis.Pass, fd *ast.FuncDecl, du *analysis.DefUse) {
	info := pass.TypesInfo
	ast.Inspect(fd, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		class, ok := launchClass(info, call)
		if !ok {
			return true
		}
		lit := call.Args[1].(*ast.CompositeLit)
		body := resolveBody(info, du, lit)
		if body == nil {
			return true
		}
		var bodyMut analysis.Facts
		ast.Inspect(body, func(y ast.Node) bool {
			if c, ok := y.(*ast.CallExpr); ok {
				if fn := analysis.CalleeOf(info, c); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == blasPath {
					bodyMut |= blasFacts[fn.Name()]
				}
			}
			return true
		})
		if bodyMut == 0 {
			return true
		}
		if want, compute := classFacts[class]; compute {
			if !bodyMut.Has(want) {
				pass.Reportf(call.Pos(), "kernel launched as %s but its body performs %s; the cost model and fault campaign charge the wrong kernel", class, mutName(bodyMut))
			}
		} else {
			pass.Reportf(call.Pos(), "kernel launched as %s but its body performs %s; a checksum kernel must not mutate protected tiles", class, mutName(bodyMut))
		}
		return true
	})
}

// resolveBody resolves the Kernel literal's Body field to a function
// literal: either written inline or a single-definition local (`var
// body func(); if e.a != nil { body = func() {...} }`, the real-plane
// gating idiom). Unresolvable bodies are skipped.
func resolveBody(info *types.Info, du *analysis.DefUse, lit *ast.CompositeLit) *ast.FuncLit {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Body" {
			continue
		}
		switch v := kv.Value.(type) {
		case *ast.FuncLit:
			return v
		case *ast.Ident:
			obj := info.Uses[v]
			if obj == nil {
				return nil
			}
			if defs := du.Defs[obj]; len(defs) == 1 {
				if fl, ok := defs[0].(*ast.FuncLit); ok {
					return fl
				}
			}
		}
		return nil
	}
	return nil
}

func mutName(f analysis.Facts) string {
	var names []string
	for _, k := range mutKinds {
		if f.Has(k.mut) {
			names = append(names, k.name)
		}
	}
	return strings.Join(names, " and ")
}

// ---- update call-site extent checking ------------------------------

// matFields is the inferred field layout of the executor struct: which
// field holds the checksum matrix and which the data matrix.
type matFields struct {
	chk, data string
	known     bool
}

// inferFields finds the encode assignment `recv.<chk> =
// checksum.EncodeMatrix*(recv.<data>, ...)` and reads the two field
// names from it; everything downstream derives views from these.
func inferFields(info *types.Info, files []*ast.File) matFields {
	var out matFields
	for _, f := range files {
		ast.Inspect(f, func(x ast.Node) bool {
			if out.known {
				return false
			}
			as, ok := x.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs, ok := as.Lhs[0].(*ast.SelectorExpr)
			if !ok {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := analysis.CalleeOf(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != checksumPath || !strings.HasPrefix(fn.Name(), "EncodeMatrix") {
				return true
			}
			arg, ok := call.Args[0].(*ast.SelectorExpr)
			if !ok {
				return true
			}
			out = matFields{chk: lhs.Sel.Name, data: arg.Sel.Name, known: true}
			return false
		})
	}
	return out
}

// viewInfo describes what one checksum.Update* argument was resolved
// to: the executor field it derives from and its row/column extents in
// normalized textual form ("" when not statically resolvable).
type viewInfo struct {
	field      string
	rows, cols string
}

// updateContract describes one checksum.Update* entry point: argument
// names, which positions must be checksum-derived, and the extent
// equalities its contract requires (pairs of argument/axis indices).
type updateContract struct {
	args []string
	chk  []bool // true: checksum-matrix position; false: data-matrix position
	// extent equalities: each entry is {argA, axisA, argB, axisB} with
	// axis 0 = rows, 1 = cols.
	eq [][4]int
}

var contracts = map[string]updateContract{
	"UpdateRankK": {
		args: []string{"chkOut", "chkSrc", "panel"},
		chk:  []bool{true, true, false},
		eq:   [][4]int{{0, 0, 1, 0}, {0, 1, 2, 0}, {1, 1, 2, 1}},
	},
	"UpdateTRSM": {
		args: []string{"chk", "l"},
		chk:  []bool{true, false},
		eq:   [][4]int{{0, 1, 1, 0}, {1, 0, 1, 1}},
	},
	"UpdatePOTF2": {
		args: []string{"chk", "la"},
		chk:  []bool{true, false},
		eq:   [][4]int{{0, 1, 1, 0}, {1, 0, 1, 1}},
	},
}

// checkUpdateSites verifies every checksum.Update* call in fd
// (closures included — that is where they live) against its contract:
// checksum-positions must not receive data-matrix views and vice
// versa, and the extents of the views must satisfy the update's shape
// relations. Arguments that cannot be resolved through the mat
// accessor API are skipped, not guessed.
func checkUpdateSites(pass *analysis.Pass, cg *analysis.CallGraph, fd *ast.FuncDecl, fields matFields) {
	info := pass.TypesInfo
	ast.Inspect(fd, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeOf(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != checksumPath {
			return true
		}
		c, ok := contracts[fn.Name()]
		if !ok || len(call.Args) != len(c.args) {
			return true
		}
		views := make([]*viewInfo, len(call.Args))
		for i, arg := range call.Args {
			views[i] = resolveView(info, cg, arg)
		}
		for i, v := range views {
			if v == nil || v.field == "" || !fields.known {
				continue
			}
			if c.chk[i] && v.field == fields.data {
				pass.Reportf(call.Args[i].Pos(), "checksum.%s %s argument derives from the data matrix (field %s); it must be a view of the checksum matrix (field %s)", fn.Name(), c.args[i], fields.data, fields.chk)
			}
			if !c.chk[i] && v.field == fields.chk {
				pass.Reportf(call.Args[i].Pos(), "checksum.%s %s argument derives from the checksum matrix (field %s); it must be a view of the data matrix (field %s)", fn.Name(), c.args[i], fields.chk, fields.data)
			}
		}
		axes := [2]string{"rows", "cols"}
		extent := func(i, axis int) string {
			if views[i] == nil {
				return ""
			}
			if axis == 0 {
				return views[i].rows
			}
			return views[i].cols
		}
		for _, eq := range c.eq {
			a, b := extent(eq[0], eq[1]), extent(eq[2], eq[3])
			if a == "" || b == "" || a == b {
				continue
			}
			pass.Reportf(call.Pos(), "checksum.%s extent mismatch: %s %s (%s) != %s %s (%s); the update would write outside the block's checksum columns", fn.Name(), c.args[eq[0]], axes[eq[1]], a, c.args[eq[2]], axes[eq[3]], b)
		}
		return true
	})
}

// resolveView resolves one matrix-valued argument through the mat
// accessor API: a direct field (`e.chk`), a view of a field
// (`e.chk.View(i, j, r, c)`), or a package-local helper whose body is
// a single `return recv.field.View(...)` (the block/chkView idiom).
// Returns nil when the expression is outside this vocabulary.
func resolveView(info *types.Info, cg *analysis.CallGraph, e ast.Expr) *viewInfo {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return &viewInfo{field: e.Sel.Name}
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if sel.Sel.Name == "View" && len(e.Args) == 4 {
			src, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			v := &viewInfo{field: src.Sel.Name}
			v.rows, _ = renderExtent(e.Args[2], nil, true)
			v.cols, _ = renderExtent(e.Args[3], nil, true)
			return v
		}
		// Helper method: resolve its single-return View body.
		fn := analysis.CalleeOf(info, e)
		if fn == nil {
			return nil
		}
		decl := cg.Decl(fn)
		if decl == nil || decl.Body == nil || len(decl.Body.List) != 1 || decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
			return nil
		}
		ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return nil
		}
		view, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
		if !ok || len(view.Args) != 4 {
			return nil
		}
		vsel, ok := view.Fun.(*ast.SelectorExpr)
		if !ok || vsel.Sel.Name != "View" {
			return nil
		}
		src, ok := ast.Unparen(vsel.X).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		recvName := decl.Recv.List[0].Names[0].Name
		siteRecv, ok := renderExtent(sel.X, nil, true)
		if !ok {
			return nil
		}
		// Extents referencing helper locals or parameters cannot be
		// compared at the call site; substitution covers the receiver
		// only, and bare identifiers fail the render.
		subst := map[string]string{recvName: siteRecv}
		v := &viewInfo{field: src.Sel.Name}
		v.rows, _ = renderExtent(view.Args[2], subst, false)
		v.cols, _ = renderExtent(view.Args[3], subst, false)
		return v
	}
	return nil
}

// renderExtent renders an extent expression to a comparable canonical
// string: products are flattened and their factors sorted, so
// `e.m*m` and `m*e.m` compare equal. subst maps identifier names
// (the helper receiver) to replacement text; with allowBare false any
// other bare identifier fails the render (helper locals are
// meaningless at the call site).
func renderExtent(e ast.Expr, subst map[string]string, allowBare bool) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if s, ok := subst[e.Name]; ok {
			return s, true
		}
		if allowBare {
			return e.Name, true
		}
	case *ast.BasicLit:
		return e.Value, true
	case *ast.SelectorExpr:
		x, ok := renderExtent(e.X, subst, allowBare)
		if ok {
			return x + "." + e.Sel.Name, true
		}
	case *ast.BinaryExpr:
		if e.Op == token.MUL {
			var factors []string
			ok := flattenProduct(e, subst, allowBare, &factors)
			if ok {
				sort.Strings(factors)
				return strings.Join(factors, "*"), true
			}
			return "", false
		}
		x, xok := renderExtent(e.X, subst, allowBare)
		y, yok := renderExtent(e.Y, subst, allowBare)
		if xok && yok {
			return fmt.Sprintf("%s%s%s", x, e.Op, y), true
		}
	}
	return "", false
}

func flattenProduct(e ast.Expr, subst map[string]string, allowBare bool, out *[]string) bool {
	if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && b.Op == token.MUL {
		return flattenProduct(b.X, subst, allowBare, out) && flattenProduct(b.Y, subst, allowBare, out)
	}
	s, ok := renderExtent(e, subst, allowBare)
	if !ok {
		return false
	}
	*out = append(*out, s)
	return true
}
