package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheckPass parses and typechecks one source file into a Pass.
func typecheckPass(t *testing.T, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Pass{ImportPath: "p", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
}

const cgSrc = `package p

type dev struct{}

func (dev) tick() {}

func leaf(d dev)   { d.tick() }
func mid(d dev)    { leaf(d) }
func top(d dev)    { mid(d) }
func other()       {}
func closures(d dev) {
	f := func() { leaf(d) }
	f()
}
`

// declByName finds a declared function object by name.
func declByName(t *testing.T, pass *Pass, cg *CallGraph, name string) *types.Func {
	t.Helper()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					return fn
				}
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestCallGraphDecl(t *testing.T) {
	pass := typecheckPass(t, cgSrc)
	cg := BuildCallGraph(pass)
	fn := declByName(t, pass, cg, "mid")
	if d := cg.decls[fn]; d == nil || d.Name.Name != "mid" {
		t.Fatalf("decls[mid] = %v", d)
	}
}

func TestCalleeOf(t *testing.T) {
	pass := typecheckPass(t, cgSrc)
	var methodCall, funcCall *ast.CallExpr
	ast.Inspect(pass.Files[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "tick" {
				methodCall = call
			}
		case *ast.Ident:
			if fun.Name == "mid" {
				funcCall = call
			}
		}
		return true
	})
	if fn := CalleeOf(pass.TypesInfo, methodCall); fn == nil || fn.Name() != "tick" {
		t.Errorf("method callee = %v", fn)
	}
	if fn := CalleeOf(pass.TypesInfo, funcCall); fn == nil || fn.Name() != "mid" {
		t.Errorf("function callee = %v", fn)
	}
}
