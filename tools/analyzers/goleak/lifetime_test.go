package goleak

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"abftchol/tools/analyzers/analysis"
)

// typecheckSyncPass parses and typechecks one file that may import
// sync, using the source importer so no pre-built stdlib export data is
// needed.
func typecheckSyncPass(t *testing.T, src string) *analysis.Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &analysis.Pass{ImportPath: "p", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
}

// funcBody finds a declared function by name.
func funcBody(t *testing.T, pass *analysis.Pass, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

const lifeSrc = `package p

import "sync"

func spawner(wg *sync.WaitGroup, ch chan int) {
	defer wg.Wait()
	go func() {
		ch <- 1
	}()
	go spawnee()
}

func spawnee() {}
`

func TestCollectLifetime(t *testing.T) {
	pass := typecheckSyncPass(t, lifeSrc)
	fd := funcBody(t, pass, "spawner")
	g := analysis.BuildCFG(fd.Body)
	lt := collectLifetime(g)
	if len(lt.Spawns) != 2 {
		t.Fatalf("want 2 spawns, got %d", len(lt.Spawns))
	}
	if lt.Spawns[0].Body == nil {
		t.Errorf("first spawn launches a literal; Body should be set")
	}
	if lt.Spawns[1].Body != nil {
		t.Errorf("second spawn launches a named function; Body should be nil")
	}
	if len(lt.Defers) != 1 {
		t.Fatalf("want 1 defer, got %d", len(lt.Defers))
	}
	recv, method, ok := waitGroupCall(pass.TypesInfo, lt.Defers[0])
	if !ok || method != "Wait" {
		t.Fatalf("deferred call should match WaitGroup.Wait, got ok=%v method=%q", ok, method)
	}
	if id, isID := recv.(*ast.Ident); !isID || id.Name != "wg" {
		t.Errorf("waitGroupCall receiver should be wg, got %v", recv)
	}
}

func TestWaitGroupCallRejectsOthers(t *testing.T) {
	pass := typecheckSyncPass(t, lifeSrc)
	fd := funcBody(t, pass, "spawner")
	// The second go statement calls spawnee(): same shape, wrong type.
	var call *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if _, isLit := g.Call.Fun.(*ast.FuncLit); !isLit {
				call = g.Call
			}
		}
		return true
	})
	if call == nil {
		t.Fatal("named-function spawn not found")
	}
	if _, _, ok := waitGroupCall(pass.TypesInfo, call); ok {
		t.Errorf("a plain function call must not match waitGroupCall")
	}
}

func TestIsChanType(t *testing.T) {
	pass := typecheckSyncPass(t, lifeSrc)
	fn := pass.Pkg.Scope().Lookup("spawner")
	sig := fn.Type().(*types.Signature)
	wg := sig.Params().At(0).Type()
	ch := sig.Params().At(1).Type()
	if isChanType(wg) {
		t.Errorf("*sync.WaitGroup is not a channel")
	}
	if !isChanType(ch) {
		t.Errorf("chan int should satisfy isChanType")
	}
}
