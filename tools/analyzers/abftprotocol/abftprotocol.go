// Package abftprotocol proves the paper's online ABFT discipline on
// the factorization drivers (internal/core), in two halves:
//
//   - ordering: Online-ABFT verifies a block right after the kernel
//     that writes it; Enhanced Online-ABFT verifies it right before
//     the kernels that read it, amortized to every K-th iteration
//     where §V-C shows delayed detection stays recoverable;
//   - pairing (§IV-B): every kernel launch that mutates protected
//     tiles — POTF2, TRSM, the rank-k GEMM/SYRK updates — is paired
//     with its checksum.Update* call before the next verification
//     point, or chk(A) = V·A is broken by the *algorithm* rather than
//     by a fault.
//
// A step that drifts out of either half crashes nothing: coverage
// quietly shrinks, or every later verification false-alarms.
//
// The drivers declare the discipline through `// abft:protocol`
// annotations (see docs/LINTING.md): each driver lists its protected
// step methods, and each Scheme constant declares whether it is fault
// tolerant and its verification discipline. Per driver the analyzer
// builds one CFG and specializes it to each scheme — `sch == SchemeX`,
// `sch.FaultTolerant()`, and the locals derived from them resolve
// under the assumed scheme; the K-gate (`j%K == 0`) and progress
// guards (`j > 0`) are granted — and requires:
//
//   - verify=pre-read: every protocol step is dominated by a
//     verifyBlocks call;
//   - verify=post-write: no protocol step reaches the function exit
//     without passing a verifyBlocks call or an error return;
//   - every ft scheme: no path from a mutation to a verification point
//     (verifyBlocks or the exit) avoids the matching update, error
//     aborts exempt, and every update is dominated by a matching
//     mutation. Zero-trip loop edges stay in the graph.
//
// verify=scrubbed, final, and none place no ordering obligation; the
// experiments enforce those disciplines dynamically.
//
// Mutations are classified interprocedurally, by a launch's
// hetsim.Class and by the internal/blas entry points its body runs;
// checksum.Update* calls establish the update facts. Facts propagate
// bottom-up through the package call graph (analysis.Summarize), and
// driver statements take May-credit for their callees' facts: the step
// and update helpers guard the same degenerate iterations with
// matching early returns. The arithmetic the proof takes on faith is
// covered by the property tests in internal/checksum.
//
// Alongside ride the annotation-drift checks and the local call-site
// checks of sites.go. Test files are outside the protocol: test
// helpers run steps and updates in isolation by design.
package abftprotocol

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"abftchol/tools/analyzers/analysis"
)

// Doc explains the analyzer; it is also the driver help text.
const Doc = "prove the ABFT protocol on the core drivers: Online (post-write) and Enhanced (pre-read) verification ordering, and every protected-tile mutation paired with its checksum update before the next verification point"

const (
	corePath     = "abftchol/internal/core"
	hetsimPath   = "abftchol/internal/hetsim"
	blasPath     = "abftchol/internal/blas"
	checksumPath = "abftchol/internal/checksum"
)

// verifierName is the method whose call is a verification point.
const verifierName = "verifyBlocks"

// Fact bits: three mutation kinds, their matching updates, and the
// verification points.
const (
	mutRankK analysis.Facts = 1 << iota
	mutTRSM
	mutPOTF2
	updRankK
	updTRSM
	updPOTF2
	factVerify
)

// mutKind pairs one mutation kind with its checksum update.
type mutKind struct {
	name   string // human name of the mutation
	update string // checksum.<update> that maintains it
	mut    analysis.Facts
	upd    analysis.Facts
}

var mutKinds = []mutKind{
	{name: "rank-k trailing update", update: "UpdateRankK", mut: mutRankK, upd: updRankK},
	{name: "TRSM panel solve", update: "UpdateTRSM", mut: mutTRSM, upd: updTRSM},
	{name: "POTF2 factorization", update: "UpdatePOTF2", mut: mutPOTF2, upd: updPOTF2},
}

// classFacts maps hetsim kernel classes to mutation facts; checksum
// bookkeeping classes map to nothing.
var classFacts = map[string]analysis.Facts{
	"ClassGEMM": mutRankK, "ClassSYRK": mutRankK,
	"ClassTRSM": mutTRSM, "ClassPOTF2": mutPOTF2,
}

// blasFacts maps real-plane BLAS entry points to the mutation they
// perform on the tile they write.
var blasFacts = map[string]analysis.Facts{
	"Dgemm": mutRankK, "DgemmParallel": mutRankK,
	"Dsyrk": mutRankK, "DsyrkParallel": mutRankK,
	"Dtrsm": mutTRSM, "DtrsmParallel": mutTRSM,
	"Dpotf2": mutPOTF2, "Dpotrf": mutPOTF2,
}

// updateFacts maps checksum maintenance entry points to update facts.
var updateFacts = map[string]analysis.Facts{
	"UpdateRankK": updRankK, "UpdateTRSM": updTRSM, "UpdatePOTF2": updPOTF2,
}

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name:      "abftprotocol",
	Doc:       Doc,
	Scope:     "internal/core",
	AppliesTo: analysis.PathIn(corePath),
	Run:       run,
}

func run(pass *analysis.Pass) error {
	files := pass.NonTestFiles()
	if len(files) == 0 {
		return nil
	}
	protocol := analysis.ParseProtocol(files)
	for _, e := range protocol.Errors {
		pass.Report(e)
	}
	info := pass.TypesInfo
	cg := analysis.BuildCallGraph(pass)
	classifier := classify(info)
	sums := cg.Summarize(info, classifier)
	fields := inferFields(info, files)

	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			du := analysis.CollectDefUse(fd, info)
			checkLaunchBodies(pass, fd, du)
			checkUpdateSites(pass, cg, fd, fields)
			if spec, ok := protocol.Driver(fd.Name.Name); ok {
				drv := newDriver(pass, fd, spec.Steps, sums, classifier)
				for _, sp := range protocol.Schemes {
					drv.check(sp, analysis.SchemeResolver(info, du, corePath, sp))
				}
				drv.reportPairing()
			}
		}
	}
	// Annotation drift: the real core package must declare its protocol,
	// or the analyzer is checking air; and scheme directives must stay
	// in one-to-one correspondence with the Scheme constants.
	if pass.ImportPath == corePath && pass.Pkg != nil && pass.Pkg.Name() == "core" {
		checkAnnotationDrift(pass, protocol, files)
	}
	return nil
}

// classify is the per-node fact classifier fed to the summary layer.
func classify(info *types.Info) func(ast.Node) analysis.Facts {
	return func(n ast.Node) analysis.Facts {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return 0
		}
		var f analysis.Facts
		if class, ok := launchClass(info, call); ok {
			f |= classFacts[class]
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == verifierName {
			f |= factVerify
		}
		if fn := analysis.CalleeOf(info, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case blasPath:
				f |= blasFacts[fn.Name()]
			case checksumPath:
				f |= updateFacts[fn.Name()]
			}
		}
		return f
	}
}

// ---- annotation drift ----------------------------------------------

// checkAnnotationDrift pins the annotations to the declarations of the
// real core package.
func checkAnnotationDrift(pass *analysis.Pass, protocol *analysis.Protocol, files []*ast.File) {
	if len(protocol.Drivers) == 0 {
		pass.Reportf(files[0].Name.Pos(), "internal/core declares no `abft:protocol driver` annotation; the verification discipline is unchecked")
	}

	consts := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || !isCoreScheme(pass, c.Type()) {
						continue
					}
					consts[c.Name()] = true
					if _, ok := protocol.Scheme(c.Name()); !ok {
						pass.Reportf(name.Pos(), "Scheme constant %s has no `abft:protocol scheme` annotation; declare its verification discipline", c.Name())
					}
				}
			}
		}
	}
	for _, s := range protocol.Schemes {
		if !consts[s.Name] {
			pass.Reportf(s.Pos, "abft:protocol scheme directive names %s but internal/core declares no such Scheme constant", s.Name)
		}
	}
}

func isCoreScheme(pass *analysis.Pass, t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Scheme" && obj.Pkg() == pass.Pkg
}

// ---- driver protocol checking --------------------------------------

// callSite holds one protocol-step call found in a driver.
type callSite struct {
	node *analysis.Node
	name string
	call *ast.CallExpr
}

// pairKey identifies one pairing finding: the failing schemes at one
// (site, kind, check) are listed together in a single diagnostic.
type pairKey struct {
	pos   token.Pos
	kind  int
	check int // 0 = unpaired mutation, 1 = update without mutation
}

// driver holds what one annotated driver's checks share across
// schemes: its CFG, the facts of its statements, its error-abort
// returns, its protocol-step sites, and its verifyBlocks statements.
type driver struct {
	pass      *analysis.Pass
	g         *analysis.CFG
	nf        map[*analysis.Node]analysis.Facts
	errReturn map[*analysis.Node]bool
	sites     []callSite
	verify    map[*analysis.Node]bool

	failures map[pairKey][]string
}

func newDriver(pass *analysis.Pass, fd *ast.FuncDecl, steps []string, sums map[*types.Func]*analysis.Summary, classifier func(ast.Node) analysis.Facts) *driver {
	info := pass.TypesInfo
	g := analysis.BuildCFG(fd.Body)
	d := &driver{
		pass: pass,
		g:    g,
		// May-credit: a driver statement's facts include everything
		// its callees can do (see the package comment for why May).
		nf:        analysis.NodeFacts(g, info, sums, true, classifier),
		errReturn: map[*analysis.Node]bool{},
		verify:    map[*analysis.Node]bool{},
		failures:  map[pairKey][]string{},
	}
	stepSet := map[string]bool{}
	for _, s := range steps {
		stepSet[s] = true
	}
	for _, n := range g.Nodes {
		if n.Kind != analysis.NodeStmt {
			continue
		}
		if ret, ok := n.Stmt.(*ast.ReturnStmt); ok && returnsError(info, ret) {
			d.errReturn[n] = true
		}
		node := n
		ast.Inspect(n.Stmt, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case sel.Sel.Name == verifierName:
				d.verify[node] = true
			case stepSet[sel.Sel.Name]:
				d.sites = append(d.sites, callSite{node, sel.Sel.Name, call})
			}
			return true
		})
	}
	return d
}

// check runs every obligation scheme sp places on the driver, with rs
// specializing the CFG to it.
func (d *driver) check(sp analysis.SchemeSpec, rs func(ast.Expr) (bool, bool)) {
	live := d.g.Reachable(d.g.Entry, analysis.PathOpts{Resolve: rs})
	switch sp.Verify {
	case analysis.VerifyPreRead:
		d.checkPreRead(sp, rs)
	case analysis.VerifyPostWrite:
		d.checkPostWrite(sp, rs, live)
	}
	if sp.FT {
		d.checkPairing(sp, rs, live)
	}
}

// checkPreRead flags a step reachable from entry without crossing a
// verify: read-before-verify.
func (d *driver) checkPreRead(sp analysis.SchemeSpec, rs func(ast.Expr) (bool, bool)) {
	reach := d.g.Reachable(d.g.Entry, analysis.PathOpts{
		Resolve: rs,
		Barrier: func(n *analysis.Node) bool { return d.verify[n] },
	})
	for _, s := range d.sites {
		if reach[s.node] && !d.verify[s.node] {
			d.pass.Reportf(s.call.Pos(), "on the %s path, %s is reachable without a preceding %s; Enhanced Online-ABFT must verify blocks before they are read", sp.Name, s.name, verifierName)
		}
	}
}

// checkPostWrite flags a live step from which the function exit is
// reachable without crossing a verify or aborting with an error.
func (d *driver) checkPostWrite(sp analysis.SchemeSpec, rs func(ast.Expr) (bool, bool), live map[*analysis.Node]bool) {
	for _, s := range d.sites {
		if !live[s.node] {
			continue // this step does not run under the scheme
		}
		after := d.g.Reachable(s.node, analysis.PathOpts{
			Resolve: rs,
			Barrier: func(n *analysis.Node) bool { return d.verify[n] || d.errReturn[n] },
		})
		if after[d.g.Exit] {
			d.pass.Reportf(s.call.Pos(), "on the %s path, %s can reach the function exit without a subsequent %s; Online-ABFT must verify blocks right after they are written", sp.Name, s.name, verifierName)
		}
	}
}

// checkPairing records, for one fault-tolerant scheme, every live
// mutation that can reach a verification point without its update and
// every update no matching mutation dominates.
func (d *driver) checkPairing(sp analysis.SchemeSpec, rs func(ast.Expr) (bool, bool), live map[*analysis.Node]bool) {
	g := d.g
	var dom []map[*analysis.Node]bool // built lazily
	for _, n := range g.Nodes {
		if !live[n] {
			continue
		}
		f := d.nf[n]
		for ki, k := range mutKinds {
			if f.Has(k.mut) && !f.Has(k.upd) && d.unpaired(n, rs, k) {
				d.fail(pairKey{n.Pos(), ki, 0}, sp.Name)
			}
			if f.Has(k.upd) && !f.Has(k.mut) {
				if dom == nil {
					dom = g.Dominators(analysis.PathOpts{Resolve: rs})
				}
				dominated := false
				for x := range dom[n.Index] {
					if x != n && d.nf[x].Has(k.mut) {
						dominated = true
						break
					}
				}
				if !dominated {
					d.fail(pairKey{n.Pos(), ki, 1}, sp.Name)
				}
			}
		}
	}
}

func (d *driver) fail(k pairKey, scheme string) {
	d.failures[k] = append(d.failures[k], scheme)
}

// unpaired reports whether, from mutation node n, a verification point
// (a live verifyBlocks statement or the function exit) is reachable
// without crossing a node carrying the matching update fact or an
// error-abort return.
func (d *driver) unpaired(n *analysis.Node, rs func(ast.Expr) (bool, bool), k mutKind) bool {
	after := d.g.Reachable(n, analysis.PathOpts{
		Resolve: rs,
		Barrier: func(x *analysis.Node) bool { return d.nf[x].Has(k.upd) || d.errReturn[x] },
	})
	if after[d.g.Exit] {
		return true
	}
	for x := range after {
		// Barrier nodes appear in the reachable set; a verification
		// point only counts when traversal actually continued into it.
		if d.nf[x].Has(factVerify) && !d.nf[x].Has(k.upd) && !d.errReturn[x] {
			return true
		}
	}
	return false
}

// reportPairing emits one diagnostic per pairing failure, in position
// order, naming every scheme it fails under.
func (d *driver) reportPairing() {
	keys := make([]pairKey, 0, len(d.failures))
	for k := range d.failures {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pos != keys[j].pos {
			return keys[i].pos < keys[j].pos
		}
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].check < keys[j].check
	})
	for _, kk := range keys {
		k := mutKinds[kk.kind]
		schemes := strings.Join(d.failures[kk], ", ")
		switch kk.check {
		case 0:
			d.pass.Reportf(kk.pos, "%s can reach the next verification point without checksum.%s (schemes: %s); the checksum relation chk(A)=V*A is broken by the algorithm itself", k.name, k.update, schemes)
		case 1:
			d.pass.Reportf(kk.pos, "checksum.%s has no dominating %s on this path (schemes: %s); updating checksums for data that was not rewritten diverges chk(A) from A", k.update, k.name, schemes)
		}
	}
}

// returnsError matches `return err` / `return fmt.Errorf(...)` — a
// return whose single result is a non-nil error expression, the
// fail-stop abort path.
func returnsError(info *types.Info, ret *ast.ReturnStmt) bool {
	if len(ret.Results) != 1 {
		return false
	}
	r := ret.Results[0]
	if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	tv, ok := info.Types[r]
	return ok && tv.Type != nil && tv.Type.String() == "error"
}
