package analysis

// Declarative ABFT protocol specs. The protocol prover
// (abftprotocol) checks verification placement and checksum
// maintenance without hard-coding which driver functions exist, which
// step methods they guard, or which schemes impose which verification
// discipline: that knowledge lives with the code being checked, as
// `// abft:protocol` annotations in internal/core, parsed into the
// tables here. A new driver (the roadmap's LU/QR registry) declares
// its protocol and gets the whole proof for free.
//
// Grammar (one directive per comment line):
//
//	// abft:protocol driver steps=<step,step,...>
//	// abft:protocol scheme <SchemeConst> [ft] verify=<discipline>
//
// A driver directive must sit in the doc comment of the driver
// function; its steps name the step methods (in program order) whose
// launches fall under the verification and maintenance disciplines. A
// scheme directive may appear in any comment — by convention it sits
// on the Scheme constant it describes — and declares whether the
// scheme is fault tolerant and which verification discipline it
// imposes: pre-read (Enhanced), post-write (Online), scrubbed
// (post-write plus periodic scrub, enforced dynamically), final
// (Offline), or none.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ProtocolMarker introduces a protocol directive in a comment line.
const ProtocolMarker = "abft:protocol"

// Verification disciplines a scheme directive may declare.
const (
	VerifyPreRead   = "pre-read"
	VerifyPostWrite = "post-write"
	VerifyScrubbed  = "scrubbed"
	VerifyFinal     = "final"
	VerifyNone      = "none"
)

// DriverSpec is one declared protocol driver.
type DriverSpec struct {
	Name  string   // driver function name
	Steps []string // protected step methods, in program order
	Pos   token.Pos
}

// SchemeSpec is one declared scheme discipline.
type SchemeSpec struct {
	Name   string // Scheme constant name, e.g. "SchemeEnhanced"
	FT     bool   // value of Scheme.FaultTolerant() under this scheme
	Verify string // one of the Verify* disciplines
	Pos    token.Pos
}

// Protocol is the parsed protocol of one package.
type Protocol struct {
	Drivers []DriverSpec
	Schemes []SchemeSpec
	// Errors lists malformed or misplaced directives; analyzers report
	// them so a typo cannot silently disable checking.
	Errors []Diagnostic
}

// Driver returns the spec declared for the named function.
func (p *Protocol) Driver(name string) (DriverSpec, bool) {
	for _, d := range p.Drivers {
		if d.Name == name {
			return d, true
		}
	}
	return DriverSpec{}, false
}

// Scheme returns the spec declared for the named scheme constant.
func (p *Protocol) Scheme(name string) (SchemeSpec, bool) {
	for _, s := range p.Schemes {
		if s.Name == name {
			return s, true
		}
	}
	return SchemeSpec{}, false
}

// StepTable renders the drivers as the map the ordering check once
// hard-coded: driver name to step list. The drift test pins
// this against the historical literal.
func (p *Protocol) StepTable() map[string][]string {
	t := make(map[string][]string, len(p.Drivers))
	for _, d := range p.Drivers {
		t[d.Name] = append([]string(nil), d.Steps...)
	}
	return t
}

// ParseProtocol extracts the protocol declared by the files' comments.
// Driver directives are matched to the function whose doc comment
// holds them; scheme directives are collected from every comment
// group. Nothing is reported here — the caller decides what to do
// with Errors (analyzers report them verbatim).
func ParseProtocol(files []*ast.File) *Protocol {
	p := &Protocol{}
	driverLines := map[string]bool{} // directive lines consumed by a FuncDecl doc

	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				rest, ok := directiveLine(c.Text)
				if !ok || !strings.HasPrefix(rest, "driver") {
					continue
				}
				driverLines[c.Text] = true
				p.parseDriver(fd.Name.Name, rest, c.Pos())
			}
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := directiveLine(c.Text)
				if !ok {
					continue
				}
				switch {
				case strings.HasPrefix(rest, "scheme"):
					p.parseScheme(rest, c.Pos())
				case strings.HasPrefix(rest, "driver"):
					if !driverLines[c.Text] {
						p.errorf(c.Pos(), "abft:protocol driver directive is not attached to a function declaration; move it into the driver's doc comment")
					}
				default:
					p.errorf(c.Pos(), "unknown abft:protocol directive %q; want `driver steps=...` or `scheme <Name> [ft] verify=...`", rest)
				}
			}
		}
	}
	return p
}

func (p *Protocol) parseDriver(name, rest string, pos token.Pos) {
	if _, dup := p.Driver(name); dup {
		p.errorf(pos, "duplicate abft:protocol driver directive for %s", name)
		return
	}
	spec := DriverSpec{Name: name, Pos: pos}
	for _, field := range strings.Fields(rest)[1:] {
		val, ok := strings.CutPrefix(field, "steps=")
		if !ok {
			p.errorf(pos, "abft:protocol driver: unknown field %q; want steps=<step,step,...>", field)
			return
		}
		for _, s := range strings.Split(val, ",") {
			if s == "" {
				p.errorf(pos, "abft:protocol driver: empty step name in %q", val)
				return
			}
			spec.Steps = append(spec.Steps, s)
		}
	}
	if len(spec.Steps) == 0 {
		p.errorf(pos, "abft:protocol driver directive for %s declares no steps", name)
		return
	}
	p.Drivers = append(p.Drivers, spec)
}

func (p *Protocol) parseScheme(rest string, pos token.Pos) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		p.errorf(pos, "abft:protocol scheme directive needs a scheme constant name")
		return
	}
	spec := SchemeSpec{Name: fields[1], Pos: pos}
	if _, dup := p.Scheme(spec.Name); dup {
		p.errorf(pos, "duplicate abft:protocol scheme directive for %s", spec.Name)
		return
	}
	for _, field := range fields[2:] {
		if field == "ft" {
			spec.FT = true
			continue
		}
		val, ok := strings.CutPrefix(field, "verify=")
		if !ok {
			p.errorf(pos, "abft:protocol scheme: unknown field %q; want `ft` or verify=<discipline>", field)
			return
		}
		spec.Verify = val
	}
	switch spec.Verify {
	case VerifyPreRead, VerifyPostWrite, VerifyScrubbed, VerifyFinal, VerifyNone:
	case "":
		p.errorf(pos, "abft:protocol scheme directive for %s declares no verify= discipline", spec.Name)
		return
	default:
		p.errorf(pos, "abft:protocol scheme %s: unknown verify discipline %q", spec.Name, spec.Verify)
		return
	}
	p.Schemes = append(p.Schemes, spec)
}

func (p *Protocol) errorf(pos token.Pos, format string, args ...any) {
	p.Errors = append(p.Errors, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// directiveLine strips the comment syntax and the protocol marker,
// returning the directive payload.
func directiveLine(text string) (string, bool) {
	line := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	line = strings.TrimSuffix(strings.TrimPrefix(line, "/*"), "*/")
	line = strings.TrimSpace(line)
	rest, ok := strings.CutPrefix(line, ProtocolMarker)
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// ---- scheme-specialized condition resolution ------------------------

// SchemeResolver builds the branch-condition oracle that specializes a
// driver's CFG to one scheme: scheme comparisons (`sch == SchemeX`),
// `sch.FaultTolerant()`, and single-definition boolean locals derived
// from them resolve under the assumption that the scheme expression
// holds exactly the spec's constant; the K-gate (`j % K == 0`) and
// iteration-progress guards (`j > 0`) are granted, since the
// disciplines are judged on steady-state amortized iterations
// (§V-C). schemePkg is the import path declaring the named Scheme
// type. Conditions outside this vocabulary stay unresolved and keep
// both edges.
func SchemeResolver(info *types.Info, du *DefUse, schemePkg string, sp SchemeSpec) func(ast.Expr) (bool, bool) {
	var eval func(e ast.Expr, depth int) (bool, bool)
	eval = func(e ast.Expr, depth int) (bool, bool) {
		if depth > 8 {
			return false, false
		}
		switch e := e.(type) {
		case *ast.ParenExpr:
			return eval(e.X, depth)
		case *ast.UnaryExpr:
			if e.Op.String() == "!" {
				if v, ok := eval(e.X, depth+1); ok {
					return !v, true
				}
			}
		case *ast.BinaryExpr:
			switch e.Op.String() {
			case "&&":
				lv, lk := eval(e.X, depth+1)
				rv, rk := eval(e.Y, depth+1)
				if (lk && !lv) || (rk && !rv) {
					return false, true
				}
				if lk && rk {
					return lv && rv, true
				}
			case "||":
				lv, lk := eval(e.X, depth+1)
				rv, rk := eval(e.Y, depth+1)
				if (lk && lv) || (rk && rv) {
					return true, true
				}
				if lk && rk {
					return false, true
				}
			case "==", "!=":
				if v, ok := schemeTest(info, e.X, e.Y, schemePkg, sp.Name); ok {
					if e.Op.String() == "!=" {
						return !v, true
					}
					return v, true
				}
				// K-gate: j % K == 0 is granted (§V-C permits the
				// amortized discipline).
				if e.Op.String() == "==" && isModulo(e.X) && isZero(e.Y) {
					return true, true
				}
			case ">":
				// Iteration-progress guards (j > 0, m > 0) are granted:
				// the discipline is judged on steady-state iterations.
				if isZero(e.Y) {
					if _, ok := e.X.(*ast.Ident); ok {
						return true, true
					}
				}
			}
		case *ast.CallExpr:
			// sch.FaultTolerant() has a fixed value per scheme.
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "FaultTolerant" {
				if tv, ok := info.Types[sel.X]; ok && isSchemeType(tv.Type, schemePkg) {
					return sp.FT, true
				}
			}
		case *ast.Ident:
			// A boolean local with exactly one definition inherits the
			// resolved value of its defining expression (ft, online,
			// gate in the drivers).
			obj := info.Uses[e]
			if obj == nil {
				break
			}
			if defs := du.Defs[obj]; len(defs) == 1 && defs[0] != nil {
				return eval(defs[0], depth+1)
			}
		}
		return false, false
	}
	return func(cond ast.Expr) (bool, bool) { return eval(cond, 0) }
}

// schemeTest resolves `X == Y` where one side is a Scheme constant and
// the other a non-constant Scheme expression: under the
// specialization, the expression holds exactly the assumed scheme.
func schemeTest(info *types.Info, x, y ast.Expr, schemePkg, assumed string) (bool, bool) {
	if name, ok := schemeConst(info, x, schemePkg); ok && isSchemeExpr(info, y, schemePkg) {
		return name == assumed, true
	}
	if name, ok := schemeConst(info, y, schemePkg); ok && isSchemeExpr(info, x, schemePkg) {
		return name == assumed, true
	}
	return false, false
}

func schemeConst(info *types.Info, e ast.Expr, schemePkg string) (string, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || !isSchemeType(c.Type(), schemePkg) {
		return "", false
	}
	return c.Name(), true
}

func isSchemeExpr(info *types.Info, e ast.Expr, schemePkg string) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	return isSchemeType(tv.Type, schemePkg)
}

func isSchemeType(t types.Type, schemePkg string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Scheme" && obj.Pkg() != nil && obj.Pkg().Path() == schemePkg
}

func isModulo(e ast.Expr) bool {
	b, ok := e.(*ast.BinaryExpr)
	return ok && b.Op.String() == "%"
}

func isZero(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Value == "0"
}
