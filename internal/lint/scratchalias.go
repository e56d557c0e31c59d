package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"concordia/internal/lint/analysis"
)

// ScratchAlias enforces the scratch-reuse builder contract from DESIGN.md
// §5f: the return value of a *Into/*Append builder (ran.BuildUplinkDAGInto,
// ran.BuildDownlinkDAGInto, ...) aliases the caller-provided scratch buffer
// and is valid only until the next builder call on that same buffer. Two
// things break that contract: retaining the result somewhere long-lived
// (the next call silently rewrites it underneath the holder), and reading a
// previous result after a second call reused the backing array. The
// sanctioned idiom — storing the possibly-grown slice back into
// the receiver's own scratch field (t.rxLLR = llr) — is exempt.
var ScratchAlias = &analysis.Analyzer{
	Name: "scratchalias",
	Doc: "forbid retaining *Into/*Append builder results beyond the next call on the " +
		"same scratch buffer; results alias reused backing arrays (receiver scratch " +
		"store-backs are the sanctioned idiom)",
	Run: runScratchAlias,
}

func runScratchAlias(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkScratchAliasFunc(pass, fn)
		}
	}
	return nil, nil
}

// isScratchBuilderName recognizes the builder naming convention. The
// comparison is case-sensitive on the suffix so the builtin append and
// lower-case helpers do not match.
func isScratchBuilderName(name string) bool {
	for _, suf := range []string{"Into", "Append"} {
		if strings.HasSuffix(name, suf) && len(name) > len(suf) {
			return true
		}
	}
	return false
}

type scratchCall struct {
	call *ast.CallExpr
	name string // builder name, for diagnostics
	key  string // canonical spelling of the scratch-buffer argument
}

type scratchResult struct {
	obj       types.Object
	from      scratchCall
	assignEnd token.Pos // loan starts after the assignment completes
	kill      token.Pos // first rebinding of obj after assignEnd, or NoPos
}

func checkScratchAliasFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	var recvObj types.Object
	if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		recvObj = pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
	}

	// Collect every builder call, keyed by its scratch-buffer argument.
	var calls []scratchCall
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		name := calleeName(call)
		if !isScratchBuilderName(name) {
			return true
		}
		calls = append(calls, scratchCall{call: call, name: name, key: exprKey(call.Args[0])})
		return true
	})
	if len(calls) == 0 {
		return
	}
	isScratchCall := map[*ast.CallExpr]scratchCall{}
	for _, sc := range calls {
		isScratchCall[sc.call] = sc
	}

	// Result variables: locals bound to a builder's return value whose type
	// can alias the scratch backing array (slices, pointers). Multi-value
	// forms (llr, err := ...Into(...)) bind the first lhs.
	var results []*scratchResult
	byObj := map[types.Object][]*scratchResult{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sc, ok := isScratchCall[call]
		if !ok || len(as.Lhs) == 0 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := objOf(pass, id)
		if obj == nil || !declaredWithin(obj, fn) {
			return true
		}
		switch obj.Type().Underlying().(type) {
		case *types.Slice, *types.Pointer:
		default:
			return true
		}
		r := &scratchResult{obj: obj, from: sc, assignEnd: as.End()}
		results = append(results, r)
		byObj[obj] = append(byObj[obj], r)
		return true
	})

	// Kill points: a result variable rebound after its assignment holds a
	// fresh result; uses past the rebinding refer to the new loan. A variable
	// bound to builder results more than once kills each earlier binding at
	// the next one.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			for _, r := range byObj[objOf(pass, id)] {
				if as.Pos() <= r.assignEnd {
					continue
				}
				if r.kill == token.NoPos || as.Pos() < r.kill {
					r.kill = as.Pos()
				}
			}
		}
		return true
	})

	// Rule A — retention: a builder result (direct or via a result variable)
	// stored into memory that outlives this call. Receiver scratch fields
	// are the sanctioned home for the grown buffer.
	resultObjs := map[types.Object]bool{}
	for _, r := range results {
		resultObjs[r.obj] = true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			var name string
			if call, ok := rhs.(*ast.CallExpr); ok {
				if sc, isSC := isScratchCall[call]; isSC {
					name = sc.name
				}
			}
			if name == "" {
				obj := aliasedOrigin(pass, rhs, resultObjs)
				if obj == nil {
					continue
				}
				if t := pass.TypesInfo.Types[rhs].Type; t == nil || !retainsMemory(t) {
					continue
				}
				rs := byObj[obj]
				name = rs[len(rs)-1].from.name
			}
			if escapes, route := storeEscapes(pass, fn, as.Lhs[i], recvObj); escapes {
				pass.Reportf(as.Lhs[i].Pos(),
					"%s result stored in %s outlives the scratch buffer it aliases; the next "+
						"builder call rewrites it in place — copy the data out or store it only "+
						"in the receiver's own scratch field",
					name, route)
			}
		}
		return true
	})

	// Rule B — stale read: result variable v from a call on buffer K is read
	// after a later builder call reused K. Only trackable keys participate.
	for _, r := range results {
		if r.from.key == "" {
			continue
		}
		var reuse *scratchCall
		for i := range calls {
			b := &calls[i]
			if b.call == r.from.call || b.key != r.from.key {
				continue
			}
			if b.call.Pos() <= r.assignEnd {
				continue
			}
			if r.kill != token.NoPos && b.call.Pos() >= r.kill {
				continue
			}
			if reuse == nil || b.call.Pos() < reuse.call.Pos() {
				reuse = b
			}
		}
		if reuse == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if reuse == nil {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != r.obj {
				return true
			}
			if id.Pos() <= reuse.call.End() {
				return true
			}
			if r.kill != token.NoPos && id.Pos() >= r.kill {
				return true
			}
			pass.Reportf(id.Pos(),
				"%s read after %s on line %d reused scratch buffer %s; the backing array "+
					"was rewritten — consume the result before the next builder call or use "+
					"a separate buffer",
				r.obj.Name(), reuse.name,
				pass.Fset.Position(reuse.call.Pos()).Line, r.from.key)
			reuse = nil // one report per variable is enough
			return false
		})
	}
	return
}
