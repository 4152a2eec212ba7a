// Command fuzzvet is the repo's determinism vet: a stdlib-only
// (go/ast, go/parser, go/token) checker for the nondeterminism classes
// that have historically broken reproducible campaigns.
//
// Rules, each scoped to the packages where the property is load-bearing:
//
//   - rangemap: a `range` over a map whose loop body leaks iteration
//     order (channel sends, goroutine launches, method calls on
//     loop-external receivers, unsorted appends to loop-external
//     slices) in the deterministic packages (cfg, core, uvm, par,
//     dist, prof). Order-insensitive bodies — map/set inserts, counter
//     sums, deletes — are fine. A loop that is genuinely
//     order-insensitive despite matching a pattern can be waived with
//     a `//fuzzvet:ordered` comment on or directly above the range
//     statement (the name records that the author considered ordering).
//   - timenow: `time.Now` in the pure packages (cfg, cov, sim, logic,
//     elab, hdl, lint, analysis) — wall clock must never steer
//     elaboration, simulation, or solving. The engine and uvm layers
//     legitimately time themselves and are exempt.
//   - globalrand: package-level math/rand calls (rand.Intn, rand.Seed,
//     ...) anywhere in the deterministic or pure packages; rand.New
//     and rand.NewSource construct seeded private generators and are
//     allowed.
//
// Test files are skipped: tests may time and randomize freely.
//
// Usage:
//
//	go run ./tools/fuzzvet            # vet the repo from its root
//	go run ./tools/fuzzvet -root dir  # vet another tree
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// rangemapPkgs are the packages whose map iteration must not leak
// order: they produce reports, traces, cost ledgers, or solver queries
// that must be identical across runs.
var rangemapPkgs = map[string]bool{
	"internal/cfg":   true,
	"internal/core":  true,
	"internal/uvm":   true,
	"internal/par":   true,
	"internal/dist":  true,
	"internal/obs":   true,
	"internal/watch": true,
}

// timenowPkgs are the pure packages: nothing in them may read the wall
// clock.
var timenowPkgs = map[string]bool{
	"internal/cfg":      true,
	"internal/cov":      true,
	"internal/sim":      true,
	"internal/simc":     true,
	"internal/logic":    true,
	"internal/elab":     true,
	"internal/hdl":      true,
	"internal/lint":     true,
	"internal/analysis": true,
	"internal/watch":    true,
}

// globalrandPkgs is the union: shared global randomness is a
// cross-test ordering hazard everywhere determinism matters.
var globalrandPkgs = func() map[string]bool {
	out := map[string]bool{}
	for p := range rangemapPkgs {
		out[p] = true
	}
	for p := range timenowPkgs {
		out[p] = true
	}
	return out
}()

// Finding is one vet diagnostic.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

func main() {
	root := flag.String("root", ".", "repository root to vet")
	flag.Parse()
	findings, vetted, err := run(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzvet:", err)
		os.Exit(2)
	}
	if len(vetted) == 0 {
		fmt.Fprintln(os.Stderr, "fuzzvet: no scoped package under", *root)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fuzzvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("fuzzvet: ok")
}

// run vets every scoped package under root and returns the findings
// sorted by position, plus the number of files vetted per package.
func run(root string) ([]Finding, map[string]int, error) {
	var findings []Finding
	vetted := map[string]int{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			// The root itself may be "." or "..": only skip below it.
			base := info.Name()
			if path != root && (base == "testdata" || strings.HasPrefix(base, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !rangemapPkgs[rel] && !timenowPkgs[rel] && !globalrandPkgs[rel] {
			return nil
		}
		fs, err := vetFile(path, rel)
		if err != nil {
			return err
		}
		vetted[rel]++
		findings = append(findings, fs...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, vetted, nil
}

// vetFile applies the package-scoped rules to one source file.
func vetFile(path, pkg string) ([]Finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	if timenowPkgs[pkg] {
		findings = append(findings, checkTimeNow(fset, file)...)
	}
	if globalrandPkgs[pkg] {
		findings = append(findings, checkGlobalRand(fset, file)...)
	}
	if rangemapPkgs[pkg] {
		findings = append(findings, checkRangeMap(fset, file)...)
	}
	return findings, nil
}

// importsPath reports whether the file imports the given package path
// under its default name (no alias).
func importsPath(file *ast.File, path string) bool {
	for _, imp := range file.Imports {
		if imp.Path.Value == `"`+path+`"` && imp.Name == nil {
			return true
		}
	}
	return false
}

// checkTimeNow flags wall-clock reads in pure packages.
func checkTimeNow(fset *token.FileSet, file *ast.File) []Finding {
	if !importsPath(file, "time") {
		return nil
	}
	var out []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" &&
			(sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
			out = append(out, Finding{
				Pos:  fset.Position(sel.Pos()),
				Rule: "timenow",
				Msg:  fmt.Sprintf("time.%s in a pure package: wall clock must not steer this layer", sel.Sel.Name),
			})
		}
		return true
	})
	return out
}

// randConstructors are the math/rand functions that build private
// seeded generators rather than touching the shared global one.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// checkGlobalRand flags calls through the shared global math/rand
// generator.
func checkGlobalRand(fset *token.FileSet, file *ast.File) []Finding {
	if !importsPath(file, "math/rand") {
		return nil
	}
	var out []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "rand" && !randConstructors[sel.Sel.Name] {
			out = append(out, Finding{
				Pos:  fset.Position(call.Pos()),
				Rule: "globalrand",
				Msg: fmt.Sprintf("rand.%s uses the shared global generator; construct one with rand.New(rand.NewSource(seed))",
					sel.Sel.Name),
			})
		}
		return true
	})
	return out
}

// ---- rangemap ----

// checkRangeMap finds order-leaking iteration over maps. Map-ness is
// decided syntactically from the file's own declarations (package
// vars, locals, parameters, struct fields, named map types), which
// keeps the checker dependency-free; expressions it cannot classify
// are skipped, so the rule under-approximates rather than crying wolf.
func checkRangeMap(fset *token.FileSet, file *ast.File) []Finding {
	info := collectMapDecls(file)
	waived := waivedLines(fset, file)
	var out []Finding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		locals := map[string]bool{}
		for name := range info.pkgVars {
			locals[name] = true
		}
		addParamMaps(fn.Type, info, locals)
		out = append(out, walkForRanges(fset, fn.Body, info, locals, waived)...)
	}
	return out
}

// mapDecls is the per-file syntactic map-type knowledge.
type mapDecls struct {
	pkgVars    map[string]bool // package-level vars with map type
	fields     map[string]bool // struct field names with map type
	namedTypes map[string]bool // type X map[...]...
}

func collectMapDecls(file *ast.File) *mapDecls {
	info := &mapDecls{
		pkgVars:    map[string]bool{},
		fields:     map[string]bool{},
		namedTypes: map[string]bool{},
	}
	// Two passes so named map types declared later still classify
	// fields and vars.
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if _, ok := ts.Type.(*ast.MapType); ok {
				info.namedTypes[ts.Name.Name] = true
			}
		}
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				if gd.Tok == token.VAR && info.isMapExprOrType(s.Type, s.Values) {
					for _, n := range s.Names {
						info.pkgVars[n.Name] = true
					}
				}
			case *ast.TypeSpec:
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					if info.isMapType(f.Type) {
						for _, n := range f.Names {
							info.fields[n.Name] = true
						}
					}
				}
			}
		}
	}
	return info
}

func (info *mapDecls) isMapType(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.MapType:
		return true
	case *ast.Ident:
		return info.namedTypes[tt.Name]
	}
	return false
}

func (info *mapDecls) isMapExprOrType(t ast.Expr, values []ast.Expr) bool {
	if t != nil {
		return info.isMapType(t)
	}
	for _, v := range values {
		if info.isMapValue(v) {
			return true
		}
	}
	return false
}

// isMapValue reports whether an expression syntactically constructs a
// map: a map literal or make(map[...]).
func (info *mapDecls) isMapValue(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return info.isMapType(v.Type)
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			return info.isMapType(v.Args[0])
		}
	}
	return false
}

func addParamMaps(ft *ast.FuncType, info *mapDecls, locals map[string]bool) {
	if ft.Params == nil {
		return
	}
	for _, f := range ft.Params.List {
		if info.isMapType(f.Type) {
			for _, n := range f.Names {
				locals[n.Name] = true
			}
		}
	}
}

// waivedLines collects the lines carrying a //fuzzvet:ordered comment;
// a range statement on or directly below such a line is waived.
func waivedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "fuzzvet:ordered") {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// walkForRanges tracks map-typed locals along the statement walk and
// checks every range-over-map it proves.
func walkForRanges(fset *token.FileSet, body *ast.BlockStmt, info *mapDecls,
	locals map[string]bool, waived map[int]bool) []Finding {
	var out []Finding
	hasSort := containsSortCall(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(s.Rhs) {
					continue
				}
				if info.isMapValue(s.Rhs[i]) {
					locals[id.Name] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if info.isMapExprOrType(vs.Type, vs.Values) {
					for _, name := range vs.Names {
						locals[name.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if !rangesOverMap(s, info, locals) {
				return true
			}
			line := fset.Position(s.Pos()).Line
			if waived[line] || waived[line-1] {
				return true
			}
			out = append(out, rangeLeaks(fset, s, hasSort)...)
		}
		return true
	})
	return out
}

func rangesOverMap(s *ast.RangeStmt, info *mapDecls, locals map[string]bool) bool {
	switch x := s.X.(type) {
	case *ast.Ident:
		return locals[x.Name] || info.pkgVars[x.Name]
	case *ast.SelectorExpr:
		return info.fields[x.Sel.Name]
	case *ast.CompositeLit:
		return info.isMapType(x.Type)
	}
	return false
}

// containsSortCall reports whether the function body calls into
// package sort anywhere — the idiomatic collect-then-sort pattern.
func containsSortCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sort" {
				found = true
			}
		}
		return !found
	})
	return found
}

// rangeLeaks scans a proven range-over-map body for statements whose
// effect depends on iteration order.
func rangeLeaks(fset *token.FileSet, s *ast.RangeStmt, fnHasSort bool) []Finding {
	loopVars := map[string]bool{}
	for _, e := range []ast.Expr{s.Key, s.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			loopVars[id.Name] = true
		}
	}
	// Names declared inside the loop body are order-free receivers.
	ast.Inspect(s.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					loopVars[id.Name] = true
				}
			}
		}
		return true
	})
	var out []Finding
	add := func(n ast.Node, msg string) {
		out = append(out, Finding{Pos: fset.Position(n.Pos()), Rule: "rangemap", Msg: msg})
	}
	ast.Inspect(s.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			add(st, "channel send inside range over map leaks iteration order")
		case *ast.GoStmt:
			add(st, "goroutine launched inside range over map observes iteration order")
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true // plain calls (delete, panic, copy, ...) are fine
			}
			recv, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if loopVars[recv.Name] || recv.Name == "sort" {
				return true
			}
			add(st, fmt.Sprintf("%s.%s called on a loop-external receiver inside range over map (order-sensitive); sort the keys first or waive with //fuzzvet:ordered",
				recv.Name, sel.Sel.Name))
		case *ast.AssignStmt:
			if fnHasSort {
				return true
			}
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" || i >= len(st.Lhs) {
					continue
				}
				dst, ok := st.Lhs[i].(*ast.Ident)
				if !ok || loopVars[dst.Name] {
					continue
				}
				add(st, fmt.Sprintf("append to loop-external slice %q inside range over map with no sort in this function",
					dst.Name))
			}
		}
		return true
	})
	return out
}
