package dicer

import (
	"go/ast"
	"go/types"
	"path"
	"sort"
	"testing"
)

// declAllowlist names the top-level declarations that no non-test code
// references, each group with the reason it stays. Keys are
// "<package>.<Name>", and "<package>.<Type>.<Method>" for methods, the
// package being the last element of its import path.
var declAllowlist = []struct {
	names  []string
	reason string
}{
	{[]string{"dicer.AppNames", "dicer.ChaosStats", "dicer.EFU", "dicer.ErrChaosInjected",
		"dicer.FleetArrivals", "dicer.FleetSchedulerByName", "dicer.FleetSchedulerNames",
		"dicer.GroupingPerApp", "dicer.GroupingSingle", "dicer.GuardPolicy", "dicer.HPAppResult",
		"dicer.NewDICERWith", "dicer.NewDiagMonitor", "dicer.NewFleet", "dicer.NodeChaosScheduleByName",
		"dicer.ReadClusterTrace", "dicer.SUCI", "dicer.TimelineEntry"},
		"the facade is the public API; importers outside the module are its callers"},
	{[]string{"app.NewGenerator", "app.Generator.Population"},
		"internal/sim's fuzz targets draw their random profiles from them"},
	{[]string{"experiments.Suite.Extensions", "experiments.ExtensionResult.Table",
		"experiments.Suite.Figure5Paper", "experiments.Figure5PaperResult.Table",
		"experiments.Suite.MultiHPGrid", "experiments.MultiHPGridResult.Table",
		"experiments.SoakResult.Table"},
		"each regenerates a committed golden table under go test"},
	{[]string{"chaos.Stats.Add", "chaos.Stats.Injected"},
		"internal/obs's recorder test sums the per-period fault deltas with them"},
	{[]string{"mrc.DefaultValidationCases", "mrc.ValidationCase.Validate"},
		"the analytic curves' ground-truth check against the trace-driven cache, run by mrc's tests and BenchmarkValidation_MRC"},
	{[]string{"obs.FuncSink"},
		"internal/fleet's node tests capture a node's records through it"},
	{[]string{"trace.Collect"},
		"internal/cache's tests feed the simulator their address streams through it"},
}

// TestDeclarationsHaveCallers holds the repo to "the same behaviour from
// the least code": every top-level function, method, type, constant and
// variable of the module's non-test files, exported or not, must be named
// by some non-test file of the module or perfbench other than at its own
// declaration, or be allowlisted above with a reason. A method is also
// reached when it is in the method set of a type that implements an
// interface declaring it: any interface the module or perfbench declares,
// named or literal, and error, fmt.Stringer and http.Handler. Promoted
// methods count for the embedding type. perfbench, cmd/ and examples/
// count as callers; perfbench's own declarations are not checked.
func TestDeclarationsHaveCallers(t *testing.T) {
	src := loadSource(t)

	// Every checked declaration, keyed by its object, with the node that
	// declares it: the func, or its own spec of a grouped declaration.
	type decl struct {
		key, pos string
		node     ast.Node
	}
	decls := map[types.Object]decl{}
	owner := map[string]string{}
	var named []*types.Named
	for _, p := range src.pkgs {
		if p.pkg.Path() == perfbenchPath {
			continue
		}
		base := path.Base(p.pkg.Path())
		if prev, dup := owner[base]; dup {
			t.Fatalf("package key %s names both %s and %s", base, prev, p.pkg.Path())
		}
		owner[base] = p.pkg.Path()
		for _, f := range p.files {
			for _, d := range f.Decls {
				declNames(d, func(id *ast.Ident, n ast.Node) {
					key := base + "." + id.Name
					if fd, ok := n.(*ast.FuncDecl); ok {
						if fd.Recv != nil {
							key = base + "." + recvName(fd) + "." + id.Name
						} else if id.Name == "main" || id.Name == "init" {
							return
						}
					}
					if id.Name == "_" {
						return
					}
					obj := p.info.Defs[id]
					decls[obj] = decl{key, src.fset.Position(id.Pos()).String(), n}
					if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
						if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
							named = append(named, n)
						}
					}
				})
			}
		}
	}

	// Every name a non-test file uses outside the declaration of what it
	// names, and every interface the module declares. A method's receiver
	// clause belongs to its type's declaration.
	used := map[types.Object]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"net/http", "Handler"}} {
		pkg, err := src.std.Import(std[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface))
	}
	for _, p := range src.pkgs {
		for _, f := range p.files {
			recv := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(r ast.Node) bool {
							if id, ok := r.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.Ident:
					obj := origin(p.info.Uses[n])
					if obj == nil || recv[n] {
						break
					}
					if d := decls[obj].node; d != nil && d.Pos() <= n.Pos() && n.Pos() < d.End() {
						break
					}
					used[obj] = true
				case *ast.InterfaceType:
					if it, ok := p.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
				return true
			})
		}
		for _, inst := range p.info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				named = append(named, n)
			}
		}
	}

	// Methods reached through an interface, promoted ones included.
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		for _, it := range ifaces {
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	allowed := map[string]bool{}
	for _, a := range declAllowlist {
		for _, name := range a.names {
			allowed[name] = true
		}
	}
	present := map[string]bool{}
	var unused []string
	for obj, d := range decls {
		present[d.key] = true
		if used[obj] {
			if allowed[d.key] {
				t.Errorf("%s is allowlisted but non-test code now references it: drop it from declAllowlist", d.key)
			}
			continue
		}
		if !allowed[d.key] {
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	for key := range allowed {
		if !present[key] {
			t.Errorf("%s is allowlisted but no longer exists: drop it from declAllowlist", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: no non-test code references it; delete it, move it into the tests that use it, or allowlist it with a reason", u)
	}
	t.Logf("%d declarations, %d allowlisted", len(decls), len(allowed))
}

// declNames calls fn with each name a top-level declaration declares and
// the node that declares it: the func, or its own spec of a grouped
// declaration.
func declNames(d ast.Decl, fn func(id *ast.Ident, n ast.Node)) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		fn(d.Name, d)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				fn(s.Name, s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					fn(id, s)
				}
			}
		}
	}
}

// recvName returns the base type name of a method's receiver.
func recvName(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name
}

// origin maps a method or field of an instantiated generic type, and an
// instantiated generic function, to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
