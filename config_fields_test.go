package dicer

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
	"testing"
)

// configAllowlist names the exported fields of exported *Config, *Options
// and *Spec types that no non-test code writes, each group with the reason
// it stays. Keys are "<package>.<Type>", the package being the last element
// of its import path.
var configAllowlist = []struct {
	typ    string
	fields []string
	reason string
}{
	{"core.Config", []string{"NearOptTolerance", "MinHPWays", "MinBEWays"},
		"paper constants, recorded in every trace header"},
	{"experiments.Config", []string{"Machine", "PeriodSec", "StepsPerPeriod", "DICER"},
		"perfbench reads them, and perfbench changes only in a benchmark change"},
	{"experiments.Config", []string{"HorizonPeriods", "SweepHorizonPeriods", "Trace"},
		"tests set them to shorten runs or capture a trace"},
	{"experiments.Config", []string{"ReferenceSolver"},
		"the reference-solver switch that tests and perfbench compare against"},
	{"experiments.FleetConfig", []string{"Schedulers"},
		"tests narrow the scheduler grid with it"},
	{"experiments.SoakConfig", []string{"Workloads"},
		"tests narrow the soak matrix with it"},
	{"fleet.ForensicsConfig", []string{"WindowPeriods", "TailPeriods", "CooldownPeriods", "MaxIncidents"},
		"tests size incident bundles and the retention bound with them"},
	{"slo.AlertConfig", []string{"Budget", "Windows", "ClearFraction", "ClearHold"},
		"the alerter kernel's own tests vary the rule; everything else runs slo.DefaultAlertConfig"},
}

// TestConfigFieldsHaveSetters holds the repo to "do not add a knob unless
// something uses it": every exported field of an exported struct type named
// *Config, *Options or *Spec must be written somewhere outside the test
// files — by a composite-literal element, an assignment, an increment or by
// taking its address — or be allowlisted above with a reason. Writes inside
// functions whose name contains "default" set the default, not the knob, and
// do not count. The module's packages and perfbench are type-checked from
// source; perfbench, cmd/ and examples/ count as callers.
func TestConfigFieldsHaveSetters(t *testing.T) {
	loaded := loadSource(t).pkgs

	// Every settable field, keyed by its object.
	fields := map[*types.Var]string{}
	owner := map[string]string{}
	for _, p := range loaded {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isConfigName(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typ := path.Base(p.pkg.Path()) + "." + name
			if prev, dup := owner[typ]; dup && prev != p.pkg.Path() {
				t.Fatalf("type key %s names both %s and %s", typ, prev, p.pkg.Path())
			}
			owner[typ] = p.pkg.Path()
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = typ + "." + f.Name()
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range loaded {
		for _, f := range p.files {
			markWrites(f, p.info, written)
		}
	}

	allowed := map[string]bool{}
	for _, a := range configAllowlist {
		for _, f := range a.fields {
			allowed[a.typ+"."+f] = true
		}
	}
	present := map[string]bool{}
	var unset []string
	for f, key := range fields {
		present[key] = true
		if written[f] {
			if allowed[key] {
				t.Errorf("%s is allowlisted but written outside the tests: drop it from configAllowlist", key)
			}
			continue
		}
		if !allowed[key] {
			unset = append(unset, key)
		}
	}
	for key := range allowed {
		if !present[key] {
			t.Errorf("%s is allowlisted but no longer exists: drop it from configAllowlist", key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: no non-test code sets it; make it a constant or allowlist it with a reason", key)
	}
	t.Logf("%d config fields, %d allowlisted", len(fields), len(allowed))
}

func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")
}

// markWrites records every struct field the file writes outside functions
// whose name contains "default".
func markWrites(f *ast.File, info *types.Info, written map[*types.Var]bool) {
	var target func(e ast.Expr)
	target = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			target(e.X)
		case *ast.IndexExpr:
			target(e.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				written[sel.Obj().(*types.Var)] = true
				target(e.X)
			}
		}
	}
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return !strings.Contains(strings.ToLower(n.Name.Name), "default")
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			t := tv.Type
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[key].(*types.Var); ok {
							written[v] = true
						}
					}
				} else if i < st.NumFields() {
					written[st.Field(i)] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					target(n.Key)
				}
				if n.Value != nil {
					target(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}
