package analysis

// metricreg guards the metrics registration contract: every series is
// created through a Registry (so it is exposed and its labels are
// pre-rendered), registered exactly once, and named with compile-time
// constants — the pre-rendered escaping and the static series set both
// depend on names and labels being fixed at build time.
//
//   - Constructing metrics.Counter/Gauge/Histogram directly (composite
//     literal, new, or a value declaration) outside the metrics package
//     yields a working-but-invisible series; the Registry constructors
//     are the only sanctioned source.
//   - Name, help, and label arguments to Registry constructors and
//     metrics.L must be constant strings. A variable label value makes
//     the series set dynamic (unbounded cardinality) and defeats
//     registration-time escaping review; a rare closed-set exception
//     is suppressed explicitly with //ckvet:ignore.
//   - Registering the same (name, labels) twice, or one name under two
//     constructor kinds, panics at runtime; both are reported statically
//     when the arguments are constants.
//
// The metrics package is recognized by package name ("metrics"), so the
// analyzer works against internal/metrics and the testdata stub alike.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

var MetricReg = &Analyzer{
	Name: "metricreg",
	Doc:  "metric series must be registry-built, constant-labeled, and registered once",
	Run:  runMetricReg,
}

// registryCtors maps Registry constructor names to the index of their
// first label argument (after name/help and any mid positional args).
var registryCtors = map[string]int{
	"Counter":     2,
	"CounterFunc": 3,
	"Gauge":       2,
	"GaugeFunc":   3,
	"Histogram":   4,
}

func runMetricReg(pass *Pass) {
	info := pass.TypesInfo()
	if pass.TypesPkg().Name() == "metrics" {
		return // the implementation package constructs its own types freely
	}

	// registration is one statically-keyed Registry constructor call.
	type registration struct {
		kind string
		pos  ast.Node
	}
	byKey := map[string]registration{}  // name+labels -> first registration
	kindOf := map[string]registration{} // name -> first kind seen

	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if t := metricSeriesType(info.Types[n].Type); t != "" {
					pass.Reportf(n.Pos(),
						"metrics.%s constructed directly is never registered or exposed; build it through a metrics.Registry", t)
				}
			case *ast.ValueSpec:
				if tv, ok := info.Types[n.Type]; ok {
					if t := metricSeriesType(tv.Type); t != "" {
						pass.Reportf(n.Pos(),
							"zero-value metrics.%s is never registered or exposed; build it through a metrics.Registry", t)
					}
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if tv, ok := info.Types[field.Type]; ok {
						if t := metricSeriesType(tv.Type); t != "" {
							pass.Reportf(field.Pos(),
								"embedded metrics.%s value is never registered or exposed; hold the *%s a Registry returns", t, t)
						}
					}
				}
			case *ast.CallExpr:
				fn := staticCallee(info, n)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "metrics" {
					// new(metrics.Counter) is a builtin call, handled here too.
					if isBuiltinCall(info, n, "new") && len(n.Args) == 1 {
						if tv, ok := info.Types[n.Args[0]]; ok && tv.IsType() {
							if t := metricSeriesType(tv.Type); t != "" {
								pass.Reportf(n.Pos(),
									"new(metrics.%s) is never registered or exposed; build it through a metrics.Registry", t)
							}
						}
					}
					return true
				}
				if fn.Name() == "L" && len(n.Args) == 2 {
					checkConstArg(pass, n.Args[0], "label name")
					checkConstArg(pass, n.Args[1], "label value")
					return true
				}
				labelStart, isCtor := registryCtors[fn.Name()]
				if !isCtor || !isRegistryMethod(fn) {
					return true
				}
				if len(n.Args) == 0 {
					return true
				}
				checkConstArg(pass, n.Args[0], "metric name")
				key, keyed := registrationKey(pass, n, labelStart)
				if !keyed {
					return true
				}
				name := constString(info, n.Args[0])
				kind := ctorKind(fn.Name())
				if prev, ok := kindOf[name]; ok && prev.kind != kind {
					pass.Reportf(n.Pos(),
						"%s registered as both %s and %s (previous registration at %s); the Registry panics on the second",
						name, prev.kind, kind, pass.Fset().Position(prev.pos.Pos()))
				} else if !ok {
					kindOf[name] = registration{kind: kind, pos: n}
				}
				if prev, ok := byKey[key]; ok {
					pass.Reportf(n.Pos(),
						"duplicate registration of series %s (previous registration at %s); every series must be registered exactly once",
						key, pass.Fset().Position(prev.pos.Pos()))
				} else {
					byKey[key] = registration{kind: kind, pos: n}
				}
			}
			return true
		})
	}
}

// metricSeriesType returns "Counter"/"Gauge"/"Histogram" when t is one of
// the metrics series types (by value), "" otherwise.
func metricSeriesType(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "metrics" {
		return ""
	}
	switch obj.Name() {
	case "Counter", "Gauge", "Histogram":
		return obj.Name()
	}
	return ""
}

func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

func ctorKind(name string) string {
	switch name {
	case "Counter", "CounterFunc":
		return "counter"
	case "Gauge", "GaugeFunc":
		return "gauge"
	}
	return "histogram"
}

// checkConstArg reports arg unless it is a compile-time string constant.
func checkConstArg(pass *Pass, arg ast.Expr, what string) {
	tv, ok := pass.TypesInfo().Types[arg]
	if ok && tv.Value != nil {
		return
	}
	pass.Reportf(arg.Pos(),
		"%s must be a compile-time constant so the series set is static and registration-time escaping holds", what)
}

// registrationKey renders "name{label=value,...}" for duplicate
// detection. keyed is false when the name or any label argument is
// non-constant — those sites cannot be compared statically (and the
// non-constant label is already reported by checkConstArg).
func registrationKey(pass *Pass, call *ast.CallExpr, labelStart int) (string, bool) {
	info := pass.TypesInfo()
	name := constString(info, call.Args[0])
	if name == "" {
		return "", false
	}
	var labels []string
	for i := labelStart; i < len(call.Args); i++ {
		lc, ok := ast.Unparen(call.Args[i]).(*ast.CallExpr)
		if !ok {
			return "", false // label built some other way; skip dup detection
		}
		fn := staticCallee(info, lc)
		if fn == nil || fn.Name() != "L" || len(lc.Args) != 2 {
			return "", false
		}
		ln, lv := constString(info, lc.Args[0]), constString(info, lc.Args[1])
		if ln == "" || lv == "" {
			return "", false
		}
		labels = append(labels, fmt.Sprintf("%s=%q", ln, lv))
	}
	sort.Strings(labels)
	if len(labels) == 0 {
		return name, true
	}
	return name + "{" + strings.Join(labels, ",") + "}", true
}

// constString returns the constant string value of e, or "".
func constString(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return ""
	}
	s := tv.Value.String()
	if len(s) >= 2 && s[0] == '"' {
		return s[1 : len(s)-1]
	}
	return ""
}
