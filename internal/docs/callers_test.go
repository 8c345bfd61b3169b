package docs

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// callerExemptions are the exported functions and methods that no
// product file uses but that stay, keyed "pkg.Func", "pkg.Type.Method"
// or "pkg.Type" (every method of the type), each with why.
var callerExemptions = map[string]string{
	"faultnet.Injector": "faultnet is the fault injector that tests drive: they read its counters and wrap listeners with Listen",
}

// CheckCallers reports every exported function, and every exported
// method, that a non-test file other than the facade (CheckFacade's)
// declares and that no product file — a non-test .go file, bench/
// included, which changes only with the benchmark — uses outside its
// own declaration, unless exempt names it. The uses are the type
// checker's, in both of buildTags' configurations: a function or method
// is used where it is named, called or taken as a value, through
// embedding too; a call of an interface's method uses the method of
// that name of every module type T whose T or *T implements the
// interface, so a method whose namesake on another type is called
// through an interface is reported. String() string, Error() string and
// Unwrap() error or []error count as used, because the standard library
// calls them through any (fmt, errors.Is and errors.As), where no
// module call site shows it. An exemption that names nothing unused is
// reported too.
func CheckCallers(p *Program, exempt map[string]string) []string {
	var problems []string
	used := map[string]bool{}
	seen := map[token.Pos]bool{}
	check := func(fn *types.Func, names ...string) {
		file, line := p.file(fn)
		if !fn.Exported() || file == facade || seen[fn.Pos()] || p.used[fn.Pos()] || calledThroughAny(fn) {
			return
		}
		seen[fn.Pos()] = true
		for _, name := range names {
			if _, ok := exempt[name]; ok {
				used[name] = true
				return
			}
		}
		problems = append(problems, fmt.Sprintf("%s:%d: %s is used by no product file: delete it, or exempt it with a reason", file, line, names[0]))
	}
	for _, pkg := range p.pkgs {
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				check(obj, pkg.Name()+"."+name)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					check(m, pkg.Name()+"."+name+"."+m.Name(), pkg.Name()+"."+name)
				}
			}
		}
	}
	for name := range exempt {
		if !used[name] {
			problems = append(problems, fmt.Sprintf("exemption %s names nothing unused", name))
		}
	}
	sort.Strings(problems)
	return problems
}

// calledThroughAny reports whether m is a String() string, an Error()
// string or an Unwrap() error or []error.
func calledThroughAny(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	result := sig.Results().At(0).Type()
	switch m.Name() {
	case "String", "Error":
		return types.Identical(result, types.Typ[types.String])
	case "Unwrap":
		errType := types.Universe.Lookup("error").Type()
		return types.Identical(result, errType) || types.Identical(result, types.NewSlice(errType))
	}
	return false
}
