package docs

import (
	"fmt"
	"sort"
)

// callerExemptions are the exported functions and methods that no
// product file uses but that stay, keyed "pkg.Func", "pkg.Type.Method"
// or "pkg.Type" (every method of the type), each with why.
var callerExemptions = map[string]string{
	"faultnet.Injector":          "faultnet is the fault injector that tests drive: they read its counters and wrap listeners with Listen",
	"xfer.transientError.Unwrap": "errors.Is and errors.As call it",
}

// CheckCallers reports every exported function, and every exported
// method, that a non-test file other than the facade (CheckFacade's)
// declares and that no product file — a non-test .go file, bench/
// included, which changes only with the benchmark — uses outside its
// own body, unless exempt names it. A function is used where its name appears in
// its package or qualified by its package; a method where it is called
// or taken as a value on a value of its type (or of a type embedding
// it). The lint reads syntax, not types, as CheckSettings does: where
// it cannot type the value a method is selected on — an interface, a
// standard library type, an expression the syntax does not type — any
// method of the name is taken as used, so a method can pass because a
// namesake is called, never fail while it is. An exemption that names
// nothing unused is reported too.
func CheckCallers(root string, exempt map[string]string) ([]string, error) {
	s, err := loadSource(root)
	if err != nil {
		return nil, err
	}
	u := s.collect()
	var problems []string
	used := map[string]bool{}
	report := func(fd *funcDecl, names ...string) {
		for _, name := range names {
			if _, ok := exempt[name]; ok {
				used[name] = true
				return
			}
		}
		name := names[0]
		problems = append(problems, fmt.Sprintf("%s:%d: %s is used by no product file: delete it, or exempt it with a reason",
			fd.sf.rel, s.fset.Position(fd.decl.Name.Pos()).Line, name))
	}
	for key, fd := range s.funcs {
		if fd.decl.Name.IsExported() && fd.sf.rel != facade && !u.funcs[key] {
			report(fd, fd.sf.f.Name.Name+"."+key.name)
		}
	}
	for key, fd := range s.methods {
		if fd.decl.Name.IsExported() && fd.sf.rel != facade && !u.callTyped[key] && !u.callName[key.name] {
			pkgType := fd.sf.f.Name.Name + "." + key.typ.name
			report(fd, pkgType+"."+key.name, pkgType)
		}
	}
	for name := range exempt {
		if !used[name] {
			problems = append(problems, fmt.Sprintf("exemption %s names nothing unused", name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}
