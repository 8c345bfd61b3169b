package docs

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// settingExemptions are the exported Config fields that no product file
// sets, or none reads, but that stay settings, keyed "pkg.Type.Field"
// (or "pkg.Type" for every field of a struct), each with why.
var settingExemptions = map[string]string{
	"endpoint.Config.RestartBase":      "the tuner golden world restarts in 0.5 s",
	"gridftp.ClientConfig.DialTimeout": "tests use it as a 100–200 ms deadline for a hung peer",
	"faultnet.Config":                  "faultnet is the fault injector that tests drive",
	"obs.ObserverConfig.EventBuffer":   "the benchmark sets it, and bench/ changes only with the benchmark",
	"tuner.FleetConfig.Obs":            "the benchmark sets it, and bench/ changes only with the benchmark",
	"service.Config.NewTransfer":       "the benchmark sets it, and bench/ changes only with the benchmark",
	"xfer.TransferConfig.Name":         "nothing reads it, but the benchmark sets it, and bench/ changes only with the benchmark",
}

// CheckSettings reports every exported field of an exported struct
// named *Config that no product file — a non-test .go file outside
// bench/ — other than the one declaring the struct sets, or that no
// product file, bench/ included, reads, unless exempt names it. A
// composite literal of the struct's type (through type aliases) keying
// the field sets it, and so do an assignment or increment of x.Field
// and &x.Field (a flag binding); any other x.Field reads it, and so does
// a call x.Field( when the field holds a function — a call of a method
// named like the field does not. The lint reads syntax, not types: x is
// typed as far as the syntax tells (see scope), and where it does not,
// the field is matched by name alone: a field can pass because another
// struct's namesake is set or read, never fail while it is. An exemption that names no unset or unread
// field is reported too, so the list cannot outlive its fields.
func CheckSettings(root string, exempt map[string]string) ([]string, error) {
	s, err := loadSource(root)
	if err != nil {
		return nil, err
	}
	u := s.collect()
	setElsewhere := func(in []string, own string) bool {
		for _, f := range in {
			if f != own && !strings.HasPrefix(f, "bench/") {
				return true
			}
		}
		return false
	}
	var problems []string
	used := map[string]bool{}
	for key, td := range s.types {
		st, ok := td.spec.Type.(*ast.StructType)
		if !ok || strings.HasPrefix(td.sf.rel, "bench/") || !td.spec.Name.IsExported() || !strings.HasSuffix(key.name, "Config") {
			continue
		}
		typeName := td.sf.f.Name.Name + "." + key.name
		report := func(n *ast.Ident, problem string) {
			name := typeName + "." + n.Name
			for _, e := range []string{name, typeName} {
				if _, ok := exempt[e]; ok {
					used[e] = true
					return
				}
			}
			problems = append(problems, fmt.Sprintf("%s:%d: %s is %s", td.sf.rel, s.fset.Position(n.Pos()).Line, name, problem))
		}
		for _, fld := range st.Fields.List {
			for _, n := range fld.Names {
				if !n.IsExported() {
					continue
				}
				mk := memberKey{key, n.Name}
				if !setElsewhere(u.setTyped[mk], td.sf.rel) && !setElsewhere(u.setByName[n.Name], td.sf.rel) {
					report(n, "set by no product file but its own: make it a constant, or exempt it with a reason")
				}
				if !u.readTyped[mk] && !u.readName[n.Name] {
					report(n, "read by no product file: delete it, or exempt it with a reason")
				}
			}
		}
	}
	for name := range exempt {
		if !used[name] {
			problems = append(problems, fmt.Sprintf("exemption %s names no field that goes unset or unread", name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// literalKeys returns the identifier keys of lit's elements.
func literalKeys(lit *ast.CompositeLit) []string {
	var keys []string
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				keys = append(keys, id.Name)
			}
		}
	}
	return keys
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
}
