package docs

import (
	"fmt"
	"go/token"
	"go/types"
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
// product file, bench/ included, reads, unless exempt names it. The
// facts are the type checker's, in both of buildTags' configurations
// (see Program.collect for what sets a field and what reads it): a
// field another struct's namesake shares is told apart. An exemption
// that names no unset or unread field is reported too, so the list
// cannot outlive its fields.
func CheckSettings(p *Program, exempt map[string]string) []string {
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
	seen := map[token.Pos]bool{}
	for _, pkg := range p.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Config") || seen[tn.Pos()] {
				continue
			}
			seen[tn.Pos()] = true
			st, ok := tn.Type().Underlying().(*types.Struct)
			own, _ := p.file(tn)
			if !ok || strings.HasPrefix(own, "bench/") {
				continue
			}
			typeName := pkg.Name() + "." + name
			report := func(f *types.Var, problem string) {
				name := typeName + "." + f.Name()
				for _, e := range []string{name, typeName} {
					if _, ok := exempt[e]; ok {
						used[e] = true
						return
					}
				}
				_, line := p.file(f)
				problems = append(problems, fmt.Sprintf("%s:%d: %s is %s", own, line, name, problem))
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				if !setElsewhere(p.set[f.Pos()], own) {
					report(f, "set by no product file but its own: make it a constant, or exempt it with a reason")
				}
				if !p.read[f.Pos()] {
					report(f, "read by no product file: delete it, or exempt it with a reason")
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
	return problems
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
