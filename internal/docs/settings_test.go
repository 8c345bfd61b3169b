package docs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// settingExemptions are the exported Config fields that no product file
// sets but that stay settings, keyed "pkg.Type.Field" (or "pkg.Type" for
// every field of a struct), each with why.
var settingExemptions = map[string]string{
	"endpoint.Config.RestartBase":      "the tuner golden world restarts in 0.5 s",
	"gridftp.ClientConfig.DialTimeout": "tests use it as a 100–200 ms deadline for a hung peer",
	"faultnet.Config":                  "faultnet is the fault injector that tests drive",
	"obs.ObserverConfig.EventBuffer":   "the benchmark sets it, and bench/ changes only with the benchmark",
	"tuner.FleetConfig.Obs":            "the benchmark sets it, and bench/ changes only with the benchmark",
}

// typeKey names a type by the root-relative directory of its package
// and its name.
type typeKey struct{ dir, name string }

// configStruct is an exported struct type whose name ends in Config.
type configStruct struct {
	pkg, file string
	fields    map[string]int // exported field name → line
}

// settingFile is one parsed product file.
type settingFile struct {
	rel, dir string
	f        *ast.File
	imports  map[string]string // local name → root-relative dir, module packages only
}

// CheckSettings reports every exported field of an exported struct
// named *Config that no product file — a non-test .go file outside
// bench/ — other than the one declaring the struct sets, unless exempt
// names it. A composite literal of the struct's type (through type
// aliases) keying the field sets it, and so do an assignment or
// increment of x.Field and &x.Field (a flag binding) where x is a
// receiver, parameter or local the function declares as the struct (by
// var x T or x := T{…}). The lint reads syntax, not types, so where it
// cannot type a value — a key in a literal whose type is elided, x.Field
// on any other x — the field is matched by name alone: a field can pass
// because another struct's namesake is set, never fail while it is set.
// An exemption that names no unset field is reported too, so the list
// cannot outlive its fields.
func CheckSettings(root string, exempt map[string]string) ([]string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*settingFile
	var perr error
	err = eachFile(root, ".go", func(rel string, data []byte) {
		if strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(filepath.ToSlash(rel), "bench/") {
			return
		}
		f, err := parser.ParseFile(fset, rel, data, parser.SkipObjectResolution)
		if err != nil {
			perr = err
			return
		}
		sf := &settingFile{rel: filepath.ToSlash(rel), dir: path.Dir(filepath.ToSlash(rel)), f: f, imports: map[string]string{}}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			var dir string
			switch {
			case p == mod:
				dir = "."
			case strings.HasPrefix(p, mod+"/"):
				dir = strings.TrimPrefix(p, mod+"/")
			default:
				continue
			}
			name := path.Base(p)
			if p == mod {
				name = mod
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			sf.imports[name] = dir
		}
		files = append(files, sf)
	})
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}

	structs := map[typeKey]*configStruct{}
	aliases := map[typeKey]typeKey{}
	for _, sf := range files {
		for _, decl := range sf.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				key := typeKey{sf.dir, ts.Name.Name}
				if ts.Assign.IsValid() {
					if target, ok := sf.resolve(ts.Type); ok {
						aliases[key] = target
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				cs := &configStruct{pkg: sf.f.Name.Name, file: sf.rel, fields: map[string]int{}}
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						if n.IsExported() {
							cs.fields[n.Name] = fset.Position(n.Pos()).Line
						}
					}
				}
				structs[key] = cs
			}
		}
	}
	canon := func(k typeKey) typeKey {
		for i := 0; i < 10; i++ {
			t, ok := aliases[k]
			if !ok {
				break
			}
			k = t
		}
		return k
	}

	// typed holds the files that set a field of a known type; byName the
	// files that set a field of that name on a value of unknown type.
	typed := map[typeKey]map[string][]string{}
	byName := map[string][]string{}
	for _, sf := range files {
		setTyped := func(t typeKey, field string) {
			if typed[t] == nil {
				typed[t] = map[string][]string{}
			}
			typed[t][field] = append(typed[t][field], sf.rel)
		}
		for _, decl := range sf.f.Decls {
			// env types the names a function declares with a spelled
			// type: its receiver, its parameters, var x T, x := T{…}.
			env := map[string]typeKey{}
			bind := func(name string, typ ast.Expr) {
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if t, ok := sf.resolve(typ); ok {
					env[name] = canon(t)
				} else {
					delete(env, name)
				}
			}
			if fd, ok := decl.(*ast.FuncDecl); ok {
				for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
					if fl == nil {
						continue
					}
					for _, fld := range fl.List {
						for _, n := range fld.Names {
							bind(n.Name, fld.Type)
						}
					}
				}
			}
			set := func(sel *ast.SelectorExpr) {
				field := sel.Sel.Name
				if id, ok := sel.X.(*ast.Ident); ok {
					if t, ok := env[id.Name]; ok && structs[t] != nil && structs[t].fields[field] > 0 {
						setTyped(t, field)
						return
					}
				}
				byName[field] = append(byName[field], sf.rel)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					keys := literalKeys(x)
					if x.Type == nil {
						for _, k := range keys {
							byName[k] = append(byName[k], sf.rel)
						}
					} else if t, ok := sf.resolve(x.Type); ok {
						for _, k := range keys {
							setTyped(canon(t), k)
						}
					}
				case *ast.ValueSpec:
					for _, name := range x.Names {
						if x.Type != nil {
							bind(name.Name, x.Type)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set(sel)
						}
						if id, ok := lhs.(*ast.Ident); ok && x.Tok == token.DEFINE {
							var typ ast.Expr = &ast.BadExpr{}
							if len(x.Rhs) == len(x.Lhs) {
								rhs := x.Rhs[i]
								if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
									rhs = u.X
								}
								if lit, ok := rhs.(*ast.CompositeLit); ok && lit.Type != nil {
									typ = lit.Type
								}
							}
							bind(id.Name, typ)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := x.X.(*ast.SelectorExpr); ok {
						set(sel)
					}
				case *ast.UnaryExpr:
					if sel, ok := x.X.(*ast.SelectorExpr); ok && x.Op == token.AND {
						set(sel)
					}
				}
				return true
			})
		}
	}
	elsewhere := func(in []string, own string) bool {
		for _, f := range in {
			if f != own {
				return true
			}
		}
		return false
	}

	var problems []string
	used := map[string]bool{}
	for key, cs := range structs {
		for field, line := range cs.fields {
			if elsewhere(typed[key][field], cs.file) || elsewhere(byName[field], cs.file) {
				continue
			}
			name := cs.pkg + "." + key.name + "." + field
			if _, ok := exempt[name]; ok {
				used[name] = true
				continue
			}
			if _, ok := exempt[cs.pkg+"."+key.name]; ok {
				used[cs.pkg+"."+key.name] = true
				continue
			}
			problems = append(problems, fmt.Sprintf("%s:%d: %s is set by no product file but its own: make it a constant, or exempt it with a reason", cs.file, line, name))
		}
	}
	for name := range exempt {
		if !used[name] {
			problems = append(problems, fmt.Sprintf("exemption %s names no field that goes unset", name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// resolve names the type expr spells, for an identifier or a selector on
// a module package this file imports.
func (sf *settingFile) resolve(expr ast.Expr) (typeKey, bool) {
	switch t := expr.(type) {
	case *ast.Ident:
		return typeKey{sf.dir, t.Name}, true
	case *ast.SelectorExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			if dir, ok := sf.imports[id.Name]; ok {
				return typeKey{dir, t.Sel.Name}, true
			}
		}
	}
	return typeKey{}, false
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
