package docs

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// buildTags are the build configurations the program is type-checked
// in: the host's, and the host's with the kernel fast paths off. A file
// neither selects — the !linux and !unix fallbacks — is not
// type-checked, so a name only such a file uses is reported as unused.
var buildTags = [][]string{nil, {"dstune_nozerocopy"}}

// Program is the module's product code — every non-test .go file,
// bench/ included — type-checked in each of buildTags, and what it does
// with the module's functions, methods and fields. A use is keyed by
// the position of the name's declaration, which the configurations
// share because each file is parsed once.
type Program struct {
	fset  *token.FileSet
	files map[string]*ast.File   // each file parsed, by its path
	pkgs  []*types.Package       // the module's packages, in each configuration
	set   map[token.Pos][]string // field → the files that set it
	read  map[token.Pos]bool     // fields some file reads
	used  map[token.Pos]bool     // functions and methods used outside their own body
}

// Load type-checks the product code under root: the module's packages
// from source, in dependency order, and the standard library from the
// export data that one `go list -export` call finds while the files are
// parsed.
func Load(root string) (*Program, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "node_modules") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Each configuration's packages by import path, and the standard
	// library packages they import.
	configs := make([]map[string]*build.Package, len(buildTags))
	std := map[string]bool{}
	for i, tags := range buildTags {
		ctx := build.Default
		ctx.BuildTags = tags
		configs[i] = map[string]*build.Package{}
		for _, dir := range dirs {
			bp, err := ctx.ImportDir(dir, 0)
			if _, ok := err.(*build.NoGoError); ok || err == nil && len(bp.GoFiles) == 0 {
				continue
			} else if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return nil, err
			}
			path := mod
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			configs[i][path] = bp
		}
		for _, bp := range configs[i] {
			for _, im := range bp.Imports {
				if configs[i][im] == nil {
					std[im] = true
				}
			}
		}
	}
	exports, err := stdExports(root, std)
	if err != nil {
		return nil, err
	}
	p := &Program{fset: token.NewFileSet(), set: map[token.Pos][]string{}, read: map[token.Pos]bool{}, used: map[token.Pos]bool{}}
	files, perr := p.parse(root, configs)
	stdFiles, err := exports()
	if perr != nil {
		return nil, perr
	} else if err != nil {
		return nil, err
	}
	stdImporter := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		if stdFiles[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(stdFiles[path])
	})
	for _, bps := range configs {
		checked := map[string]*types.Package{}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if pkg := checked[path]; pkg != nil {
				return pkg, nil
			}
			return stdImporter.Import(path)
		})
		ifaceCalls := map[*types.Func]bool{}
		var check func(path string) error
		check = func(path string) error {
			bp := bps[path]
			if checked[path] != nil || bp == nil {
				return nil
			}
			for _, im := range bp.Imports {
				if err := check(im); err != nil {
					return err
				}
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
			pkg, err := (&types.Config{Importer: imp}).Check(path, p.fset, files[bp], info)
			if err != nil {
				return err
			}
			checked[path] = pkg
			p.pkgs = append(p.pkgs, pkg)
			for _, f := range files[bp] {
				p.collect(f, info, ifaceCalls)
			}
			return nil
		}
		for path := range bps {
			if err := check(path); err != nil {
				return nil, err
			}
		}
		p.implementers(checked, ifaceCalls)
	}
	return p, nil
}

// parse parses each package's files, each file once, naming it by its
// root-relative path.
func (p *Program) parse(root string, configs []map[string]*build.Package) (map[*build.Package][]*ast.File, error) {
	files := map[*build.Package][]*ast.File{}
	parsed := map[string]*ast.File{}
	p.files = parsed
	for _, bps := range configs {
		for _, bp := range bps {
			for _, name := range bp.GoFiles {
				path := filepath.Join(bp.Dir, name)
				if parsed[path] == nil {
					data, err := os.ReadFile(path)
					if err != nil {
						return nil, err
					}
					rel, err := filepath.Rel(root, path)
					if err != nil {
						return nil, err
					}
					if parsed[path], err = parser.ParseFile(p.fset, filepath.ToSlash(rel), data, parser.SkipObjectResolution); err != nil {
						return nil, err
					}
				}
				files[bp] = append(files[bp], parsed[path])
			}
		}
	}
	return files, nil
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExports starts one `go list`, which needs no module and so fetches
// nothing, for the export data file of every standard library package
// imports names and of each package they depend on; the function it
// returns waits for them.
func stdExports(root string, imports map[string]bool) (func() (map[string]string, error), error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for im := range imports {
		args = append(args, im)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() (map[string]string, error) {
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("go list -export: %v: %s", err, stderr.Bytes())
		}
		exports := map[string]string{}
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			path, file, _ := strings.Cut(sc.Text(), " ")
			exports[path] = file
		}
		return exports, nil
	}, nil
}

// collect records what one file does with the names it uses. A field
// is set where an assignment's left side, an increment or a &x.F (a
// flag binding) selects it, or where a struct literal keys it; any
// other selection reads it. A function or method is used wherever it
// is named outside its own declaration; a use of an interface's method
// is kept in ifaceCalls.
func (p *Program) collect(f *ast.File, info *types.Info, ifaceCalls map[*types.Func]bool) {
	file := p.fset.Position(f.Pos()).Filename
	for _, decl := range f.Decls {
		written := map[ast.Expr]bool{}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					written[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				written[ast.Unparen(x.X)] = true
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					written[ast.Unparen(x.X)] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						p.set[v.Pos()] = append(p.set[v.Pos()], file)
					}
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					if pos := sel.Obj().Pos(); written[x] {
						p.set[pos] = append(p.set[pos], file)
					} else {
						p.read[pos] = true
					}
				}
			case *ast.Ident:
				fn, ok := info.Uses[x].(*types.Func)
				if !ok || decl.Pos() <= fn.Pos() && fn.Pos() < decl.End() {
					break
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls[fn] = true
				} else {
					p.used[fn.Pos()] = true
				}
			}
			return true
		})
	}
}

// implementers counts a use of an interface's method as a use of every
// module method that may be the one called: the method of that name of
// each module type T whose T or *T implements the interface.
func (p *Program) implementers(pkgs map[string]*types.Package, ifaceCalls map[*types.Func]bool) {
	byName := map[string][]types.Type{} // method name → *T of each module type T that has it
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				name := ms.At(i).Obj().Name()
				byName[name] = append(byName[name], ptr)
			}
		}
	}
	for fn := range ifaceCalls {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, ptr := range byName[fn.Name()] {
			if types.Implements(ptr, iface) {
				m, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name())
				p.used[m.Pos()] = true
			}
		}
	}
}

// file returns the root-relative file and the line obj is declared at.
func (p *Program) file(obj types.Object) (string, int) {
	pos := p.fset.Position(obj.Pos())
	return pos.Filename, pos.Line
}
