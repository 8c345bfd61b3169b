package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
)

// typeKey names a type, or a package-level function, by the
// root-relative directory of its package and its name.
type typeKey struct{ dir, name string }

// memberKey names a field or a method by its type and its name.
type memberKey struct {
	typ  typeKey
	name string
}

// srcFile is one parsed product file.
type srcFile struct {
	rel, dir string
	f        *ast.File
	imports  map[string]string // local name → root-relative dir, module packages only
}

// typeDecl, funcDecl and varDecl are declarations with the file they
// sit in, against whose imports their type expressions resolve.
type (
	typeDecl struct {
		sf   *srcFile
		spec *ast.TypeSpec
	}
	funcDecl struct {
		sf   *srcFile
		decl *ast.FuncDecl
	}
	varDecl struct {
		sf   *srcFile
		spec *ast.ValueSpec
		i    int
	}
)

// source is the module's product code: every non-test .go file, bench/
// included, parsed, with the declarations the lints resolve names to.
type source struct {
	fset    *token.FileSet
	files   []*srcFile
	types   map[typeKey]*typeDecl
	aliases map[typeKey]typeKey
	funcs   map[typeKey]*funcDecl   // package-level functions
	methods map[memberKey]*funcDecl // keyed by receiver type
	vars    map[typeKey]*varDecl    // package-level variables
	typing  map[*varDecl]bool       // vars whose type is being worked out
}

// loadSource parses every product file under root.
func loadSource(root string) (*source, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	s := &source{
		fset:    token.NewFileSet(),
		types:   map[typeKey]*typeDecl{},
		aliases: map[typeKey]typeKey{},
		funcs:   map[typeKey]*funcDecl{},
		methods: map[memberKey]*funcDecl{},
		vars:    map[typeKey]*varDecl{},
		typing:  map[*varDecl]bool{},
	}
	var perr error
	err = eachFile(root, ".go", func(rel string, data []byte) {
		if strings.HasSuffix(rel, "_test.go") {
			return
		}
		f, err := parser.ParseFile(s.fset, rel, data, parser.SkipObjectResolution)
		if err != nil {
			perr = err
			return
		}
		rel = filepath.ToSlash(rel)
		sf := &srcFile{rel: rel, dir: path.Dir(rel), f: f, imports: map[string]string{}}
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
			if im.Name != nil {
				name = im.Name.Name
			}
			sf.imports[name] = dir
		}
		s.files = append(s.files, sf)
	})
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	for _, sf := range s.files {
		for _, decl := range sf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fd := &funcDecl{sf, d}
				if d.Recv == nil {
					s.funcs[typeKey{sf.dir, d.Name.Name}] = fd
				} else if t, ok := sf.resolve(d.Recv.List[0].Type); ok {
					s.methods[memberKey{t, d.Name.Name}] = fd
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						key := typeKey{sf.dir, sp.Name.Name}
						if !sp.Assign.IsValid() {
							s.types[key] = &typeDecl{sf, sp}
						} else if target, ok := sf.resolve(sp.Type); ok {
							s.aliases[key] = target
						}
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							for i, n := range sp.Names {
								s.vars[typeKey{sf.dir, n.Name}] = &varDecl{sf, sp, i}
							}
						}
					}
				}
			}
		}
	}
	return s, nil
}

// resolve names the type expr spells — through a pointer or type
// arguments — for an identifier or a selector on a module package this
// file imports. The name may be no module type (a builtin, a type
// parameter).
func (sf *srcFile) resolve(expr ast.Expr) (typeKey, bool) {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return sf.resolve(t.X)
	case *ast.ParenExpr:
		return sf.resolve(t.X)
	case *ast.IndexExpr:
		return sf.resolve(t.X)
	case *ast.IndexListExpr:
		return sf.resolve(t.X)
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

// typ is a type as the syntax spells it, with the file whose imports
// resolve it. A nil expr is a type the lint cannot tell: a value of it
// may be of any module type.
type typ struct {
	expr ast.Expr
	sf   *srcFile
}

// opaque is the type of a value the lint knows is of no module type: a
// standard library function's result, a builtin's.
var opaque = typ{expr: ast.NewIdent("opaque")}

// builtinTypes are the predeclared types, and opaque's name.
var builtinTypes = map[string]bool{
	"bool": true, "byte": true, "complex64": true, "complex128": true, "error": true,
	"float32": true, "float64": true, "int": true, "int8": true, "int16": true,
	"int32": true, "int64": true, "rune": true, "string": true, "uint": true,
	"uint8": true, "uint16": true, "uint32": true, "uint64": true, "uintptr": true,
	"any": true, "opaque": true,
}

// genericPkgs are the standard library packages whose functions can
// return a value of their argument's type, a module type included.
var genericPkgs = map[string]bool{"slices": true, "maps": true, "cmp": true, "iter": true}

func (t typ) known() bool { return t.expr != nil }

// named resolves expr, spelled in sf, to a type the module declares,
// through pointers and aliases.
func (s *source) named(sf *srcFile, expr ast.Expr) (typeKey, bool) {
	if expr == nil || sf == nil {
		return typeKey{}, false
	}
	k, ok := sf.resolve(expr)
	if !ok {
		return k, false
	}
	for i := 0; i < 10; i++ {
		t, ok := s.aliases[k]
		if !ok {
			break
		}
		k = t
	}
	_, ok = s.types[k]
	return k, ok
}

// under returns t's type literal through pointers and module type
// names, as far as the syntax tells. A name it cannot follow — a type
// parameter, an alias of a standard library type — is unknown.
func (s *source) under(t typ) typ {
	for i := 0; i < 10 && t.known(); i++ {
		switch x := t.expr.(type) {
		case *ast.StarExpr:
			t.expr = x.X
		case *ast.ParenExpr:
			t.expr = x.X
		case *ast.Ident:
			if builtinTypes[x.Name] {
				return t
			}
			k, ok := s.named(t.sf, x)
			if !ok {
				return typ{}
			}
			t = typ{s.types[k].spec.Type, s.types[k].sf}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr:
			k, ok := s.named(t.sf, x)
			if !ok {
				return opaque // a standard library type
			}
			t = typ{s.types[k].spec.Type, s.types[k].sf}
		default:
			return t
		}
	}
	return t
}

// field finds the field name of t, directly or promoted through an
// embedded field, and returns the module struct that declares it (zero
// for a struct literal's) and the field's type.
func (s *source) field(t typ, name string, depth int) (typeKey, typ, bool) {
	u := s.under(t)
	st, ok := u.expr.(*ast.StructType)
	if !ok || depth > 3 {
		return typeKey{}, typ{}, false
	}
	owner, _ := s.named(t.sf, t.expr)
	for _, fld := range st.Fields.List {
		for _, n := range fld.Names {
			if n.Name == name {
				return owner, typ{fld.Type, u.sf}, true
			}
		}
	}
	for _, fld := range st.Fields.List {
		if len(fld.Names) == 0 {
			if k, ft, ok := s.field(typ{fld.Type, u.sf}, name, depth+1); ok {
				return k, ft, true
			}
		}
	}
	return typeKey{}, typ{}, false
}

// method finds the method name of t, directly or promoted through an
// embedded field.
func (s *source) method(t typ, name string, depth int) *funcDecl {
	if k, ok := s.named(t.sf, t.expr); ok {
		if fd := s.methods[memberKey{k, name}]; fd != nil {
			return fd
		}
	}
	u := s.under(t)
	st, ok := u.expr.(*ast.StructType)
	if !ok || depth > 3 {
		return nil
	}
	for _, fld := range st.Fields.List {
		if len(fld.Names) == 0 {
			if fd := s.method(typ{fld.Type, u.sf}, name, depth+1); fd != nil {
				return fd
			}
		}
	}
	return nil
}

// results returns the i-th result type of a function type.
func results(ft typ, i int) typ {
	f, ok := ft.expr.(*ast.FuncType)
	if !ok || f.Results == nil {
		return typ{}
	}
	for _, fld := range f.Results.List {
		n := max(len(fld.Names), 1)
		if i < n {
			return typ{fld.Type, ft.sf}
		}
		i -= n
	}
	return typ{}
}

// varType returns the type of a package-level variable.
func (s *source) varType(v *varDecl) typ {
	if v.spec.Type != nil {
		return typ{v.spec.Type, v.sf}
	}
	if s.typing[v] || len(v.spec.Values) != len(v.spec.Names) {
		return typ{}
	}
	s.typing[v] = true
	defer delete(s.typing, v)
	sc := &scope{s: s, sf: v.sf, env: map[string]typ{}, locals: map[string]bool{}}
	return sc.typeOf(v.spec.Values[v.i])
}

// scope types the names one declaration binds, as far as its syntax
// spells them: receiver and parameters, var x T, x := of a literal, a
// conversion, a module function's result or a field or element of a
// typed value, a range's key and value, a type switch's cases. locals
// holds every name it binds, typed or not, so that a local named like
// an imported package or a package-level name is not taken for it.
type scope struct {
	s      *source
	sf     *srcFile
	env    map[string]typ
	locals map[string]bool
}

func (sc *scope) bind(name string, t typ) {
	sc.locals[name] = true
	sc.env[name] = t
}

func (sc *scope) bindFields(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, fld := range fl.List {
		t := typ{fld.Type, sc.sf}
		if e, ok := fld.Type.(*ast.Ellipsis); ok {
			t.expr = &ast.ArrayType{Elt: e.Elt}
		}
		for _, n := range fld.Names {
			sc.bind(n.Name, t)
		}
	}
}

// pkg returns the module package a selector's operand names, if it is
// an import and no local shadows it.
func (sc *scope) pkg(x ast.Expr) (string, bool) {
	id, ok := x.(*ast.Ident)
	if !ok || sc.locals[id.Name] {
		return "", false
	}
	dir, ok := sc.sf.imports[id.Name]
	return dir, ok
}

// external returns the standard library import a selector's operand
// names, if it is one and no local shadows it.
func (sc *scope) external(x ast.Expr) (string, bool) {
	id, ok := x.(*ast.Ident)
	if !ok || sc.locals[id.Name] {
		return "", false
	}
	for _, im := range sc.sf.f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		if name == id.Name {
			if _, mod := sc.sf.imports[name]; !mod {
				return p, true
			}
		}
	}
	return "", false
}

// callee returns the module function or method fun calls, if the
// syntax names one.
func (sc *scope) callee(fun ast.Expr) *funcDecl {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		if !sc.locals[f.Name] {
			return sc.s.funcs[typeKey{sc.sf.dir, f.Name}]
		}
	case *ast.SelectorExpr:
		if dir, ok := sc.pkg(f.X); ok {
			return sc.s.funcs[typeKey{dir, f.Sel.Name}]
		}
		if t := sc.typeOf(f.X); t.known() {
			return sc.s.method(t, f.Sel.Name, 0)
		}
	}
	return nil
}

// isType reports whether expr, spelled in this scope, names a type.
func (sc *scope) isType(expr ast.Expr) bool {
	switch x := ast.Unparen(expr).(type) {
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.StructType, *ast.InterfaceType, *ast.StarExpr:
		return true
	case *ast.Ident:
		if sc.locals[x.Name] {
			return false
		}
		_, ok := sc.s.named(sc.sf, x)
		return ok || builtinTypes[x.Name]
	case *ast.SelectorExpr:
		_, ok := sc.s.named(sc.sf, x)
		return ok
	}
	return false
}

// call returns the type of call's i-th result.
func (sc *scope) call(call *ast.CallExpr, i int) typ {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok && !sc.locals[id.Name] && sc.s.funcs[typeKey{sc.sf.dir, id.Name}] == nil {
		switch id.Name {
		case "len", "cap", "copy", "real", "imag", "complex":
			return opaque
		case "append", "min", "max":
			return sc.typeOf(call.Args[0])
		case "new", "make":
			return typ{call.Args[0], sc.sf}
		}
	}
	if fd := sc.callee(fun); fd != nil {
		return results(typ{fd.decl.Type, fd.sf}, i)
	}
	if len(call.Args) == 1 && i == 0 && sc.isType(fun) {
		return typ{fun, sc.sf} // a conversion T(v)
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if p, ok := sc.external(sel.X); ok {
			if genericPkgs[p] {
				return typ{}
			}
			return opaque
		}
	}
	if ft := sc.s.under(sc.typeOf(fun)); ft.known() {
		return results(ft, i)
	}
	return typ{}
}

// typeOf returns the type of expr, where its syntax tells.
func (sc *scope) typeOf(expr ast.Expr) typ {
	s := sc.s
	switch x := expr.(type) {
	case *ast.Ident:
		if t, ok := sc.env[x.Name]; ok {
			return t
		}
		if sc.locals[x.Name] {
			return typ{}
		}
		if x.Name == "true" || x.Name == "false" {
			return opaque
		}
		if v := s.vars[typeKey{sc.sf.dir, x.Name}]; v != nil {
			return s.varType(v)
		}
	case *ast.BasicLit:
		return opaque
	case *ast.ParenExpr:
		return sc.typeOf(x.X)
	case *ast.StarExpr:
		return sc.typeOf(x.X)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.ARROW:
			if ch, ok := s.under(sc.typeOf(x.X)).expr.(*ast.ChanType); ok {
				return typ{ch.Value, s.under(sc.typeOf(x.X)).sf}
			}
			return typ{}
		case token.NOT:
			return opaque
		}
		return sc.typeOf(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ, token.LAND, token.LOR:
			return opaque
		}
		return sc.typeOf(x.X)
	case *ast.CompositeLit:
		if x.Type != nil {
			return typ{x.Type, sc.sf}
		}
	case *ast.FuncLit:
		return typ{x.Type, sc.sf}
	case *ast.TypeAssertExpr:
		if x.Type != nil {
			return typ{x.Type, sc.sf}
		}
	case *ast.SelectorExpr:
		if dir, ok := sc.pkg(x.X); ok {
			if v := s.vars[typeKey{dir, x.Sel.Name}]; v != nil {
				return s.varType(v)
			}
			return typ{}
		}
		if _, ok := sc.external(x.X); ok {
			return opaque
		}
		t := sc.typeOf(x.X)
		if !t.known() {
			return typ{}
		}
		if fd := s.method(t, x.Sel.Name, 0); fd != nil {
			return typ{fd.decl.Type, fd.sf}
		}
		if _, ft, ok := s.field(t, x.Sel.Name, 0); ok {
			return ft
		}
	case *ast.IndexExpr:
		u := s.under(sc.typeOf(x.X))
		switch c := u.expr.(type) {
		case *ast.ArrayType:
			return typ{c.Elt, u.sf}
		case *ast.MapType:
			return typ{c.Value, u.sf}
		case *ast.Ident:
			if c.Name == "string" {
				return opaque
			}
		}
	case *ast.SliceExpr:
		return sc.typeOf(x.X)
	case *ast.CallExpr:
		return sc.call(x, 0)
	}
	return typ{}
}

// assign binds the names an assignment or var declaration defines.
func (sc *scope) assign(lhs []*ast.Ident, rhs []ast.Expr) {
	for i, id := range lhs {
		var t typ
		switch {
		case len(rhs) == len(lhs):
			t = sc.typeOf(rhs[i])
		case len(rhs) == 1:
			if call, ok := rhs[0].(*ast.CallExpr); ok {
				t = sc.call(call, i)
			} else if i == 0 {
				t = sc.typeOf(rhs[0]) // v, ok := m[k], x.(T) or <-ch
			} else {
				t = opaque
			}
		}
		sc.bind(id.Name, t)
	}
}

// rangeOver binds a range statement's key and value.
func (sc *scope) rangeOver(r *ast.RangeStmt) {
	var k, v typ
	u := sc.s.under(sc.typeOf(r.X))
	switch c := u.expr.(type) {
	case *ast.ArrayType:
		k, v = opaque, typ{c.Elt, u.sf}
	case *ast.MapType:
		k, v = typ{c.Key, u.sf}, typ{c.Value, u.sf}
	case *ast.ChanType:
		k = typ{c.Value, u.sf}
	case *ast.Ident:
		k, v = opaque, opaque // a string or an integer
	}
	for _, b := range []struct {
		e ast.Expr
		t typ
	}{{r.Key, k}, {r.Value, v}} {
		if id, ok := b.e.(*ast.Ident); ok && r.Tok == token.DEFINE {
			sc.bind(id.Name, b.t)
		}
	}
}

// uses is what the product files do with the module's names. A
// member's use is keyed by its type where the syntax tells it, and by
// its name alone where not.
type uses struct {
	setTyped  map[memberKey][]string // files that set the field
	setByName map[string][]string
	readTyped map[memberKey]bool
	readName  map[string]bool
	callTyped map[memberKey]bool
	callName  map[string]bool
	funcs     map[typeKey]bool
}

// collect walks every product file.
func (s *source) collect() *uses {
	u := &uses{
		setTyped: map[memberKey][]string{}, setByName: map[string][]string{},
		readTyped: map[memberKey]bool{}, readName: map[string]bool{},
		callTyped: map[memberKey]bool{}, callName: map[string]bool{},
		funcs: map[typeKey]bool{},
	}
	// fields holds every field name a module struct declares, and
	// funcFields those of a function type: a call x.F( reads such a field.
	fields, funcFields := map[string]bool{}, map[string]bool{}
	for _, td := range s.types {
		if st, ok := td.spec.Type.(*ast.StructType); ok {
			for _, fld := range st.Fields.List {
				_, isFunc := s.under(typ{fld.Type, td.sf}).expr.(*ast.FuncType)
				for _, n := range fld.Names {
					fields[n.Name] = true
					funcFields[n.Name] = funcFields[n.Name] || isFunc
				}
			}
		}
	}
	for _, sf := range s.files {
		for _, decl := range sf.f.Decls {
			u.walk(s, sf, decl, fields, funcFields)
		}
	}
	return u
}

// walk records what one top-level declaration does with the module's
// names.
func (u *uses) walk(s *source, sf *srcFile, decl ast.Decl, fields, funcFields map[string]bool) {
	sc := &scope{s: s, sf: sf, env: map[string]typ{}, locals: map[string]bool{}}
	var self *funcDecl
	if fd, ok := decl.(*ast.FuncDecl); ok {
		sc.bindFields(fd.Recv)
		sc.bindFields(fd.Type.Params)
		sc.bindFields(fd.Type.Results)
		if fd.Recv == nil {
			self = s.funcs[typeKey{sf.dir, fd.Name.Name}]
		} else if t, ok := sf.resolve(fd.Recv.List[0].Type); ok {
			self = s.methods[memberKey{t, fd.Name.Name}]
		}
	}
	called, written := map[*ast.SelectorExpr]bool{}, map[*ast.SelectorExpr]bool{}
	set := func(sel *ast.SelectorExpr) {
		if owner, _, ok := s.field(sc.typeOf(sel.X), sel.Sel.Name, 0); ok {
			k := memberKey{owner, sel.Sel.Name}
			u.setTyped[k] = append(u.setTyped[k], sf.rel)
			return
		}
		u.setByName[sel.Sel.Name] = append(u.setByName[sel.Sel.Name], sf.rel)
	}
	var visit func(n ast.Node) bool
	walk := func(n ast.Node) {
		if n != nil && !isNilNode(n) {
			ast.Inspect(n, visit)
		}
	}
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			// Its name is no use of itself.
			walk(x.Recv)
			walk(x.Type)
			walk(x.Body)
			return false
		case *ast.FuncLit:
			sc.bindFields(x.Type.Params)
			sc.bindFields(x.Type.Results)
		case *ast.CompositeLit:
			keys := literalKeys(x)
			if x.Type == nil {
				for _, k := range keys {
					u.setByName[k] = append(u.setByName[k], sf.rel)
				}
			} else if t, ok := s.named(sf, x.Type); ok {
				for _, k := range keys {
					mk := memberKey{t, k}
					if owner, _, ok := s.field(typ{x.Type, sf}, k, 0); ok {
						mk.typ = owner
					}
					u.setTyped[mk] = append(u.setTyped[mk], sf.rel)
				}
			}
			walk(x.Type)
			for _, e := range x.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if _, isIdent := kv.Key.(*ast.Ident); isIdent {
						walk(kv.Value)
						continue
					}
				}
				walk(e)
			}
			return false
		case *ast.ValueSpec:
			for _, v := range x.Values {
				walk(v)
			}
			if x.Type != nil {
				walk(x.Type)
				for _, name := range x.Names {
					sc.bind(name.Name, typ{x.Type, sf})
				}
			} else {
				sc.assign(x.Names, x.Values)
			}
			return false
		case *ast.AssignStmt:
			var defined []*ast.Ident
			for _, lhs := range x.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					set(sel)
					written[sel] = true
				}
				if id, ok := lhs.(*ast.Ident); ok {
					defined = append(defined, id)
				}
			}
			if x.Tok == token.DEFINE && len(defined) == len(x.Lhs) {
				// The right side is evaluated before the names exist.
				for _, r := range x.Rhs {
					walk(r)
				}
				sc.assign(defined, x.Rhs)
				return false
			}
		case *ast.RangeStmt:
			walk(x.X)
			sc.rangeOver(x)
			walk(x.Key)
			walk(x.Value)
			walk(x.Body)
			return false
		case *ast.TypeSwitchStmt:
			walk(x.Init)
			var v string
			if a, ok := x.Assign.(*ast.AssignStmt); ok {
				v = a.Lhs[0].(*ast.Ident).Name
				walk(a.Rhs[0])
			} else {
				walk(x.Assign)
			}
			for _, c := range x.Body.List {
				cc := c.(*ast.CaseClause)
				if v != "" {
					t := typ{}
					if len(cc.List) == 1 {
						t = typ{cc.List[0], sf}
					}
					sc.bind(v, t)
				}
				for _, st := range cc.Body {
					walk(st)
				}
			}
			return false
		case *ast.IncDecStmt:
			if sel, ok := x.X.(*ast.SelectorExpr); ok {
				set(sel)
				written[sel] = true
			}
		case *ast.UnaryExpr:
			// &x.F sets the field, as a flag binding does, and reads
			// it: whoever holds the pointer may.
			if sel, ok := x.X.(*ast.SelectorExpr); ok && x.Op == token.AND {
				set(sel)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		case *ast.SelectorExpr:
			walk(x.X)
			u.selector(s, sc, x, self, called[x], written[x], fields, funcFields)
			return false
		case *ast.Ident:
			if fd := sc.callee(x); fd != nil && fd != self {
				u.funcs[typeKey{sf.dir, x.Name}] = true
			}
		}
		return true
	}
	ast.Inspect(decl, visit)
}

// selector records one x.Name: a use of a package's function, a call or
// method value of a method, or a read of a field.
func (u *uses) selector(s *source, sc *scope, x *ast.SelectorExpr, self *funcDecl, called, written bool, fields, funcFields map[string]bool) {
	name := x.Sel.Name
	if dir, ok := sc.pkg(x.X); ok {
		u.funcs[typeKey{dir, name}] = true
		return
	}
	if _, ok := sc.external(x.X); ok {
		return
	}
	t := sc.typeOf(x.X)
	if !t.known() {
		switch {
		case called:
			u.callName[name] = true
			if funcFields[name] {
				u.readName[name] = true
			}
		case !written:
			u.readName[name] = true
			if !fields[name] {
				u.callName[name] = true // a method value
			}
		}
		return
	}
	if fd := s.method(t, name, 0); fd != nil {
		if fd != self {
			u.callTyped[memberKey{receiverKey(fd), name}] = true
		}
		return
	}
	if owner, _, ok := s.field(t, name, 0); ok {
		if !written && owner != (typeKey{}) {
			u.readTyped[memberKey{owner, name}] = true
		}
		return
	}
	// An interface's method, a standard library type's or one an
	// embedded interface promotes: any module method of the name may be
	// the one called.
	if !written {
		u.callName[name] = true
	}
}

// receiverKey names the type a method is declared on.
func receiverKey(fd *funcDecl) typeKey {
	t, _ := fd.sf.resolve(fd.decl.Recv.List[0].Type)
	return t
}

// isNilNode reports whether n is a typed nil, as a FuncDecl's absent
// receiver or body is.
func isNilNode(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FieldList:
		return x == nil
	case *ast.BlockStmt:
		return x == nil
	}
	return false
}
