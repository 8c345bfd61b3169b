// Package docs implements the repository's documentation lints, which
// TestRepoDocs runs over the repository itself in `go test ./...`:
//
//   - CheckLinks walks the repo's markdown files and reports
//     intra-repo links whose targets do not exist;
//   - CheckExports parses Go packages and reports exported
//     identifiers that carry no doc comment, plus packages with no
//     package comment;
//   - CheckFormat reports Go files gofmt would rewrite;
//   - CheckFacade reports names the root package re-exports that no
//     product file, example or README.md refers to; it matches the
//     text, because README.md and the godoc examples are no product
//     package a type checker loads;
//   - CheckSettings reports exported fields of *Config structs that no
//     product file outside the struct's own sets — a value no caller
//     varies is a constant, not a setting — or that no product file
//     reads;
//   - CheckCallers reports exported functions and methods that no
//     product file uses: a name is exported because the product uses
//     it;
//   - CheckQuoted reports names quoted in markdown that the code no
//     longer has: a `-fig KEY` that is not a study cmd/figures knows
//     (FigKeys), a `-tuner NAME` or `"tuner": "NAME"` that is not a
//     strategy (TunerNames), a `dstune.<Name>` the root package does not
//     declare (FacadeRefs), a `<pkg>.<Name>` written in prose whose
//     internal package does not declare it (PackageRefs).
//
// CheckSettings and CheckCallers read one Load of the product code,
// which go/types checks in two build configurations, the host's and the
// host's with the dstune_nozerocopy tag, and they report from the type
// checker's uses and selections: a name never passes because a namesake
// is used. The !linux and !unix fallback files are in neither
// configuration, so a name only they use is reported; CI vets the
// !linux ones for darwin and linux/386, and the !unix ones for windows.
//
// All return findings as plain strings ("file:line: message") so
// callers can print or assert on them without any extra structure.
// Nothing imports the package, so every file of it is a test file.
package docs

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// linkRE matches inline markdown links and images: [text](target) and
// ![alt](target). Reference-style links are not used in this repo.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// eachFile calls visit with the root-relative path and the contents of
// every file under root whose name ends in suffix, skipping .git,
// testdata (fixtures may be malformed on purpose) and node_modules.
func eachFile(root, suffix string, visit func(rel string, data []byte)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), suffix) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		visit(rel, data)
		return nil
	})
}

// CheckLinks walks root for .md files (skipping .git and testdata)
// and reports links to intra-repo targets that do not exist. External
// links (with a URL scheme) and pure-anchor links are not checked;
// anchor fragments on file links are stripped before the existence
// check.
func CheckLinks(root string) ([]string, error) {
	var problems []string
	err := eachFile(root, ".md", func(rel string, data []byte) {
		dir := filepath.Dir(filepath.Join(root, rel))
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if i := strings.IndexAny(target, "#?"); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(target))); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", rel, i+1, m[1]))
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(problems)
	return problems, nil
}

// Quoted is one kind of name the documents quote, and what holds it to
// the code.
type Quoted struct {
	// RE matches one quotation; its first group is the name. Upper-case
	// placeholders (KEY, NAME) must not match.
	RE *regexp.Regexp
	// Known reports whether the code has the name.
	Known func(name string) bool
	// Problem words a finding; its one %s is the name.
	Problem string
	// History lists root-relative files that record the past and are not
	// held to the present.
	History []string
	// Prose, when set, skips the lines of fenced code blocks, whose
	// identifiers are the example's own.
	Prose bool
}

// FigKeys holds every `-fig KEY` quoted in prose or a code block to
// keys (experiment.Studies') and "all", in every markdown file, so that
// a study renamed or dropped cannot leave a regeneration command behind
// that no longer runs.
func FigKeys(keys []string) Quoted {
	return Quoted{
		RE:      regexp.MustCompile(`-fig ([a-z0-9][a-z0-9-]*)`),
		Known:   func(k string) bool { return k == "all" || slices.Contains(keys, k) },
		Problem: "-fig %s names no study",
	}
}

// historyDocs are the documents that tell what names once were; the
// name checks hold only the living documents to the present.
var historyDocs = []string{"CHANGES.md", "ROADMAP.md", "ISSUE.md"}

// TunerNames holds every `-tuner NAME` flag and `"tuner": "NAME"` JSON
// key quoted in the living documents to known (tuner.KnownStrategy).
func TunerNames(known func(name string) bool) Quoted {
	return Quoted{
		RE:      regexp.MustCompile(`(?:(?:^|[^a-z0-9])-tuner |"tuner": *")([a-z][a-z0-9:-]*)`),
		Known:   known,
		Problem: "tuner %s names no strategy",
		History: historyDocs,
	}
}

// facadeRef matches a reference to a facade name: dstune.<Name>.
var facadeRef = regexp.MustCompile(`\bdstune\.([A-Z]\w*)`)

// FacadeRefs holds every dstune.<Name> the living documents spell to
// names, the facade's declarations (FacadeNames), so that deleting a
// re-export cannot leave README's quickstart or a guide calling
// something that is gone — nothing compiles the documents' code.
func FacadeRefs(names map[string]int) Quoted {
	return Quoted{
		RE:      facadeRef,
		Known:   func(name string) bool { _, ok := names[name]; return ok },
		Problem: "dstune.%s is not declared in dstune.go",
		History: historyDocs,
	}
}

// PackageRefs holds every <pkg>.<Name> the living documents write
// outside a fenced code block, where <pkg> is a package in decls
// (PackageDecls), to a name that package declares, so that deleting an
// internal type cannot leave a design note describing it. Other
// qualifiers (json.Marshal, a local variable) are not looked at.
// bench/README.md changes only together with bench/, so the two stale
// names it still spells wait for the next change there.
func PackageRefs(decls map[string]map[string]bool) Quoted {
	return Quoted{
		RE: regexp.MustCompile(`\b([a-z][a-z0-9]*\.[A-Z]\w*)`),
		Known: func(ref string) bool {
			pkg, name, _ := strings.Cut(ref, ".")
			names, ok := decls[pkg]
			return !ok || names[name]
		},
		Problem: "%s is not declared in its package",
		History: append(slices.Clip(historyDocs), filepath.Join("bench", "README.md")),
		Prose:   true,
	}
}

// PackageDecls returns, by package name, the exported package-level
// names the files of every package under root/internal declare (test
// files too, for the test-only packages). A file prog parsed, if prog is
// not nil, is read from its parse; only the others — test files and the
// fallbacks no configuration builds — are parsed here.
func PackageDecls(root string, prog *Program) (map[string]map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(root, "internal", "*", "*.go"))
	if err != nil {
		return nil, err
	}
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		var f *ast.File
		if prog != nil {
			f = prog.files[path]
		}
		if f == nil {
			if f, err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
		}
		name := f.Name.Name
		if strings.HasSuffix(name, "_test") {
			continue
		}
		if decls[name] == nil {
			decls[name] = map[string]bool{}
		}
		for _, id := range exportedDecls(f) {
			decls[name][id.Name] = true
		}
	}
	return decls, nil
}

// CheckQuoted walks root for .md files and reports, for each kind,
// every quoted name the code does not have.
func CheckQuoted(root string, kinds ...Quoted) ([]string, error) {
	var problems []string
	err := eachFile(root, ".md", func(rel string, data []byte) {
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if t := strings.TrimSpace(line); strings.HasPrefix(t, "```") || strings.HasPrefix(t, "~~~") {
				fenced = !fenced
			}
			for _, q := range kinds {
				if slices.Contains(q.History, rel) || q.Prose && fenced {
					continue
				}
				for _, m := range q.RE.FindAllStringSubmatch(line, -1) {
					if !q.Known(m[1]) {
						problems = append(problems, fmt.Sprintf("%s:%d: "+q.Problem, rel, i+1, m[1]))
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(problems)
	return problems, nil
}

// CheckFormat walks root for .go files (skipping .git and testdata)
// and reports those whose bytes differ from what go/format — gofmt —
// makes of them. GOMAXPROCS goroutines format the files as the walk
// reads them.
func CheckFormat(root string) ([]string, error) {
	type file struct {
		rel string
		src []byte
	}
	files := make(chan file)
	var (
		mu       sync.Mutex
		problems []string
		wg       sync.WaitGroup
	)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range files {
				var problem string
				switch formatted, err := format.Source(f.src); {
				case err != nil:
					problem = fmt.Sprintf("%s: %v", f.rel, err)
				case !bytes.Equal(f.src, formatted):
					problem = fmt.Sprintf("%s: not gofmt-formatted", f.rel)
				default:
					continue
				}
				mu.Lock()
				problems = append(problems, problem)
				mu.Unlock()
			}
		}()
	}
	err := eachFile(root, ".go", func(rel string, src []byte) { files <- file{rel, src} })
	close(files)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	sort.Strings(problems)
	return problems, nil
}

// CheckExports parses the Go package in each dir (tests excluded) and
// reports exported identifiers without a doc comment: package-level
// functions, types, constants, variables, methods on exported types,
// and exported fields of exported structs. A const/var/type block's
// doc comment covers all its specs. Each package must also carry a
// package comment on at least one file.
func CheckExports(dirs ...string) ([]string, error) {
	var problems []string
	for _, dir := range dirs {
		p, err := checkPackage(dir)
		if err != nil {
			return nil, err
		}
		problems = append(problems, p...)
	}
	sort.Strings(problems)
	return problems, nil
}

// checkPackage lints one package directory.
func checkPackage(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			problems = append(problems, checkFile(fset, f)...)
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return problems, nil
}

// checkFile lints one parsed file's top-level declarations.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "exported %s %s is undocumented", funcKind(d), d.Name.Name)
			}
		case *ast.GenDecl:
			checkGenDecl(d, report)
		}
	}
	return problems
}

// checkGenDecl lints one type/const/var declaration. A doc comment on
// the decl block covers every spec inside it.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, ...any)) {
	covered := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !covered && s.Doc == nil {
				report(s.Pos(), "exported type %s is undocumented", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				checkFields(s.Name.Name, st, report)
			}
		case *ast.ValueSpec:
			if covered || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), "exported %s %s is undocumented", strings.ToLower(d.Tok.String()), name.Name)
				}
			}
		}
	}
}

// checkFields lints the exported fields of an exported struct type.
func checkFields(typeName string, st *ast.StructType, report func(token.Pos, string, ...any)) {
	for _, field := range st.Fields.List {
		if field.Doc != nil || field.Comment != nil {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				report(name.Pos(), "exported field %s.%s is undocumented", typeName, name.Name)
			}
		}
	}
}

// receiverExported reports whether d is a plain function or a method
// whose receiver type is exported — methods on unexported types are
// invisible in godoc and exempt.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch rt := t.(type) {
		case *ast.StarExpr:
			t = rt.X
		case *ast.IndexExpr: // generic receiver
			t = rt.X
		case *ast.Ident:
			return rt.IsExported()
		default:
			return true
		}
	}
}

// funcKind names a FuncDecl for messages: "function" or "method".
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// facadeContract lists the facade names kept although nothing in the
// repository refers to them: the types a Strategy implemented outside
// this module must spell.
var facadeContract = map[string]bool{
	"Strategy": true, "Report": true, "Params": true, "Transferer": true, "Box": true,
}

// facade is the root package's one file.
const facade = "dstune.go"

// FacadeNames parses root/dstune.go and returns the line of every
// exported package-level name it declares.
func FacadeNames(root string) (map[string]int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(root, facade), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]int{}
	for _, id := range exportedDecls(f) {
		names[id.Name] = fset.Position(id.Pos()).Line
	}
	return names, nil
}

// exportedDecls returns the exported package-level names f declares:
// functions, types, constants and variables (not methods).
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	add := func(name *ast.Ident) {
		if name.IsExported() {
			ids = append(ids, name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						add(name)
					}
				}
			}
		}
	}
	return ids
}

// CheckFacade reports every name FacadeNames finds that no product
// .go file other than dstune.go, no godoc example (example_test.go) and
// not README.md refers to as dstune.<Name> — the facade re-exports what
// a command, an example, the benchmark or a reader uses and nothing
// else; a test imports the internal packages. The facadeContract types
// are excepted.
func CheckFacade(root string) ([]string, error) {
	names, err := FacadeNames(root)
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	collect := func(rel string, data []byte) {
		if rel == facade || strings.HasSuffix(rel, "_test.go") && filepath.Base(rel) != "example_test.go" {
			return
		}
		for _, m := range facadeRef.FindAllSubmatch(data, -1) {
			used[string(m[1])] = true
		}
	}
	if err := eachFile(root, ".go", collect); err != nil {
		return nil, err
	}
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}
	collect("README.md", readme)

	var problems []string
	for name, line := range names {
		if !used[name] && !facadeContract[name] {
			problems = append(problems, fmt.Sprintf("%s:%d: dstune.%s is referenced by no product .go file, no example and not by README.md", facade, line, name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}
