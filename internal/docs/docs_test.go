package docs

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dstune/internal/experiment"
	"dstune/internal/tuner"
)

// TestCheckLinks exercises the link checker on a synthetic tree: good
// relative links, anchors, and external URLs pass; dangling targets
// are reported with file and line.
func TestCheckLinks(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "docs")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(dir, "README.md"), strings.Join([]string{
		"[good](docs/GUIDE.md)",
		"[anchor](docs/GUIDE.md#setup)",
		"[external](https://example.com/nope.md) [mail](mailto:x@y.z) [self](#top)",
		"[broken](docs/MISSING.md)",
	}, "\n"))
	write(filepath.Join(sub, "GUIDE.md"), "[up](../README.md)\n[bad](./gone.md)\n")

	problems, err := CheckLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`README.md:4: broken link "docs/MISSING.md"`,
		filepath.Join("docs", "GUIDE.md") + `:2: broken link "./gone.md"`,
	}
	if len(problems) != len(want) {
		t.Fatalf("got %d problems %q, want %d", len(problems), problems, len(want))
	}
	for i := range want {
		if problems[i] != want[i] {
			t.Errorf("problem %d = %q, want %q", i, problems[i], want[i])
		}
	}
}

// TestCheckExports exercises the godoc lint on a synthetic package:
// documented and unexported identifiers pass; undocumented exported
// functions, types, consts, fields, methods on exported types, and a
// missing package comment are reported.
func TestCheckExports(t *testing.T) {
	dir := t.TempDir()
	src := `package demo

// Documented is fine.
func Documented() {}

func Undocumented() {}

func unexported() {}

// Box is fine; its undocumented exported field is not.
type Box struct {
	Lid   int
	inner int
}

type Naked struct{}

// Grouped consts: the block doc covers both.
const (
	A = 1
	B = 2
)

const Loose = 3

// Method docs: Documented method fine, undocumented reported,
// methods on unexported receivers exempt.
func (Box) Sealed() {}

func (b Box) Open() {}

func (x hidden) Exported() {}

type hidden struct{}
`
	if err := os.WriteFile(filepath.Join(dir, "demo.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := CheckExports(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"package demo has no package comment",
		"exported function Undocumented is undocumented",
		"exported field Box.Lid is undocumented",
		"exported type Naked is undocumented",
		"exported const Loose is undocumented",
		"exported method Open is undocumented",
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, p := range problems {
			if strings.Contains(p, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding containing %q in %q", sub, problems)
		}
	}
	if len(problems) != len(wantSubstrings) {
		t.Errorf("got %d problems %q, want %d", len(problems), problems, len(wantSubstrings))
	}
	for _, p := range problems {
		if strings.Contains(p, "Sealed") || strings.Contains(p, "hidden") || strings.Contains(p, "Exported") {
			t.Errorf("unexpected finding %q", p)
		}
	}
}

// TestCheckFormat exercises the format lint on a synthetic tree: a
// gofmt-clean file passes, a misindented one, a misindented test file,
// a misindented fallback no host build selects and one that does not
// parse are reported, and testdata is not looked at.
func TestCheckFormat(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("clean.go", "package demo\n\nfunc F() {\n\treturn\n}\n")
	write("sub/ragged.go", "package demo\n\nfunc F() {\n  return\n}\n")
	write("sub/ragged_test.go", "package demo\n\nfunc G() {\n  return\n}\n")
	write("lock_other.go", "//go:build !unix\n\npackage demo\n\nfunc H() {\n  return\n}\n")
	write("broken.go", "package demo\n\nfunc F( {\n")
	write("testdata/ragged.go", "package demo\n\nfunc F() {\n  return\n}\n")

	problems, err := CheckFormat(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lock_other.go: not gofmt-formatted",
		filepath.Join("sub", "ragged.go") + ": not gofmt-formatted",
		filepath.Join("sub", "ragged_test.go") + ": not gofmt-formatted",
	}
	if len(problems) != 4 || !strings.HasPrefix(problems[0], "broken.go:") || !slices.Equal(problems[1:], want) {
		t.Fatalf("got problems %q, want broken.go's parse error and %q", problems, want)
	}
}

// TestCheckFacade exercises the facade lint on a synthetic module: a
// name a command uses, one only a godoc example uses, one only README.md
// mentions and a contract type pass; a re-export nothing refers to is
// reported, and so is one only a test uses; the facade's own package
// comment does not count as a reference.
func TestCheckFacade(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("dstune.go", `// Package dstune: call dstune.Orphan.
package dstune

type (
	Used     = int
	Box      = int
	Orphan   = int
	TestOnly = int
	Shown    = int
)

var InReadme = 1

func unexported() {}
`)
	write("cmd/tool/main.go", "package main\n\nimport \"dstune\"\n\nvar _ dstune.Used\n")
	write("README.md", "Start from `dstune.InReadme`.\n")
	write("dstune_test.go", "package dstune_test\n\nimport \"dstune\"\n\nvar _ dstune.TestOnly\n")
	write("example_test.go", "package dstune_test\n\nimport \"dstune\"\n\nfunc ExampleShown() { var _ dstune.Shown }\n")

	problems, err := CheckFacade(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 || !strings.HasPrefix(problems[0], "dstune.go:7: dstune.Orphan ") || !strings.HasPrefix(problems[1], "dstune.go:8: dstune.TestOnly ") {
		t.Fatalf("got problems %q, want Orphan at dstune.go:7 and TestOnly at dstune.go:8", problems)
	}
}

// TestCheckSettings exercises the settings lint on a synthetic module:
// a field set by a literal through a type alias, by a flag binding or by
// an assignment in another file passes, as does an exempt one; a field
// set only in its own file, a test or bench/ is reported, each struct's
// withDefaults setting its own Own field does not set the other's, and
// an exemption with no unset field is reported. On the read side a
// field read through a chain of typed fields, one read only by bench/
// and a function field read by calling it pass; a field that is only
// set is reported, and so is one whose only "reader" is a call of a
// method of its name or a read of another struct's namesake, Rate's
// through a slices.Clone(...)[0] included.
func TestCheckSettings(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.22\n")
	write("m.go", "package m\n\nimport \"m/internal/a\"\n\ntype AConfig = a.Config\n")
	write("internal/a/a.go", `package a

type Config struct {
	Set, Flag, Assigned int
	Own                 int
	TestOnly            int
	Bench               int
	Exempt              int
	Unread, BenchRead   int
	Label               string
	Hook                func() int
	Rate                int
	hidden              int
}

func (c Config) withDefaults() Config {
	c.Own, c.hidden = 1, 1
	return c
}

type Other struct{ Own int; Label string }

func (o Other) Name() string { return o.Label }

type Server struct{ cfg Config }

func (s *Server) use() int {
	var o Other
	_ = o.Name() + o.Label
	return s.cfg.Set + s.cfg.Flag + s.cfg.Assigned + s.cfg.Own + s.cfg.TestOnly + s.cfg.Bench + s.cfg.Exempt + s.cfg.Hook()
}
`)
	write("internal/a/a_test.go", "package a\n\nvar _ = Config{TestOnly: 1, Unread: 1}\n")
	write("internal/b/b.go", `package b

import "slices"

type BConfig struct{ Own int }

func (c *BConfig) fill() int { c.Own = 2; return c.Own }

type Label struct{}

func (Label) Label() string { return "" }

func call(l Label) string { return l.Label() }

type Link struct{ Rate int }

func rate(links []Link) int { return slices.Clone(links)[0].Rate }
`)
	write("bench/main.go", "package main\n\nimport \"m/internal/a\"\n\nvar c = a.Config{Bench: 1}\n\nvar _ = c.BenchRead\n")
	write("cmd/tool/main.go", `package main

import (
	"flag"

	"m"
	"m/internal/a"
)

func main() {
	cfg := m.AConfig{Set: 1, Unread: 2, BenchRead: 3, Label: "x", Hook: nil, Rate: 4}
	flag.IntVar(&cfg.Flag, "flag", 0, "")
	var x a.Config
	x.Assigned = 2
	_ = x
}
`)
	p, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	problems := CheckSettings(p, map[string]string{"a.Config.Exempt": "kept", "a.Config.Stale": "gone"})
	want := []string{
		"exemption a.Config.Stale ",
		"internal/a/a.go:10: a.Config.Label is read ",
		"internal/a/a.go:12: a.Config.Rate is read ",
		"internal/a/a.go:5: a.Config.Own is set ",
		"internal/a/a.go:6: a.Config.TestOnly is set ",
		"internal/a/a.go:7: a.Config.Bench is set ",
		"internal/a/a.go:9: a.Config.Unread is read ",
		"internal/b/b.go:5: b.BConfig.Own is set ",
	}
	slices.Sort(want)
	if len(problems) != len(want) {
		t.Fatalf("got problems %q, want %q", problems, want)
	}
	for i, p := range problems {
		if !strings.HasPrefix(p, want[i]) {
			t.Fatalf("problem %d = %q, want prefix %q (all: %q)", i, p, want[i], problems)
		}
	}
}

// TestCheckCallers exercises the callers lint on a synthetic module: a
// function called from another package, one used as a value, a method
// called on a typed field chain, through an embedded type or an
// interface, and one only bench/ calls pass, as does an exempt one and
// every facade name; a function only its own body and a test call, a
// method called only on another type's value, one whose only "call"
// is a read of a field of its name, and Fabric.Now, whose only "call"
// is an interface's Now that Fabric does not implement, are reported,
// and so is an exemption that names nothing unused.
func TestCheckCallers(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.22\n")
	write("dstune.go", "package m\n\nimport \"m/internal/p\"\n\nfunc Facade() *p.Path { return p.New() }\n")
	write("internal/p/p.go", `package p

type Path struct{}

type Cfg struct{ Name string }

func New() *Path { return &Path{} }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func Value() {}

func (p *Path) Rate() float64 { return 1 }
func (p *Path) Spare() float64 { return 2 }
func (p *Path) Name() string  { return "" }
func (p *Path) Bench() int     { return 3 }
func (p *Path) Kept() int      { return 4 }

type Flow struct{ Path }

func (f *Flow) Rate() float64 { return f.Path.Rate() }

type Stepper interface{ Step() }

type Clock struct{}

func (Clock) Step() {}

type Holder struct{ flow *Flow }

func (h Holder) Use(s Stepper, t Timer) float64 {
	s.Step()
	t.Reset()
	f := Value
	f()
	return h.flow.Rate() + h.flow.Path.Rate() + t.Now()
}

type Timer interface {
	Now() float64
	Reset()
}

type Wall struct{}

func (Wall) Now() float64 { return 0 }
func (Wall) Reset()       {}

type Fabric struct{}

func (*Fabric) Now() float64 { return 0 }
`)
	write("internal/p/p_test.go", "package p\n\nvar _ = Recursive(3) + int((&Path{}).Spare())\n")
	write("internal/q/q.go", `package q

import (
	"slices"

	"m/internal/p"
)

type Other struct{}

func (Other) Spare() float64 { return 0 }

func use(o Other, cs []p.Cfg) string {
	_ = o.Spare()
	return slices.Clone(cs)[0].Name
}

var _ = p.Holder{}.Use
`)
	write("bench/main.go", "package main\n\nimport \"m/internal/p\"\n\nfunc main() { p.New().Bench() }\n")
	p, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	problems := CheckCallers(p, map[string]string{"p.Path.Kept": "kept", "p.Gone": "gone"})
	want := []string{
		"exemption p.Gone ",
		"internal/p/p.go:56: p.Fabric.Now ",
		"internal/p/p.go:20: p.Path.Name ",
		"internal/p/p.go:9: p.Recursive ",
		"internal/p/p.go:19: p.Path.Spare ",
	}
	slices.Sort(want)
	if len(problems) != len(want) {
		t.Fatalf("got problems %q, want %q", problems, want)
	}
	for i, p := range problems {
		if !strings.HasPrefix(p, want[i]) {
			t.Fatalf("problem %d = %q, want prefix %q (all: %q)", i, p, want[i], problems)
		}
	}
}

// TestCheckFacadeRefs: a name dstune.go declares, a lower-case file
// name and a placeholder pass; a dstune.<Name> it does not declare is
// reported wherever a living document spells it — and nowhere in the
// history files.
func TestCheckFacadeRefs(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "dstune.go"), []byte("package dstune\n\nfunc Run() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	md := "Call `dstune.Run` (see dstune.go), not `dstune.<Name>`.\n\n\ttrace, err := dstune.Planted(cfg).Run(ctx, s, t)\n"
	for _, name := range []string{"README.md", "ROADMAP.md"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(md), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, err := FacadeNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := CheckQuoted(dir, FacadeRefs(names))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"README.md:3: dstune.Planted is not declared in dstune.go"}; !slices.Equal(problems, want) {
		t.Fatalf("got problems %q, want %q", problems, want)
	}
}

// TestCheckFigKeys: a known key, "all" and an upper-case placeholder
// pass; a key no study has is reported with its file and line.
func TestCheckFigKeys(t *testing.T) {
	dir := t.TempDir()
	md := "Run `figures -fig 5`, `-fig all` or `-fig KEY`.\n\nRegenerate: `go run ./cmd/figures -fig fig12`.\n"
	if err := os.WriteFile(filepath.Join(dir, "DOC.md"), []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := CheckQuoted(dir, FigKeys([]string{"5", "claims"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || problems[0] != "DOC.md:3: -fig fig12 names no study" {
		t.Fatalf("got problems %q, want only fig12 at DOC.md:3", problems)
	}
}

// TestCheckTunerNames: a known strategy behind the flag or the JSON
// key, an upper-case placeholder and a strategy's name in prose
// ("cs-tuner and") pass; an unknown one is reported wherever a living
// document quotes it — and nowhere in the history files.
func TestCheckTunerNames(t *testing.T) {
	dir := t.TempDir()
	md := "Run `dstune -tuner cs-tuner`, `-tuner NAME`; cs-tuner and nm-tuner agree.\n" +
		"`{\"tuner\": \"kernel-aware:cs-tuner\"}` or `{\"tuner\":\"warm:cs-tuner\"}`\n" +
		"\tdstune -tuner static -duration 60\n"
	for _, name := range []string{"DOC.md", "CHANGES.md"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(md), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	known := func(name string) bool { return name == "cs-tuner" || name == "kernel-aware:cs-tuner" }
	problems, err := CheckQuoted(dir, FigKeys(nil), TunerNames(known))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DOC.md:2: tuner warm:cs-tuner names no strategy", "DOC.md:3: tuner static names no strategy"}
	if !slices.Equal(problems, want) {
		t.Fatalf("got problems %q, want %q", problems, want)
	}
}

// TestCheckPackageRefs: a name its internal package declares, a
// qualifier that is no internal package, a test-only package's name and
// a fenced code block's local variable pass; a planted reference to the
// deleted compass-state mirror type is reported with its file and line
// in a living document, and nowhere in the history files.
func TestCheckPackageRefs(t *testing.T) {
	// Spelled in two pieces, so that a search of the tree for the
	// deleted type finds only the history files.
	const planted = "directsearch.Compass" + "State"
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/directsearch/compass.go", "package directsearch\n\ntype Compass struct{}\n\nfunc (Compass) Snapshot() {}\n")
	write("internal/trace/trace.go", "package trace\n\nfunc New() {}\n")
	write("internal/lint/lint_test.go", "package lint\n\nfunc Check() {}\n")
	write("internal/lint/ext_test.go", "package lint_test\n\nfunc Outside() {}\n")
	md := "`directsearch.Compass` searches; `json.Marshal` and `lint.Check` stay.\n\n" +
		"```go\ntrace, err := run()\nfmt.Println(trace.MeanThroughput())\n```\n\n" +
		"It snapshots to a `" + planted + "`; `lint.Outside` is not lint's.\n"
	write("DESIGN.md", md)
	write("CHANGES.md", md)
	decls, err := PackageDecls(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := CheckQuoted(dir, PackageRefs(decls))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DESIGN.md:8: " + planted + " is not declared in its package",
		"DESIGN.md:8: lint.Outside is not declared in its package",
	}
	if !slices.Equal(problems, want) {
		t.Fatalf("got problems %q, want %q", problems, want)
	}
}

// TestRepoDocs is the in-repo enforcement: the repository's own
// markdown links must resolve, its public packages must be fully
// documented, every Go file must be gofmt-clean, the facade must
// re-export nothing that goes unused, every exported Config field must
// be set and read and every exported function and method called by
// the product, every `-fig KEY` a document
// quotes must be a study, every `-tuner NAME` or `"tuner": "NAME"` a
// living document quotes a strategy, every `dstune.<Name>` one spells
// a name dstune.go declares, and every `<pkg>.<Name>` one writes in
// prose a name its internal package declares.
func TestRepoDocs(t *testing.T) {
	root := filepath.Join("..", "..")
	// The type-checked load runs beside the syntax lints.
	type loaded struct {
		prog *Program
		err  error
	}
	load := make(chan loaded, 1)
	go func() {
		prog, err := Load(root)
		load <- loaded{prog, err}
	}()
	links, err := CheckLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range links {
		t.Errorf("broken markdown link: %s", p)
	}
	pkgs := []string{".", "internal/tuner", "internal/xfer", "internal/gridftp", "internal/obs"}
	var dirs []string
	for _, p := range pkgs {
		dirs = append(dirs, filepath.Join(root, p))
	}
	exports, err := CheckExports(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range exports {
		t.Errorf("undocumented export: %s", p)
	}
	unformatted, err := CheckFormat(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range unformatted {
		t.Errorf("gofmt: %s", p)
	}
	orphans, err := CheckFacade(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		t.Errorf("facade: %s", p)
	}
	l := <-load
	if l.err != nil {
		t.Fatal(l.err)
	}
	for _, p := range CheckSettings(l.prog, settingExemptions) {
		t.Errorf("setting: %s", p)
	}
	for _, p := range CheckCallers(l.prog, callerExemptions) {
		t.Errorf("caller: %s", p)
	}
	var keys []string
	for _, s := range experiment.Studies() {
		keys = append(keys, s.Key)
	}
	names, err := FacadeNames(root)
	if err != nil {
		t.Fatal(err)
	}
	decls, err := PackageDecls(root, l.prog)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := CheckQuoted(root, FigKeys(keys), TunerNames(tuner.KnownStrategy), FacadeRefs(names), PackageRefs(decls))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		t.Errorf("stale name: %s", p)
	}
}
