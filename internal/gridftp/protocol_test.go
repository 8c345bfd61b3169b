package gridftp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// servedVerbs reads the words Server dispatches on off server.go: the
// string cases of the first-word switch in handle (the data headers;
// everything else goes to serveControl) and in serveControl (the
// control verbs).
func servedVerbs(t *testing.T) (control, data []string) {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := func(fn string) (words []string) {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						w, _ := strconv.Unquote(lit.Value)
						words = append(words, w)
					}
				}
				return true
			})
		}
		slices.Sort(words)
		return words
	}
	return cases("serveControl"), cases("handle")
}

// TestControlVerbTable drives the real Server through every control
// verb against an unknown token, with the wrong arity, with
// non-numeric, negative and overflowing arguments, and after the
// token's CLOSE, and holds each answer — and whether a token exists
// afterwards — to what the package comment says: only MANIFEST creates
// one. The words the protocol lost are unknown commands that create
// nothing.
func TestControlVerbTable(t *testing.T) {
	const huge = "99999999999999999999" // overflows int64
	type exchange struct{ cmd, want string }
	manifest := exchange{"MANIFEST tok 2\n10\n0", "OK"}
	closed := []exchange{manifest, {"CLOSE tok", "OK"}}
	rows := []struct {
		name   string
		sink   bool       // the server has a sink directory
		setup  []exchange // on the same control connection, before send
		send   string
		want   string // the first line of the answer
		tokens int    // Server.Tokens() afterwards
	}{
		{name: "START/unknown-token-is-none", send: "START tok", want: "NONE"},
		{name: "START/again-touches", setup: []exchange{manifest}, send: "START tok", want: "OK 0", tokens: 1},
		{name: "START/after-CLOSE-is-none", setup: closed, send: "START tok", want: "NONE"},
		{name: "START/no-token", send: "START", want: "ERR bad START"},
		{name: "START/old-channel-count", send: "START tok 4", want: "ERR bad START"},

		{name: "SETTLE/unknown-token-is-zeros", send: "SETTLE ghost 5", want: "SETTLED 0 0"},
		{name: "SETTLE/expect-0-at-once", setup: []exchange{manifest}, send: "SETTLE tok 0", want: "SETTLED 1 0", tokens: 1},
		{name: "SETTLE/after-CLOSE-is-zeros", setup: closed, send: "SETTLE tok 0", want: "SETTLED 0 0"},
		{name: "SETTLE/no-count", send: "SETTLE tok", want: "ERR bad SETTLE"},
		{name: "SETTLE/extra-argument", send: "SETTLE tok 1 2", want: "ERR bad SETTLE"},
		{name: "SETTLE/non-numeric", send: "SETTLE tok lots", want: "ERR bad SETTLE count"},
		{name: "SETTLE/negative", send: "SETTLE tok -1", want: "ERR bad SETTLE count"},
		{name: "SETTLE/overflow", send: "SETTLE tok " + huge, want: "ERR bad SETTLE count"},

		{name: "CLOSE/releases", setup: []exchange{manifest}, send: "CLOSE tok", want: "OK"},
		{name: "CLOSE/unknown-token", send: "CLOSE ghost", want: "OK"},
		{name: "CLOSE/after-CLOSE", setup: closed, send: "CLOSE tok", want: "OK"},
		{name: "CLOSE/no-token", send: "CLOSE", want: "ERR bad CLOSE"},
		{name: "CLOSE/extra-argument", setup: []exchange{manifest}, send: "CLOSE tok now", want: "ERR bad CLOSE", tokens: 1},

		{name: "MANIFEST/unknown-token-is-created", send: manifest.cmd, want: "OK", tokens: 1},
		{name: "MANIFEST/after-CLOSE-recreates", setup: closed, send: manifest.cmd, want: "OK", tokens: 1},
		{name: "MANIFEST/SINK", sink: true, send: "MANIFEST tok 1 SINK\n10", want: "OK", tokens: 1},
		{name: "MANIFEST/SINK-again", sink: true, setup: []exchange{{"MANIFEST tok 1 SINK\n10", "OK"}}, send: "MANIFEST tok 1 SINK\n10", want: "OK", tokens: 1},
		{name: "MANIFEST/SINK-without-a-sink-directory", send: "MANIFEST tok 1 SINK\n10", want: "ERR sink not configured"},
		{name: "MANIFEST/no-count", send: "MANIFEST tok", want: "ERR bad MANIFEST"},
		{name: "MANIFEST/unknown-flag", sink: true, send: "MANIFEST tok 1 DISK\n10", want: "ERR bad MANIFEST"},
		{name: "MANIFEST/extra-argument", sink: true, send: "MANIFEST tok 1 SINK now\n10", want: "ERR bad MANIFEST"},
		{name: "MANIFEST/non-numeric-count", send: "MANIFEST tok x", want: "ERR bad MANIFEST count"},
		{name: "MANIFEST/negative-count", send: "MANIFEST tok -1", want: "ERR bad MANIFEST count"},
		{name: "MANIFEST/count-over-the-bound", send: "MANIFEST tok 1048577", want: "ERR bad MANIFEST count"},
		{name: "MANIFEST/overflowing-count", send: "MANIFEST tok " + huge, want: "ERR bad MANIFEST count"},
		{name: "MANIFEST/non-numeric-size", send: "MANIFEST tok 1\nxyz", want: "ERR bad MANIFEST size"},
		{name: "MANIFEST/negative-size", send: "MANIFEST tok 1\n-5", want: "ERR bad MANIFEST size"},
		{name: "MANIFEST/overflowing-size", send: "MANIFEST tok 1\n" + huge, want: "ERR bad MANIFEST size"},

		{name: "OPEN/admits", setup: []exchange{manifest}, send: "OPEN tok 0", want: "ACK 0", tokens: 1},
		{name: "OPEN/unknown-token", send: "OPEN ghost 0", want: "ERR OPEN outside manifest"},
		{name: "OPEN/after-CLOSE", setup: closed, send: "OPEN tok 0", want: "ERR OPEN outside manifest"},
		{name: "OPEN/past-the-manifest", setup: []exchange{manifest}, send: "OPEN tok 2", want: "ERR OPEN outside manifest", tokens: 1},
		{name: "OPEN/spaced", setup: []exchange{manifest}, send: " OPEN  tok\t1 ", want: "ACK 1", tokens: 1},
		{name: "OPEN/no-index", send: "OPEN tok", want: "ERR bad OPEN"},
		{name: "OPEN/extra-field", setup: []exchange{manifest}, send: "OPEN tok 0 0", want: "ERR bad OPEN", tokens: 1},
		{name: "OPEN/non-numeric", setup: []exchange{manifest}, send: "OPEN tok x", want: "ERR bad OPEN index", tokens: 1},
		{name: "OPEN/negative", setup: []exchange{manifest}, send: "OPEN tok -1", want: "ERR bad OPEN index", tokens: 1},
		{name: "OPEN/overflow", setup: []exchange{manifest}, send: "OPEN tok " + huge, want: "ERR bad OPEN index", tokens: 1},

		{name: "RESYNC/nothing-received", setup: []exchange{manifest}, send: "RESYNC tok", want: "END", tokens: 1},
		{name: "RESYNC/unknown-token", send: "RESYNC ghost", want: "END"},
		{name: "RESYNC/after-CLOSE", setup: closed, send: "RESYNC tok", want: "END"},
		{name: "RESYNC/no-token", send: "RESYNC", want: "ERR bad RESYNC"},
		{name: "RESYNC/extra-argument", setup: []exchange{manifest}, send: "RESYNC tok 0", want: "ERR bad RESYNC", tokens: 1},

		{name: "DATAF/extra-argument", send: "DATAF tok 0", want: "ERR bad DATAF header"},

		// The raw byte stream's data handshake went with it: a stripe of
		// an older client is refused, its token neither created nor fed.
		{name: "DATA/no-token", send: "DATA", want: `ERR unknown command "DATA"`},
		{name: "DATA/is-gone", setup: []exchange{manifest}, send: "DATA tok", want: `ERR unknown command "DATA"`, tokens: 1},

		{name: "ADJ/is-gone", send: "ADJ tok 4", want: `ERR unknown command "ADJ"`},
		{name: "ADJ/is-gone-mid-connection", setup: []exchange{manifest}, send: "ADJ tok 4", want: `ERR unknown command "ADJ"`, tokens: 1},
		{name: "STAT/is-gone", send: "STAT tok", want: `ERR unknown command "STAT"`},
		{name: "FSTAT/is-gone", send: "FSTAT tok", want: `ERR unknown command "FSTAT"`},
		{name: "FSTAT/per-file-is-gone", setup: []exchange{manifest}, send: "FSTAT tok 0", want: `ERR unknown command "FSTAT"`, tokens: 1},
		{name: "SINK/is-gone", sink: true, send: "SINK tok", want: `ERR unknown command "SINK"`},
		{name: "SINK/is-gone-after-MANIFEST", sink: true, setup: []exchange{manifest}, send: "SINK tok", want: `ERR unknown command "SINK"`, tokens: 1},
	}

	control, data := servedVerbs(t)
	covered := map[string]bool{}
	for _, r := range rows {
		verb, _, _ := strings.Cut(r.name, "/")
		covered[verb] = true
	}
	for _, verb := range slices.Concat(control, data) {
		if !covered[verb] {
			t.Errorf("the server dispatches %s but no row of this table sends it", verb)
		}
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := startServer(t)
			sinkRoot := t.TempDir()
			if r.sink {
				s.SetSink(sinkRoot)
			}
			conn, br := dialCtrl(t, s)
			for _, e := range r.setup {
				roundTrip(t, conn, br, e.cmd, e.want)
			}
			roundTrip(t, conn, br, r.send, r.want)
			if strings.HasPrefix(r.want, "ERR") {
				// A refused command ends the connection: nothing more is
				// answered on it.
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				if line, err := readLine(br); err == nil || os.IsTimeout(err) {
					t.Fatalf("connection still open after %q (read %q, %v)", r.want, line, err)
				}
			}
			if got := s.Tokens(); got != r.tokens {
				t.Fatalf("Tokens = %d after %q, want %d", got, r.send, r.tokens)
			}
			made, err := os.ReadDir(sinkRoot)
			if err != nil {
				t.Fatal(err)
			}
			wantDirs := 0
			if r.sink && r.want == "OK" {
				wantDirs = 1
			}
			if len(made) != wantDirs {
				t.Fatalf("sink root holds %d directories after %q, want %d", len(made), r.send, wantDirs)
			}
		})
	}
}

// TestHostileFrameHeaderKeepsServing sends DATAF frame headers that are
// malformed, outside the manifest, or wide enough to wrap an int64,
// after a MANIFEST of one 10-byte file. Each one costs the sender its
// data connection with nothing answered and nothing credited, and the
// server goes on answering control verbs.
func TestHostileFrameHeaderKeepsServing(t *testing.T) {
	const wrap = "9999999999999999999" // 19 digits, past MaxInt64
	for _, hdr := range []string{
		"FILE " + wrap + " 0 10",
		"FILE 9223372036854775808 0 10",
		"FILE 0 " + wrap + " 10",
		"FILE 0 0 " + wrap,
		"FILE -1 0 10",
		"FILE 1 0 10",
		"FILE 2147483648 0 10",
		"FILE 0 0",
		"FILE 0  0 10",
		"FILE 0 0 10 0",
	} {
		t.Run(hdr, func(t *testing.T) {
			s := startServer(t)
			conn, br := dialCtrl(t, s)
			roundTrip(t, conn, br, "MANIFEST tok 1\n10", "OK")
			data, _ := dialCtrl(t, s)
			fmt.Fprintf(data, "DATAF tok\n%s\n0123456789", hdr)
			data.SetReadDeadline(time.Now().Add(2 * time.Second))
			if n, err := data.Read(make([]byte, 1)); n > 0 || err == nil || os.IsTimeout(err) {
				t.Fatalf("data connection after %q: read %d bytes, %v; want a hang-up", hdr, n, err)
			}
			roundTrip(t, conn, br, "RESYNC tok", "END")
			roundTrip(t, conn, br, "START tok", "OK 0")
		})
	}
}

// TestWireVerbsDocumented: the words the server dispatches on, the
// client-column words of the package comment's two protocol diagrams
// and the verb column of DESIGN.md §3b's table are the same set, so a
// verb cannot outlive its last sender in the docs, nor be served
// undocumented.
func TestWireVerbsDocumented(t *testing.T) {
	control, data := servedVerbs(t)
	if len(control) == 0 || len(data) == 0 {
		t.Fatalf("found control verbs %v and data headers %v in server.go", control, data)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "gridftp.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	inComment := firstWords(regexp.MustCompile(`(?m)^\t([A-Z]+) <token>`), file.Doc.Text())
	served := slices.Concat(control, data)
	slices.Sort(served)
	if !slices.Equal(inComment, served) {
		t.Errorf("the package comment's diagrams show %v, the server dispatches %v", inComment, served)
	}

	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 3b. ")
	if !ok {
		t.Fatal("DESIGN.md has no §3b")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	inTable := firstWords(regexp.MustCompile("(?m)^ *\\| `([A-Z]+) <token>"), section)
	if !slices.Equal(inTable, control) {
		t.Errorf("DESIGN.md §3b's verb table lists %v, the server's control verbs are %v", inTable, control)
	}
}

// firstWords returns the sorted, distinct first submatches of re in text.
func firstWords(re *regexp.Regexp, text string) (words []string) {
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		words = append(words, m[1])
	}
	slices.Sort(words)
	return slices.Compact(words)
}
