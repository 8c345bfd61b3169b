package history

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenHistory mirrors FuzzLoadCheckpoint for the knowledge plane:
// no file content — truncation, interleaved garbage, binary damage —
// may make Open panic. Open either fails outright or returns a usable
// store whose accounting is consistent, and the recovered store must
// accept a fresh append and reload it.
func FuzzOpenHistory(f *testing.F) {
	f.Add([]byte(`{"key":{"endpoint":"uchicago","size_class":-1,"load_class":0},"x":[12],"throughput":2e8}` + "\n"))
	f.Add([]byte(`{"key":{"endpoint":"uchicago","size_class":-1,"load_class":5},"x":[20,4],"throughput":1e8,"tuner":"cs-tuner","epochs":40}` + "\n" +
		`{"key":{"endpoint":"tacc","size_class":12,"load_class":0},"x":[8],"throughput":5e8}` + "\n"))
	f.Add([]byte(`{"key":{"endpoint":"a","size_class":0,"load_class":0},"x":[2],"throughput":1}` + "\n" + `{"key":{"endpoint":"a","size_class":0,"load`))
	f.Add([]byte("not json\n{}\nnull\n"))
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"key":{"endpoint":"a"},"x":[-1],"throughput":1}` + "\n"))
	f.Add([]byte(`{"key":{"endpoint":"a"},"x":[2],"throughput":"fast"}` + "\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "history.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if s == nil {
			if err == nil {
				t.Fatal("Open returned neither a store nor an error")
			}
			return
		}
		defer s.Close()
		if err != nil && s.skipped == 0 {
			t.Fatalf("Open reported %v but skipped nothing", err)
		}
		// Every surviving record satisfies the Add invariants.
		for _, rec := range records(s, "") {
			if rec.Key.Endpoint == "" || len(rec.X) == 0 {
				t.Fatalf("invalid record survived load: %+v", rec)
			}
		}
		// The recovered store must keep working: append and reload.
		rec := Record{Key: Key{Endpoint: "fuzz", SizeClass: 1, LoadClass: 1}, X: []int{3}, Throughput: 7}
		if err := s.Add(rec); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		before := s.Len()
		s.Close()
		re, rerr := Open(path)
		if re == nil {
			t.Fatalf("reopen after recovery append: %v", rerr)
		}
		defer re.Close()
		if re.Len() != before {
			t.Fatalf("reload holds %d records, the recovered store held %d", re.Len(), before)
		}
		found := false
		for _, r := range records(re, "fuzz") {
			if len(r.X) == 1 && r.X[0] == 3 && r.Throughput == 7 {
				found = true
			}
		}
		if !found {
			t.Fatal("recovery append lost on reload")
		}
	})
}
