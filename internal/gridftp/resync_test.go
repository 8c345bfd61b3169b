package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestResyncReadAllocs: a RESYNC answer for a table of 100 000 whole
// files is read without allocating — each line parsed where it lies in
// the reader's buffer, the counts reused from the last resync — where
// reading each line as a string and splitting it made two allocations a
// line.
func TestResyncReadAllocs(t *testing.T) {
	const n = 100_000
	sizes := make([]int64, n)
	var answer []byte
	for i := range sizes {
		sizes[i] = int64(1000 + i%7)
		answer = append(answer, "F "...)
		answer = strconv.AppendInt(answer, int64(i), 10)
		answer = append(answer, ' ')
		answer = append(strconv.AppendInt(answer, sizes[i], 10), '\n')
	}
	answer = append(answer, "END\n"...)
	var sc serverCounts
	rd := bytes.NewReader(answer)
	br := bufio.NewReaderSize(rd, maxLineLen+1)
	read := func() {
		rd.Reset(answer)
		br.Reset(rd)
		if err := sc.read(br, sizes); err != nil {
			t.Fatal(err)
		}
	}
	read() // the counts' first reset sizes them
	if allocs := testing.AllocsPerRun(5, read); allocs != 0 {
		t.Errorf("a RESYNC answer for %d whole files: %v allocations, want 0", n, allocs)
	}
	for i, sz := range sizes {
		if got, some := sc.held(i, sz); !some || got != sz {
			t.Fatalf("file %d: held %d (%v), want all %d", i, got, some, sz)
		}
	}
}

// TestResyncReadRefusesMalformed: every line of a RESYNC answer that is
// not "F <idx> <count>" for a file of the table, fields one space apart,
// is refused as a bad RESYNC response. Runs of spaces, which the reader
// that split lines on white space let through, are refused too.
func TestResyncReadRefusesMalformed(t *testing.T) {
	sizes := []int64{100, 200, 300}
	for _, line := range []string{
		"F 1",                      // a field short
		"F 1 2 3",                  // a field over
		"G 1 2",                    // a tag other than F
		"f 1 2",                    // the tag's case
		"F 1 -5",                   // a negative count
		"F -1 5",                   // a negative index
		"F 3 5",                    // an index past the table
		"F 1000000000 5",           // an index of ten digits
		"F 1 5x",                   // a non-digit in the count
		"F x 5",                    // a non-digit in the index
		"F 1 +5",                   // a sign
		"F 1 9999999999999999999",  // a count past int64
		"F 1 ",                     // an empty count
		"F  1 5",                   // two spaces
		"F 1  5",                   // two spaces
		" F 1 5",                   // a leading space
		"F\t1\t5",                  // tabs
		"",                         // an empty line
		"END ",                     // END with a trailing space
		"F 1 12345678901234567890", // a count of twenty digits
	} {
		var sc serverCounts
		br := bufio.NewReader(strings.NewReader("F 0 100\n" + line + "\nEND\n"))
		err := sc.read(br, sizes)
		if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "bad RESYNC response") {
			t.Errorf("%q: read returned %v, want a bad RESYNC response", line, err)
		}
	}
	var sc serverCounts
	br := bufio.NewReader(strings.NewReader("F 0 100\nF 1 50\nF 2 0\nF 1 200\nEND\n"))
	if err := sc.read(br, sizes); err != nil {
		t.Fatalf("a well-formed answer: %v", err)
	}
	for i, want := range []int64{100, 200, 0} {
		if got, _ := sc.held(i, sizes[i]); got != want {
			t.Errorf("file %d: held %d, want %d (a later line overrides)", i, got, want)
		}
	}
}
