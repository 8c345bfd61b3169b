package gridftp

import (
	"bytes"
	"context"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstune/internal/dataset"
	"dstune/internal/xfer"
)

// parentQueue is a test-only copy of the work queue that kept a
// remainder and two flags per file, and of the resync arithmetic
// around its applyServer: the reference FuzzFileQueue holds fileQueue
// to, lease for lease.
type parentQueue struct {
	mu       sync.Mutex
	sizes    []int64
	rem      []int64
	started  []bool
	inReady  []bool
	ready    []int32
	nextOpen int
	unleased int64
}

func newParentQueue(d dataset.Dataset) *parentQueue {
	n := d.Count()
	q := &parentQueue{
		sizes:    d.Sizes,
		rem:      make([]int64, n),
		started:  make([]bool, n),
		inReady:  make([]bool, n),
		unleased: d.TotalBytes(),
	}
	copy(q.rem, d.Sizes)
	return q
}

func (q *parentQueue) next(quantum int64) (idx int, off, n int64, wait bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i, ok := q.top(); ok {
		off, n = q.take(i, min(q.rem[i], quantum))
		return i, off, n, false
	}
	return 0, 0, 0, q.unleased > 0
}

func (q *parentQueue) nextRun(run []frameLease, budget, each int64) []frameLease {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(run) < cap(run) {
		i, ok := q.top()
		if !ok || q.rem[i] > min(each, budget) {
			break
		}
		budget -= q.rem[i]
		off, n := q.take(i, q.rem[i])
		run = append(run, frameLease{idx: i, off: off, n: n})
	}
	return run
}

func (q *parentQueue) top() (idx int, ok bool) {
	for len(q.ready) > 0 {
		i := q.ready[len(q.ready)-1]
		if q.rem[i] > 0 {
			return int(i), true
		}
		q.ready = q.ready[:len(q.ready)-1]
		q.inReady[i] = false
	}
	return 0, false
}

func (q *parentQueue) take(idx int, n int64) (off, taken int64) {
	off = q.sizes[idx] - q.rem[idx]
	q.rem[idx] -= n
	q.unleased -= n
	if q.rem[idx] <= 0 {
		q.ready = q.ready[:len(q.ready)-1]
		q.inReady[idx] = false
	}
	return off, n
}

func (q *parentQueue) requeue(idx int, n int64) {
	if n <= 0 {
		return
	}
	q.mu.Lock()
	q.rem[idx] += n
	q.unleased += n
	if q.started[idx] && !q.inReady[idx] {
		q.ready = append(q.ready, int32(idx))
		q.inReady[idx] = true
	}
	q.mu.Unlock()
}

func (q *parentQueue) admit(idx int) {
	if idx < 0 {
		return
	}
	q.mu.Lock()
	if idx < len(q.sizes) && !q.started[idx] {
		q.started[idx] = true
		if q.rem[idx] > 0 && !q.inReady[idx] {
			q.ready = append(q.ready, int32(idx))
			q.inReady[idx] = true
		}
	}
	q.mu.Unlock()
}

func (q *parentQueue) nextToOpen() (idx int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.nextOpen < len(q.sizes) {
		i := q.nextOpen
		q.nextOpen++
		if q.sizes[i] > 0 && !q.started[i] {
			return i, true
		}
	}
	return 0, false
}

func (q *parentQueue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.unleased == 0
}

// applyServer is the parent's, followed by the done count and useful
// total its resync computed from the same counts.
func (q *parentQueue) applyServer(got []int64) (done int, useful int64) {
	q.mu.Lock()
	q.ready = q.ready[:0]
	q.unleased = 0
	for i := range q.sizes {
		g := got[i]
		if g > q.sizes[i] {
			g = q.sizes[i]
		}
		if got[i] > 0 {
			q.started[i] = true
		}
		q.rem[i] = q.sizes[i] - g
		q.unleased += q.rem[i]
		q.inReady[i] = q.started[i] && q.rem[i] > 0
		if q.inReady[i] {
			q.ready = append(q.ready, int32(i))
		}
	}
	q.mu.Unlock()
	for i, g := range got {
		if g >= q.sizes[i] {
			done++
		}
		useful += min(g, q.sizes[i])
	}
	return done, useful
}

// opStream hands out a fuzz input a byte at a time, zeros once spent.
type opStream struct{ b []byte }

func (s *opStream) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// FuzzFileQueue drives fileQueue and the parent's queue through the
// same calls — leases single and coalesced, requeues of a lease's
// unsent tail, admissions in and out of the opener's order, and
// resyncs against a server's counts (partial, whole and over-received
// files among them) once no lease is out — and requires the same
// leases, the same answers and the same remainder for every file after
// each call. The path a lost control connection takes is held out: the
// parent had none.
func FuzzFileQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 10, 4, 200, 2, 7, 5, 0, 5, 0, 5, 0, 6, 0, 6, 0, 0, 9, 0, 9, 2, 1, 3, 7})
	f.Add([]byte{8, 5, 1, 5, 2, 5, 3, 5, 4, 3, 250, 0, 1, 0, 1, 1, 2, 40, 9, 1, 3, 8, 1, 2, 3, 4, 0, 0, 7, 7, 8, 0})
	// One 10-byte file leased in two halves, both requeued whole: its
	// remainder is its size again, in ready.
	f.Add([]byte{0, 10, 2, 5, 6, 0, 0, 2, 2, 0, 2, 2, 2, 0, 255, 2, 0, 255, 0, 255, 255, 7})
	f.Add([]byte{1, 5, 255, 4, 0, 0, 2, 0, 3, 0, 0, 4, 1, 1, 9, 9, 9, 8, 0, 3, 3, 3, 0, 255, 7, 1, 255, 0})
	seed := uint64(43)
	for range 8 {
		b := make([]byte, 400)
		for i := range b {
			b[i] = byte(splitmix64(&seed))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &opStream{b: in}
		sizes := make([]int64, 1+s.byte()%24)
		for i := range sizes {
			switch v := int64(s.byte()); s.byte() % 6 {
			case 0:
				sizes[i] = 0
			case 1:
				sizes[i] = 1
			case 2:
				sizes[i] = v
			case 3:
				sizes[i] = v*37 + 1
			case 4:
				sizes[i] = 4096 + v*131
			default:
				sizes[i] = 1<<20 + v
			}
		}
		ds := dataset.Dataset{Sizes: sizes}
		q, p := newFileQueue(ds), newParentQueue(ds)
		var out []frameLease // leased, neither sent nor requeued
		var opening []int    // opened, not yet admitted
		for step := 0; len(s.b) > 0 && step < 1000; step++ {
			switch op := s.byte() % 9; op {
			case 0:
				quantum := 1 + int64(s.byte())*int64(s.byte())
				i, off, n, wait := q.next(quantum)
				pi, poff, pn, pwait := p.next(quantum)
				if i != pi || off != poff || n != pn || wait != pwait {
					t.Fatalf("step %d: next(%d) = %d %d %d %v, parent %d %d %d %v", step, quantum, i, off, n, wait, pi, poff, pn, pwait)
				}
				if n > 0 {
					out = append(out, frameLease{idx: i, off: off, n: n})
				}
			case 1:
				k := 1 + int(s.byte()%6)
				budget, each := int64(s.byte())*100, int64(s.byte())*50
				run := q.nextRun(make([]frameLease, 0, k), budget, each)
				prun := p.nextRun(make([]frameLease, 0, k), budget, each)
				if !slices.Equal(run, prun) {
					t.Fatalf("step %d: nextRun(%d, %d, %d) = %v, parent %v", step, k, budget, each, run, prun)
				}
				out = append(out, run...)
			case 2, 3:
				if len(out) == 0 {
					continue
				}
				j := int(s.byte()) % len(out)
				l := out[j]
				out = append(out[:j], out[j+1:]...)
				if op == 2 {
					tail := int64(s.byte()) * l.n / 255
					q.requeue(l.idx, tail)
					p.requeue(l.idx, tail)
				}
			case 4:
				idx := int(s.byte())%(len(sizes)+2) - 1
				q.admit(idx)
				p.admit(idx)
			case 5:
				i, ok := q.nextToOpen()
				pi, pok := p.nextToOpen()
				if i != pi || ok != pok {
					t.Fatalf("step %d: nextToOpen = %d %v, parent %d %v", step, i, ok, pi, pok)
				}
				if ok {
					opening = append(opening, i)
				}
			case 6:
				if len(opening) == 0 {
					continue
				}
				j := int(s.byte()) % len(opening)
				q.admit(opening[j])
				p.admit(opening[j])
				opening = append(opening[:j], opening[j+1:]...)
			case 7:
				if q.drained() != p.drained() {
					t.Fatalf("step %d: drained %v, parent %v", step, q.drained(), p.drained())
				}
			case 8:
				if len(out) > 0 {
					continue // a resync runs quiesced
				}
				got := make([]int64, len(sizes))
				var counts serverCounts
				counts.reset(len(sizes))
				for i, sz := range sizes {
					switch v := int64(s.byte()); s.byte() % 4 {
					case 0:
						if v%2 == 1 {
							counts.set(i, 0, sz) // a line that says nothing
						}
					case 1:
						got[i] = v * sz / 256
					case 2:
						got[i] = sz
					case 3:
						got[i] = sz + 1 + v
						// An earlier line for the file, which the
						// last one overrides.
						counts.set(i, v, sz)
					}
					if got[i] > 0 {
						counts.set(i, got[i], sz)
					}
				}
				done, useful := q.applyServer(&counts)
				pdone, puseful := p.applyServer(got)
				if done != pdone || useful != puseful {
					t.Fatalf("step %d: resync of %v: %d files, %d bytes; parent %d, %d", step, got, done, useful, pdone, puseful)
				}
			}
			if q.unleased != p.unleased {
				t.Fatalf("step %d: %d bytes unleased, parent %d", step, q.unleased, p.unleased)
			}
			for i := range sizes {
				if r := q.rem(i); r != p.rem[i] || q.started.has(i) != p.started[i] {
					t.Fatalf("step %d: file %d remains %d (started %v), parent %d (%v)", step, i, r, q.started.has(i), p.rem[i], p.started[i])
				}
			}
		}
	})
}

// openCutter closes its connection right after the first write of a
// batch of OPENs, across every connection of one dialer: the control
// connection dies with those OPENs waiting for their ACKs.
type openCutter struct {
	net.Conn
	cut *atomic.Bool
}

func (c *openCutter) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err == nil && bytes.HasPrefix(p, []byte("OPEN ")) && c.cut.CompareAndSwap(false, true) {
		c.Conn.Close()
	}
	return n, err
}

// TestLostAcksAreReopened: OPENs lost with their control connection
// lose their ACKs, not their files. Those files go back to admission
// ahead of the cursor, are opened again on the next control
// connection, and the transfer finishes with every byte received once.
func TestLostAcksAreReopened(t *testing.T) {
	s := startServer(t)
	var cut atomic.Bool
	dial := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return &openCutter{Conn: conn, cut: &cut}, nil
	}
	ds := dataset.Uniform(200, 16<<10)
	c, err := NewClient(ClientConfig{Addr: s.Addr(), Dataset: ds, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var moved float64
	files := 0
	for epoch := 1; ; epoch++ {
		r, err := c.Run(context.Background(), xfer.Params{NC: 1, NP: 1, PP: 4}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		moved += r.Bytes
		files += r.Files
		if r.Done {
			break
		}
		if epoch == 11 {
			t.Fatalf("not done after %d epochs: %d of %d files, %v of %d bytes", epoch, files, ds.Count(), moved, ds.TotalBytes())
		}
	}
	if !cut.Load() {
		t.Fatal("the control connection was never cut")
	}
	if total := ds.TotalBytes(); moved != float64(total) || files != ds.Count() || s.Received(c.Token()) != total {
		t.Fatalf("moved %v bytes and %d files, server holds %d; want %d bytes, %d files", moved, files, s.Received(c.Token()), total, ds.Count())
	}
}
