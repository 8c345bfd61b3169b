package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dstune/internal/gridftp"
	"dstune/internal/obs"
)

// parallelism is P, the cap on data connections and on concurrent
// submitters in every workload: min(nproc, 4). More clients than cores
// would measure the scheduler, not the program.
func parallelism() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns this process's resident-set high-water mark
// (VmHWM) in MiB, falling back to getrusage's ru_maxrss where /proc is
// not available. Every workload runs in a process of its own, so the
// mark never carries over from another workload.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// rssSampler reads this process's resident set every 10 ms while a timed
// pass runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

// startRSSSampler starts sampling.
func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if v, ok := currentRSSMiB(); ok {
					s.samples = append(s.samples, v)
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// currentRSSMiB reads the resident set from /proc/self/statm.
func currentRSSMiB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// fsType names the filesystem dir is on, for the report: durable-state
// workloads time fsync, and fsync on tmpfs costs a fortieth of fsync on
// a disk.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("filesystem type %#x", uint32(st.Type))
}

// roleEnv is the environment variable that turns a re-executed copy of
// this binary (the benchmark or its test binary) into a helper process
// instead of a benchmark run.
const roleEnv = "DSTUNE_BENCH_ROLE"

// sinkStats is what the gridftpd child reports about itself on request.
type sinkStats struct {
	// Bytes is gridftpd_bytes_received_total: payload bytes the server
	// counted, all tokens together.
	Bytes int64 `json:"bytes"`
	// CPU is the child's user+system CPU seconds so far.
	CPU float64 `json:"cpu_s"`
	// RSSMiB is the child's resident-set high-water mark.
	RSSMiB float64 `json:"rss_mib"`
}

// roleGridftpd is the receiving end of the socket workloads: the same
// server cmd/gridftpd runs (discard and count), in a process of its own
// so that its CPU and memory are read apart from the sender's. It
// prints "ADDR host:port", answers each "stats" line on stdin with one
// "STATS {json}" line, and shuts down when stdin closes.
func roleGridftpd() error {
	srv, err := gridftp.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	observer := obs.NewObserver(obs.ObserverConfig{})
	srv.SetObserver(observer)
	reg := observer.Registry()
	fmt.Printf("ADDR %s\n", srv.Addr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if strings.TrimSpace(in.Text()) != "stats" {
			continue
		}
		st := sinkStats{
			Bytes:  reg.Counter(obs.MetricServerBytes, "").Value(),
			CPU:    cpuSeconds(),
			RSSMiB: peakRSSMiB(),
		}
		line, err := json.Marshal(st)
		if err != nil {
			return err
		}
		fmt.Printf("STATS %s\n", line)
	}
	return srv.Close()
}

// sinkProc is a running gridftpd child.
type sinkProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	// Addr is the address the child listens on.
	Addr string
}

// startSink re-executes this binary as the gridftpd child and waits for
// its listen address.
func startSink() (*sinkProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=gridftpd")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &sinkProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := p.readLine(10 * time.Second)
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("bench: gridftpd child: %w", err)
	}
	addr, ok := strings.CutPrefix(line, "ADDR ")
	if !ok {
		p.stop()
		return nil, fmt.Errorf("bench: gridftpd child said %q, want ADDR", line)
	}
	p.Addr = addr
	return p, nil
}

// readLine reads one line of the child's stdout, giving up after d.
func (p *sinkProc) readLine(d time.Duration) (string, error) {
	type result struct {
		line string
		err  error
	}
	ch := make(chan result, 1) // one send; the reader never blocks
	go func() {
		line, err := p.out.ReadString('\n')
		ch <- result{strings.TrimSpace(line), err}
	}()
	select {
	case r := <-ch:
		return r.line, r.err
	case <-time.After(d):
		return "", fmt.Errorf("no answer within %v", d)
	}
}

// stats asks the child for its counters.
func (p *sinkProc) stats() (sinkStats, error) {
	var st sinkStats
	if _, err := io.WriteString(p.stdin, "stats\n"); err != nil {
		return st, err
	}
	line, err := p.readLine(10 * time.Second)
	if err != nil {
		return st, err
	}
	body, ok := strings.CutPrefix(line, "STATS ")
	if !ok {
		return st, fmt.Errorf("bench: gridftpd child said %q, want STATS", line)
	}
	return st, json.Unmarshal([]byte(body), &st)
}

// stop closes the child's stdin, which ends it, and waits for it; a
// child that does not exit within five seconds is killed.
func (p *sinkProc) stop() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() {
		p.cmd.Wait() //nolint:errcheck // exit status of a child we are discarding
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-done
	}
}
